//! Property-based tests of the graph abstractions.

use graphs::bfs::{multi_source_bfs, BfsScratch};
use graphs::seqgraph::SeqGraphConfig;
use graphs::{FlowHistogram, NetGraph, SeqGraph};
use netlist::design::DesignBuilder;
use proptest::prelude::*;

proptest! {
    #[test]
    fn histogram_score_monotone_in_k_and_bits(
        bins in prop::collection::vec((1u32..10, 1u64..1000), 1..10)
    ) {
        let h: FlowHistogram = bins.iter().copied().collect();
        // score never increases with k
        for k in 0..4 {
            prop_assert!(h.score(k) + 1e-9 >= h.score(k + 1));
        }
        // score at k=0 equals total bits
        prop_assert!((h.score(0) - h.total_bits() as f64).abs() < 1e-6);
        // adding flow can only increase the score
        let mut bigger = h.clone();
        bigger.add(1, 10);
        prop_assert!(bigger.score(2) > h.score(2));
    }

    #[test]
    fn histogram_merge_is_commutative(
        a_bins in prop::collection::vec((1u32..8, 1u64..100), 0..8),
        b_bins in prop::collection::vec((1u32..8, 1u64..100), 0..8),
    ) {
        let a: FlowHistogram = a_bins.iter().copied().collect();
        let b: FlowHistogram = b_bins.iter().copied().collect();
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        prop_assert_eq!(ab, ba);
    }

    #[test]
    fn bfs_distances_are_shortest_on_random_dags(
        edges in prop::collection::vec((0u32..30, 0u32..30), 0..100),
        num_nodes in 1u32..30,
        source in 0u32..30,
    ) {
        let source = source % num_nodes;
        let n = num_nodes as usize;
        let adj: Vec<Vec<u32>> = {
            let mut adj = vec![Vec::new(); n];
            for &(a, b) in &edges {
                let (a, b) = (a % num_nodes, b % num_nodes);
                if a != b {
                    adj[a as usize].push(b);
                }
            }
            adj
        };
        let mut r = BfsScratch::default();
        multi_source_bfs(&mut r, n, &[source], None, |v| adj[v].clone(), |_| true);
        prop_assert_eq!(r.distance(source as usize), Some(0));
        // relaxation check: no edge can shortcut a BFS distance by more than 1
        for (a, succs) in adj.iter().enumerate() {
            let Some(da) = r.distance(a) else { continue };
            for &b in succs {
                prop_assert!(r.distance(b as usize).is_some_and(|db| db <= da + 1));
            }
        }
        // every reached non-source node has an in-neighbour one step closer
        for v in 0..n {
            if v != source as usize && r.reached(v) {
                let closer = (0..n).any(|a| {
                    adj[a].contains(&(v as u32))
                        && r.distance(a).is_some_and(|da| Some(da + 1) == r.distance(v))
                });
                prop_assert!(closer, "node {} has no in-neighbour one step closer", v);
            }
        }
    }

    #[test]
    fn bfs_early_exit_matches_a_full_search_on_its_targets(
        edges in prop::collection::vec((0u32..40, 0u32..40), 0..120),
        num_nodes in 1u32..40,
        sources in prop::collection::vec(0u32..40, 1..5),
        targets in prop::collection::vec(0u32..45, 0..8),
        blocked in prop::collection::vec(0usize..40, 0..6),
    ) {
        let n = num_nodes as usize;
        let mut adj = vec![Vec::new(); n];
        for &(a, b) in &edges {
            adj[(a % num_nodes) as usize].push(b % num_nodes);
        }
        let sources: Vec<u32> = sources.iter().map(|s| s % num_nodes).collect();
        let traverse = |v: usize| !blocked.contains(&v);
        // one scratch for both searches: the early exit runs on slots the
        // full search left behind
        let mut scratch = BfsScratch::default();
        multi_source_bfs(&mut scratch, n, &sources, None, |v| adj[v].iter().copied(), traverse);
        let full: Vec<(Option<u32>, Option<u32>)> =
            (0..n).map(|v| (scratch.distance(v), scratch.source(v))).collect();
        multi_source_bfs(
            &mut scratch,
            n,
            &sources,
            Some(&targets),
            |v| adj[v].iter().copied(),
            traverse,
        );
        for &t in targets.iter().filter(|&&t| (t as usize) < n) {
            let t = t as usize;
            prop_assert_eq!(scratch.distance(t), full[t].0, "distance of {}", t);
            prop_assert_eq!(scratch.source(t), full[t].1, "source of {}", t);
        }
    }

    #[test]
    fn seq_graph_width_conservation(
        num_regs in 1usize..6,
        bits in 1u64..12,
    ) {
        // a chain of register arrays, each `bits` wide, feeding the next
        let mut b = DesignBuilder::new("chain");
        let mut stages: Vec<Vec<_>> = Vec::new();
        for s in 0..num_regs {
            let stage: Vec<_> = (0..bits)
                .map(|i| b.add_flop(format!("u/s{s}_reg[{i}]"), "u"))
                .collect();
            stages.push(stage);
        }
        for s in 1..num_regs {
            let pairs: Vec<_> =
                stages[s - 1].iter().copied().zip(stages[s].iter().copied()).collect();
            for (i, (src, dst)) in pairs.into_iter().enumerate() {
                let n = b.add_net(format!("n{s}_{i}"));
                b.connect_driver(n, src);
                b.connect_sink(n, dst);
            }
        }
        let design = b.build();
        let gseq = SeqGraph::from_design(&design, &SeqGraphConfig::default());
        prop_assert_eq!(gseq.num_nodes(), num_regs);
        prop_assert_eq!(gseq.num_edges(), num_regs - 1);
        for (id, node) in gseq.iter() {
            prop_assert_eq!(node.width, bits);
            for &(_, w) in gseq.successors(id) {
                prop_assert_eq!(w, bits);
            }
        }
    }

    #[test]
    fn netgraph_edge_count_matches_net_degrees(
        edges in prop::collection::vec((0usize..20, 0usize..20), 1..60),
    ) {
        let mut b = DesignBuilder::new("g");
        let cells: Vec<_> = (0..20).map(|i| b.add_comb(format!("c{i}"), "")).collect();
        let mut expected = std::collections::HashSet::new();
        for (i, &(from, to)) in edges.iter().enumerate() {
            if from == to { continue; }
            let n = b.add_net(format!("n{i}"));
            b.connect_driver(n, cells[from]);
            b.connect_sink(n, cells[to]);
            expected.insert((from, to));
        }
        let design = b.build();
        let g = NetGraph::from_design(&design);
        prop_assert_eq!(g.num_edges(), expected.len());
    }
}

/// A builder-made design over `kinds.len()` cells (`kind % 3`: comb, flop,
/// macro), `num_ports` ports (even ones inputs) and `num_nets` nets, wired by
/// `ops` in order: `(op % 4, net, end)` connects cell or port `end` as a
/// driver (0, 2) or sink (1, 3) of `net`. Flops are named as the bits of
/// three register arrays and ports as the bits of one bus, so `Gseq` has
/// arrays to cluster. A net may get several driving cells (each replacing
/// the last, the earlier ones keeping their fanout entries), a cell that
/// drives it again, a driving port beside a driving cell, and many sinks.
fn random_design(
    kinds: &[u8],
    num_ports: usize,
    num_nets: usize,
    ops: &[(u8, usize, usize)],
) -> netlist::design::Design {
    use netlist::design::PortDirection;
    let mut b = DesignBuilder::new("random");
    let cells: Vec<_> = kinds
        .iter()
        .enumerate()
        .map(|(i, kind)| match kind % 3 {
            0 => b.add_comb(format!("u/g{i}"), "u"),
            1 => b.add_flop(format!("u/r{}_reg[{i}]", i % 3), "u"),
            _ => b.add_macro(format!("u/m{i}"), "RAM", 10, 10, "u"),
        })
        .collect();
    let ports: Vec<_> = (0..num_ports)
        .map(|i| {
            let dir = if i % 2 == 0 { PortDirection::Input } else { PortDirection::Output };
            b.add_port(format!("bus[{i}]"), dir)
        })
        .collect();
    let nets: Vec<_> = (0..num_nets).map(|i| b.add_net(format!("n{i}"))).collect();
    for &(op, net, end) in ops {
        let net = nets[net % num_nets];
        match op % 4 {
            0 => b.connect_driver(net, cells[end % cells.len()]),
            1 => b.connect_sink(net, cells[end % cells.len()]),
            2 if num_ports > 0 => b.connect_port_driver(net, ports[end % num_ports]),
            3 if num_ports > 0 => b.connect_port_sink(net, ports[end % num_ports]),
            _ => &mut b,
        };
    }
    b.build()
}

/// Whether every row of `g` lists in-range nodes in strictly increasing
/// order (sorted, no duplicates).
fn netgraph_rows_are_canonical(g: &NetGraph) -> bool {
    let n = g.num_nodes();
    (0..n).all(|i| {
        [g.successors(i), g.predecessors(i)]
            .iter()
            .all(|row| row.iter().all(|&v| (v as usize) < n) && row.windows(2).all(|w| w[0] < w[1]))
    })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256 })]

    #[test]
    fn netgraph_matches_the_reference_on_random_designs(
        kinds in prop::collection::vec(0u8..3, 1..24),
        num_ports in 0usize..6,
        num_nets in 1usize..16,
        ops in prop::collection::vec((0u8..4, 0usize..16, 0usize..32), 0..80),
    ) {
        let design = random_design(&kinds, num_ports, num_nets, &ops);
        let g = NetGraph::from_design(&design);
        prop_assert_eq!(&g, &NetGraph::from_design_reference(&design));
        prop_assert!(netgraph_rows_are_canonical(&g));
        let preds: usize = (0..g.num_nodes()).map(|i| g.predecessors(i).len()).sum();
        prop_assert_eq!(preds, g.num_edges());
    }
}
