//! Property-based tests of the graph abstractions.

use graphs::bfs::multi_source_bfs;
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
        edges in prop::collection::vec((0usize..30, 0usize..30), 0..100),
        num_nodes in 1usize..30,
        source in 0usize..30,
    ) {
        let source = source % num_nodes;
        let adj: Vec<Vec<usize>> = {
            let mut adj = vec![Vec::new(); num_nodes];
            for &(a, b) in &edges {
                let (a, b) = (a % num_nodes, b % num_nodes);
                if a != b {
                    adj[a].push(b);
                }
            }
            adj
        };
        let r = multi_source_bfs(num_nodes, &[source], None, |n| adj[n].clone(), |_| true);
        prop_assert_eq!(r.distance[source], 0);
        // relaxation check: no edge can shortcut a BFS distance by more than 1
        for (a, succs) in adj.iter().enumerate() {
            if r.distance[a] == u32::MAX { continue; }
            for &b in succs {
                prop_assert!(r.distance[b] <= r.distance[a] + 1);
            }
        }
        // every reached non-source node has an in-neighbour one step closer
        for n in 0..num_nodes {
            if n != source && r.reached(n) {
                let closer = (0..num_nodes).any(|a| {
                    adj[a].contains(&n) && r.reached(a) && r.distance[a] + 1 == r.distance[n]
                });
                prop_assert!(closer, "node {} has no in-neighbour one step closer", n);
            }
        }
    }

    #[test]
    fn bfs_early_exit_matches_a_full_search_on_its_targets(
        edges in prop::collection::vec((0usize..40, 0usize..40), 0..120),
        num_nodes in 1usize..40,
        sources in prop::collection::vec(0usize..40, 1..5),
        targets in prop::collection::vec(0usize..45, 0..8),
        blocked in prop::collection::vec(0usize..40, 0..6),
    ) {
        let mut adj = vec![Vec::new(); num_nodes];
        for &(a, b) in &edges {
            adj[a % num_nodes].push(b % num_nodes);
        }
        let sources: Vec<usize> = sources.iter().map(|s| s % num_nodes).collect();
        let traverse = |n: usize| !blocked.contains(&n);
        let full = multi_source_bfs(num_nodes, &sources, None, |n| adj[n].iter().copied(), traverse);
        let early =
            multi_source_bfs(num_nodes, &sources, Some(&targets), |n| adj[n].iter().copied(), traverse);
        for &t in targets.iter().filter(|&&t| t < num_nodes) {
            prop_assert_eq!(early.distance[t], full.distance[t], "distance of {}", t);
            prop_assert_eq!(early.source[t], full.source[t], "source of {}", t);
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
