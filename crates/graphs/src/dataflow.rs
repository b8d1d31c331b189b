//! `Gdf`: the block-level dataflow graph with block-flow and macro-flow edges.
//!
//! The dataflow graph is built from [`SeqGraph`] once hierarchical
//! declustering has decided which sequential elements belong to which block
//! (Sect. IV-D).  Every node is either a block or a multi-bit port; every
//! edge carries two latency→bits histograms:
//!
//! * **block flow** (`E_df^b`): a BFS starts simultaneously from all
//!   components of block *i* and traverses only *glue logic* (sequential
//!   elements not assigned to any block). When a component of block *j* is
//!   reached, the bit width of its predecessor on the path is added to the
//!   bin of the path latency.
//! * **macro flow** (`E_df^m`): the same process between the *macros* of the
//!   blocks, allowing the search to cross every sequential element except
//!   macros.

use crate::affinity::AffinityMatrix;
use crate::histogram::FlowHistogram;
use crate::seqgraph::{SeqGraph, SeqNodeId, SeqNodeKind};
use netlist::HeapSize;
use std::collections::VecDeque;

/// Assignment of sequential-graph nodes to dataflow blocks.
///
/// `block_of[s]` is the block index of sequential node `s`, or `None` when
/// the node is glue logic (not part of any block). Port nodes should also be
/// `None`; they become their own dataflow nodes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockAssignment {
    /// Number of blocks.
    pub num_blocks: usize,
    /// Block index per sequential node (indexed by `SeqNodeId`).
    pub block_of: Vec<Option<usize>>,
    /// Human-readable block names (hierarchy paths), one per block.
    pub block_names: Vec<String>,
}

impl BlockAssignment {
    /// Creates an assignment where every node is glue logic.
    pub fn empty(gseq: &SeqGraph, num_blocks: usize) -> Self {
        Self {
            num_blocks,
            block_of: vec![None; gseq.num_nodes()],
            block_names: (0..num_blocks).map(|i| format!("block_{i}")).collect(),
        }
    }

    /// Assigns a sequential node to a block.
    ///
    /// # Panics
    ///
    /// Panics if the block index is out of range.
    pub fn assign(&mut self, node: SeqNodeId, block: usize) {
        assert!(block < self.num_blocks, "block index out of range");
        self.block_of[node.0 as usize] = Some(block);
    }

    /// Block of a node, if any.
    pub fn block(&self, node: SeqNodeId) -> Option<usize> {
        self.block_of[node.0 as usize]
    }

    /// All sequential nodes assigned to `block`.
    pub fn members(&self, block: usize) -> Vec<SeqNodeId> {
        self.block_of
            .iter()
            .enumerate()
            .filter_map(|(i, b)| (*b == Some(block)).then_some(SeqNodeId(i as u32)))
            .collect()
    }
}

/// A node of the dataflow graph.
#[derive(Debug, Clone, PartialEq)]
pub enum DataflowNode {
    /// A block of the current floorplanning level.
    Block {
        /// Block index (into the [`BlockAssignment`]).
        index: usize,
        /// Block name.
        name: String,
    },
    /// A multi-bit primary port.
    Port {
        /// The sequential node of the port array.
        seq_node: SeqNodeId,
        /// Port base name.
        name: String,
        /// Bit width.
        width: u64,
    },
}

impl DataflowNode {
    /// Name of the node (block name or port base name).
    pub fn name(&self) -> &str {
        match self {
            DataflowNode::Block { name, .. } => name,
            DataflowNode::Port { name, .. } => name,
        }
    }

    /// Returns `true` for block nodes.
    pub fn is_block(&self) -> bool {
        matches!(self, DataflowNode::Block { .. })
    }
}

/// An edge of the dataflow graph, holding the two flow histograms.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct DataflowEdge {
    /// Block-flow histogram (paths through glue logic only).
    pub block_flow: FlowHistogram,
    /// Macro-flow histogram (macro-to-macro paths through any non-macro node).
    pub macro_flow: FlowHistogram,
}

impl DataflowEdge {
    /// Blended affinity: `λ·score(block_flow) + (1−λ)·score(macro_flow)`.
    pub fn affinity(&self, lambda: f64, k: u32) -> f64 {
        lambda * self.block_flow.score(k) + (1.0 - lambda) * self.macro_flow.score(k)
    }

    /// Returns `true` when neither histogram carries any flow.
    pub fn is_empty(&self) -> bool {
        self.block_flow.is_empty() && self.macro_flow.is_empty()
    }
}

/// The dataflow graph `Gdf`.
///
/// Nodes `0..num_blocks` are the blocks (in [`BlockAssignment`] order),
/// followed by one node per multi-bit port array.
#[derive(Debug, Clone, PartialEq)]
pub struct DataflowGraph {
    nodes: Vec<DataflowNode>,
    /// Flat row-major edge map: `edges[i * n + j]` is the edge `i → j`.
    edges: Vec<DataflowEdge>,
    num_blocks: usize,
}

/// Parameters for dataflow-graph construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DataflowConfig {
    /// Maximum latency explored by the flow searches (BFS depth bound).
    pub max_latency: u32,
    /// Minimum port width for a port array to become a dataflow node.
    pub min_port_bits: u64,
}

impl Default for DataflowConfig {
    fn default() -> Self {
        Self { max_latency: 8, min_port_bits: 1 }
    }
}

impl DataflowGraph {
    /// Builds the dataflow graph for a given block assignment.
    pub fn build(gseq: &SeqGraph, assignment: &BlockAssignment, config: &DataflowConfig) -> Self {
        let num_blocks = assignment.num_blocks;
        let mut nodes: Vec<DataflowNode> = (0..num_blocks)
            .map(|i| DataflowNode::Block {
                index: i,
                name: assignment
                    .block_names
                    .get(i)
                    .cloned()
                    .unwrap_or_else(|| format!("block_{i}")),
            })
            .collect();
        // port nodes (only those not swallowed by a block and wide enough)
        let mut df_of_seq: Vec<Option<usize>> = vec![None; gseq.num_nodes()];
        for (id, node) in gseq.iter() {
            if node.kind == SeqNodeKind::Port
                && assignment.block(id).is_none()
                && node.width >= config.min_port_bits
            {
                df_of_seq[id.0 as usize] = Some(nodes.len());
                nodes.push(DataflowNode::Port {
                    seq_node: id,
                    name: node.name.clone(),
                    width: node.width,
                });
            }
        }
        // blocks: map member seq nodes to their block's df index
        for (i, b) in assignment.block_of.iter().enumerate() {
            if let Some(block) = b {
                df_of_seq[i] = Some(*block);
            }
        }

        let n = nodes.len();
        let mut edges = vec![DataflowEdge::default(); n * n];
        // The member sequential nodes of every dataflow node, bucketed once
        // by a stable sort, so each bucket lists its sources in `Gseq` id
        // order, as a scan over all `Gseq` nodes would.
        let mut members: Vec<usize> =
            (0..gseq.num_nodes()).filter(|&s| df_of_seq[s].is_some()).collect();
        members.sort_by_key(|&s| df_of_seq[s]);
        let buckets = || {
            members.chunk_by(|&a, &b| df_of_seq[a] == df_of_seq[b]).map(|sources| {
                (df_of_seq[sources[0]].expect("members have a dataflow node"), sources)
            })
        };
        let mut search = FlowSearch::new(gseq.num_nodes());

        // ---- block flow ---------------------------------------------------
        // For every dataflow node, BFS from all its member sequential nodes,
        // traversing only glue logic (seq nodes with no dataflow node).
        for (src_df, sources) in buckets() {
            search.run(
                gseq,
                sources,
                |s| df_of_seq[s].is_none(), // traverse glue only
                |s| df_of_seq[s],
                config.max_latency,
                |dst_df, latency, bits| {
                    if dst_df != src_df {
                        edges[src_df * n + dst_df].block_flow.add(latency, bits);
                    }
                },
            );
        }

        // ---- macro flow ---------------------------------------------------
        // For every block, BFS from its macros, traversing every node except
        // macros, recording hits on macros of other blocks.
        let is_macro: Vec<bool> = (0..gseq.num_nodes())
            .map(|i| gseq.node(SeqNodeId(i as u32)).kind == SeqNodeKind::Macro)
            .collect();
        let mut sources = Vec::new();
        for (src_df, members) in buckets() {
            sources.clear();
            sources.extend(members.iter().copied().filter(|&s| is_macro[s]));
            if sources.is_empty() {
                continue;
            }
            search.run(
                gseq,
                &sources,
                |s| !is_macro[s], // traverse anything but macros
                |s| if is_macro[s] { df_of_seq[s] } else { None },
                config.max_latency,
                |dst_df, latency, bits| {
                    if dst_df != src_df {
                        edges[src_df * n + dst_df].macro_flow.add(latency, bits);
                    }
                },
            );
        }

        Self { nodes, edges, num_blocks }
    }

    /// Number of dataflow nodes (blocks + ports).
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Number of block nodes.
    pub fn num_blocks(&self) -> usize {
        self.num_blocks
    }

    /// Node accessor.
    pub fn node(&self, idx: usize) -> &DataflowNode {
        &self.nodes[idx]
    }

    /// Iterates over all nodes.
    pub fn nodes(&self) -> impl Iterator<Item = &DataflowNode> + '_ {
        self.nodes.iter()
    }

    /// Edge accessor (`from`, `to` are dense node indices).
    pub fn edge(&self, from: usize, to: usize) -> &DataflowEdge {
        let n = self.nodes.len();
        debug_assert!(from < n && to < n, "edge index ({from}, {to}) out of {n}");
        &self.edges[from * n + to]
    }

    /// The symmetric affinity matrix for a given λ and k: entry `(i, j)` is
    /// the blended score of the edges `i→j` and `j→i` added together.
    pub fn affinity_matrix(&self, lambda: f64, k: u32) -> AffinityMatrix {
        let n = self.nodes.len();
        let mut m = AffinityMatrix::zeros(n);
        for i in 0..n {
            for j in 0..n {
                if i == j {
                    continue;
                }
                let a = self.edges[i * n + j].affinity(lambda, k)
                    + self.edges[j * n + i].affinity(lambda, k);
                m.set(i, j, a);
            }
        }
        m
    }
}

/// The flow searches of one [`DataflowGraph::build`]: one distance buffer
/// and one queue shared by every search. A distance counts only when its
/// stamp is the current search's, so no search clears the buffer.
struct FlowSearch {
    epoch: u32,
    /// `(stamp, distance)` per `Gseq` node.
    dist: Vec<(u32, u32)>,
    queue: VecDeque<usize>,
}

impl FlowSearch {
    fn new(num_nodes: usize) -> Self {
        Self { epoch: 0, dist: vec![(0, 0); num_nodes], queue: VecDeque::new() }
    }

    /// BFS from `sources`, continuing through nodes for which `can_traverse`
    /// is true, and invoking `record(dst, latency, bits)` whenever
    /// `target_of` maps a reached node to a dataflow node.  `bits` is the
    /// width of the predecessor node on the path, per the paper.
    fn run<T, G, R>(
        &mut self,
        gseq: &SeqGraph,
        sources: &[usize],
        mut can_traverse: T,
        mut target_of: G,
        max_latency: u32,
        mut record: R,
    ) where
        T: FnMut(usize) -> bool,
        G: FnMut(usize) -> Option<usize>,
        R: FnMut(usize, u32, u64),
    {
        // a build runs two searches per dataflow node, far fewer than 2^32
        self.epoch += 1;
        let Self { epoch, dist, queue } = self;
        let epoch = *epoch;
        for &s in sources {
            if dist[s].0 != epoch {
                dist[s] = (epoch, 0);
                queue.push_back(s);
            }
        }
        while let Some(u) = queue.pop_front() {
            let du = dist[u].1;
            if du >= max_latency {
                continue;
            }
            // sources always expand; interior nodes only when traversable
            if du != 0 && !can_traverse(u) {
                continue;
            }
            let u_width = gseq.node(SeqNodeId(u as u32)).width;
            for &(v, edge_bits) in gseq.successors(SeqNodeId(u as u32)) {
                if dist[v].0 == epoch {
                    continue;
                }
                dist[v] = (epoch, du + 1);
                if let Some(dst_df) = target_of(v) {
                    // width of the predecessor on the path, bounded by the
                    // actual wires on the final hop
                    let bits = u_width.min(edge_bits).max(1);
                    record(dst_df, du + 1, bits);
                }
                queue.push_back(v);
            }
        }
    }
}

impl HeapSize for BlockAssignment {
    fn heap_bytes(&self) -> usize {
        self.block_of.heap_bytes() + self.block_names.heap_bytes()
    }
}

impl HeapSize for DataflowNode {
    fn heap_bytes(&self) -> usize {
        match self {
            DataflowNode::Block { name, .. } | DataflowNode::Port { name, .. } => name.heap_bytes(),
        }
    }
}

impl HeapSize for DataflowEdge {
    fn heap_bytes(&self) -> usize {
        self.block_flow.heap_bytes() + self.macro_flow.heap_bytes()
    }
}

impl HeapSize for DataflowGraph {
    fn heap_bytes(&self) -> usize {
        self.nodes.heap_bytes() + self.edges.heap_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seqgraph::SeqGraphConfig;
    use netlist::design::{Design, DesignBuilder};

    /// The Fig. 2 system: four macro blocks A..D communicating through a
    /// standard-cell block X.  A feeds B and C through registers in X; B and C
    /// feed D through registers in X.
    fn fig2_design() -> Design {
        let mut b = DesignBuilder::new("fig2");
        let make_macro = |b: &mut DesignBuilder, blk: &str| {
            b.add_macro(format!("u_{blk}/mac"), "MAC", 100, 100, format!("u_{blk}"))
        };
        let ma = make_macro(&mut b, "a");
        let mb = make_macro(&mut b, "b");
        let mc = make_macro(&mut b, "c");
        let md = make_macro(&mut b, "d");
        // X holds two 8-bit pipeline registers between A→{B,C} and {B,C}→D
        let connect_through_reg = |b: &mut DesignBuilder, from, to: Vec<_>, tag: &str| {
            for i in 0..8u32 {
                let f = b.add_flop(format!("u_x/{tag}_reg[{i}]"), "u_x");
                let n_in = b.add_net(format!("u_x/{tag}_in_{i}"));
                b.connect_driver(n_in, from);
                b.connect_sink(n_in, f);
                for &t in &to {
                    let n_out = b.add_net(format!("u_x/{tag}_out_{i}"));
                    b.connect_driver(n_out, f);
                    b.connect_sink(n_out, t);
                }
            }
        };
        connect_through_reg(&mut b, ma, vec![mb, mc], "axbc");
        connect_through_reg(&mut b, mb, vec![md], "bxd");
        connect_through_reg(&mut b, mc, vec![md], "cxd");
        b.build()
    }

    fn fig2_assignment(gseq: &SeqGraph) -> BlockAssignment {
        // blocks: 0=A, 1=B, 2=C, 3=D, 4=X (the register block)
        let mut asg = BlockAssignment::empty(gseq, 5);
        asg.block_names = vec!["A".into(), "B".into(), "C".into(), "D".into(), "X".into()];
        for (id, node) in gseq.iter() {
            let block = if node.hier_path.starts_with("u_a") {
                Some(0)
            } else if node.hier_path.starts_with("u_b") {
                Some(1)
            } else if node.hier_path.starts_with("u_c") {
                Some(2)
            } else if node.hier_path.starts_with("u_d") {
                Some(3)
            } else if node.hier_path.starts_with("u_x") {
                Some(4)
            } else {
                None
            };
            if let Some(blk) = block {
                asg.assign(id, blk);
            }
        }
        asg
    }

    #[test]
    fn block_flow_sees_only_direct_neighbours() {
        let d = fig2_design();
        let gseq = SeqGraph::from_design(&d, &SeqGraphConfig::default());
        let asg = fig2_assignment(&gseq);
        let gdf = DataflowGraph::build(&gseq, &asg, &DataflowConfig::default());
        // A communicates with X directly (block flow), but not with B at the
        // block-flow level because the X registers belong to a block.
        assert!(!gdf.edge(0, 4).block_flow.is_empty(), "A -> X block flow");
        assert!(gdf.edge(0, 1).block_flow.is_empty(), "A -> B has no block flow");
    }

    #[test]
    fn macro_flow_connects_macros_across_blocks() {
        let d = fig2_design();
        let gseq = SeqGraph::from_design(&d, &SeqGraphConfig::default());
        let asg = fig2_assignment(&gseq);
        let gdf = DataflowGraph::build(&gseq, &asg, &DataflowConfig::default());
        // macro flow crosses the X registers: A -> B and A -> C at latency 2
        assert!(!gdf.edge(0, 1).macro_flow.is_empty(), "A -> B macro flow");
        assert!(!gdf.edge(0, 2).macro_flow.is_empty(), "A -> C macro flow");
        assert_eq!(gdf.edge(0, 1).macro_flow.min_latency(), Some(2));
        // X has no macros, so it has no outgoing macro flow
        assert!(gdf.edge(4, 3).macro_flow.is_empty());
        // and there is no direct A -> D macro flow at latency <= 2... it appears at latency 4
        let a_to_d = &gdf.edge(0, 3).macro_flow;
        assert!(a_to_d.is_empty() || a_to_d.min_latency() >= Some(4));
    }

    #[test]
    fn affinity_blends_block_and_macro_flow() {
        let d = fig2_design();
        let gseq = SeqGraph::from_design(&d, &SeqGraphConfig::default());
        let asg = fig2_assignment(&gseq);
        let gdf = DataflowGraph::build(&gseq, &asg, &DataflowConfig::default());
        let m_block_only = gdf.affinity_matrix(1.0, 1);
        let m_macro_only = gdf.affinity_matrix(0.0, 1);
        // with block flow only, A-B affinity is zero; with macro flow it is positive
        assert_eq!(m_block_only.get(0, 1), 0.0);
        assert!(m_macro_only.get(0, 1) > 0.0);
        // A-X affinity is positive for block flow, zero for macro flow
        assert!(m_block_only.get(0, 4) > 0.0);
        assert_eq!(m_macro_only.get(0, 4), 0.0);
        // blended matrix is symmetric
        let m = gdf.affinity_matrix(0.5, 1);
        for i in 0..m.len() {
            for j in 0..m.len() {
                assert!((m.get(i, j) - m.get(j, i)).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn ports_become_dataflow_nodes() {
        use netlist::design::PortDirection;
        let mut b = DesignBuilder::new("t");
        let m = b.add_macro("u_a/mac", "MAC", 10, 10, "u_a");
        for i in 0..4 {
            let p = b.add_port(format!("din[{i}]"), PortDirection::Input);
            let n = b.add_net(format!("n{i}"));
            b.connect_port_driver(n, p);
            b.connect_sink(n, m);
        }
        let d = b.build();
        let gseq = SeqGraph::from_design(&d, &SeqGraphConfig::default());
        let mut asg = BlockAssignment::empty(&gseq, 1);
        asg.block_names = vec!["A".into()];
        for (id, node) in gseq.iter() {
            if node.kind == SeqNodeKind::Macro {
                asg.assign(id, 0);
            }
        }
        let gdf = DataflowGraph::build(&gseq, &asg, &DataflowConfig::default());
        assert_eq!(gdf.num_nodes(), 2); // block A + port din
        assert!(!gdf.node(1).is_block());
        assert!(!gdf.edge(1, 0).block_flow.is_empty(), "port -> block flow recorded");
    }

    #[test]
    fn lambda_extremes_select_single_flow() {
        let mut e = DataflowEdge::default();
        e.block_flow.add(1, 10);
        e.macro_flow.add(1, 100);
        assert_eq!(e.affinity(1.0, 1), 10.0);
        assert_eq!(e.affinity(0.0, 1), 100.0);
        assert_eq!(e.affinity(0.5, 1), 55.0);
    }
}
