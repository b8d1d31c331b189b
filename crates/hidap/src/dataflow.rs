//! Dataflow inference for one floorplanning level (Sect. IV-D).
//!
//! Builds the block assignment for the level's blocks (plus the surrounding
//! *fixed* context: primary ports and already-placed blocks of enclosing
//! levels), constructs the dataflow graph `Gdf` and derives the affinity
//! matrix `Maff` used by layout generation.

use crate::block::BlockSet;
use crate::config::HidapConfig;
use geometry::Point;
use graphs::dataflow::DataflowConfig;
use graphs::{AffinityMatrix, BlockAssignment, DataflowGraph, SeqGraph};
use netlist::dense::DenseMap;
use netlist::design::{CellId, Design};

/// A fixed dataflow context node: a group of cells that already has a known
/// location (a block placed at an enclosing hierarchy level).
#[derive(Debug, Clone, PartialEq)]
pub struct FixedGroup {
    /// Display name.
    pub name: String,
    /// Known location (center of the placed block).
    pub position: Point,
    /// Cells belonging to the group.
    pub cells: Vec<CellId>,
}

/// The dataflow view of one floorplanning level.
#[derive(Debug, Clone, PartialEq)]
pub struct LevelDataflow {
    /// The dataflow graph. Nodes `0..num_movable` are the level's blocks (in
    /// [`BlockSet`] order), followed by fixed context blocks, followed by
    /// multi-bit port nodes.
    pub graph: DataflowGraph,
    /// Affinity matrix `Maff` for the configured λ and k (symmetric, flat
    /// row-major storage).
    pub affinity: AffinityMatrix,
    /// Fixed position of every dataflow node (`None` for the movable blocks).
    pub fixed_positions: Vec<Option<Point>>,
    /// Number of movable blocks.
    pub num_movable: usize,
}

impl LevelDataflow {
    /// Affinity between two dataflow nodes.
    pub fn affinity_between(&self, a: usize, b: usize) -> f64 {
        self.affinity.get(a, b)
    }

    /// Total affinity from a movable block towards all fixed nodes, weighted
    /// by nothing — a convenience for reporting.
    pub fn external_pull(&self, block: usize) -> f64 {
        self.affinity.row(block)[self.num_movable..self.graph.num_nodes()].iter().sum()
    }
}

/// Runs dataflow inference for one level.
///
/// * `blocks` — the movable blocks produced by declustering,
/// * `fixed_groups` — already-placed context (sibling blocks of enclosing
///   levels) with their positions,
/// * `gseq` — the sequential graph of the whole design (built once per flow).
pub fn dataflow_inference(
    design: &Design,
    gseq: &SeqGraph,
    blocks: &BlockSet,
    fixed_groups: &[FixedGroup],
    config: &HidapConfig,
) -> LevelDataflow {
    let num_movable = blocks.len();
    let num_assigned_blocks = num_movable + fixed_groups.len();

    // cell -> assigned block index (movable blocks first, then fixed groups),
    // as a dense per-cell store so the per-node lookups below stay flat
    let mut cell_block: DenseMap<CellId, Option<u32>> = DenseMap::with_len(design.num_cells());
    for (id, block) in blocks.iter() {
        for &c in &block.cells {
            cell_block[c] = Some(id.0 as u32);
        }
    }
    for (i, group) in fixed_groups.iter().enumerate() {
        for &c in &group.cells {
            if cell_block[c].is_none() {
                cell_block[c] = Some((num_movable + i) as u32);
            }
        }
    }

    let mut assignment = BlockAssignment::empty(gseq, num_assigned_blocks);
    assignment.block_names = blocks
        .blocks
        .iter()
        .map(|b| b.name.clone())
        .chain(fixed_groups.iter().map(|g| g.name.clone()))
        .collect();
    for (id, node) in gseq.iter() {
        // a sequential node belongs to the block that owns any of its cells
        let block = node.cells.iter().find_map(|&c| cell_block[c]);
        if let Some(b) = block {
            assignment.assign(id, b as usize);
        }
    }

    let df_config = DataflowConfig { max_latency: config.max_flow_latency, min_port_bits: 1 };
    let graph = DataflowGraph::build(gseq, &assignment, &df_config);
    let affinity = graph.affinity_matrix(config.lambda, config.score_k);

    // Fixed positions: movable blocks have none; fixed groups use their given
    // position; port nodes use the port location (or the die center when the
    // ports have not been placed yet).
    let die = design.die();
    let die_center = die.center();
    let mut fixed_positions: Vec<Option<Point>> = vec![None; graph.num_nodes()];
    for (i, group) in fixed_groups.iter().enumerate() {
        fixed_positions[num_movable + i] = Some(group.position);
    }
    for (idx, fixed_position) in fixed_positions.iter_mut().enumerate() {
        if let graphs::DataflowNode::Port { seq_node, .. } = graph.node(idx) {
            let node = gseq.node(*seq_node);
            let mut sum = Point::origin();
            let mut count = 0;
            for &p in &node.ports {
                if let Some(pos) = design.port(p).position {
                    sum = sum + pos;
                    count += 1;
                }
            }
            *fixed_position =
                Some(if count > 0 { Point::new(sum.x / count, sum.y / count) } else { die_center });
        }
    }

    LevelDataflow { graph, affinity, fixed_positions, num_movable }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decluster::hierarchical_declustering;
    use crate::shape_curves::ShapeCurveSet;
    use geometry::Rect;
    use graphs::seqgraph::SeqGraphConfig;
    use netlist::design::{DesignBuilder, PortDirection};
    use netlist::hierarchy::HierarchyTree;

    /// Two macro blocks joined by a wide register pipeline, plus an input port
    /// bus feeding block A.
    fn pipeline_design() -> Design {
        let mut b = DesignBuilder::new("t");
        let ma = b.add_macro("u_a/ram", "RAM", 100, 100, "u_a");
        let mb = b.add_macro("u_b/ram", "RAM", 100, 100, "u_b");
        for i in 0..16 {
            let f = b.add_flop(format!("u_glue/pipe_reg[{i}]"), "u_glue");
            let n0 = b.add_net(format!("a2p_{i}"));
            let n1 = b.add_net(format!("p2b_{i}"));
            b.connect_driver(n0, ma);
            b.connect_sink(n0, f);
            b.connect_driver(n1, f);
            b.connect_sink(n1, mb);
        }
        for i in 0..8 {
            let p = b.add_port(format!("din[{i}]"), PortDirection::Input);
            b.place_port(p, Point::new(0, 10 * i as i64));
            let n = b.add_net(format!("din_net_{i}"));
            b.connect_port_driver(n, p);
            b.connect_sink(n, ma);
        }
        b.set_die(Rect::new(0, 0, 1000, 1000));
        b.build()
    }

    fn level(design: &Design, lambda: f64) -> (BlockSet, LevelDataflow) {
        let config = HidapConfig { lambda, ..HidapConfig::fast() };
        let ht = HierarchyTree::from_design(design);
        let curves = ShapeCurveSet::generate(design, &ht, &config);
        let blocks = hierarchical_declustering(design, &ht, &curves, ht.root(), &config);
        let gseq = SeqGraph::from_design(design, &SeqGraphConfig { min_register_bits: 1 });
        let df = dataflow_inference(design, &gseq, &blocks, &[], &config);
        (blocks, df)
    }

    #[test]
    fn movable_blocks_come_first_and_ports_are_fixed() {
        let d = pipeline_design();
        let (blocks, df) = level(&d, 0.5);
        assert_eq!(df.num_movable, blocks.len());
        assert_eq!(df.num_movable, 2);
        // one port node (din), fixed at the average port position
        assert_eq!(df.graph.num_nodes(), 3);
        assert!(df.fixed_positions[2].is_some());
        assert!(df.fixed_positions[0].is_none());
        let port_pos = df.fixed_positions[2].unwrap();
        assert_eq!(port_pos.x, 0);
    }

    #[test]
    fn macro_flow_links_the_two_blocks() {
        let d = pipeline_design();
        let (_, df) = level(&d, 0.0); // macro flow only
        let a = 0;
        let b = 1;
        assert!(df.affinity_between(a, b) > 0.0, "macro flow should link A and B");
    }

    #[test]
    fn block_flow_links_block_to_port() {
        let d = pipeline_design();
        let (blocks, df) = level(&d, 1.0); // block flow only
        let a_idx = blocks.blocks.iter().position(|b| b.name == "u_a").unwrap();
        assert!(df.external_pull(a_idx) > 0.0, "block A should be pulled towards the din port");
    }

    #[test]
    fn fixed_groups_become_fixed_nodes() {
        let d = pipeline_design();
        let config = HidapConfig::fast();
        let ht = HierarchyTree::from_design(&d);
        let curves = ShapeCurveSet::generate(&d, &ht, &config);
        let blocks = hierarchical_declustering(&d, &ht, &curves, ht.root(), &config);
        let gseq = SeqGraph::from_design(&d, &SeqGraphConfig { min_register_bits: 1 });
        // pretend block B was already placed far away
        let b_cells = blocks.blocks.iter().find(|b| b.name == "u_b").unwrap().cells.clone();
        let fixed = vec![FixedGroup {
            name: "placed_b".into(),
            position: Point::new(900, 900),
            cells: b_cells,
        }];
        // keep only block A movable
        let mut only_a = blocks.clone();
        only_a.blocks.retain(|b| b.name == "u_a");
        let df = dataflow_inference(&d, &gseq, &only_a, &fixed, &config);
        assert_eq!(df.num_movable, 1);
        assert_eq!(df.fixed_positions[1], Some(Point::new(900, 900)));
        // A still feels affinity towards the fixed copy of B through macro flow
        assert!(df.affinity_between(0, 1) > 0.0);
    }

    #[test]
    fn affinity_matrix_is_symmetric_and_zero_diagonal() {
        let d = pipeline_design();
        let (_, df) = level(&d, 0.5);
        let n = df.graph.num_nodes();
        for i in 0..n {
            assert_eq!(df.affinity.get(i, i), 0.0);
            for j in 0..n {
                assert!((df.affinity.get(i, j) - df.affinity.get(j, i)).abs() < 1e-9);
            }
        }
    }
}
