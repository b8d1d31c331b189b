//! Target-area assignment (Sect. IV-C).
//!
//! Blocks in HCG (glue logic) are not floorplanned directly; their area is
//! folded into the target area `at` of the HCB blocks.  A multi-source BFS on
//! the netlist graph starts simultaneously from the cells of every block and
//! each glue cell is assigned to the block whose cells reach it first, so
//! glue logic ends up budgeted next to the logic it talks to.

use crate::block::BlockSet;
use crate::config::HidapConfig;
use graphs::bfs::{multi_source_bfs, BfsScratch};
use graphs::{NetGraph, NetGraphNode};
use netlist::design::Design;

/// The cell→block entry of a cell outside the level's blocks.
const NO_BLOCK: u32 = u32::MAX;

/// Buffers target-area assignment reuses from one floorplanning level to
/// the next, so a level's search costs the nodes it reaches rather than
/// the whole design.
#[derive(Debug, Clone, Default)]
pub struct TargetAreaScratch {
    bfs: BfsScratch,
    /// The block of every cell of the current level's blocks, `NO_BLOCK`
    /// for every other cell: written before a level's search and cleared
    /// after it.
    cell_block: Vec<u32>,
    /// The level's search sources: every cell of every block.
    sources: Vec<u32>,
    /// The level's glue cells, the nodes its search must discover.
    targets: Vec<u32>,
    slots_touched: u64,
}

impl TargetAreaScratch {
    /// Per-node slots the last assignment wrote: the search's target marks
    /// and discovered nodes, plus the cell→block entries of the level's
    /// block cells, each written and then cleared. A clock-free measure of
    /// one level's work.
    pub fn slots_touched(&self) -> u64 {
        self.slots_touched
    }
}

/// Assigns glue-logic area to blocks and fills in their target areas.
///
/// Every glue cell's area is added to the `at` of the nearest block (by hops
/// in the netlist graph, searched in both directions).  Glue cells that are
/// unreachable from any block are spread proportionally to block `am`.
/// Finally every block's target area is inflated by the configured
/// whitespace fraction, which mimics the density target a physical-design
/// flow would apply.
pub fn target_area_assignment(
    design: &Design,
    gnet: &NetGraph,
    blocks: &mut BlockSet,
    config: &HidapConfig,
    scratch: &mut TargetAreaScratch,
) {
    scratch.slots_touched = 0;
    if blocks.is_empty() {
        return;
    }
    let TargetAreaScratch { bfs, cell_block, sources, targets, slots_touched } = scratch;
    if cell_block.len() < design.num_cells() {
        cell_block.resize(design.num_cells(), NO_BLOCK);
    }

    // Sources: every cell of every block. A cell listed by two blocks keeps
    // the first, as the search keeps a repeated source's first position.
    sources.clear();
    for (id, block) in blocks.iter() {
        for &c in &block.cells {
            let entry = &mut cell_block[c.0 as usize];
            if *entry == NO_BLOCK {
                *entry = id.0 as u32;
            }
            sources.push(gnet.cell_node(c) as u32);
        }
    }

    // Only the glue cells' entries are read, so the search stops once every
    // glue cell is discovered.
    targets.clear();
    targets.extend(blocks.glue_cells.iter().map(|&c| gnet.cell_node(c) as u32));
    multi_source_bfs(
        bfs,
        gnet.num_nodes(),
        sources,
        Some(targets),
        |n| {
            // search the netlist as an undirected graph so glue on either side
            // of a block boundary is captured
            gnet.successors(n).iter().chain(gnet.predecessors(n)).copied()
        },
        |n| {
            // traverse through anything that is not part of another block
            match gnet.node(n) {
                NetGraphNode::Cell(c) => cell_block[c.0 as usize] == NO_BLOCK,
                NetGraphNode::Port(_) => true,
            }
        },
    );

    let mut extra_area = vec![0_i128; blocks.len()];
    let mut unassigned_area: i128 = 0;
    for &glue in &blocks.glue_cells {
        let area = design.cell(glue).area();
        match bfs.source(gnet.cell_node(glue)) {
            // sources are cell nodes, whose index is the cell id
            Some(i) => extra_area[cell_block[sources[i as usize] as usize] as usize] += area,
            None => unassigned_area += area,
        }
    }
    for &s in sources.iter() {
        cell_block[s as usize] = NO_BLOCK;
    }
    *slots_touched = bfs.slots_touched() + 2 * sources.len() as u64;

    // Spread unreachable glue proportionally to block minimum area.
    let total_min: i128 = blocks.blocks.iter().map(|b| b.min_area).sum::<i128>().max(1);
    for (i, block) in blocks.blocks.iter_mut().enumerate() {
        let share = unassigned_area * block.min_area / total_min;
        let assigned = block.min_area + extra_area[i] + share;
        block.target_area = (assigned as f64 * (1.0 + config.whitespace_frac)) as i128;
        // target area can never be below the minimum area
        block.target_area = block.target_area.max(block.min_area);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decluster::hierarchical_declustering;
    use crate::shape_curves::ShapeCurveSet;
    use netlist::design::DesignBuilder;
    use netlist::hierarchy::HierarchyTree;

    /// Two macro blocks, with glue logic wired to block A only.
    fn design_with_glue() -> Design {
        let mut b = DesignBuilder::new("t");
        let ma = b.add_macro("u_a/ram", "RAM", 100, 100, "u_a");
        let _mb = b.add_macro("u_b/ram", "RAM", 100, 100, "u_b");
        // glue: 10 cells in a chain hanging off block A's macro
        let mut prev = ma;
        for i in 0..10 {
            let g = b.add_comb(format!("u_glue/g{i}"), "u_glue");
            let n = b.add_net(format!("n{i}"));
            b.connect_driver(n, prev);
            b.connect_sink(n, g);
            prev = g;
        }
        b.build()
    }

    fn run(design: &Design, whitespace: f64) -> BlockSet {
        let ht = HierarchyTree::from_design(design);
        let config = HidapConfig { whitespace_frac: whitespace, ..HidapConfig::fast() };
        let curves = ShapeCurveSet::generate(design, &ht, &config);
        let mut blocks = hierarchical_declustering(design, &ht, &curves, ht.root(), &config);
        let gnet = NetGraph::from_design(design);
        let mut scratch = TargetAreaScratch::default();
        target_area_assignment(design, &gnet, &mut blocks, &config, &mut scratch);
        blocks
    }

    #[test]
    fn glue_goes_to_connected_block() {
        let d = design_with_glue();
        let blocks = run(&d, 0.0);
        let a = blocks.blocks.iter().find(|b| b.name == "u_a").unwrap();
        let b_blk = blocks.blocks.iter().find(|b| b.name == "u_b").unwrap();
        // A gets its macro plus all 10 glue cells, B only its macro
        assert_eq!(a.target_area, 100 * 100 + 10);
        assert_eq!(b_blk.target_area, 100 * 100);
    }

    #[test]
    fn whitespace_inflates_targets() {
        let d = design_with_glue();
        let blocks = run(&d, 0.5);
        for b in &blocks.blocks {
            assert!(b.target_area >= (b.min_area as f64 * 1.4) as i128);
        }
    }

    #[test]
    fn unconnected_glue_is_spread_proportionally() {
        let mut b = DesignBuilder::new("t");
        b.add_macro("u_a/ram", "RAM", 100, 100, "u_a");
        b.add_macro("u_b/ram", "RAM", 300, 100, "u_b");
        for i in 0..8 {
            b.add_comb(format!("u_float/g{i}"), "u_float");
        }
        let d = b.build();
        let blocks = run(&d, 0.0);
        let total_target: i128 = blocks.total_target_area();
        // all area accounted for: macros + floating glue
        assert_eq!(total_target, 100 * 100 + 300 * 100 + 8);
        let a = blocks.blocks.iter().find(|b| b.name == "u_a").unwrap();
        let b_blk = blocks.blocks.iter().find(|b| b.name == "u_b").unwrap();
        assert!(b_blk.target_area - b_blk.min_area >= a.target_area - a.min_area);
    }

    #[test]
    fn targets_never_below_min_area() {
        let d = design_with_glue();
        let blocks = run(&d, 0.0);
        for b in &blocks.blocks {
            assert!(b.target_area >= b.min_area);
        }
    }

    #[test]
    fn cell_block_entries_cover_the_block_cells_and_are_cleared() {
        // two 8-macro clusters and 60 glue cells, unwired
        let mut b = DesignBuilder::new("fig1");
        for i in 0..8 {
            b.add_macro(format!("u_left/mem{i}"), "RAM", 100, 100, "u_left");
            b.add_macro(format!("u_right/mem{i}"), "RAM", 100, 100, "u_right");
        }
        for i in 0..50 {
            b.add_comb(format!("u_glue/g{i}"), "u_glue");
        }
        for i in 0..10 {
            b.add_comb(format!("top_glue{i}"), "");
        }
        let d = b.build();
        let config = HidapConfig::fast();
        let ht = HierarchyTree::from_design(&d);
        let curves = ShapeCurveSet::generate(&d, &ht, &config);
        let mut blocks = hierarchical_declustering(&d, &ht, &curves, ht.root(), &config);
        let gnet = NetGraph::from_design(&d);
        let mut scratch = TargetAreaScratch::default();
        target_area_assignment(&d, &gnet, &mut blocks, &config, &mut scratch);
        // the search starts from the 16 macro-cluster cells only
        assert_eq!(scratch.sources.len(), 16);
        // 60 glue targets marked, 16 sources discovered, and 16 cell→block
        // entries written and cleared
        assert_eq!(scratch.slots_touched(), 60 + 16 + 2 * 16);
        assert_eq!(scratch.cell_block.len(), d.num_cells());
        assert!(scratch.cell_block.iter().all(|&entry| entry == NO_BLOCK));
    }

    #[test]
    fn empty_block_set_is_noop() {
        let mut b = DesignBuilder::new("t");
        b.add_comb("g", "");
        let d = b.build();
        let gnet = NetGraph::from_design(&d);
        let mut blocks = BlockSet::default();
        let mut scratch = TargetAreaScratch::default();
        target_area_assignment(&d, &gnet, &mut blocks, &HidapConfig::fast(), &mut scratch);
        assert!(blocks.is_empty());
        assert_eq!(scratch.slots_touched(), 0);
    }
}
