//! Target-area assignment (Sect. IV-C).
//!
//! Blocks in HCG (glue logic) are not floorplanned directly; their area is
//! folded into the target area `at` of the HCB blocks.  A multi-source BFS on
//! the netlist graph starts simultaneously from the cells of every block and
//! each glue cell is assigned to the block whose cells reach it first, so
//! glue logic ends up budgeted next to the logic it talks to.

use crate::block::{BlockId, BlockSet};
use crate::config::HidapConfig;
use crate::decluster::cell_to_block_map;
use graphs::bfs::multi_source_bfs;
use graphs::NetGraph;
use netlist::design::Design;

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
) {
    if blocks.is_empty() {
        return;
    }
    let cell_block = cell_to_block_map(design, blocks);

    // Sources: every cell of every block, tagged with the block id.
    let mut sources: Vec<usize> = Vec::new();
    let mut source_block: Vec<BlockId> = Vec::new();
    for (id, block) in blocks.iter() {
        for &c in &block.cells {
            sources.push(gnet.cell_node(c));
            source_block.push(id);
        }
    }

    // Only the glue cells' entries are read, so the search stops once every
    // glue cell is discovered.
    let glue_nodes: Vec<usize> = blocks.glue_cells.iter().map(|&c| gnet.cell_node(c)).collect();
    let result = multi_source_bfs(
        gnet.num_nodes(),
        &sources,
        Some(&glue_nodes),
        |n| {
            // search the netlist as an undirected graph so glue on either side
            // of a block boundary is captured
            gnet.successors(n).iter().chain(gnet.predecessors(n)).copied()
        },
        |n| {
            // traverse through anything that is not part of another block
            match gnet.node(n) {
                graphs::NetGraphNode::Cell(c) => cell_block[c.0 as usize].is_none(),
                graphs::NetGraphNode::Port(_) => true,
            }
        },
    );

    let mut extra_area = vec![0_i128; blocks.len()];
    let mut unassigned_area: i128 = 0;
    for (&glue, &node) in blocks.glue_cells.iter().zip(&glue_nodes) {
        let area = design.cell(glue).area();
        if result.reached(node) && result.source[node] != usize::MAX {
            let block = source_block[result.source[node]];
            extra_area[block.0] += area;
        } else {
            unassigned_area += area;
        }
    }

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
        target_area_assignment(design, &gnet, &mut blocks, &config);
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
    fn empty_block_set_is_noop() {
        let mut b = DesignBuilder::new("t");
        b.add_comb("g", "");
        let d = b.build();
        let gnet = NetGraph::from_design(&d);
        let mut blocks = BlockSet::default();
        target_area_assignment(&d, &gnet, &mut blocks, &HidapConfig::fast());
        assert!(blocks.is_empty());
    }
}
