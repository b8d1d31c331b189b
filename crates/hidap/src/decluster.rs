//! Hierarchical declustering (Sect. IV-B, Algorithm 3).
//!
//! Given the hierarchy node being floorplanned, declustering explores its
//! subtree and partitions the explored hierarchy cut into:
//!
//! * **HCB** — nodes with macros or with a large area, each becoming a block,
//! * **HCG** — small cell-only nodes, the glue logic whose area is later
//!   folded into the blocks by target-area assignment.
//!
//! One practical extension over the paper's pseudo-code keeps the recursion
//! well-founded on real hierarchies: the exploration queue starts at the
//! *children* of the floorplanned node (the node itself would trivially be
//! its own block), and macro cells that live directly at an explored level
//! become single-macro blocks.

use crate::block::{Block, BlockKind, BlockSet};
use crate::config::HidapConfig;
use crate::shape_curves::ShapeCurveSet;
use geometry::ShapeCurve;
use netlist::design::{CellKind, Design};
use netlist::hierarchy::{HierarchyNodeId, HierarchyTree};
use std::collections::VecDeque;

/// Runs hierarchical declustering below `node` and produces the partially
/// characterized block set (Γ and `am`; `at` is filled later by
/// target-area assignment).
pub fn hierarchical_declustering(
    design: &Design,
    ht: &HierarchyTree,
    shape_curves: &ShapeCurveSet,
    node: HierarchyNodeId,
    config: &HidapConfig,
) -> BlockSet {
    let total_area = ht.node(node).subtree_area.max(1);
    let open_area = (total_area as f64 * config.open_area_frac) as i128;
    let min_area = (total_area as f64 * config.min_area_frac) as i128;

    let mut hcb: Vec<HierarchyNodeId> = Vec::new();
    let mut hcg: Vec<HierarchyNodeId> = Vec::new();
    let mut direct_macro_blocks: Vec<netlist::design::CellId> = Vec::new();
    let mut glue_cells: Vec<netlist::design::CellId> = Vec::new();

    // Direct cells of the floorplanned node itself: macros become singleton
    // blocks, standard cells are glue.
    collect_direct_cells(design, ht, node, &mut direct_macro_blocks, &mut glue_cells);

    let mut queue: VecDeque<HierarchyNodeId> = ht.node(node).children.iter().copied().collect();
    while let Some(m) = queue.pop_front() {
        let n = ht.node(m);
        if n.subtree_area > open_area && n.subtree_macros == 0 {
            // Large cell-only node: keep exploring to expose structure.
            for &c in &n.children {
                queue.push_back(c);
            }
            collect_direct_cells(design, ht, m, &mut direct_macro_blocks, &mut glue_cells);
        } else if n.subtree_area > min_area || n.subtree_macros > 0 {
            hcb.push(m);
        } else {
            hcg.push(m);
        }
    }

    // Build blocks from the HCB hierarchy nodes.
    let mut blocks: Vec<Block> = Vec::new();
    for &h in &hcb {
        let cells = ht.subtree_cells(h);
        let macros: Vec<_> =
            cells.iter().copied().filter(|&c| design.cell(c).kind == CellKind::Macro).collect();
        let min_area: i128 = cells.iter().map(|&c| design.cell(c).area()).sum();
        blocks.push(Block {
            kind: BlockKind::Hierarchy(h),
            name: display_name(ht, h),
            shape: shape_curves.curve(h),
            min_area,
            target_area: min_area,
            macros,
            cells,
        });
    }
    // Singleton blocks for macros that live directly at explored levels.
    for c in direct_macro_blocks {
        let cell = design.cell(c);
        blocks.push(Block {
            kind: BlockKind::SingleMacro(c),
            name: design.cell_name(c).to_owned(),
            shape: ShapeCurve::from_macro(cell.width, cell.height, true),
            min_area: cell.area(),
            target_area: cell.area(),
            macros: vec![c],
            cells: vec![c],
        });
    }
    // Glue cells from HCG nodes.
    for &h in &hcg {
        glue_cells.extend(ht.subtree_cells(h));
    }

    BlockSet { blocks, glue_cells }
}

fn collect_direct_cells(
    design: &Design,
    ht: &HierarchyTree,
    node: HierarchyNodeId,
    macro_out: &mut Vec<netlist::design::CellId>,
    glue_out: &mut Vec<netlist::design::CellId>,
) {
    for &c in &ht.node(node).direct_cells {
        if design.cell(c).kind == CellKind::Macro {
            macro_out.push(c);
        } else {
            glue_out.push(c);
        }
    }
}

fn display_name(ht: &HierarchyTree, node: HierarchyNodeId) -> String {
    let path = &ht.node(node).path;
    if path.is_empty() {
        "<top>".to_string()
    } else {
        path.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netlist::design::DesignBuilder;

    /// Hierarchy mirroring Fig. 1: two macro clusters and a glue cluster.
    fn fig1_like_design() -> Design {
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
        b.build()
    }

    fn run(design: &Design) -> (HierarchyTree, BlockSet) {
        let ht = HierarchyTree::from_design(design);
        let curves = ShapeCurveSet::generate(design, &ht, &HidapConfig::fast());
        let blocks =
            hierarchical_declustering(design, &ht, &curves, ht.root(), &HidapConfig::fast());
        (ht, blocks)
    }

    #[test]
    fn macro_clusters_become_blocks() {
        let d = fig1_like_design();
        let (_, set) = run(&d);
        // u_left and u_right are blocks; u_glue (small, no macros) is glue.
        assert_eq!(set.len(), 2);
        assert_eq!(set.total_macros(), 16);
        let names: Vec<&str> = set.blocks.iter().map(|b| b.name.as_str()).collect();
        assert!(names.contains(&"u_left"));
        assert!(names.contains(&"u_right"));
        // glue contains u_glue cells plus the top-level strays
        assert_eq!(set.glue_cells.len(), 60);
    }

    #[test]
    fn block_min_area_sums_subtree() {
        let d = fig1_like_design();
        let (_, set) = run(&d);
        let left = set.blocks.iter().find(|b| b.name == "u_left").unwrap();
        assert_eq!(left.min_area, 8 * 100 * 100);
        assert!(!left.shape.is_unconstrained());
        // the packing curve cannot beat the total macro area and should find
        // an arrangement within 50% of it
        assert!(left.shape.min_area() >= 8 * 100 * 100);
        assert!(
            left.shape.min_area() <= 12 * 100 * 100,
            "min packing area {}",
            left.shape.min_area()
        );
        assert!(left.shape.fits(1000, 1000));
    }

    #[test]
    fn direct_macros_become_singleton_blocks() {
        let mut b = DesignBuilder::new("t");
        b.add_macro("ram_top", "RAM", 50, 50, "");
        b.add_macro("u_sub/ram0", "RAM", 50, 50, "u_sub");
        b.add_macro("u_sub/ram1", "RAM", 50, 50, "u_sub");
        let d = b.build();
        let (_, set) = run(&d);
        assert_eq!(set.len(), 2);
        assert!(set.blocks.iter().any(|b| matches!(b.kind, BlockKind::SingleMacro(_))));
        assert!(set.blocks.iter().any(|b| b.name == "u_sub" && b.macro_count() == 2));
    }

    #[test]
    fn flat_macro_level_falls_back_to_one_block_per_macro() {
        // all macros under a single child node with no further hierarchy
        let mut b = DesignBuilder::new("t");
        for i in 0..4 {
            b.add_macro(format!("u_mem/ram{i}"), "RAM", 50, 50, "u_mem");
        }
        let d = b.build();
        let ht = HierarchyTree::from_design(&d);
        let curves = ShapeCurveSet::generate(&d, &ht, &HidapConfig::fast());
        let u_mem = ht.find("u_mem").unwrap();
        // recursing INTO u_mem: no children, so the fallback produces 4 blocks
        let set = hierarchical_declustering(&d, &ht, &curves, u_mem, &HidapConfig::fast());
        assert_eq!(set.len(), 4);
        assert!(set.blocks.iter().all(|b| b.macro_count() == 1));
    }

    #[test]
    fn pure_glue_design_has_no_blocks() {
        let mut b = DesignBuilder::new("t");
        for i in 0..5 {
            b.add_comb(format!("g{i}"), "");
        }
        let d = b.build();
        let (_, set) = run(&d);
        assert!(set.is_empty());
        assert_eq!(set.glue_cells.len(), 5);
    }
}
