//! Recursive block floorplanning (Algorithm 2).
//!
//! Each call floorplans the subtree of one hierarchy node inside a given
//! rectangle: declustering produces the level's blocks, target-area
//! assignment completes their ⟨Γ, am, at⟩ characterization, dataflow
//! inference derives the affinity matrix, and layout generation assigns each
//! block a rectangle.  Blocks with more than one macro recurse into their
//! rectangle; blocks with exactly one macro pin it to the corner of their
//! rectangle that minimizes the distance to the logic they talk to.

use crate::block::{Block, BlockKind, BlockSet};
use crate::config::HidapConfig;
use crate::dataflow::{dataflow_inference, FixedGroup, LevelDataflow};
use crate::decluster::hierarchical_declustering;
use crate::flow::{FlowProbe, FlowStage};
use crate::layout::{generate_layout, LayoutBlock, LayoutProblem};
use crate::legalize::{MacroFootprint, MacroFootprints};
use crate::shape_curves::ShapeCurveSet;
use crate::target_area::{target_area_assignment, TargetAreaScratch};
use geometry::{Point, Rect};
use graphs::{NetGraph, SeqGraph};
use netlist::design::Design;
use netlist::hierarchy::{HierarchyNodeId, HierarchyTree};
use rand::Rng;

/// State shared across all levels of the recursion.
pub struct RecursiveFloorplanner<'a> {
    design: &'a Design,
    ht: &'a HierarchyTree,
    gnet: &'a NetGraph,
    gseq: &'a SeqGraph,
    shape_curves: &'a ShapeCurveSet,
    config: &'a HidapConfig,
    /// Macro footprints decided so far (dense per-cell store).
    pub footprints: MacroFootprints,
    /// Block rectangles of the topmost level (for Fig. 1a / Fig. 9d style output).
    pub top_blocks: Vec<(String, Rect)>,
    /// Node slots each level's target-area search touched, in the order the
    /// levels were floorplanned (see [`TargetAreaScratch::slots_touched`]).
    pub target_area_slots: Vec<u64>,
    /// The target-area search buffers, reused by every level.
    target_area: TargetAreaScratch,
}

impl<'a> RecursiveFloorplanner<'a> {
    /// Creates a floorplanner over pre-built circuit abstractions.
    pub fn new(
        design: &'a Design,
        ht: &'a HierarchyTree,
        gnet: &'a NetGraph,
        gseq: &'a SeqGraph,
        shape_curves: &'a ShapeCurveSet,
        config: &'a HidapConfig,
    ) -> Self {
        Self {
            design,
            ht,
            gnet,
            gseq,
            shape_curves,
            config,
            footprints: MacroFootprints::for_design(design),
            top_blocks: Vec::new(),
            target_area_slots: Vec::new(),
            target_area: TargetAreaScratch::default(),
        }
    }

    /// Floorplans the subtree of `node` inside `region` (Algorithm 2),
    /// reporting every accepted level floorplan to `probe`.
    ///
    /// `fixed` is the already-placed context: blocks of enclosing levels and
    /// their positions. `depth` is 0 at the top call.
    pub fn floorplan<R: Rng + ?Sized>(
        &mut self,
        node: HierarchyNodeId,
        region: Rect,
        fixed: &[FixedGroup],
        depth: usize,
        rng: &mut R,
        probe: &mut FlowProbe<'_>,
    ) {
        // Step 1: hierarchical declustering (Sect. IV-B).
        let mut blocks =
            hierarchical_declustering(self.design, self.ht, self.shape_curves, node, self.config);
        if blocks.is_empty() || blocks.total_macros() == 0 {
            return;
        }
        // Step 2: target-area assignment (Sect. IV-C).
        target_area_assignment(
            self.design,
            self.gnet,
            &mut blocks,
            self.config,
            &mut self.target_area,
        );
        self.target_area_slots.push(self.target_area.slots_touched());
        // Step 3: dataflow inference (Sect. IV-D).
        let df = dataflow_inference(self.design, self.gseq, &blocks, fixed, self.config);
        // Step 4: layout generation (Sect. IV-E).
        let problem = LayoutProblem {
            region,
            blocks: blocks
                .blocks
                .iter()
                .map(|b| LayoutBlock {
                    shape: b.shape.clone(),
                    min_area: b.min_area,
                    target_area: b.target_area,
                })
                .collect(),
            affinity: df.affinity.clone(),
            fixed_positions: df.fixed_positions.clone(),
        };
        let layout = generate_layout(&problem, self.config, rng);
        if depth == 0 {
            self.top_blocks = blocks
                .blocks
                .iter()
                .zip(&layout.rects)
                .map(|(b, &r)| (b.name.clone(), r))
                .collect();
        }
        let node_path = self.ht.node(node).path.as_str();
        probe(&FlowStage::LevelFloorplanned {
            depth,
            node: node_path,
            blocks: blocks.blocks.len(),
        });

        // Step 5: recurse into multi-macro blocks, pin single-macro blocks.
        for (idx, block) in blocks.blocks.iter().enumerate() {
            let rect = layout.rects[idx];
            match block.macro_count() {
                0 => {}
                1 => self.place_single_macro(block, idx, rect, &df, &layout.rects),
                _ => {
                    let child_fixed = self.child_context(&blocks, idx, &layout.rects, fixed);
                    match block.kind {
                        BlockKind::Hierarchy(h) => {
                            self.floorplan(h, rect, &child_fixed, depth + 1, rng, probe);
                        }
                        BlockKind::SingleMacro(_) => {
                            // cannot happen: single-macro blocks have macro_count 1
                            self.place_single_macro(block, idx, rect, &df, &layout.rects);
                        }
                    }
                }
            }
        }
    }

    /// The fixed context passed to a child level: everything the parent level
    /// already knows (its own fixed context) plus the parent's sibling blocks
    /// at their freshly decided positions.
    fn child_context(
        &self,
        blocks: &BlockSet,
        current: usize,
        rects: &[Rect],
        fixed: &[FixedGroup],
    ) -> Vec<FixedGroup> {
        let mut out = fixed.to_vec();
        for (idx, sibling) in blocks.blocks.iter().enumerate() {
            if idx == current {
                continue;
            }
            out.push(FixedGroup {
                name: sibling.name.clone(),
                position: rects[idx].center(),
                cells: sibling.cells.clone(),
            });
        }
        out
    }

    /// Places the macro of a single-macro block in the corner of the block's
    /// rectangle that minimizes the distance to the block's dataflow pull.
    fn place_single_macro(
        &mut self,
        block: &Block,
        block_idx: usize,
        rect: Rect,
        df: &LevelDataflow,
        rects: &[Rect],
    ) {
        let cell_id = block.macros[0];
        let cell = self.design.cell(cell_id);
        let pull = self.pull_point(block_idx, df, rects, rect);

        // Candidate footprints: the four corners, unrotated and rotated.
        let mut best: Option<(i64, MacroFootprint)> = None;
        for &rotated in &[false, true] {
            let (w, h) =
                if rotated { (cell.height, cell.width) } else { (cell.width, cell.height) };
            let corners = [
                Point::new(rect.llx, rect.lly),
                Point::new(rect.urx - w, rect.lly),
                Point::new(rect.llx, rect.ury - h),
                Point::new(rect.urx - w, rect.ury - h),
            ];
            for corner in corners {
                let corner = Point::new(corner.x.max(rect.llx), corner.y.max(rect.lly));
                let fits = w <= rect.width() && h <= rect.height();
                let center = Point::new(corner.x + w / 2, corner.y + h / 2);
                let mut score = center.manhattan_distance(pull);
                if !fits {
                    // allow it (legalization will fix overlaps) but prefer fitting candidates
                    score += rect.width() + rect.height();
                }
                if best.as_ref().map(|(s, _)| score < *s).unwrap_or(true) {
                    best = Some((score, MacroFootprint { location: corner, rotated }));
                }
            }
        }
        if let Some((_, fp)) = best {
            self.footprints.insert(cell_id, fp);
        }
    }

    /// The affinity-weighted centroid of everything a block communicates
    /// with, used as the attraction point for corner placement.
    // `other` ranges over graph nodes and only indexes `rects` for the
    // movable prefix, so enumerate() over `rects` cannot replace it
    #[allow(clippy::needless_range_loop)]
    fn pull_point(
        &self,
        block_idx: usize,
        df: &LevelDataflow,
        rects: &[Rect],
        own_rect: Rect,
    ) -> Point {
        let mut sum_x = 0.0;
        let mut sum_y = 0.0;
        let mut weight = 0.0;
        for other in 0..df.graph.num_nodes() {
            if other == block_idx {
                continue;
            }
            let a = df.affinity_between(block_idx, other);
            if a <= 0.0 {
                continue;
            }
            let pos = if other < df.num_movable {
                rects[other].center()
            } else {
                df.fixed_positions[other].unwrap_or_else(|| own_rect.center())
            };
            sum_x += a * pos.x as f64;
            sum_y += a * pos.y as f64;
            weight += a;
        }
        if weight > 0.0 {
            Point::new((sum_x / weight) as i64, (sum_y / weight) as i64)
        } else {
            own_rect.center()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphs::seqgraph::SeqGraphConfig;
    use netlist::design::DesignBuilder;
    use rand::{ChaCha8Rng, SeedableRng};
    use std::collections::HashMap;

    /// Fig. 1-style design: two clusters of 4 macros each with a register
    /// pipeline between them.
    fn two_cluster_design() -> Design {
        let mut b = DesignBuilder::new("t");
        let mut left = Vec::new();
        let mut right = Vec::new();
        for i in 0..4 {
            left.push(b.add_macro(format!("u_left/mem{i}"), "RAM", 150, 100, "u_left"));
            right.push(b.add_macro(format!("u_right/mem{i}"), "RAM", 150, 100, "u_right"));
        }
        for i in 0..16 {
            let f = b.add_flop(format!("u_glue/pipe_reg[{i}]"), "u_glue");
            let n0 = b.add_net(format!("l2p_{i}"));
            let n1 = b.add_net(format!("p2r_{i}"));
            b.connect_driver(n0, left[i % 4]);
            b.connect_sink(n0, f);
            b.connect_driver(n1, f);
            b.connect_sink(n1, right[i % 4]);
        }
        b.set_die(Rect::new(0, 0, 2000, 1000));
        b.build()
    }

    #[test]
    fn floorplan_places_every_macro() {
        let design = two_cluster_design();
        let config = HidapConfig::fast();
        let ht = HierarchyTree::from_design(&design);
        let curves = ShapeCurveSet::generate(&design, &ht, &config);
        let gnet = NetGraph::from_design(&design);
        let gseq = SeqGraph::from_design(&design, &SeqGraphConfig { min_register_bits: 1 });
        let mut fp = RecursiveFloorplanner::new(&design, &ht, &gnet, &gseq, &curves, &config);
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        fp.floorplan(ht.root(), design.die(), &[], 0, &mut rng, &mut |_| {});
        assert_eq!(fp.footprints.len(), 8, "all 8 macros placed");
        // the top level identified the two clusters
        assert_eq!(fp.top_blocks.len(), 2);
        // macro footprints land inside the die (legalization not yet applied,
        // but corner placement keeps them inside their block rects)
        for (cell, footprint) in fp.footprints.iter() {
            let r = footprint.rect(&design, cell);
            assert!(design.die().contains_rect(&r), "{} outside die: {r}", design.cell_name(cell));
        }
    }

    #[test]
    fn clusters_keep_their_macros_together() {
        let design = two_cluster_design();
        let config = HidapConfig::fast();
        let ht = HierarchyTree::from_design(&design);
        let curves = ShapeCurveSet::generate(&design, &ht, &config);
        let gnet = NetGraph::from_design(&design);
        let gseq = SeqGraph::from_design(&design, &SeqGraphConfig { min_register_bits: 1 });
        let mut fp = RecursiveFloorplanner::new(&design, &ht, &gnet, &gseq, &curves, &config);
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        fp.floorplan(ht.root(), design.die(), &[], 0, &mut rng, &mut |_| {});

        let top: HashMap<&str, Rect> =
            fp.top_blocks.iter().map(|(n, r)| (n.as_str(), *r)).collect();
        let left_rect = top["u_left"];
        for i in 0..4 {
            let cell = design.find_cell(&format!("u_left/mem{i}")).unwrap();
            let center = fp.footprints.get(cell).unwrap().rect(&design, cell).center();
            assert!(
                left_rect.contains(center),
                "macro u_left/mem{i} should stay inside its cluster rect"
            );
        }
    }

    #[test]
    fn design_without_macros_is_a_noop() {
        let mut b = DesignBuilder::new("t");
        for i in 0..10 {
            b.add_comb(format!("g{i}"), "");
        }
        b.set_die(Rect::new(0, 0, 100, 100));
        let design = b.build();
        let config = HidapConfig::fast();
        let ht = HierarchyTree::from_design(&design);
        let curves = ShapeCurveSet::generate(&design, &ht, &config);
        let gnet = NetGraph::from_design(&design);
        let gseq = SeqGraph::from_design(&design, &SeqGraphConfig { min_register_bits: 1 });
        let mut fp = RecursiveFloorplanner::new(&design, &ht, &gnet, &gseq, &curves, &config);
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        fp.floorplan(ht.root(), design.die(), &[], 0, &mut rng, &mut |_| {});
        assert!(fp.footprints.is_empty());
    }
}
