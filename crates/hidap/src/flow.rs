//! The top-level HiDaP flow (Algorithm 1).

use crate::config::HidapConfig;
use crate::error::HidapError;
use crate::flipping::macro_flipping;
use crate::legalize::{legalize_macros, MacroFootprint, MacroFootprints};
use crate::recursive::RecursiveFloorplanner;
use crate::shape_curves::ShapeCurveSet;
use crate::{MacroPlacement, PlacedMacro};
use geometry::{Orientation, Rect};
use graphs::seqgraph::SeqGraphConfig;
use graphs::{NetGraph, SeqGraph};
use netlist::design::Design;
use netlist::hierarchy::HierarchyTree;
use rand::{ChaCha8Rng, SeedableRng};

/// A checkpoint the flow reports as it moves through its stages.
///
/// Probes (see [`HidapFlow::run_probed`]) receive each checkpoint in order.
/// This is the hook the `placer-core` engine uses for stage timings and
/// events without this crate depending on the engine.
#[derive(Debug, Clone, PartialEq)]
pub enum FlowStage<'a> {
    /// The hierarchy tree was built (`nodes` hierarchy levels).
    HierarchyBuilt {
        /// Number of hierarchy levels.
        nodes: usize,
    },
    /// Shape curves exist for every hierarchy level.
    ShapeCurvesReady {
        /// Number of generated curves.
        curves: usize,
    },
    /// One hierarchy level's floorplan was accepted.
    LevelFloorplanned {
        /// Recursion depth (0 = top).
        depth: usize,
        /// Hierarchical path of the node (empty for the top).
        node: &'a str,
        /// Number of blocks laid out at this level.
        blocks: usize,
    },
    /// Macro flipping chose final orientations.
    FlippingDone {
        /// Macros whose orientation differs from the default `N`.
        flipped: usize,
    },
    /// Legalization finished.
    LegalizationDone {
        /// Macros legalization had to move.
        moved: usize,
    },
}

/// A stage callback, called once per [`FlowStage`] checkpoint.
pub type FlowProbe<'a> = dyn FnMut(&FlowStage<'_>) + 'a;

/// The HiDaP macro placer.
///
/// ```
/// use hidap::{HidapConfig, HidapFlow};
/// let flow = HidapFlow::new(HidapConfig::fast().with_lambda(0.5));
/// assert_eq!(flow.config().lambda, 0.5);
/// ```
#[derive(Debug, Clone)]
pub struct HidapFlow {
    config: HidapConfig,
}

impl HidapFlow {
    /// Creates a flow with the given configuration.
    pub fn new(config: HidapConfig) -> Self {
        Self { config }
    }

    /// The flow configuration.
    pub fn config(&self) -> &HidapConfig {
        &self.config
    }

    /// Runs the full flow on a design and returns the macro placement
    /// (Algorithm 1: hierarchy tree, shape curves, recursive block
    /// floorplanning, macro flipping), followed by a legalization pass.
    ///
    /// # Errors
    ///
    /// * [`HidapError::EmptyDie`] when the design's die has zero area,
    /// * [`HidapError::MacrosExceedDie`] when the macros cannot possibly fit,
    /// * [`HidapError::Internal`] when the configuration is invalid.
    pub fn run(&self, design: &Design) -> Result<MacroPlacement, HidapError> {
        self.run_probed(design, None, None, &mut |_| {})
    }

    /// Runs the flow, reporting each [`FlowStage`] checkpoint to `probe`.
    ///
    /// `graphs` are the design's [`NetGraph`] and the [`SeqGraph`] built
    /// for it with this configuration's `min_register_bits`; multi-design
    /// front ends fetch both from a design-keyed artifact cache so repeated
    /// runs skip the constructions. `None` builds them internally, with the
    /// same result.
    ///
    /// With a `warm` placement the run is the ECO warm-start path: macro
    /// footprints start at the `warm` locations (macros it does not cover
    /// start at the die origin), and only legalization and flipping run,
    /// so the probe sees [`FlowStage::LegalizationDone`] and
    /// [`FlowStage::FlippingDone`]. `top_blocks` carries over from `warm`.
    /// When the edit defeats legalization, the run falls back to the full
    /// flow (without `warm`), so a warm result is legal whenever a cold one
    /// is.
    ///
    /// # Errors
    ///
    /// Everything [`HidapFlow::run`] can return.
    pub fn run_probed(
        &self,
        design: &Design,
        graphs: Option<(&NetGraph, &SeqGraph)>,
        warm: Option<&MacroPlacement>,
        probe: &mut FlowProbe<'_>,
    ) -> Result<MacroPlacement, HidapError> {
        self.config.validate().map_err(HidapError::Internal)?;
        let die = design.die();
        if die.width() <= 0 || die.height() <= 0 {
            return Err(HidapError::EmptyDie);
        }
        let macro_area: i128 = design.macros().map(|m| design.cell(m).area()).sum();
        if macro_area > die.area() {
            return Err(HidapError::MacrosExceedDie { macro_area, die_area: die.area() });
        }
        if design.num_macros() == 0 {
            return Ok(MacroPlacement::default());
        }

        let (mut footprints, top_blocks) = match warm {
            Some(warm) => {
                // Seed footprints from the warm placement; macros the edit
                // introduced (or that the warm result never covered) start
                // at the die origin and get a real spot during legalization.
                let mut footprints = MacroFootprints::for_design(design);
                for m in design.macros() {
                    let fp = match warm.placement_of(m) {
                        Some(p) => MacroFootprint {
                            location: p.location,
                            rotated: p.orientation.swaps_axes(),
                        },
                        None => MacroFootprint { location: die.lower_left(), rotated: false },
                    };
                    footprints.insert(m, fp);
                }
                (footprints, warm.top_blocks.clone())
            }
            None => self.floorplan(design, graphs, probe)?,
        };

        let moved = legalize_macros(design, die, &mut footprints);
        probe(&FlowStage::LegalizationDone { moved });
        let orientations = macro_flipping(design, &footprints);
        let flipped = orientations.values().filter(|&&o| o != Orientation::N).count();
        let mut macros: Vec<PlacedMacro> = footprints
            .iter()
            .map(|(cell, fp)| PlacedMacro {
                cell,
                location: fp.location,
                orientation: orientations.get(cell).copied().unwrap_or(Orientation::N),
            })
            .collect();
        macros.sort_by_key(|m| m.cell);
        let placement = MacroPlacement { macros, top_blocks };

        // Incremental legalization is best-effort: on a dense die an edit
        // can defeat both the greedy pass and the shelf fallback even though
        // the macros fit. Warm results must be legal whenever cold results
        // are, so detect the failure and transparently re-run the full flow
        // — the fallback costs cold time, never correctness. The probe sees
        // the full stage sequence after the legalization checkpoint, which
        // is the true story of the run.
        if warm.is_some() && !placement.is_legal(design) {
            return self.run_probed(design, graphs, None, probe);
        }
        probe(&FlowStage::FlippingDone { flipped });
        Ok(placement)
    }

    /// The global stages of a cold run: hierarchy tree, shape curves and
    /// the recursive block floorplan. Returns the macro footprints (every
    /// macro the recursion could not reach sits at the die origin) and the
    /// top-level blocks.
    fn floorplan(
        &self,
        design: &Design,
        graphs: Option<(&NetGraph, &SeqGraph)>,
        probe: &mut FlowProbe<'_>,
    ) -> Result<(MacroFootprints, Vec<(String, Rect)>), HidapError> {
        let die = design.die();
        let ht = HierarchyTree::from_design(design);
        probe(&FlowStage::HierarchyBuilt { nodes: ht.len() });
        let shape_curves = ShapeCurveSet::generate(design, &ht, &self.config);
        probe(&FlowStage::ShapeCurvesReady { curves: shape_curves.len() });
        // `from_netgraph` on the same design is bit-identical to what a
        // cache holds, so cached and built graphs give the same placement
        let built;
        let (gnet, gseq) = match graphs {
            Some(graphs) => graphs,
            None => {
                let gnet = NetGraph::from_design(design);
                let gseq = SeqGraph::from_netgraph(
                    design,
                    &gnet,
                    &SeqGraphConfig { min_register_bits: self.config.min_register_bits },
                );
                built = (gnet, gseq);
                (&built.0, &built.1)
            }
        };

        // Recursive block floorplanning.
        let mut rng = ChaCha8Rng::seed_from_u64(self.config.seed);
        let mut floorplanner =
            RecursiveFloorplanner::new(design, &ht, gnet, gseq, &shape_curves, &self.config);
        floorplanner.floorplan(ht.root(), die, &[], 0, &mut rng, probe);
        let mut footprints = floorplanner.footprints;

        // Any macro the recursion could not reach (e.g. isolated macros in a
        // degenerate hierarchy) falls back to the die origin and is then
        // legalized with everything else.
        for m in design.macros() {
            footprints
                .insert_if_absent(m, MacroFootprint { location: die.lower_left(), rotated: false });
        }
        Ok((footprints, floorplanner.top_blocks))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use geometry::Rect;
    use netlist::design::{DesignBuilder, PortDirection};

    /// A small SoC-like design: two memory clusters, a register pipeline and
    /// an I/O port bus.
    fn soc_design() -> Design {
        let mut b = DesignBuilder::new("soc");
        let mut left = Vec::new();
        let mut right = Vec::new();
        for i in 0..4 {
            left.push(b.add_macro(format!("u_left/mem{i}"), "RAM", 150, 100, "u_left"));
            right.push(b.add_macro(format!("u_right/mem{i}"), "RAM", 150, 100, "u_right"));
        }
        for i in 0..32 {
            let f = b.add_flop(format!("u_pipe/stage_reg[{i}]"), "u_pipe");
            let n0 = b.add_net(format!("l2p_{i}"));
            let n1 = b.add_net(format!("p2r_{i}"));
            b.connect_driver(n0, left[i % 4]);
            b.connect_sink(n0, f);
            b.connect_driver(n1, f);
            b.connect_sink(n1, right[i % 4]);
        }
        for i in 0..8 {
            let p = b.add_port(format!("din[{i}]"), PortDirection::Input);
            b.place_port(p, geometry::Point::new(0, 100 + 50 * i as i64));
            let n = b.add_net(format!("din_n_{i}"));
            b.connect_port_driver(n, p);
            b.connect_sink(n, left[i % 4]);
        }
        b.set_die(Rect::new(0, 0, 2000, 1200));
        b.build()
    }

    #[test]
    fn full_flow_produces_legal_placement() {
        let design = soc_design();
        let placement = HidapFlow::new(HidapConfig::fast()).run(&design).unwrap();
        assert_eq!(placement.macros.len(), 8);
        assert!(placement.is_legal(&design), "placement must be overlap-free and inside the die");
        assert!(!placement.top_blocks.is_empty());
    }

    #[test]
    fn deterministic_for_same_seed() {
        let design = soc_design();
        let a = HidapFlow::new(HidapConfig::fast().with_seed(7)).run(&design).unwrap();
        let b = HidapFlow::new(HidapConfig::fast().with_seed(7)).run(&design).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn different_lambda_still_legal() {
        let design = soc_design();
        for lambda in [0.0, 0.2, 0.8, 1.0] {
            let placement =
                HidapFlow::new(HidapConfig::fast().with_lambda(lambda)).run(&design).unwrap();
            assert!(placement.is_legal(&design), "lambda {lambda} produced an illegal placement");
        }
    }

    #[test]
    fn empty_die_is_an_error() {
        let mut b = DesignBuilder::new("t");
        b.add_macro("m", "RAM", 10, 10, "");
        let design = b.build();
        assert_eq!(
            HidapFlow::new(HidapConfig::fast()).run(&design).unwrap_err(),
            HidapError::EmptyDie
        );
    }

    #[test]
    fn oversized_macros_are_an_error() {
        let mut b = DesignBuilder::new("t");
        b.add_macro("m", "RAM", 200, 200, "");
        b.set_die(Rect::new(0, 0, 100, 100));
        let design = b.build();
        match HidapFlow::new(HidapConfig::fast()).run(&design).unwrap_err() {
            HidapError::MacrosExceedDie { .. } => {}
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn design_without_macros_returns_empty_placement() {
        let mut b = DesignBuilder::new("t");
        b.add_comb("g", "");
        b.set_die(Rect::new(0, 0, 100, 100));
        let design = b.build();
        let placement = HidapFlow::new(HidapConfig::fast()).run(&design).unwrap();
        assert!(placement.macros.is_empty());
    }

    #[test]
    fn invalid_config_is_an_error() {
        let design = soc_design();
        let bad = HidapConfig { lambda: 2.0, ..HidapConfig::fast() };
        assert!(matches!(HidapFlow::new(bad).run(&design), Err(HidapError::Internal(_))));
    }

    #[test]
    fn probe_sees_every_stage_in_order() {
        let design = soc_design();
        let mut stages: Vec<String> = Vec::new();
        HidapFlow::new(HidapConfig::fast())
            .run_probed(&design, None, None, &mut |stage| {
                stages.push(match stage {
                    FlowStage::HierarchyBuilt { .. } => "hierarchy".into(),
                    FlowStage::ShapeCurvesReady { .. } => "curves".into(),
                    FlowStage::LevelFloorplanned { depth, .. } => format!("level{depth}"),
                    FlowStage::LegalizationDone { .. } => "legalize".into(),
                    FlowStage::FlippingDone { .. } => "flipping".into(),
                });
            })
            .unwrap();
        assert_eq!(stages.first().map(String::as_str), Some("hierarchy"));
        assert_eq!(stages.get(1).map(String::as_str), Some("curves"));
        assert!(stages.iter().any(|s| s == "level0"), "{stages:?}");
        assert_eq!(stages[stages.len() - 2], "legalize");
        assert_eq!(stages[stages.len() - 1], "flipping");
    }

    #[test]
    fn warm_run_of_a_legal_placement_is_stable_and_legal() {
        let design = soc_design();
        let flow = HidapFlow::new(HidapConfig::fast());
        let cold = flow.run(&design).unwrap();
        let warm = flow.run_probed(&design, None, Some(&cold), &mut |_| {}).unwrap();
        assert!(warm.is_legal(&design));
        assert_eq!(warm.macros.len(), cold.macros.len());
        assert_eq!(warm.top_blocks, cold.top_blocks, "top blocks carry over");
        // warm-starting from an already-legal placement keeps every location
        for (c, w) in cold.macros.iter().zip(&warm.macros) {
            assert_eq!(c.cell, w.cell);
            assert_eq!(c.location, w.location);
        }
        // and the path is deterministic
        assert_eq!(warm, flow.run_probed(&design, None, Some(&cold), &mut |_| {}).unwrap());
    }

    #[test]
    fn warm_run_covers_macros_missing_from_the_seed() {
        let design = soc_design();
        let flow = HidapFlow::new(HidapConfig::fast());
        let mut seed = flow.run(&design).unwrap();
        seed.macros.truncate(3); // pretend the edit added five new macros
        let warm = flow.run_probed(&design, None, Some(&seed), &mut |_| {}).unwrap();
        assert_eq!(warm.macros.len(), 8, "every design macro gets a footprint");
        assert!(warm.is_legal(&design));
    }

    #[test]
    fn warm_run_falls_back_to_the_full_flow_when_the_edit_defeats_legalization() {
        // Regression found by the ECO differential fuzzer (adv_packed,
        // seed 57366): after a batch of footprint resizes the seed
        // placement no longer fits, the remaining free space is too
        // fragmented for the greedy pass, and the mixed-height shelves of
        // the packing fallback overflow the die by one row — even though a
        // legal packing exists (the cold flow finds one). The warm path
        // must detect the illegal result and fall back to the full flow.
        let macros: [(&str, i64, i64, i64, i64, bool); 12] = [
            ("u_p0/u_mem/bank0", 50000, 40000, 108599, 65137, true),
            ("u_p0/u_mem/bank1", 50000, 40000, 6324, 154157, true),
            ("u_p1/u_mem/bank0", 50000, 40000, 100000, 0, false),
            ("u_p1/u_mem/bank1", 46116, 42036, 100000, 40000, false),
            ("u_p2/u_mem/bank0", 48406, 25029, 29201, 135919, false),
            ("u_p2/u_mem/bank1", 38971, 40861, 50000, 0, false),
            ("u_p3/u_mem/bank0", 50000, 40000, 94466, 98283, false),
            ("u_p3/u_mem/bank1", 46792, 31394, 50000, 120000, true),
            ("u_p4/u_mem/bank0", 39386, 38577, 123722, 83300, false),
            ("u_p4/u_mem/bank1", 36586, 40113, 0, 80000, true),
            ("u_p5/u_mem/bank0", 43541, 38888, 100000, 120000, false),
            ("u_p5/u_mem/bank1", 46781, 33664, 0, 120000, true),
        ];
        let mut b = DesignBuilder::new("packed_eco");
        let mut seed = MacroPlacement::default();
        for (name, w, h, x, y, flipped) in macros {
            let parent = name.rsplit_once('/').expect("hierarchical name").0;
            let cell = b.add_macro(name, "RAM", w, h, parent);
            seed.macros.push(PlacedMacro {
                cell,
                location: geometry::Point::new(x, y),
                orientation: if flipped { Orientation::FN } else { Orientation::N },
            });
        }
        b.set_die(Rect::new(0, 0, 161515, 161515));
        let design = b.build();

        let flow = HidapFlow::new(HidapConfig::fast());
        let mut stages: Vec<String> = Vec::new();
        let warm = flow
            .run_probed(&design, None, Some(&seed), &mut |stage| stages.push(format!("{stage:?}")))
            .unwrap();
        assert!(warm.is_legal(&design), "the fallback produced a legal placement");
        // the fallback actually engaged: the full flow's global stages ran
        // after the incremental legalization checkpoint
        assert!(
            stages.iter().any(|s| s.starts_with("HierarchyBuilt")),
            "expected the full-flow fallback to run, saw stages {stages:?}"
        );
        // and it matches the cold flow on the same design exactly
        assert_eq!(warm, flow.run(&design).unwrap(), "the fallback IS the cold flow");
    }

    #[test]
    fn warm_run_reports_only_tail_stages() {
        let design = soc_design();
        let flow = HidapFlow::new(HidapConfig::fast());
        let cold = flow.run(&design).unwrap();
        let mut stages: Vec<&'static str> = Vec::new();
        flow.run_probed(&design, None, Some(&cold), &mut |stage| {
            stages.push(match stage {
                FlowStage::LegalizationDone { .. } => "legalize",
                FlowStage::FlippingDone { .. } => "flipping",
                _ => "other",
            });
        })
        .unwrap();
        assert_eq!(stages, ["legalize", "flipping"]);
    }

    #[test]
    fn probed_run_matches_plain_run() {
        let design = soc_design();
        let plain = HidapFlow::new(HidapConfig::fast()).run(&design).unwrap();
        let probed = HidapFlow::new(HidapConfig::fast())
            .run_probed(&design, None, None, &mut |_| {})
            .unwrap();
        assert_eq!(plain, probed);
    }
}
