//! Engine adapters for the flows this crate can see.
//!
//! [`HidapFlow`] gets its [`Placer`] implementation here (the trait lives in
//! this crate, so the impl must too); the baseline flows implement the trait
//! in the `baselines` crate, which depends on this one.

use crate::context::PlaceContext;
use crate::error::PlaceError;
use crate::observer::StageEvent;
use crate::registry::FlowRegistry;
use crate::request::{EffortLevel, PlaceOutcome, PlaceRequest, Placer, StageTiming};
use graphs::seqgraph::SeqGraphConfig;
use hidap::{FlowStage, HidapConfig, HidapFlow};
use std::time::Instant;

/// The HiDaP configuration of an effort tier.
pub fn hidap_config(effort: EffortLevel) -> HidapConfig {
    match effort {
        EffortLevel::Fast => HidapConfig::fast(),
        EffortLevel::Default => HidapConfig::default(),
        EffortLevel::High => HidapConfig::high_effort(),
    }
}

/// The HiDaP configuration a request implies, given a flow's base config.
pub fn hidap_config_for(base: &HidapConfig, req: &PlaceRequest<'_>) -> HidapConfig {
    let mut config = req.effort.map_or_else(|| base.clone(), hidap_config);
    config.seed = req.seed;
    if let Some(lambda) = req.lambda {
        config.lambda = lambda;
    }
    config
}

/// Translates HiDaP probe checkpoints into engine stage events, accumulating
/// per-stage wall-clock time (each checkpoint closes the interval opened by
/// the previous one).
struct StageTracker<'c> {
    ctx: &'c PlaceContext,
    macros: usize,
    last: Instant,
    timings: Vec<StageTiming>,
}

impl<'c> StageTracker<'c> {
    fn new(ctx: &'c PlaceContext, macros: usize) -> Self {
        // lint:allow(wall-clock): report-only wall_s stage timing; never influences placement
        Self { ctx, macros, last: Instant::now(), timings: Vec::new() }
    }

    fn record(&mut self, stage: &str) {
        // lint:allow(wall-clock): report-only wall_s stage timing; never influences placement
        let now = Instant::now();
        let seconds = now.duration_since(self.last).as_secs_f64();
        self.last = now;
        match self.timings.iter_mut().find(|t| t.stage == stage) {
            Some(t) => t.seconds += seconds,
            None => self.timings.push(StageTiming { stage: stage.to_string(), seconds }),
        }
    }

    /// Handles one probe checkpoint.
    fn on_stage(&mut self, stage: &FlowStage<'_>) {
        let event = match stage {
            FlowStage::HierarchyBuilt { nodes } => {
                self.record("hierarchy");
                StageEvent::HierarchyBuilt { nodes: *nodes, macros: self.macros }
            }
            FlowStage::ShapeCurvesReady { curves } => {
                self.record("shape_curves");
                StageEvent::ShapeCurvesReady { curves: *curves }
            }
            FlowStage::LevelFloorplanned { depth, node, blocks } => {
                self.record("floorplan");
                StageEvent::LevelFloorplanned {
                    depth: *depth,
                    node: (*node).to_string(),
                    blocks: *blocks,
                }
            }
            FlowStage::LegalizationDone { moved } => {
                self.record("legalize");
                StageEvent::LegalizationDone { moved: *moved }
            }
            FlowStage::FlippingDone { flipped } => {
                self.record("flipping");
                StageEvent::FlippingDone { flipped: *flipped }
            }
        };
        self.ctx.emit(event);
    }
}

impl Placer for HidapFlow {
    fn name(&self) -> &str {
        "hidap"
    }

    fn place(
        &self,
        req: &PlaceRequest<'_>,
        ctx: &mut PlaceContext,
    ) -> Result<PlaceOutcome, PlaceError> {
        req.validate()?;
        let config = hidap_config_for(self.config(), req);
        let lambda = config.lambda;
        let design = req.design;
        ctx.emit(StageEvent::FlowStarted {
            flow: "hidap".into(),
            seed: req.seed,
            lambda: Some(lambda),
        });

        // lint:allow(wall-clock): report-only wall_s stage timing; never influences placement
        let start = Instant::now();
        let mut tracker = StageTracker::new(ctx, design.num_macros());
        let flow = HidapFlow::new(config);
        let min_register_bits = flow.config().min_register_bits;
        let mut probe = |stage: &FlowStage<'_>| tracker.on_stage(stage);
        let placement = match req.warm_start {
            // the ECO warm path re-legalizes from the seed placement and
            // never floorplans, so it needs neither circuit graph
            Some(warm) => flow.run_probed(design, None, Some(warm), &mut probe),
            None => {
                // both circuit graphs come from the context's design-keyed
                // artifact cache: one `Gnet` build and one `Gseq` build per
                // design (× register-width threshold for `Gseq`) across every
                // run of a sweep or a multi-design service
                let gnet = ctx.artifacts().get_or_build_net(design);
                let gseq =
                    ctx.artifacts().get_or_build_seq(design, &SeqGraphConfig { min_register_bits });
                flow.run_probed(design, Some((&gnet, &gseq)), None, &mut probe)
            }
        }?;
        let mut timings = tracker.timings;
        let wall_s = start.elapsed().as_secs_f64();

        let metrics = req.evaluate.as_ref().map(|eval_cfg| {
            // lint:allow(wall-clock): report-only wall_s stage timing; never influences placement
            let t = Instant::now();
            // the context's evaluator shares the Gseq cache across a sweep
            let metrics = match req.warm_cells {
                Some(cells) => ctx.evaluator(*eval_cfg).evaluate_warm(design, &placement, cells).0,
                None => ctx.evaluator(*eval_cfg).evaluate(design, &placement),
            };
            timings
                .push(StageTiming { stage: "evaluate".into(), seconds: t.elapsed().as_secs_f64() });
            metrics
        });

        ctx.emit(StageEvent::FlowFinished { wall_s, legal: placement.is_legal(design) });
        Ok(PlaceOutcome {
            placement,
            flow: "hidap".into(),
            seed: req.seed,
            lambda: Some(lambda),
            stage_timings: timings,
            wall_s,
            metrics,
        })
    }
}

/// A registry with the flows this crate can construct (just `hidap`; the
/// `baselines` crate layers `indeda` and `handfp` on top via
/// `baselines::default_registry`).
pub fn builtin_registry() -> FlowRegistry {
    let mut registry = FlowRegistry::new();
    registry.register("hidap", || Box::new(HidapFlow::new(HidapConfig::default())));
    registry
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observer::CollectingObserver;
    use geometry::Rect;
    use netlist::design::DesignBuilder;
    use std::sync::Arc;

    fn pipeline_design() -> netlist::design::Design {
        let mut b = DesignBuilder::new("t");
        let a = b.add_macro("u_a/ram", "RAM", 200, 150, "u_a");
        let c = b.add_macro("u_b/ram", "RAM", 200, 150, "u_b");
        for i in 0..8 {
            let f = b.add_flop(format!("u_x/pipe_reg[{i}]"), "u_x");
            let n0 = b.add_net(format!("n0_{i}"));
            let n1 = b.add_net(format!("n1_{i}"));
            b.connect_driver(n0, a);
            b.connect_sink(n0, f);
            b.connect_driver(n1, f);
            b.connect_sink(n1, c);
        }
        b.set_die(Rect::new(0, 0, 2000, 1500));
        b.build()
    }

    #[test]
    fn hidap_flow_places_through_the_trait() {
        let design = pipeline_design();
        let placer = HidapFlow::new(HidapConfig::fast());
        let req = PlaceRequest::new(&design).with_seed(3).with_lambda(0.2);
        let outcome = placer.place(&req, &mut PlaceContext::new()).unwrap();
        assert_eq!(outcome.placement.macros.len(), 2);
        assert_eq!(outcome.flow, "hidap");
        assert_eq!(outcome.seed, 3);
        assert_eq!(outcome.lambda, Some(0.2));
        assert!(outcome.stage_seconds("floorplan").is_some());
        assert!(outcome.wall_s > 0.0);
        assert!(outcome.metrics.is_none());
    }

    #[test]
    fn trait_run_matches_direct_run() {
        let design = pipeline_design();
        let config = HidapConfig::fast().with_seed(5).with_lambda(0.8);
        let direct = HidapFlow::new(config.clone()).run(&design).unwrap();
        let via_trait = HidapFlow::new(config)
            .place(
                &PlaceRequest::new(&design).with_seed(5).with_lambda(0.8),
                &mut PlaceContext::new(),
            )
            .unwrap();
        assert_eq!(direct, via_trait.placement);
    }

    #[test]
    fn observer_receives_lifecycle_events() {
        let design = pipeline_design();
        let obs = Arc::new(CollectingObserver::new());
        let mut ctx = PlaceContext::new().with_observer(obs.clone());
        HidapFlow::new(HidapConfig::fast()).place(&PlaceRequest::new(&design), &mut ctx).unwrap();
        let events = obs.events();
        assert!(matches!(events.first(), Some(StageEvent::FlowStarted { .. })));
        assert!(
            events.iter().any(|e| matches!(e, StageEvent::HierarchyBuilt { macros: 2, .. })),
            "HierarchyBuilt must carry the design's macro count: {events:?}"
        );
        assert!(matches!(events.last(), Some(StageEvent::FlowFinished { legal: true, .. })));
        assert!(obs.count(|e| matches!(e, StageEvent::LevelFloorplanned { .. })) >= 1);
        assert_eq!(obs.count(|e| matches!(e, StageEvent::FlippingDone { .. })), 1);
        assert_eq!(obs.count(|e| matches!(e, StageEvent::LegalizationDone { .. })), 1);
    }

    #[test]
    fn evaluation_attaches_metrics() {
        let design = pipeline_design();
        let req = PlaceRequest::new(&design).with_evaluation(eval::EvalConfig::standard());
        let outcome =
            HidapFlow::new(HidapConfig::fast()).place(&req, &mut PlaceContext::new()).unwrap();
        assert!(outcome.stage_seconds("evaluate").is_some());
        assert!(outcome.metrics.expect("metrics requested").wirelength_m > 0.0);
    }

    #[test]
    fn warm_start_skips_global_stages_and_stays_legal() {
        let design = pipeline_design();
        let placer = HidapFlow::new(HidapConfig::fast());
        let mut ctx = PlaceContext::new();
        let cold = placer
            .place(
                &PlaceRequest::new(&design).with_evaluation(eval::EvalConfig::standard()),
                &mut ctx,
            )
            .unwrap();
        let cold_metrics = cold.metrics.as_ref().expect("metrics requested");

        let warm_req = PlaceRequest::new(&design)
            .with_evaluation(eval::EvalConfig::standard())
            .with_warm_start(&cold.placement)
            .with_warm_cells(&cold_metrics.cell_placement);
        let warm = placer.place(&warm_req, &mut ctx).unwrap();
        assert!(warm.placement.is_legal(&design));
        // warm-starting from the cold result keeps every macro location
        assert_eq!(warm.placement.macros, cold.placement.macros);
        // the global stages never ran on the warm path
        assert!(warm.stage_seconds("hierarchy").is_none());
        assert!(warm.stage_seconds("shape_curves").is_none());
        assert!(warm.stage_seconds("floorplan").is_none());
        assert!(warm.stage_seconds("legalize").is_some());
        assert!(warm.stage_seconds("evaluate").is_some());
        // and the warm path is deterministic
        let again = placer.place(&warm_req, &mut PlaceContext::new()).unwrap();
        assert_eq!(again.placement, warm.placement);
        assert_eq!(again.metrics.unwrap(), *warm.metrics.as_ref().unwrap());
    }

    #[test]
    fn builtin_registry_resolves_hidap() {
        let registry = builtin_registry();
        assert_eq!(registry.names(), vec!["hidap".to_string()]);
        let placer = registry.create("hidap").unwrap();
        assert_eq!(placer.name(), "hidap");
        assert!(matches!(registry.create("nope"), Err(PlaceError::UnknownFlow { .. })));
    }
}
