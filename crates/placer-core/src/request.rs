//! The engine's request/outcome types and the [`Placer`] trait.

use crate::context::PlaceContext;
use crate::error::PlaceError;
use eval::{CellPlacement, EvalConfig, PlacementMetrics};
use hidap::MacroPlacement;
use netlist::design::Design;

/// Compute-budget tiers shared by every flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EffortLevel {
    /// Reduced effort for CI and quick experiments.
    Fast,
    /// Each flow's default effort.
    Default,
    /// Paper-style high effort.
    High,
}

impl EffortLevel {
    /// Parses the CLI `--effort` value.
    pub fn parse(s: &str) -> Option<EffortLevel> {
        match s {
            "fast" => Some(EffortLevel::Fast),
            "default" => Some(EffortLevel::Default),
            "high" => Some(EffortLevel::High),
            _ => None,
        }
    }
}

/// What to place and under which knobs.
///
/// A request is flow-agnostic: it carries the design (placed inside its own
/// die), the RNG seed, an optional effort tier (when `None`, the flow uses
/// whatever configuration it was constructed with), an optional λ
/// constraint, and optionally which evaluation to run on the result.
#[derive(Clone)]
pub struct PlaceRequest<'a> {
    /// The design to place.
    pub design: &'a Design,
    /// RNG seed; every flow must be deterministic for a fixed seed.
    pub seed: u64,
    /// Effort tier; `None` keeps the flow's configured effort.
    pub effort: Option<EffortLevel>,
    /// λ blend between block flow and macro flow; `None` keeps the flow's
    /// configured value (flows without a λ knob ignore it).
    pub lambda: Option<f64>,
    /// When set, the outcome carries [`PlaceOutcome::metrics`] evaluated with
    /// this configuration.
    pub evaluate: Option<EvalConfig>,
    /// Warm-start seed: a previous macro placement of (an earlier revision
    /// of) the same design. Flows that support incremental re-placement
    /// (hidap) skip their global stages and only re-legalize from this seed;
    /// flows without a warm path ignore it.
    pub warm_start: Option<&'a MacroPlacement>,
    /// Warm-start seed for the evaluation placer: the previous standard-cell
    /// placement (available as `PlacementMetrics::cell_placement` on the
    /// prior outcome). Only consulted when [`PlaceRequest::evaluate`] is
    /// set; the Gauss–Seidel solver then starts from these positions and
    /// stops at the first non-improving sweep.
    pub warm_cells: Option<&'a CellPlacement>,
}

impl<'a> PlaceRequest<'a> {
    /// A request with seed 1 and every knob left at the flow's default.
    pub fn new(design: &'a Design) -> Self {
        Self {
            design,
            seed: 1,
            effort: None,
            lambda: None,
            evaluate: None,
            warm_start: None,
            warm_cells: None,
        }
    }

    /// Sets the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the effort tier.
    pub fn with_effort(mut self, effort: EffortLevel) -> Self {
        self.effort = Some(effort);
        self
    }

    /// Sets the λ constraint.
    pub fn with_lambda(mut self, lambda: f64) -> Self {
        self.lambda = Some(lambda);
        self
    }

    /// Requests metrics evaluation of the result.
    pub fn with_evaluation(mut self, eval: EvalConfig) -> Self {
        self.evaluate = Some(eval);
        self
    }

    /// Seeds the flow from a previous macro placement (the ECO warm-start
    /// path — see `docs/ECO.md`).
    pub fn with_warm_start(mut self, placement: &'a MacroPlacement) -> Self {
        self.warm_start = Some(placement);
        self
    }

    /// Seeds the evaluation placer from a previous standard-cell placement.
    pub fn with_warm_cells(mut self, cells: &'a CellPlacement) -> Self {
        self.warm_cells = Some(cells);
        self
    }

    /// Validates the request-level constraints shared by all flows.
    pub fn validate(&self) -> Result<(), PlaceError> {
        if let Some(lambda) = self.lambda {
            if !(0.0..=1.0).contains(&lambda) {
                return Err(PlaceError::InvalidRequest(format!(
                    "lambda must be in [0, 1], got {lambda}"
                )));
            }
        }
        Ok(())
    }
}

/// Wall-clock duration of one flow stage.
#[derive(Debug, Clone, PartialEq)]
pub struct StageTiming {
    /// Stage name (`hierarchy`, `shape_curves`, `floorplan`, `flipping`,
    /// `legalize`, `evaluate`, ...).
    pub stage: String,
    /// Seconds spent in the stage.
    pub seconds: f64,
}

/// The result of one placement run.
#[derive(Debug, Clone, PartialEq)]
pub struct PlaceOutcome {
    /// The macro placement.
    pub placement: MacroPlacement,
    /// Name of the flow that produced it.
    pub flow: String,
    /// Seed the run used.
    pub seed: u64,
    /// λ the run used, when the flow has a λ knob.
    pub lambda: Option<f64>,
    /// Per-stage wall-clock timings, in stage order.
    pub stage_timings: Vec<StageTiming>,
    /// Total wall-clock seconds of the run (excluding evaluation).
    pub wall_s: f64,
    /// Quality metrics, present when the request asked for evaluation.
    pub metrics: Option<PlacementMetrics>,
}

impl PlaceOutcome {
    /// Seconds spent in a named stage, when that stage was recorded.
    pub fn stage_seconds(&self, stage: &str) -> Option<f64> {
        self.stage_timings.iter().find(|t| t.stage == stage).map(|t| t.seconds)
    }
}

/// A macro-placement flow behind the unified engine API.
///
/// Implementations must be deterministic for a fixed request. `Send + Sync`
/// is required so [`crate::BatchRunner`] can fan one placer out across
/// worker threads.
pub trait Placer: Send + Sync {
    /// The flow's registry name (`hidap`, `indeda`, `handfp`, ...).
    fn name(&self) -> &str;

    /// Whether the flow has a λ knob. Sweep front ends collapse the λ axis
    /// of a grid for flows without one (every λ would produce the same
    /// placement).
    fn supports_lambda(&self) -> bool {
        true
    }

    /// Whether the flow is itself a multi-run composition (like the handFP
    /// oracle). Sweeping a composite flow again multiplies its entire
    /// internal sweep per grid cell, so front ends reject that.
    fn is_composite(&self) -> bool {
        false
    }

    /// Runs the flow on one request.
    fn place(
        &self,
        req: &PlaceRequest<'_>,
        ctx: &mut PlaceContext,
    ) -> Result<PlaceOutcome, PlaceError>;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_builder_sets_knobs() {
        let design = netlist::design::DesignBuilder::new("t").build();
        let req =
            PlaceRequest::new(&design).with_seed(9).with_effort(EffortLevel::Fast).with_lambda(0.3);
        assert_eq!(req.seed, 9);
        assert_eq!(req.effort, Some(EffortLevel::Fast));
        assert_eq!(req.lambda, Some(0.3));
        assert!(req.validate().is_ok());
    }

    #[test]
    fn out_of_range_lambda_is_invalid() {
        let design = netlist::design::DesignBuilder::new("t").build();
        let req = PlaceRequest::new(&design).with_lambda(1.5);
        assert!(matches!(req.validate(), Err(PlaceError::InvalidRequest(_))));
    }

    #[test]
    fn effort_parsing() {
        assert_eq!(EffortLevel::parse("fast"), Some(EffortLevel::Fast));
        assert_eq!(EffortLevel::parse("default"), Some(EffortLevel::Default));
        assert_eq!(EffortLevel::parse("high"), Some(EffortLevel::High));
        assert_eq!(EffortLevel::parse("paper"), None);
    }
}
