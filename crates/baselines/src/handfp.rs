//! The handFP proxy: an effort-unconstrained oracle flow.
//!
//! The paper's handFP reference is a floorplan refined over 2–4 weeks by
//! expert back-end engineers.  As a reproducible stand-in, this flow spends a
//! large compute budget instead of human effort: it sweeps the dataflow-aware
//! placer over a seed×λ grid at high annealing effort and keeps the placement
//! with the lowest measured wirelength.
//!
//! The sweep itself is a thin composition over the engine's
//! [`BatchRunner`]: the grid cells run in parallel across all cores, and the
//! winner is picked deterministically (lowest wirelength, ties to the lowest
//! grid index) regardless of the worker count.

use hidap::{HidapConfig, HidapError, HidapFlow, MacroPlacement};
use netlist::design::Design;
use placer_core::{
    BatchGrid, BatchOutcome, BatchRunner, EffortLevel, PlaceContext, PlaceError, PlaceOutcome,
    PlaceRequest, Placer,
};

/// Configuration of the handFP proxy.
#[derive(Debug, Clone, PartialEq)]
pub struct HandFpConfig {
    /// Seeds to try.
    pub seeds: Vec<u64>,
    /// λ values to try.
    pub lambdas: Vec<f64>,
    /// Base placer configuration (effort knobs); seed and λ are overridden.
    pub base: HidapConfig,
    /// Worker threads for the sweep (0 = all available cores).
    pub jobs: usize,
}

impl Default for HandFpConfig {
    fn default() -> Self {
        Self {
            seeds: vec![1, 2, 3, 4],
            lambdas: vec![0.2, 0.5, 0.8],
            base: HidapConfig::high_effort(),
            jobs: 0,
        }
    }
}

impl HandFpConfig {
    /// A reduced-effort configuration for tests.
    pub fn fast() -> Self {
        Self {
            seeds: vec![1, 2],
            lambdas: vec![0.2, 0.8],
            base: HidapConfig::fast(),
            ..Self::default()
        }
    }

    /// The configuration implied by an engine effort tier.
    pub fn for_effort(effort: EffortLevel) -> Self {
        match effort {
            EffortLevel::Fast => Self {
                seeds: vec![1, 2],
                lambdas: vec![0.2, 0.5, 0.8],
                base: HidapConfig::fast(),
                ..Self::default()
            },
            EffortLevel::Default => Self {
                seeds: vec![1, 2, 3],
                lambdas: vec![0.2, 0.5, 0.8],
                base: HidapConfig::default(),
                ..Self::default()
            },
            EffortLevel::High => Self::default(),
        }
    }
}

/// The handFP oracle flow.
#[derive(Debug, Clone)]
pub struct HandFp {
    config: HandFpConfig,
}

impl HandFp {
    /// Creates the oracle flow with the given configuration.
    pub fn new(config: HandFpConfig) -> Self {
        Self { config }
    }

    /// The flow configuration.
    pub fn config(&self) -> &HandFpConfig {
        &self.config
    }

    /// Runs the full seed×λ sweep through the engine's [`BatchRunner`],
    /// returning the winner and every per-cell summary. `template` names
    /// the design and the evaluation every candidate is ranked by (the
    /// standard evaluation when it has none).
    ///
    /// # Errors
    ///
    /// Fails only when every candidate fails (first grid-order error) or the
    /// grid is empty.
    pub fn run_batch(
        &self,
        config: &HandFpConfig,
        template: &PlaceRequest<'_>,
        ctx: &mut PlaceContext,
    ) -> Result<BatchOutcome, PlaceError> {
        let placer = HidapFlow::new(config.base.clone());
        let grid = BatchGrid::new(config.seeds.clone(), config.lambdas.clone());
        BatchRunner::new().with_jobs(config.jobs).run(&placer, template, &grid, ctx)
    }

    /// Runs every candidate configuration (in parallel) and returns the
    /// placement with the lowest measured wirelength, together with that
    /// wirelength in meters under the standard evaluation.
    ///
    /// # Errors
    ///
    /// Propagates the first placement error if *every* candidate fails;
    /// otherwise failed candidates are simply skipped.
    pub fn run(&self, design: &Design) -> Result<(MacroPlacement, f64), HidapError> {
        match self.run_batch(&self.config, &PlaceRequest::new(design), &mut PlaceContext::new()) {
            Ok(batch) => Ok((batch.winner.placement, batch.winner_score)),
            Err(PlaceError::Flow(e)) => Err(e),
            Err(other) => Err(HidapError::Internal(other.to_string())),
        }
    }

    /// Number of candidate runs the configuration will perform.
    pub fn num_candidates(&self) -> usize {
        self.config.seeds.len() * self.config.lambdas.len()
    }
}

/// The oracle's engine adapter. The flow's identity is its configured
/// seed×λ grid, so `req.seed` / `req.lambda` do not apply: the request
/// selects the design, effort tier and evaluation, and the grid does the
/// rest.
impl Placer for HandFp {
    fn name(&self) -> &str {
        "handfp"
    }

    fn supports_lambda(&self) -> bool {
        false
    }

    fn is_composite(&self) -> bool {
        true
    }

    fn place(
        &self,
        req: &PlaceRequest<'_>,
        ctx: &mut PlaceContext,
    ) -> Result<PlaceOutcome, PlaceError> {
        req.validate()?;
        let config = match req.effort {
            // effort tiers pick the grid and base placer; the worker count
            // stays as configured
            Some(effort) => {
                HandFpConfig { jobs: self.config.jobs, ..HandFpConfig::for_effort(effort) }
            }
            None => self.config.clone(),
        };
        let template = PlaceRequest { evaluate: req.evaluate, ..PlaceRequest::new(req.design) };
        let batch = self.run_batch(&config, &template, ctx)?;
        let mut outcome = batch.winner;
        outcome.flow = "handfp".into();
        Ok(outcome)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eval::Evaluator;
    use geometry::Rect;
    use netlist::design::DesignBuilder;

    fn small_design() -> Design {
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
    fn returns_legal_best_candidate() {
        let d = small_design();
        let (placement, wl) = HandFp::new(HandFpConfig::fast()).run(&d).unwrap();
        assert_eq!(placement.macros.len(), 2);
        assert!(placement.is_legal(&d));
        assert!(wl > 0.0);
    }

    #[test]
    fn candidate_count_is_seeds_times_lambdas() {
        let oracle = HandFp::new(HandFpConfig::fast());
        assert_eq!(oracle.num_candidates(), 4);
    }

    #[test]
    fn oracle_not_worse_than_single_run() {
        let d = small_design();
        let (_, oracle_wl) = HandFp::new(HandFpConfig::fast()).run(&d).unwrap();
        // a single run with one of the candidate configurations
        let single =
            HidapFlow::new(HidapConfig::fast().with_lambda(0.2).with_seed(1)).run(&d).unwrap();
        let single_wl = Evaluator::standard().evaluate(&d, &single).wirelength_m;
        assert!(oracle_wl <= single_wl + 1e-12);
    }

    #[test]
    fn error_propagated_when_all_candidates_fail() {
        let mut b = DesignBuilder::new("t");
        b.add_macro("huge", "RAM", 1000, 1000, "");
        b.set_die(Rect::new(0, 0, 100, 100));
        let d = b.build();
        assert!(HandFp::new(HandFpConfig::fast()).run(&d).is_err());
    }

    #[test]
    fn serial_and_parallel_sweeps_agree() {
        let d = small_design();
        let serial = HandFp::new(HandFpConfig { jobs: 1, ..HandFpConfig::fast() }).run(&d).unwrap();
        let parallel =
            HandFp::new(HandFpConfig { jobs: 4, ..HandFpConfig::fast() }).run(&d).unwrap();
        assert_eq!(serial.0, parallel.0, "winner placement must not depend on worker count");
        assert_eq!(serial.1, parallel.1);
    }

    #[test]
    fn placer_trait_returns_the_sweep_winner() {
        let d = small_design();
        let oracle = HandFp::new(HandFpConfig::fast());
        let via_trait = oracle.place(&PlaceRequest::new(&d), &mut PlaceContext::new()).unwrap();
        let (direct, wl) = oracle.run(&d).unwrap();
        assert_eq!(via_trait.placement, direct);
        assert_eq!(via_trait.flow, "handfp");
        assert_eq!(via_trait.metrics.expect("the sweep evaluates").wirelength_m, wl);
    }
}
