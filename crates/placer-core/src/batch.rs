//! Parallel seed×λ batch execution with deterministic winner selection.

use crate::context::PlaceContext;
use crate::error::PlaceError;
use crate::observer::StageEvent;
use crate::request::{PlaceOutcome, PlaceRequest, Placer};
use eval::EvalConfig;
use hidap::HidapError;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Per-cell result slot: the outcome and its wirelength score, or the error.
type CellResult = Result<(PlaceOutcome, f64), PlaceError>;

/// The seed×λ grid a batch explores (row-major: all λ for the first seed,
/// then all λ for the second, ...).
#[derive(Debug, Clone, PartialEq)]
pub struct BatchGrid {
    /// RNG seeds to try.
    pub seeds: Vec<u64>,
    /// λ values to try.
    pub lambdas: Vec<f64>,
}

impl BatchGrid {
    /// A grid over explicit seeds and λ values.
    pub fn new(seeds: Vec<u64>, lambdas: Vec<f64>) -> Self {
        Self { seeds, lambdas }
    }

    /// A grid whose seeds are derived deterministically from `base_seed`
    /// with SplitMix64 — the per-run RNG derivation used by sweep front
    /// ends. The same `base_seed` and `num_seeds` always produce the same
    /// seeds, independent of thread count or execution order.
    pub fn derived(base_seed: u64, num_seeds: usize, lambdas: Vec<f64>) -> Self {
        let mut state = base_seed;
        let seeds = (0..num_seeds).map(|_| splitmix64(&mut state)).collect();
        Self { seeds, lambdas }
    }

    /// Number of grid cells.
    pub fn len(&self) -> usize {
        self.seeds.len() * self.lambdas.len()
    }

    /// Whether the grid has no cells.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The (seed, λ) of cell `index` (row-major).
    pub fn cell(&self, index: usize) -> (u64, f64) {
        let row = index / self.lambdas.len();
        let col = index % self.lambdas.len();
        (self.seeds[row], self.lambdas[col])
    }
}

/// One step of the SplitMix64 sequence (the same scheme the RNG seeding
/// uses), kept local so the derivation is stable even if the RNG shim moves.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The fate of one grid cell.
#[derive(Debug, Clone, PartialEq)]
pub struct RunSummary {
    /// Grid index (row-major).
    pub index: usize,
    /// Seed of the cell.
    pub seed: u64,
    /// λ of the cell.
    pub lambda: f64,
    /// Measured wirelength in meters, the score the winner is picked by
    /// (lower is better); `None` when the run failed.
    pub score: Option<f64>,
    /// Error message when the run failed.
    pub error: Option<String>,
    /// Wall-clock seconds of the run.
    pub wall_s: f64,
}

/// The result of a batch: the winning outcome plus per-cell summaries.
#[derive(Debug, Clone)]
pub struct BatchOutcome {
    /// The winning run's outcome.
    pub winner: PlaceOutcome,
    /// Grid index of the winner.
    pub winner_index: usize,
    /// Measured wirelength of the winner in meters.
    pub winner_score: f64,
    /// One summary per grid cell, in grid order.
    pub runs: Vec<RunSummary>,
}

/// Executes a seed×λ grid, in parallel across worker threads, and keeps the
/// run with the lowest measured wirelength, the selection rule of the
/// paper's handFP oracle and best-of-λ experiments.
///
/// Each cell is evaluated with the template's [`PlaceRequest::evaluate`]
/// configuration, or [`EvalConfig::standard`] when the template has none,
/// and scored by its [`eval::PlacementMetrics::wirelength_m`]. The winner
/// therefore carries the metrics its score was read from.
///
/// Guarantees:
///
/// * **determinism** — each cell's request is derived only from the grid
///   spec (its seed and λ), and the winner is the lowest score with ties
///   broken by grid index; the result is identical for any `jobs` value,
/// * **isolation** — cells run with independent contexts sharing the
///   caller's observer and artifact cache,
/// * **error tolerance** — failed cells are skipped; the batch fails only
///   when every cell fails (reporting the first error in grid order).
pub struct BatchRunner {
    jobs: usize,
}

impl Default for BatchRunner {
    fn default() -> Self {
        Self::new()
    }
}

impl BatchRunner {
    /// A runner using every available core.
    pub fn new() -> Self {
        Self { jobs: 0 }
    }

    /// Sets the worker-thread count (0 = all available cores).
    pub fn with_jobs(mut self, jobs: usize) -> Self {
        self.jobs = jobs;
        self
    }

    /// The effective worker count for a grid of `cells` runs.
    pub fn effective_jobs(&self, cells: usize) -> usize {
        let available = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
        let jobs = if self.jobs == 0 { available } else { self.jobs };
        jobs.clamp(1, cells.max(1))
    }

    /// Runs every cell of `grid` through `placer` and returns the winner.
    ///
    /// `template` supplies everything but seed and λ: the design, effort
    /// tier, evaluation and warm start. The template's own seed/λ are
    /// ignored.
    ///
    /// # Errors
    ///
    /// * [`PlaceError::InvalidRequest`] for an empty grid,
    /// * the first cell error (in grid order) when every cell fails. A cell
    ///   whose flow attaches no metrics fails with [`PlaceError::Flow`].
    pub fn run(
        &self,
        placer: &dyn Placer,
        template: &PlaceRequest<'_>,
        grid: &BatchGrid,
        ctx: &mut PlaceContext,
    ) -> Result<BatchOutcome, PlaceError> {
        if grid.is_empty() {
            return Err(PlaceError::InvalidRequest("batch grid has no cells".into()));
        }
        if placer.is_composite() {
            return Err(PlaceError::InvalidRequest(format!(
                "flow '{}' is itself a multi-run composition; sweeping it would nest \
                 entire sweeps per grid cell",
                placer.name()
            )));
        }
        let total = grid.len();
        let jobs = self.effective_jobs(total);
        let evaluate = template.evaluate.unwrap_or_else(EvalConfig::standard);
        let next_cell = AtomicUsize::new(0);
        let results: Mutex<Vec<Option<CellResult>>> = Mutex::new(vec![None; total]);

        std::thread::scope(|scope| {
            for _ in 0..jobs {
                scope.spawn(|| loop {
                    let index = next_cell.fetch_add(1, Ordering::SeqCst);
                    if index >= total {
                        break;
                    }
                    let (seed, lambda) = grid.cell(index);
                    let mut child_ctx = ctx.child();
                    child_ctx.emit(StageEvent::BatchRunStarted { index, total, seed, lambda });
                    let request = template
                        .clone()
                        .with_seed(seed)
                        .with_lambda(lambda)
                        .with_evaluation(evaluate);
                    let result = placer.place(&request, &mut child_ctx).and_then(|outcome| {
                        let score =
                            outcome.metrics.as_ref().map(|m| m.wirelength_m).ok_or_else(|| {
                                PlaceError::Flow(HidapError::Internal(format!(
                                    "flow '{}' attached no metrics, so its run cannot be ranked",
                                    placer.name()
                                )))
                            })?;
                        Ok((outcome, score))
                    });
                    child_ctx.emit(StageEvent::BatchRunFinished {
                        index,
                        score: result.as_ref().ok().map(|(_, s)| *s),
                    });
                    results.lock().expect("batch results lock")[index] = Some(result);
                });
            }
        });

        let results = results.into_inner().expect("batch results lock");
        let mut runs = Vec::with_capacity(total);
        let mut winner: Option<(usize, f64, PlaceOutcome)> = None;
        let mut first_error: Option<PlaceError> = None;
        for (index, slot) in results.into_iter().enumerate() {
            let (seed, lambda) = grid.cell(index);
            match slot.expect("every grid cell was executed") {
                Ok((outcome, score)) => {
                    runs.push(RunSummary {
                        index,
                        seed,
                        lambda,
                        score: Some(score),
                        error: None,
                        wall_s: outcome.wall_s,
                    });
                    let better = match &winner {
                        Some((_, best, _)) => score < *best,
                        None => true,
                    };
                    if better {
                        winner = Some((index, score, outcome));
                    }
                }
                Err(err) => {
                    runs.push(RunSummary {
                        index,
                        seed,
                        lambda,
                        score: None,
                        error: Some(err.to_string()),
                        wall_s: 0.0,
                    });
                    first_error.get_or_insert(err);
                }
            }
        }

        match winner {
            Some((winner_index, winner_score, winner)) => {
                Ok(BatchOutcome { winner, winner_index, winner_score, runs })
            }
            None => Err(first_error.unwrap_or_else(|| {
                PlaceError::InvalidRequest("no batch cell produced a result".into())
            })),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use geometry::Rect;
    use hidap::{HidapConfig, HidapFlow};
    use netlist::design::{Design, DesignBuilder};

    fn pipeline_design() -> Design {
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
    fn grid_indexing_is_row_major() {
        let grid = BatchGrid::new(vec![7, 9], vec![0.2, 0.5, 0.8]);
        assert_eq!(grid.len(), 6);
        assert_eq!(grid.cell(0), (7, 0.2));
        assert_eq!(grid.cell(2), (7, 0.8));
        assert_eq!(grid.cell(3), (9, 0.2));
        assert_eq!(grid.cell(5), (9, 0.8));
    }

    #[test]
    fn derived_grids_are_reproducible_and_seed_distinct() {
        let a = BatchGrid::derived(42, 4, vec![0.5]);
        let b = BatchGrid::derived(42, 4, vec![0.5]);
        assert_eq!(a, b);
        let mut seeds = a.seeds.clone();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), 4, "derived seeds must be distinct: {seeds:?}");
        assert_ne!(a.seeds, BatchGrid::derived(43, 4, vec![0.5]).seeds);
    }

    #[test]
    fn batch_picks_a_legal_winner_and_reports_every_cell() {
        let design = pipeline_design();
        let placer = HidapFlow::new(HidapConfig::fast());
        let grid = BatchGrid::new(vec![1, 2], vec![0.2, 0.8]);
        let outcome = BatchRunner::new()
            .with_jobs(2)
            .run(&placer, &PlaceRequest::new(&design), &grid, &mut PlaceContext::new())
            .unwrap();
        assert_eq!(outcome.runs.len(), 4);
        assert!(outcome.runs.iter().all(|r| r.score.is_some()));
        assert!(outcome.winner.placement.is_legal(&design));
        assert_eq!(outcome.winner_score, outcome.runs[outcome.winner_index].score.unwrap());
        // the winner really is the minimum score, ties to the lowest index
        let best = outcome
            .runs
            .iter()
            .filter_map(|r| r.score.map(|s| (r.index, s)))
            .min_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)))
            .unwrap();
        assert_eq!(outcome.winner_index, best.0);
    }

    #[test]
    fn cells_are_scored_at_the_template_evaluation() {
        // a design whose LEF says 2000 DBU/µm: the template's config must
        // score every cell, not the 1000 DBU/µm standard
        let design = pipeline_design();
        let config = EvalConfig { dbu_per_micron: 2000, ..EvalConfig::standard() };
        let placer = HidapFlow::new(HidapConfig::fast());
        let grid = BatchGrid::new(vec![1, 2], vec![0.2, 0.8]);
        let template = PlaceRequest::new(&design).with_evaluation(config);
        let outcome = BatchRunner::new()
            .with_jobs(2)
            .run(&placer, &template, &grid, &mut PlaceContext::new())
            .unwrap();
        for run in &outcome.runs {
            let direct = placer
                .place(
                    &template.clone().with_seed(run.seed).with_lambda(run.lambda),
                    &mut PlaceContext::new(),
                )
                .unwrap();
            let metrics = direct.metrics.expect("the template asks for metrics");
            assert_eq!(run.score, Some(metrics.wirelength_m), "cell {}", run.index);
        }
        let metrics = outcome.winner.metrics.as_ref().expect("the winner carries metrics");
        assert_eq!(outcome.winner_score, metrics.wirelength_m);
        let fresh = eval::Evaluator::new(config).evaluate(&design, &outcome.winner.placement);
        assert_eq!(*metrics, fresh);
    }

    #[test]
    fn a_run_without_metrics_fails_its_cell() {
        struct Unevaluated;
        impl crate::request::Placer for Unevaluated {
            fn name(&self) -> &str {
                "unevaluated"
            }
            fn place(
                &self,
                req: &PlaceRequest<'_>,
                _ctx: &mut PlaceContext,
            ) -> Result<PlaceOutcome, PlaceError> {
                Ok(PlaceOutcome {
                    placement: hidap::MacroPlacement::default(),
                    flow: "unevaluated".into(),
                    seed: req.seed,
                    lambda: req.lambda,
                    stage_timings: Vec::new(),
                    wall_s: 0.0,
                    metrics: None,
                })
            }
        }
        let design = pipeline_design();
        let grid = BatchGrid::new(vec![1, 2], vec![0.5]);
        let err = BatchRunner::new()
            .run(&Unevaluated, &PlaceRequest::new(&design), &grid, &mut PlaceContext::new())
            .unwrap_err();
        assert!(matches!(err, PlaceError::Flow(HidapError::Internal(_))), "{err}");
        assert!(err.to_string().contains("no metrics"), "{err}");
    }

    #[test]
    fn empty_grid_is_rejected() {
        let design = pipeline_design();
        let placer = HidapFlow::new(HidapConfig::fast());
        let grid = BatchGrid::new(vec![], vec![0.5]);
        let err = BatchRunner::new()
            .run(&placer, &PlaceRequest::new(&design), &grid, &mut PlaceContext::new())
            .unwrap_err();
        assert!(matches!(err, PlaceError::InvalidRequest(_)));
    }

    #[test]
    fn all_cells_failing_surfaces_first_error() {
        // a die too small for the macros makes every cell fail
        let mut b = DesignBuilder::new("t");
        b.add_macro("huge", "RAM", 1000, 1000, "");
        b.set_die(Rect::new(0, 0, 100, 100));
        let design = b.build();
        let placer = HidapFlow::new(HidapConfig::fast());
        let grid = BatchGrid::new(vec![1, 2], vec![0.5]);
        let err = BatchRunner::new()
            .run(&placer, &PlaceRequest::new(&design), &grid, &mut PlaceContext::new())
            .unwrap_err();
        assert!(matches!(err, PlaceError::Flow(hidap::HidapError::MacrosExceedDie { .. })));
    }

    #[test]
    fn composite_placers_are_rejected() {
        struct Composite;
        impl crate::request::Placer for Composite {
            fn name(&self) -> &str {
                "composite"
            }
            fn is_composite(&self) -> bool {
                true
            }
            fn place(
                &self,
                _req: &PlaceRequest<'_>,
                _ctx: &mut PlaceContext,
            ) -> Result<crate::request::PlaceOutcome, PlaceError> {
                unreachable!("the runner must reject composite flows before placing")
            }
        }
        let design = pipeline_design();
        let grid = BatchGrid::new(vec![1], vec![0.5]);
        let err = BatchRunner::new()
            .run(&Composite, &PlaceRequest::new(&design), &grid, &mut PlaceContext::new())
            .unwrap_err();
        assert!(matches!(err, PlaceError::InvalidRequest(_)), "{err}");
    }
}
