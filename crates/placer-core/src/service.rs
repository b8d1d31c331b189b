//! The multi-design placement service: a job queue over one engine.
//!
//! [`PlacementService`] is the batch front end the single-design stack grew
//! into: callers intern any number of designs into the service's
//! [`DesignStore`], submit heterogeneous [`PlaceJob`]s (different designs ×
//! flows × seed/λ grids), and drain the queue with
//! [`PlacementService::run_all`]. Results are claimed per job through
//! [`PlacementService::take_result`].
//!
//! Guarantees:
//!
//! * **deterministic winners** — a job's result depends only on its own
//!   spec (design, flow, grid, effort, evaluation); queue position and
//!   interleaving with other jobs never change it. Shared caches make warm
//!   jobs *faster*, bit-identical, never different.
//! * **artifact reuse** — every job runs in a context borrowing the store's
//!   caches: each design carries its own CSR wiring from the moment it is
//!   built, and the derived graphs (`Gnet`, `Gseq`) come from the store's
//!   byte-budgeted [`crate::DesignStore`] artifact cache, so repeated
//!   traffic against the same designs skips both the flow's graph
//!   constructions and the dominant evaluation setup cost.
//! * **per-job observability** — each job may carry its own
//!   [`FlowObserver`]; a job cancelled while still queued
//!   ([`PlacementService::cancel_queued`]) reports
//!   [`PlaceError::Cancelled`].
//!
//! # Example
//!
//! ```
//! use netlist::design::DesignBuilder;
//! use placer_core::{PlaceJob, PlacementService};
//!
//! let mut b = DesignBuilder::new("mini");
//! let ram0 = b.add_macro("u_a/ram0", "RAM", 200, 150, "u_a");
//! let ram1 = b.add_macro("u_b/ram1", "RAM", 200, 150, "u_b");
//! for i in 0..8 {
//!     let f = b.add_flop(format!("u_x/pipe_reg[{i}]"), "u_x");
//!     let n0 = b.add_net(format!("n0_{i}"));
//!     let n1 = b.add_net(format!("n1_{i}"));
//!     b.connect_driver(n0, ram0);
//!     b.connect_sink(n0, f);
//!     b.connect_driver(n1, f);
//!     b.connect_sink(n1, ram1);
//! }
//! b.set_die(geometry::Rect::new(0, 0, 1000, 800));
//!
//! let mut service = PlacementService::new(placer_core::builtin_registry());
//! let design = service.intern(b.build());
//! let job = service.submit(PlaceJob::new(design, "hidap").with_seeds(vec![1, 2]));
//! service.run_all();
//! let result = service.take_result(job).expect("job ran").expect("job succeeded");
//! assert_eq!(result.outcome.placement.macros.len(), 2);
//! assert_eq!(result.runs.len(), 2);
//! ```

use crate::batch::{BatchGrid, BatchRunner, RunSummary};
use crate::error::PlaceError;
use crate::observer::FlowObserver;
use crate::registry::FlowRegistry;
use crate::request::{EffortLevel, PlaceOutcome, PlaceRequest};
use crate::seeds::{decode_seed, encode_seed, seed_fingerprint, seed_stem, SeedRef, WarmSeed};
use crate::store::{DesignHandle, DesignStore};
use eval::{EvalConfig, SpillMiss, SpillTier};
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

/// Identifier of a submitted job, unique within its service.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct JobId(pub u64);

/// Makes a [`PlaceJob`] an incremental **replace** job: re-place the design
/// after applying an ECO edit script, warm-started from a prior job's result
/// (see `docs/ECO.md`).
///
/// The edits are applied to the interned design through
/// [`DesignStore::apply_edits`], so the store's fingerprint diff decides
/// which cached artifacts survive (pure-geometry edits keep `Gnet`/`Gseq`
/// warm). The base job's placement seeds the flow's warm path and — when the
/// base ran with evaluation — its standard-cell placement seeds the warm
/// evaluation solver.
#[derive(Debug, Clone)]
pub struct ReplaceSpec {
    /// The prior job whose result seeds the warm start. Its result must
    /// still be held by the service when the replace job runs (results are
    /// take-once; taking the base first fails the replace with a structured
    /// [`PlaceError::InvalidRequest`] naming the dependency).
    pub base: JobId,
    /// The ECO edit script to apply to the interned design before
    /// re-placing. May be empty (re-legalize only).
    pub edits: Vec<netlist::DesignEdit>,
}

/// One unit of work for the service: which design to place, through which
/// flow, over which seed/λ grid, and how to evaluate the result.
#[derive(Clone)]
pub struct PlaceJob {
    /// The design to place (a handle into the service's store).
    pub design: DesignHandle,
    /// Flow name, resolved through the service's registry.
    pub flow: String,
    /// Seeds to try (default `[1]`). More than one grid cell runs the job
    /// through [`BatchRunner`] with a deterministic winner.
    pub seeds: Vec<u64>,
    /// λ values to try; empty (the default) keeps the flow's configured λ on
    /// a single run and uses λ = 0.5 as the sweep axis of a multi-seed grid.
    pub lambdas: Vec<f64>,
    /// Effort tier; `None` keeps the flow's configured effort.
    pub effort: Option<EffortLevel>,
    /// When set, outcomes carry metrics evaluated with this configuration
    /// (through the store's shared artifact caches).
    pub evaluate: Option<EvalConfig>,
    /// Per-job observer receiving this job's stage events.
    pub observer: Option<Arc<dyn FlowObserver>>,
    /// Scheduling priority: higher-priority jobs drain first. Jobs of equal
    /// priority keep submission (FIFO) order, so a drain's execution order —
    /// and therefore its event order — is a deterministic function of the
    /// submitted jobs alone. Priority never changes a job's *result*, only
    /// when it runs.
    pub priority: i32,
    /// When set, this is an incremental replace job: the edits are applied
    /// to the interned design and the flow warm-starts from the base job's
    /// result. See [`ReplaceSpec`].
    pub replace: Option<ReplaceSpec>,
}

impl PlaceJob {
    /// A single-run job for `design` through flow `flow` with seed 1 and
    /// every knob left at the flow's default.
    pub fn new(design: DesignHandle, flow: impl Into<String>) -> Self {
        Self {
            design,
            flow: flow.into(),
            seeds: vec![1],
            lambdas: Vec::new(),
            effort: None,
            evaluate: None,
            observer: None,
            priority: 0,
            replace: None,
        }
    }

    /// Sets the seeds to sweep.
    pub fn with_seeds(mut self, seeds: Vec<u64>) -> Self {
        self.seeds = seeds;
        self
    }

    /// Sets the λ values to sweep.
    pub fn with_lambdas(mut self, lambdas: Vec<f64>) -> Self {
        self.lambdas = lambdas;
        self
    }

    /// Sets the effort tier.
    pub fn with_effort(mut self, effort: EffortLevel) -> Self {
        self.effort = Some(effort);
        self
    }

    /// Requests metrics evaluation of every run.
    pub fn with_evaluation(mut self, eval: EvalConfig) -> Self {
        self.evaluate = Some(eval);
        self
    }

    /// Attaches a per-job observer.
    pub fn with_observer(mut self, observer: Arc<dyn FlowObserver>) -> Self {
        self.observer = Some(observer);
        self
    }

    /// Sets the scheduling priority (default 0; higher drains first).
    pub fn with_priority(mut self, priority: i32) -> Self {
        self.priority = priority;
        self
    }

    /// Makes this an incremental replace job: apply `edits` to the interned
    /// design, then re-place warm-started from `base`'s result (which must
    /// still be held — not taken — when this job runs).
    pub fn with_replace(mut self, base: JobId, edits: Vec<netlist::DesignEdit>) -> Self {
        self.replace = Some(ReplaceSpec { base, edits });
        self
    }
}

/// Where a submitted job currently is in its lifecycle (see
/// [`PlacementService::job_state`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    /// Still queued: `position` is its rank in the drain order (0 runs
    /// next), which accounts for priorities, not just submission order.
    Queued {
        /// Rank in the priority-resolved drain order.
        position: usize,
        /// The job's scheduling priority.
        priority: i32,
    },
    /// Ran (successfully or not); its result has not been taken yet.
    Finished {
        /// Whether the job produced a [`JobResult`] (vs a [`PlaceError`]).
        ok: bool,
    },
    /// Ran and its result was already claimed through
    /// [`PlacementService::take_result`].
    Taken,
    /// The id was never issued by this service.
    Unknown,
}

/// A point-in-time snapshot of a service: queue/result counters plus the
/// store's memory accounting — the one source of truth front ends (the CLI
/// manifest summary, the daemon's `stats` command) report from instead of
/// re-deriving counters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServiceStats {
    /// Jobs waiting in the queue.
    pub queued: usize,
    /// High-water mark of the queue depth over the service's lifetime: the
    /// deepest backlog any submit has created, independent of how often the
    /// queue has since drained.
    pub peak_queued: usize,
    /// Finished jobs whose results have not been taken yet.
    pub completed: usize,
    /// Distinct design identities interned (resident or evicted).
    pub interned_designs: usize,
    /// Identities whose design is currently resident.
    pub resident_designs: usize,
    /// Resident bytes of the interned designs (their wiring included).
    pub design_bytes: usize,
    /// Resident bytes of the cached artifacts.
    pub artifact_bytes: usize,
    /// Total resident bytes (designs + artifacts).
    pub resident_bytes: usize,
    /// High-water mark of `resident_bytes` over the store's lifetime. Under
    /// a memory budget the current residency only shows the post-eviction
    /// tail; this is what the run actually needed.
    pub peak_resident_bytes: usize,
    /// The store's configured total-byte budget, if any.
    pub memory_budget: Option<usize>,
    /// Designs evicted so far.
    pub design_evictions: u64,
    /// Per-kind artifact hit/miss/eviction counters and byte accounting.
    pub artifacts: eval::ArtifactCacheStats,
    /// Warm-start seeds persisted to the spill directory after successful
    /// jobs (see [`crate::seeds`]).
    pub seed_spills: u64,
    /// Warm-start seeds revived from the spill directory to serve replace
    /// jobs whose base result predates this service (daemon restarts).
    pub seed_revives: u64,
    /// Warm-start seed files a replace found but could not use: a file the
    /// spill tier refused (bad magic, version, fingerprint, length or
    /// checksum, such as every seed an older build wrote), a payload that
    /// does not decode, or a seed that does not fit the resident design.
    /// Each one leaves the replace to its structured dependency error.
    pub seed_rejects: u64,
}

/// The result of one completed job: the winning outcome plus per-run
/// summaries (a single entry for single-run jobs).
#[derive(Debug, Clone)]
pub struct JobResult {
    /// The job this result belongs to.
    pub job: JobId,
    /// The design the job placed.
    pub design: DesignHandle,
    /// The winning run's outcome (the only run, for single-run jobs).
    pub outcome: PlaceOutcome,
    /// Grid index of the winner within [`JobResult::runs`].
    pub winner_index: usize,
    /// One summary per grid cell, in grid order.
    pub runs: Vec<RunSummary>,
    /// For replace jobs with a non-empty edit script: what the edits touched
    /// and the fingerprint diff that drove selective artifact invalidation.
    pub edit_log: Option<netlist::EditLog>,
}

/// A queue of heterogeneous placement jobs drained through one engine with
/// shared per-design artifacts. See the [module docs](crate::service).
pub struct PlacementService {
    store: DesignStore,
    registry: FlowRegistry,
    queue: VecDeque<(JobId, PlaceJob)>,
    results: HashMap<JobId, Result<JobResult, PlaceError>>,
    next_job: u64,
    jobs: usize,
    peak_queued: usize,
    /// Where warm-start seeds are persisted and revived (`None` = nowhere,
    /// the default).
    spill: Option<SpillTier>,
    seed_spills: u64,
    seed_revives: u64,
    seed_rejects: u64,
}

impl PlacementService {
    /// A service resolving flows through `registry`, with a fresh store.
    pub fn new(registry: FlowRegistry) -> Self {
        Self::with_store(registry, DesignStore::new())
    }

    /// A service over an existing store (e.g. one with a custom sequential-
    /// graph LRU capacity, or pre-interned designs).
    pub fn with_store(registry: FlowRegistry, store: DesignStore) -> Self {
        Self {
            store,
            registry,
            queue: VecDeque::new(),
            results: HashMap::new(),
            next_job: 0,
            jobs: 0,
            peak_queued: 0,
            spill: None,
            seed_spills: 0,
            seed_revives: 0,
            seed_rejects: 0,
        }
    }

    /// Sets the worker-thread count used per multi-run job (0 = all cores).
    pub fn with_jobs(mut self, jobs: usize) -> Self {
        self.jobs = jobs;
        self
    }

    /// Attaches a disk spill tier rooted at `dir`: the service persists
    /// every successful job's winning placement there as a warm-start seed
    /// file and revives it to serve replace jobs whose base result is gone
    /// — so `replace` survives a daemon restart pointed at the same
    /// directory (see [`crate::seeds`]). Seeds are all it holds: the
    /// store's graphs are rebuilt from their design when evicted.
    pub fn with_spill_dir(mut self, dir: impl Into<std::path::PathBuf>) -> Self {
        self.spill = Some(SpillTier::new(dir));
        self
    }

    /// Interns a design into the service's store, adding one reference to it
    /// (see [`DesignStore::intern`]).
    pub fn intern(&mut self, design: netlist::design::Design) -> DesignHandle {
        self.store.intern(design)
    }

    /// Drops one reference to an interned design (see
    /// [`DesignStore::release`]): at zero references the design becomes
    /// eligible for budget-driven eviction. Returns the remaining count.
    pub fn release(&mut self, handle: DesignHandle) -> usize {
        self.store.release(handle)
    }

    /// The design store (designs, identity keys, shared artifact caches).
    pub fn store(&self) -> &DesignStore {
        &self.store
    }

    /// Mutable access to the design store.
    pub fn store_mut(&mut self) -> &mut DesignStore {
        &mut self.store
    }

    /// Enqueues a job and returns its id. Jobs drain in priority order
    /// (higher [`PlaceJob::priority`] first, submission order within equal
    /// priority) on the next [`PlacementService::run_all`]; their results
    /// are independent of that order.
    pub fn submit(&mut self, job: PlaceJob) -> JobId {
        let id = JobId(self.next_job);
        self.next_job += 1;
        self.queue.push_back((id, job));
        self.peak_queued = self.peak_queued.max(self.queue.len());
        id
    }

    /// The id the next [`PlacementService::submit`] will be issued — also
    /// the exclusive upper bound on every id issued so far, so front ends
    /// can enumerate `0..next_job_id()` to scan job states.
    pub fn next_job_id(&self) -> u64 {
        self.next_job
    }

    /// Where a job currently is: queued (with its drain-order position),
    /// finished, taken, or never issued. Unlike
    /// [`PlacementService::take_result`] this never consumes anything, so
    /// front ends can poll it freely.
    pub fn job_state(&self, id: JobId) -> JobState {
        let order = self.drain_order();
        if let Some((position, &(_, priority))) =
            order.iter().enumerate().find(|(_, &(qid, _))| qid == id)
        {
            return JobState::Queued { position, priority };
        }
        if let Some(result) = self.results.get(&id) {
            return JobState::Finished { ok: result.is_ok() };
        }
        if id.0 < self.next_job {
            JobState::Taken
        } else {
            JobState::Unknown
        }
    }

    /// A point-in-time snapshot of the service: queue/result counters plus
    /// the store's full memory accounting.
    pub fn stats(&self) -> ServiceStats {
        ServiceStats {
            queued: self.queue.len(),
            peak_queued: self.peak_queued,
            completed: self.results.len(),
            interned_designs: self.store.len(),
            resident_designs: self.store.resident_designs(),
            design_bytes: self.store.design_bytes(),
            artifact_bytes: self.store.artifacts().resident_bytes(),
            resident_bytes: self.store.resident_bytes(),
            peak_resident_bytes: self.store.peak_resident_bytes(),
            memory_budget: self.store.memory_budget(),
            design_evictions: self.store.design_evictions(),
            artifacts: self.store.artifacts().stats(),
            seed_spills: self.seed_spills,
            seed_revives: self.seed_revives,
            seed_rejects: self.seed_rejects,
        }
    }

    /// The queue in the order the next [`PlacementService::run_all`] will
    /// execute it: stable-sorted by descending priority, so equal-priority
    /// jobs keep submission order.
    fn drain_order(&self) -> Vec<(JobId, i32)> {
        let mut order: Vec<(JobId, i32)> =
            self.queue.iter().map(|(id, j)| (*id, j.priority)).collect();
        order.sort_by_key(|&(_, priority)| std::cmp::Reverse(priority));
        order
    }

    /// Removes a still-queued job before it runs. The job reports
    /// [`PlaceError::Cancelled`] through [`PlacementService::take_result`].
    /// Returns `false` when the id is not in the queue (already ran, taken,
    /// or never issued) — in that case nothing changes.
    pub fn cancel_queued(&mut self, id: JobId) -> bool {
        let Some(pos) = self.queue.iter().position(|(qid, _)| *qid == id) else {
            return false;
        };
        self.queue.remove(pos);
        self.results.insert(id, Err(PlaceError::Cancelled));
        true
    }

    /// Drains the queue: runs every submitted job — higher-priority jobs
    /// first, submission order within equal priority — and stores each
    /// result. Returns the number of jobs that ran (successfully or not).
    /// The drain order is a deterministic function of the queued jobs alone
    /// and never changes any job's result, only when it runs.
    pub fn run_all(&mut self) -> usize {
        let mut batch: Vec<(JobId, PlaceJob)> = self.queue.drain(..).collect();
        batch.sort_by_key(|(_, job)| std::cmp::Reverse(job.priority));
        let ids: Vec<JobId> = batch.iter().map(|(id, _)| *id).collect();
        let mut ran = 0;
        for (i, (id, job)) in batch.iter().enumerate() {
            let result = self.run_job(*id, job, ids.get(i + 1..).unwrap_or(&[]));
            self.results.insert(*id, result);
            ran += 1;
        }
        // Artifact caches grow behind shared handles during the drain; fold
        // the post-drain residency into the store's high-water mark.
        self.store.note_peak();
        ran
    }

    /// Removes and returns a job's result.
    ///
    /// * `None` — the job is still queued (it has no result yet).
    /// * `Some(Ok(_))` / `Some(Err(_))` — the job ran; the result is yours
    ///   now (results are take-once).
    /// * `Some(Err(PlaceError::InvalidRequest(_)))` naming the id — the id
    ///   was never issued by this service, or its result was already taken.
    pub fn take_result(&mut self, id: JobId) -> Option<Result<JobResult, PlaceError>> {
        if let Some(result) = self.results.remove(&id) {
            return Some(result);
        }
        if self.queue.iter().any(|(qid, _)| *qid == id) {
            return None;
        }
        if id.0 >= self.next_job {
            return Some(Err(PlaceError::InvalidRequest(format!(
                "job {} was never submitted to this service",
                id.0
            ))));
        }
        Some(Err(PlaceError::InvalidRequest(format!(
            "job {}'s result was already taken (results are take-once)",
            id.0
        ))))
    }

    /// Resolves a replace job's warm-start seed: the base job's outcome,
    /// cloned out of the held results. Every failure is a structured
    /// [`PlaceError::InvalidRequest`] naming the dependency — in particular
    /// a base whose result was already taken (results are take-once), and a
    /// held base that placed a different design (its placement would seed
    /// the warm start by cell id).
    /// `later` lists the jobs scheduled after this one in the current drain,
    /// so a mis-ordered dependency is reported as such.
    ///
    /// With a spill directory attached, a base that is *gone* — a [`JobId`]
    /// issued by a previous incarnation of the daemon, or one whose result
    /// was already taken — falls back to the design's persisted warm-start
    /// seed file before erroring, so `replace` survives a restart pointed at
    /// the same directory. A seed file some other job wrote is an error
    /// naming both jobs.
    fn resolve_replace_base(
        &mut self,
        id: JobId,
        design: DesignHandle,
        spec: &ReplaceSpec,
        later: &[JobId],
    ) -> Result<WarmSeed, PlaceError> {
        match self.results.get(&spec.base) {
            Some(Ok(base)) if base.design != design => Err(PlaceError::InvalidRequest(format!(
                "replace job {} places design {} but its base job {} placed design {}; a warm \
                 start needs a base that placed the same design",
                id.0, design.0, spec.base.0, base.design.0
            ))),
            Some(Ok(base)) => Ok(WarmSeed {
                placement: base.outcome.placement.clone(),
                cells: base.outcome.metrics.as_ref().map(|m| m.cell_placement.clone()),
            }),
            Some(Err(e)) => Err(PlaceError::InvalidRequest(format!(
                "replace job {} depends on job {} which failed: {e}",
                id.0, spec.base.0
            ))),
            None if spec.base == id => Err(PlaceError::InvalidRequest(format!(
                "replace job {} names itself as its base placement",
                id.0
            ))),
            None if later.contains(&spec.base) => Err(PlaceError::InvalidRequest(format!(
                "replace job {} depends on job {} which is scheduled after it in this drain; \
                 submit the replace after its base has run, or do not give it higher priority",
                id.0, spec.base.0
            ))),
            None if spec.base.0 >= self.next_job => {
                self.revive_seed(id, design, spec.base).unwrap_or_else(|| {
                    Err(PlaceError::InvalidRequest(format!(
                        "replace job {} depends on job {} which was never submitted to this \
                         service",
                        id.0, spec.base.0
                    )))
                })
            }
            None if self.queue.iter().any(|(qid, _)| *qid == spec.base) => {
                Err(PlaceError::InvalidRequest(format!(
                    "replace job {} depends on job {} which is still queued and has not run",
                    id.0, spec.base.0
                )))
            }
            None => self.revive_seed(id, design, spec.base).unwrap_or_else(|| {
                Err(PlaceError::InvalidRequest(format!(
                    "replace job {} depends on job {} whose result was already taken \
                     (results are take-once); keep the base result until the replace has run",
                    id.0, spec.base.0
                )))
            }),
        }
    }

    /// Persists successful job `id`'s winning placement (and evaluated cell
    /// placement, when present) as the design's warm-start seed file. A
    /// no-op without a spill directory; a failed write is simply not
    /// counted.
    fn persist_seed(&mut self, id: JobId, handle: DesignHandle, outcome: &PlaceOutcome) {
        let Some(tier) = &self.spill else { return };
        let Some(design) = self.store.get_design(handle) else { return };
        let fp = seed_fingerprint(self.store.key(handle), design.geometry_fingerprint());
        let seed = SeedRef {
            placement: &outcome.placement,
            cells: outcome.metrics.as_ref().map(|m| &m.cell_placement),
        };
        if tier.store(&seed_stem(fp), fp, &encode_seed(id, seed)) {
            self.seed_spills += 1;
        }
    }

    /// Revives the design's persisted warm-start seed from the spill
    /// directory for replace job `id`, validated against the resident design
    /// (macro count, cell ids in range). `None` without a spill directory,
    /// without a resident design, or on any missing, malformed or mismatched
    /// file (the last two counted in `seed_rejects`); a structured
    /// [`PlaceError::InvalidRequest`] when a job other than `base` wrote the
    /// seed.
    fn revive_seed(
        &mut self,
        id: JobId,
        handle: DesignHandle,
        base: JobId,
    ) -> Option<Result<WarmSeed, PlaceError>> {
        let tier = self.spill.as_ref()?;
        let design = self.store.get_design(handle)?;
        let fp = seed_fingerprint(self.store.key(handle), design.geometry_fingerprint());
        let payload = match tier.read(&seed_stem(fp), fp) {
            Ok(payload) => payload,
            Err(SpillMiss::Absent) => return None,
            Err(SpillMiss::Refused) => {
                self.seed_rejects += 1;
                return None;
            }
        };
        let fits = |seed: &WarmSeed| {
            seed.placement.macros.len() == design.num_macros()
                && seed.placement.macros.iter().all(|m| (m.cell.0 as usize) < design.num_cells())
                && seed.cells.as_ref().is_none_or(|c| c.positions.len() <= design.num_cells())
        };
        let Some((writer, seed)) = decode_seed(&payload).filter(|(_, seed)| fits(seed)) else {
            self.seed_rejects += 1;
            return None;
        };
        if writer != base {
            return Some(Err(PlaceError::InvalidRequest(format!(
                "replace job {} depends on job {} whose result is gone, and the seed persisted \
                 for its design was written by job {}",
                id.0, base.0, writer.0
            ))));
        }
        self.seed_revives += 1;
        Some(Ok(seed))
    }

    /// Runs one job through the engine, in a context borrowing the store's
    /// caches. `later` lists the jobs
    /// scheduled after this one in the current drain (for dependency
    /// diagnostics); it is empty outside a drain.
    fn run_job(
        &mut self,
        id: JobId,
        job: &PlaceJob,
        later: &[JobId],
    ) -> Result<JobResult, PlaceError> {
        if job.design.0 as usize >= self.store.len() {
            return Err(PlaceError::InvalidRequest(format!(
                "job {} names design handle {} but the store holds {} designs",
                id.0,
                job.design.0,
                self.store.len()
            )));
        }
        if job.seeds.is_empty() {
            return Err(PlaceError::InvalidRequest(format!("job {} has no seeds to run", id.0)));
        }
        let placer = self.registry.create(&job.flow)?;

        // Replace jobs resolve their warm-start seed first, then mutate the
        // interned design through the store so the fingerprint diff decides
        // which cached artifacts survive.
        let mut base_seed = None;
        let mut edit_log = None;
        if let Some(spec) = &job.replace {
            let mut base = self.resolve_replace_base(id, job.design, spec, later)?;
            // MoveMacro carries no design state: it parameterizes the
            // warm-start seed, so fold the target into the base placement
            // here and let the flow re-legalize from the moved footprint.
            for edit in &spec.edits {
                if let netlist::DesignEdit::MoveMacro { cell, to } = edit {
                    if let Some(m) = base.placement.macros.iter_mut().find(|m| m.cell == *cell) {
                        m.location = *to;
                    }
                }
            }
            base_seed = Some(base);
            if !spec.edits.is_empty() {
                let log = self.store.apply_edits(job.design, &spec.edits).map_err(|e| match e {
                    PlaceError::InvalidRequest(msg) => {
                        PlaceError::InvalidRequest(format!("replace job {}: {msg}", id.0))
                    }
                    other => other,
                })?;
                edit_log = Some(log);
            }
        }

        let design = self.store.get_design(job.design).ok_or_else(|| {
            PlaceError::InvalidRequest(format!(
                "job {} names design handle {} but that design was released and evicted; \
                 re-intern it before submitting jobs against it",
                id.0, job.design.0
            ))
        })?;

        let mut ctx = self.store.context();
        if let Some(observer) = &job.observer {
            ctx = ctx.with_observer(observer.clone());
        }

        let mut template = PlaceRequest::new(design);
        if let Some(effort) = job.effort {
            template = template.with_effort(effort);
        }
        if let Some(eval) = job.evaluate {
            template = template.with_evaluation(eval);
        }
        if let Some(base) = &base_seed {
            template = template.with_warm_start(&base.placement);
            if let Some(cells) = &base.cells {
                template = template.with_warm_cells(cells);
            }
        }

        let result = if job.seeds.len() == 1 && job.lambdas.len() <= 1 {
            // single run: straight through the Placer trait (composite flows
            // like the handFP oracle are fine here)
            let &seed = job
                .seeds
                .first()
                .ok_or_else(|| PlaceError::InvalidRequest("job has no seeds".to_string()))?;
            let mut request = template.with_seed(seed);
            if let Some(&lambda) = job.lambdas.first() {
                request = request.with_lambda(lambda);
            }
            let outcome = placer.place(&request, &mut ctx)?;
            let summary = RunSummary {
                index: 0,
                seed: outcome.seed,
                lambda: outcome.lambda.unwrap_or(f64::NAN),
                score: None,
                error: None,
                wall_s: outcome.wall_s,
            };
            JobResult {
                job: id,
                design: job.design,
                outcome,
                winner_index: 0,
                runs: vec![summary],
                edit_log,
            }
        } else {
            // multi-run: a seed×λ grid through the batch runner. Flows
            // without a λ knob sweep seeds only; an empty λ list sweeps at
            // λ = 0.5.
            let lambdas = if !placer.supports_lambda() || job.lambdas.is_empty() {
                vec![*job.lambdas.first().unwrap_or(&0.5)]
            } else {
                job.lambdas.clone()
            };
            let grid = BatchGrid::new(job.seeds.clone(), lambdas);
            let runner = BatchRunner::new().with_jobs(self.jobs);
            let batch = runner.run(placer.as_ref(), &template, &grid, &mut ctx)?;
            JobResult {
                job: id,
                design: job.design,
                outcome: batch.winner,
                winner_index: batch.winner_index,
                runs: batch.runs,
                edit_log,
            }
        };
        // the winning placement becomes the design's persisted warm-start
        // seed, so a later replace survives a service restart
        self.persist_seed(id, job.design, &result.outcome);
        Ok(result)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flows::builtin_registry;
    use crate::observer::{CollectingObserver, StageEvent};
    use geometry::Rect;
    use netlist::design::{Design, DesignBuilder};

    /// A pipeline design parameterized by name and register count so tests
    /// can intern several distinct designs.
    fn pipeline_design(name: &str, regs: usize) -> Design {
        let mut b = DesignBuilder::new(name);
        let a = b.add_macro("u_a/ram", "RAM", 200, 150, "u_a");
        let c = b.add_macro("u_b/ram", "RAM", 200, 150, "u_b");
        for i in 0..regs {
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

    fn service() -> PlacementService {
        PlacementService::new(builtin_registry())
    }

    #[test]
    fn single_run_job_produces_a_result() {
        let mut svc = service();
        let d = svc.intern(pipeline_design("p1", 8));
        let job = svc.submit(PlaceJob::new(d, "hidap").with_effort(EffortLevel::Fast));
        assert_eq!(svc.stats().queued, 1);
        assert_eq!(svc.run_all(), 1);
        assert_eq!(svc.stats().queued, 0);
        let result = svc.take_result(job).expect("ran").expect("succeeded");
        assert_eq!(result.job, job);
        assert_eq!(result.design, d);
        assert_eq!(result.outcome.placement.macros.len(), 2);
        assert_eq!(result.runs.len(), 1);
        // results are take-once: a second take names the id in a
        // structured error instead of silently returning nothing
        match svc.take_result(job) {
            Some(Err(PlaceError::InvalidRequest(msg))) => {
                assert!(msg.contains("job 0"), "{msg}");
                assert!(msg.contains("already taken"), "{msg}");
            }
            other => panic!("expected a structured already-taken error, got {other:?}"),
        }
    }

    #[test]
    fn take_result_on_an_unknown_id_names_it() {
        let mut svc = service();
        match svc.take_result(JobId(42)) {
            Some(Err(PlaceError::InvalidRequest(msg))) => {
                assert!(msg.contains("job 42"), "{msg}");
                assert!(msg.contains("never submitted"), "{msg}");
            }
            other => panic!("expected a structured unknown-id error, got {other:?}"),
        }
    }

    #[test]
    fn take_result_on_a_queued_job_is_none() {
        let mut svc = service();
        let d = svc.intern(pipeline_design("p1", 8));
        let job = svc.submit(PlaceJob::new(d, "hidap"));
        assert!(svc.take_result(job).is_none(), "queued jobs have no result yet");
        assert_eq!(svc.stats().queued, 1, "probing must not consume the job");
    }

    #[test]
    fn priorities_reorder_the_drain_deterministically() {
        let mut svc = service();
        let d = svc.intern(pipeline_design("p1", 8));
        let obs = Arc::new(CollectingObserver::new());
        let spec = |priority, seed| {
            PlaceJob::new(d, "hidap")
                .with_effort(EffortLevel::Fast)
                .with_seeds(vec![seed])
                .with_priority(priority)
                .with_observer(obs.clone())
        };
        // submitted low, high, normal, high: drain order must be the two
        // highs in submission order, then normal, then low
        let low = svc.submit(spec(-1, 11));
        let high_a = svc.submit(spec(5, 12));
        let normal = svc.submit(spec(0, 13));
        let high_b = svc.submit(spec(5, 14));
        assert_eq!(svc.job_state(high_a), JobState::Queued { position: 0, priority: 5 });
        assert_eq!(svc.job_state(high_b), JobState::Queued { position: 1, priority: 5 });
        assert_eq!(svc.job_state(normal), JobState::Queued { position: 2, priority: 0 });
        assert_eq!(svc.job_state(low), JobState::Queued { position: 3, priority: -1 });
        svc.run_all();
        let seeds: Vec<u64> = obs
            .events()
            .iter()
            .filter_map(|e| match e {
                StageEvent::FlowStarted { seed, .. } => Some(*seed),
                _ => None,
            })
            .collect();
        assert_eq!(seeds, vec![12, 14, 13, 11], "drain order follows priority then FIFO");
        for job in [low, high_a, normal, high_b] {
            assert!(svc.take_result(job).unwrap().is_ok());
        }
    }

    #[test]
    fn priority_never_changes_a_job_result() {
        let run = |priority| {
            let mut svc = service();
            let d = svc.intern(pipeline_design("p1", 8));
            let job = svc.submit(
                PlaceJob::new(d, "hidap").with_effort(EffortLevel::Fast).with_priority(priority),
            );
            // an extra competing job so the priority actually reorders
            svc.submit(
                PlaceJob::new(d, "hidap").with_effort(EffortLevel::Fast).with_seeds(vec![7]),
            );
            svc.run_all();
            svc.take_result(job).unwrap().unwrap()
        };
        let ahead = run(10);
        let behind = run(-10);
        assert_eq!(ahead.outcome.placement, behind.outcome.placement);
        assert_eq!(ahead.outcome.seed, behind.outcome.seed);
    }

    #[test]
    fn job_state_walks_the_lifecycle() {
        let mut svc = service();
        let d = svc.intern(pipeline_design("p1", 8));
        assert_eq!(svc.job_state(JobId(0)), JobState::Unknown);
        let job = svc.submit(PlaceJob::new(d, "hidap").with_effort(EffortLevel::Fast));
        assert_eq!(svc.job_state(job), JobState::Queued { position: 0, priority: 0 });
        svc.run_all();
        assert_eq!(svc.job_state(job), JobState::Finished { ok: true });
        svc.take_result(job).unwrap().unwrap();
        assert_eq!(svc.job_state(job), JobState::Taken);
    }

    #[test]
    fn cancel_queued_removes_only_the_named_job() {
        let mut svc = service();
        let d = svc.intern(pipeline_design("p1", 8));
        let doomed = svc.submit(PlaceJob::new(d, "hidap").with_effort(EffortLevel::Fast));
        let kept = svc.submit(PlaceJob::new(d, "hidap").with_effort(EffortLevel::Fast));
        assert!(svc.cancel_queued(doomed));
        assert!(!svc.cancel_queued(doomed), "a job can only be cancelled once");
        assert_eq!(svc.stats().queued, 1);
        assert!(matches!(svc.take_result(doomed), Some(Err(PlaceError::Cancelled))));
        svc.run_all();
        assert!(svc.take_result(kept).unwrap().is_ok(), "the other job still runs");
    }

    #[test]
    fn stats_snapshot_matches_the_store() {
        let mut svc = service();
        let d = svc.intern(pipeline_design("p1", 8));
        let job = svc.submit(
            PlaceJob::new(d, "hidap")
                .with_effort(EffortLevel::Fast)
                .with_evaluation(EvalConfig::standard()),
        );
        let before = svc.stats();
        assert_eq!(before.queued, 1);
        assert_eq!(before.completed, 0);
        assert_eq!(before.interned_designs, 1);
        assert_eq!(before.resident_designs, 1);
        assert_eq!(before.design_bytes, svc.store().design_bytes());
        assert_eq!(before.memory_budget, None);
        svc.run_all();
        let after = svc.stats();
        assert_eq!(after.queued, 0);
        assert_eq!(after.completed, 1);
        assert!(after.artifact_bytes > 0, "the run populated the artifact cache");
        assert_eq!(after.resident_bytes, after.design_bytes + after.artifact_bytes);
        assert_eq!(
            after.peak_resident_bytes, after.resident_bytes,
            "nothing was evicted, so the high-water mark is the current residency"
        );
        assert!(after.peak_resident_bytes >= before.peak_resident_bytes);
        assert_eq!(after.artifacts, svc.store().artifacts().stats());
        svc.take_result(job).unwrap().unwrap();
        assert_eq!(svc.stats().completed, 0);
    }

    #[test]
    fn unknown_flow_fails_the_job_not_the_service() {
        let mut svc = service();
        let d = svc.intern(pipeline_design("p1", 8));
        let bad = svc.submit(PlaceJob::new(d, "nope"));
        let good = svc.submit(PlaceJob::new(d, "hidap").with_effort(EffortLevel::Fast));
        svc.run_all();
        assert!(matches!(svc.take_result(bad), Some(Err(PlaceError::UnknownFlow { .. }))));
        assert!(svc.take_result(good).unwrap().is_ok());
    }

    #[test]
    fn job_ids_stay_isolated_under_interleaved_submission() {
        // two designs, two jobs each, submitted interleaved: every result
        // must match the same job run in isolation on a fresh service
        let mut svc = service();
        let da = svc.intern(pipeline_design("alpha", 8));
        let db = svc.intern(pipeline_design("beta", 12));
        let spec = |design, seeds: Vec<u64>| {
            PlaceJob::new(design, "hidap").with_effort(EffortLevel::Fast).with_seeds(seeds)
        };
        let jobs = [
            svc.submit(spec(da, vec![1, 2])),
            svc.submit(spec(db, vec![3])),
            svc.submit(spec(da, vec![5])),
            svc.submit(spec(db, vec![1, 2])),
        ];
        svc.run_all();
        let interleaved: Vec<JobResult> =
            jobs.iter().map(|&j| svc.take_result(j).unwrap().unwrap()).collect();

        let isolated: Vec<JobResult> =
            [(da, vec![1u64, 2]), (db, vec![3]), (da, vec![5]), (db, vec![1, 2])]
                .into_iter()
                .map(|(design_src, seeds)| {
                    let mut fresh = service();
                    let d = fresh.intern(pipeline_design(
                        if design_src == da { "alpha" } else { "beta" },
                        if design_src == da { 8 } else { 12 },
                    ));
                    let job = fresh.submit(spec(d, seeds));
                    fresh.run_all();
                    fresh.take_result(job).unwrap().unwrap()
                })
                .collect();

        for (i, (got, want)) in interleaved.iter().zip(&isolated).enumerate() {
            assert_eq!(got.outcome.placement, want.outcome.placement, "job {i}");
            assert_eq!(got.outcome.seed, want.outcome.seed, "job {i}");
            assert_eq!(got.winner_index, want.winner_index, "job {i}");
        }
    }

    #[test]
    fn warm_results_are_bit_identical_to_cold() {
        let mut svc = service();
        let designs = [
            svc.intern(pipeline_design("alpha", 8)),
            svc.intern(pipeline_design("beta", 12)),
            svc.intern(pipeline_design("gamma", 16)),
        ];
        let spec = |d| {
            PlaceJob::new(d, "hidap")
                .with_effort(EffortLevel::Fast)
                .with_evaluation(EvalConfig::standard())
        };
        let cold: Vec<JobId> = designs.iter().map(|&d| svc.submit(spec(d))).collect();
        svc.run_all();
        let cold_stats = svc.store().artifacts().stats();
        assert_eq!(cold_stats.seq.misses, 3, "cold pass builds every sequential graph");
        assert_eq!(cold_stats.net.misses, 3, "cold pass builds every netlist graph");
        let warm: Vec<JobId> = designs.iter().map(|&d| svc.submit(spec(d))).collect();
        svc.run_all();
        let warm_stats = svc.store().artifacts().stats();
        assert!(warm_stats.seq.hits >= 3, "warm pass reuses the stored graphs");
        assert!(warm_stats.net.hits > cold_stats.net.hits, "warm pass reuses the netlist graphs");
        assert_eq!(warm_stats.seq.misses, 3, "warm pass builds no sequential graph");
        assert_eq!(warm_stats.net.misses, 3, "warm pass builds no netlist graph");
        for (c, w) in cold.into_iter().zip(warm) {
            let cold_result = svc.take_result(c).unwrap().unwrap();
            let warm_result = svc.take_result(w).unwrap().unwrap();
            assert_eq!(cold_result.outcome.placement, warm_result.outcome.placement);
            assert_eq!(cold_result.outcome.metrics, warm_result.outcome.metrics);
        }
    }

    #[test]
    fn replace_job_warm_starts_and_keeps_artifacts_on_pure_geometry() {
        let mut svc = service();
        let d = svc.intern(pipeline_design("p1", 8));
        let base = svc.submit(
            PlaceJob::new(d, "hidap")
                .with_effort(EffortLevel::Fast)
                .with_evaluation(EvalConfig::standard()),
        );
        svc.run_all();
        let cold_stats = svc.store().artifacts().stats();

        let ram = svc.store().get_design(d).unwrap().find_cell("u_a/ram").unwrap();
        let edits = vec![netlist::DesignEdit::ResizeCell { cell: ram, width: 220, height: 160 }];
        let replace = svc.submit(
            PlaceJob::new(d, "hidap")
                .with_effort(EffortLevel::Fast)
                .with_evaluation(EvalConfig::standard())
                .with_replace(base, edits),
        );
        svc.run_all();
        let result = svc.take_result(replace).unwrap().unwrap();
        let log = result.edit_log.as_ref().expect("replace ran an edit script");
        assert!(log.diff.is_pure_geometry());
        assert!(log.diff.geometry_changed(), "the resize changed the geometry fingerprint");
        let warm_stats = svc.store().artifacts().stats();
        assert_eq!(
            warm_stats.seq.misses, cold_stats.seq.misses,
            "a pure-geometry replace rebuilds no sequential graph"
        );
        assert_eq!(
            warm_stats.net.misses, cold_stats.net.misses,
            "a pure-geometry replace rebuilds no netlist graph"
        );
        let edited = svc.store().get_design(d).unwrap();
        assert!(result.outcome.placement.is_legal(edited));
        assert!(result.outcome.metrics.is_some());
        // the base result was only referenced, never consumed
        assert!(svc.take_result(base).unwrap().is_ok());
    }

    /// The ECO loop on a generated fleet design: the first macro made 10%
    /// wider and re-placed by a replace job. The replace skips the global
    /// stages the base job ran, builds no graph, stays legal, and equals the
    /// warm flow run directly on the edited design.
    #[test]
    fn replace_job_matches_the_direct_warm_flow_and_skips_the_global_stages() {
        use crate::context::PlaceContext;

        let config = workload::presets::service_fleet_config(0, 0.05);
        let design = workload::SocGenerator::new(config).generate().design;
        let ram = design.macros().next().expect("fleet designs carry macros");
        let (width, height) = (design.cell(ram).width, design.cell(ram).height);
        let edits =
            vec![netlist::DesignEdit::ResizeCell { cell: ram, width: width * 11 / 10, height }];
        let mut edited = design.clone();
        let log = edited.apply_edits(&edits).expect("the resize applies");
        assert!(log.diff.is_pure_geometry(), "a resize keeps the design identity");

        let mut svc = service();
        let d = svc.intern(design);
        let spec = || {
            PlaceJob::new(d, "hidap")
                .with_effort(EffortLevel::Fast)
                .with_evaluation(EvalConfig::standard())
        };
        let base = svc.submit(spec());
        svc.run_all();
        let base_stats = svc.store().artifacts().stats();
        let replace = svc.submit(spec().with_replace(base, edits));
        svc.run_all();
        let warm = svc.take_result(replace).unwrap().unwrap();
        let warm_stats = svc.store().artifacts().stats();
        assert_eq!(warm_stats.seq.misses, base_stats.seq.misses, "the replace builds no Gseq");
        assert_eq!(warm_stats.net.misses, base_stats.net.misses, "the replace builds no Gnet");
        assert!(warm.edit_log.as_ref().expect("edit log").diff.is_pure_geometry());
        assert!(warm.outcome.placement.is_legal(&edited), "the replace stays legal");

        let base = svc.take_result(base).unwrap().unwrap().outcome;
        let stages = |outcome: &PlaceOutcome| -> Vec<String> {
            outcome.stage_timings.iter().map(|t| t.stage.clone()).collect()
        };
        let (base_stages, warm_stages) = (stages(&base), stages(&warm.outcome));
        for stage in ["hierarchy", "shape_curves", "floorplan"] {
            assert!(base_stages.iter().any(|s| s == stage), "base lacks {stage}: {base_stages:?}");
            assert!(warm_stages.iter().all(|s| s != stage), "replace ran {stage}: {warm_stages:?}");
        }
        for stage in ["legalize", "flipping", "evaluate"] {
            assert!(
                warm_stages.iter().any(|s| s == stage),
                "replace lacks {stage}: {warm_stages:?}"
            );
        }

        let base_cells = &base.metrics.as_ref().expect("base evaluated").cell_placement;
        let request = PlaceRequest::new(&edited)
            .with_seed(1)
            .with_effort(EffortLevel::Fast)
            .with_evaluation(EvalConfig::standard())
            .with_warm_start(&base.placement)
            .with_warm_cells(base_cells);
        let direct = builtin_registry()
            .create("hidap")
            .unwrap()
            .place(&request, &mut PlaceContext::new())
            .unwrap();
        assert_eq!(warm.outcome.placement, direct.placement, "replace and direct warm flow differ");
        assert_eq!(warm.outcome.metrics, direct.metrics, "replace and direct warm metrics differ");
    }

    #[test]
    fn move_macro_edits_steer_the_warm_start_seed() {
        let mut svc = service();
        let d = svc.intern(pipeline_design("p1", 8));
        let base = svc.submit(
            PlaceJob::new(d, "hidap")
                .with_effort(EffortLevel::Fast)
                .with_evaluation(EvalConfig::standard()),
        );
        svc.run_all();

        let design = svc.store().get_design(d).unwrap();
        let ram_a = design.find_cell("u_a/ram").unwrap();
        let ram_b = design.find_cell("u_b/ram").unwrap();
        // swap the two equal-footprint macros: both targets are legal slots
        // of the base placement, so re-legalization keeps them where the
        // edit put them
        let base_result = svc.take_result(base).unwrap().unwrap();
        let at_a = base_result.outcome.placement.placement_of(ram_a).unwrap().location;
        let at_b = base_result.outcome.placement.placement_of(ram_b).unwrap().location;
        assert_ne!(at_a, at_b);
        // resubmit the base so the replace has a held result to warm from
        let base = svc.submit(
            PlaceJob::new(d, "hidap")
                .with_effort(EffortLevel::Fast)
                .with_evaluation(EvalConfig::standard()),
        );
        svc.run_all();
        let edits = vec![
            netlist::DesignEdit::MoveMacro { cell: ram_a, to: at_b },
            netlist::DesignEdit::MoveMacro { cell: ram_b, to: at_a },
        ];
        let replace = svc.submit(
            PlaceJob::new(d, "hidap")
                .with_effort(EffortLevel::Fast)
                .with_evaluation(EvalConfig::standard())
                .with_replace(base, edits),
        );
        svc.run_all();
        let result = svc.take_result(replace).unwrap().unwrap();
        let log = result.edit_log.as_ref().unwrap();
        assert!(log.placement_seed, "MoveMacro flags the placement seed");
        assert!(log.diff.is_pure_geometry());
        assert!(!log.diff.geometry_changed(), "a move does not change the footprint geometry");
        let placed_a = result.outcome.placement.placement_of(ram_a).unwrap().location;
        let placed_b = result.outcome.placement.placement_of(ram_b).unwrap().location;
        assert_eq!(placed_a, at_b, "the seed move survived re-legalization");
        assert_eq!(placed_b, at_a, "the seed move survived re-legalization");
        let design = svc.store().get_design(d).unwrap();
        assert!(result.outcome.placement.is_legal(design));
    }

    #[test]
    fn rewire_replace_rebuilds_the_identity_keyed_artifacts() {
        let mut svc = service();
        let d = svc.intern(pipeline_design("p1", 8));
        let base = svc.submit(
            PlaceJob::new(d, "hidap")
                .with_effort(EffortLevel::Fast)
                .with_evaluation(EvalConfig::standard()),
        );
        svc.run_all();
        let cold_stats = svc.store().artifacts().stats();

        let design = svc.store().get_design(d).unwrap();
        let ram_b = design.find_cell("u_b/ram").unwrap();
        let net = design.find_net("n0_0").unwrap();
        let reg = design.find_cell("u_x/pipe_reg[0]").unwrap();
        let edits =
            vec![netlist::DesignEdit::RewireNet { net, driver: Some(ram_b), sinks: vec![reg] }];
        let replace = svc.submit(
            PlaceJob::new(d, "hidap")
                .with_effort(EffortLevel::Fast)
                .with_evaluation(EvalConfig::standard())
                .with_replace(base, edits),
        );
        svc.run_all();
        let result = svc.take_result(replace).unwrap().unwrap();
        assert!(result.edit_log.unwrap().diff.wiring_changed());
        let warm_stats = svc.store().artifacts().stats();
        assert_eq!(
            warm_stats.seq.misses,
            cold_stats.seq.misses + 1,
            "a wiring edit changes the identity, so evaluation rebuilds Gseq"
        );
    }

    #[test]
    fn replace_with_a_taken_base_names_the_dependency() {
        let mut svc = service();
        let d = svc.intern(pipeline_design("p1", 8));
        let base = svc.submit(PlaceJob::new(d, "hidap").with_effort(EffortLevel::Fast));
        svc.run_all();
        svc.take_result(base).unwrap().unwrap();
        let replace = svc.submit(
            PlaceJob::new(d, "hidap").with_effort(EffortLevel::Fast).with_replace(base, Vec::new()),
        );
        svc.run_all();
        match svc.take_result(replace) {
            Some(Err(PlaceError::InvalidRequest(msg))) => {
                assert!(msg.contains(&format!("job {}", base.0)), "{msg}");
                assert!(msg.contains("already taken"), "{msg}");
            }
            other => panic!("expected a structured dependency error, got {other:?}"),
        }
    }

    #[test]
    fn replace_scheduled_before_its_base_is_a_structured_error() {
        let mut svc = service();
        let d = svc.intern(pipeline_design("p1", 8));
        let base = svc.submit(PlaceJob::new(d, "hidap").with_effort(EffortLevel::Fast));
        // higher priority drains the replace before its base
        let replace = svc.submit(
            PlaceJob::new(d, "hidap")
                .with_effort(EffortLevel::Fast)
                .with_replace(base, Vec::new())
                .with_priority(5),
        );
        svc.run_all();
        match svc.take_result(replace) {
            Some(Err(PlaceError::InvalidRequest(msg))) => {
                assert!(msg.contains("scheduled after"), "{msg}");
            }
            other => panic!("expected a structured ordering error, got {other:?}"),
        }
        assert!(svc.take_result(base).unwrap().is_ok(), "the base itself still ran");
    }

    #[test]
    fn replace_on_a_base_that_placed_another_design_is_a_structured_error() {
        let mut svc = service();
        let fleet = |index| {
            let config = workload::presets::service_fleet_config(index, 0.05);
            workload::SocGenerator::new(config).generate().design
        };
        let first = svc.intern(fleet(0));
        let second = svc.intern(fleet(1));
        let spec = |d| PlaceJob::new(d, "hidap").with_effort(EffortLevel::Fast);
        let base = svc.submit(spec(first));
        let replace = svc.submit(spec(second).with_replace(base, Vec::new()));
        svc.run_all();
        match svc.take_result(replace) {
            Some(Err(PlaceError::InvalidRequest(msg))) => {
                assert!(msg.contains(&format!("replace job {}", replace.0)), "{msg}");
                assert!(msg.contains(&format!("design {}", second.0)), "{msg}");
                assert!(msg.contains(&format!("base job {}", base.0)), "{msg}");
                assert!(msg.contains(&format!("placed design {}", first.0)), "{msg}");
            }
            other => panic!("expected a structured design-mismatch error, got {other:?}"),
        }
        assert!(svc.take_result(base).unwrap().is_ok(), "the base itself still ran");
    }

    #[test]
    fn replace_with_an_unknown_base_is_a_structured_error() {
        let mut svc = service();
        let d = svc.intern(pipeline_design("p1", 8));
        let replace = svc.submit(
            PlaceJob::new(d, "hidap")
                .with_effort(EffortLevel::Fast)
                .with_replace(JobId(99), Vec::new()),
        );
        svc.run_all();
        match svc.take_result(replace) {
            Some(Err(PlaceError::InvalidRequest(msg))) => {
                assert!(msg.contains("job 99"), "{msg}");
                assert!(msg.contains("never submitted"), "{msg}");
            }
            other => panic!("expected a structured unknown-base error, got {other:?}"),
        }
    }

    #[test]
    fn peak_queued_watermark_survives_the_drain() {
        let mut svc = service();
        let d = svc.intern(pipeline_design("p1", 8));
        assert_eq!(svc.stats().peak_queued, 0);
        let jobs: Vec<JobId> = (0..3)
            .map(|_| svc.submit(PlaceJob::new(d, "hidap").with_effort(EffortLevel::Fast)))
            .collect();
        assert_eq!(svc.stats().peak_queued, 3);
        svc.run_all();
        let stats = svc.stats();
        assert_eq!(stats.queued, 0);
        assert_eq!(stats.peak_queued, 3, "the watermark reports the deepest backlog seen");
        for job in jobs {
            svc.take_result(job).unwrap().unwrap();
        }
        // a shallower later burst does not lower the mark
        svc.submit(PlaceJob::new(d, "hidap").with_effort(EffortLevel::Fast));
        assert_eq!(svc.stats().peak_queued, 3);
    }

    #[test]
    fn per_job_observers_see_only_their_job() {
        let mut svc = service();
        let d = svc.intern(pipeline_design("p1", 8));
        let obs_a = Arc::new(CollectingObserver::new());
        let obs_b = Arc::new(CollectingObserver::new());
        let base = PlaceJob::new(d, "hidap").with_effort(EffortLevel::Fast);
        let a = svc.submit(base.clone().with_seeds(vec![1, 2]).with_observer(obs_a.clone()));
        let b = svc.submit(base.with_observer(obs_b.clone()));
        svc.run_all();
        assert!(svc.take_result(a).unwrap().is_ok());
        assert!(svc.take_result(b).unwrap().is_ok());
        // job a swept two seeds; job b was a single run with no batch events
        assert_eq!(obs_a.count(|e| matches!(e, StageEvent::BatchRunStarted { .. })), 2);
        assert_eq!(obs_a.count(|e| matches!(e, StageEvent::FlowStarted { .. })), 2);
        assert_eq!(obs_b.count(|e| matches!(e, StageEvent::BatchRunStarted { .. })), 0);
        assert_eq!(obs_b.count(|e| matches!(e, StageEvent::FlowStarted { .. })), 1);
    }

    #[test]
    fn empty_seed_list_is_an_invalid_request() {
        let mut svc = service();
        let d = svc.intern(pipeline_design("p1", 8));
        let job = svc.submit(PlaceJob::new(d, "hidap").with_seeds(vec![]));
        svc.run_all();
        assert!(matches!(svc.take_result(job), Some(Err(PlaceError::InvalidRequest(_)))));
    }

    #[test]
    fn foreign_design_handle_is_rejected() {
        let mut svc = service();
        let _ = svc.intern(pipeline_design("p1", 8));
        let job = svc.submit(PlaceJob::new(DesignHandle(7), "hidap"));
        svc.run_all();
        assert!(matches!(svc.take_result(job), Some(Err(PlaceError::InvalidRequest(_)))));
    }
}
