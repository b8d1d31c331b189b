//! The production scheduling layer: admission control and per-client quotas
//! over a [`PlacementService`].
//!
//! A [`Scheduler`] wraps a service with the two policies a long-lived,
//! multi-user deployment needs before it can take untrusted traffic:
//!
//! * **admission control** — a [`Scheduler::submit`] is rejected with
//!   [`PlaceError::AdmissionRejected`] (naming the remedy) when the store's
//!   *pinned* design bytes — the unevictable floor of referenced resident
//!   designs — already exceed the memory budget. Accepting more work against
//!   a store that budget enforcement cannot shrink would only grow the
//!   resident set; the client is told to release designs (or raise the
//!   budget) and resubmit.
//! * **per-client quotas** — clients register through
//!   [`Scheduler::register_client`] and every submit is charged against the
//!   client's quota of *queued* jobs; the quota frees as the queue drains.
//!   Over quota, the submit is rejected with [`PlaceError::QuotaExceeded`].
//!
//! Both policies are pure functions of the scheduler's own state — no
//! clocks, no sampling — so the same submission script always produces the
//! same accept/reject decisions, and (through the service's priority-ordered
//! drain) the same execution and event order.
//!
//! # Example
//!
//! ```
//! use netlist::design::DesignBuilder;
//! use placer_core::{PlaceJob, Scheduler};
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
//! let mut sched = Scheduler::new(placer_core::builtin_registry());
//! let client = sched.register_client("ci");
//! let design = sched.service_mut().intern(b.build());
//! let job = sched.submit(client, PlaceJob::new(design, "hidap")).unwrap();
//! sched.drain();
//! assert!(sched.take_result(job).unwrap().is_ok());
//! ```

use crate::error::PlaceError;
use crate::registry::FlowRegistry;
use crate::service::{JobId, JobResult, PlaceJob, PlacementService};
use std::collections::HashMap;

/// Identifier of a registered client, unique within its scheduler.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ClientId(pub u64);

/// Per-client bookkeeping: the display name (for error messages) and the
/// ids of the client's still-queued jobs (its quota charge).
#[derive(Debug, Clone)]
struct ClientSlot {
    name: String,
    queued: Vec<JobId>,
}

/// Admission control and quotas over a [`PlacementService`]. See the
/// [module docs](crate::scheduler).
pub struct Scheduler {
    service: PlacementService,
    clients: Vec<ClientSlot>,
    /// Which client submitted each job, for quota release on drain/cancel.
    owners: HashMap<JobId, ClientId>,
    quota: usize,
}

impl Scheduler {
    /// Default per-client quota of queued jobs.
    pub const DEFAULT_QUOTA: usize = 32;

    /// A scheduler over a fresh service (unbounded store).
    pub fn new(registry: FlowRegistry) -> Self {
        Self::with_service(PlacementService::new(registry))
    }

    /// A scheduler over an existing service (e.g. one whose store has a
    /// memory budget — without one, admission control never rejects).
    pub fn with_service(service: PlacementService) -> Self {
        Self { service, clients: Vec::new(), owners: HashMap::new(), quota: Self::DEFAULT_QUOTA }
    }

    /// Sets the per-client quota of queued jobs (default
    /// [`Scheduler::DEFAULT_QUOTA`]).
    pub fn with_quota(mut self, quota: usize) -> Self {
        self.quota = quota;
        self
    }

    /// The per-client quota of queued jobs.
    pub fn quota(&self) -> usize {
        self.quota
    }

    /// Registers a client and returns its id. Names are display-only (they
    /// appear in quota errors); two clients may share one.
    pub fn register_client(&mut self, name: impl Into<String>) -> ClientId {
        let id = ClientId(self.clients.len() as u64);
        self.clients.push(ClientSlot { name: name.into(), queued: Vec::new() });
        id
    }

    /// Jobs the client currently has queued (its quota charge). An id that
    /// was never registered has nothing queued.
    pub fn client_queued(&self, client: ClientId) -> usize {
        self.clients.get(client.0 as usize).map_or(0, |slot| slot.queued.len())
    }

    /// The wrapped service, for introspection ([`PlacementService::stats`],
    /// [`PlacementService::job_state`], the store).
    pub fn service(&self) -> &PlacementService {
        &self.service
    }

    /// Mutable access to the wrapped service (interning and releasing
    /// designs goes through here — admission control gates *work*, not
    /// residency; the store's own budget governs residency).
    pub fn service_mut(&mut self) -> &mut PlacementService {
        &mut self.service
    }

    /// Submits a job on behalf of a client, applying both policies:
    ///
    /// 1. quota — the client must have fewer than [`Scheduler::quota`] jobs
    ///    queued, else [`PlaceError::QuotaExceeded`];
    /// 2. admission — the store's [`crate::DesignStore::pinned_design_bytes`] must
    ///    not exceed its memory budget, else
    ///    [`PlaceError::AdmissionRejected`] naming the job's design and the
    ///    remedy. (A store without a budget admits everything.)
    ///
    /// An accepted job is queued on the service with its priority intact.
    pub fn submit(&mut self, client: ClientId, job: PlaceJob) -> Result<JobId, PlaceError> {
        let slot = self.clients.get(client.0 as usize).ok_or_else(|| {
            PlaceError::InvalidRequest(format!("unregistered client id {}", client.0))
        })?;
        if slot.queued.len() >= self.quota {
            return Err(PlaceError::QuotaExceeded { client: slot.name.clone(), quota: self.quota });
        }
        if let Some(budget) = self.service.store().memory_budget() {
            let pinned = self.service.store().pinned_design_bytes();
            if pinned > budget {
                return Err(PlaceError::AdmissionRejected {
                    design: job.design.0,
                    pinned_bytes: pinned,
                    budget_bytes: budget,
                });
            }
        }
        let id = self.service.submit(job);
        if let Some(slot) = self.clients.get_mut(client.0 as usize) {
            slot.queued.push(id);
        }
        self.owners.insert(id, client);
        Ok(id)
    }

    /// Cancels a still-queued job, freeing its quota charge. Returns `false`
    /// (changing nothing) when the job is not in the queue.
    pub fn cancel(&mut self, id: JobId) -> bool {
        if !self.service.cancel_queued(id) {
            return false;
        }
        self.uncharge(id);
        true
    }

    /// Drains the service queue (priority order) and frees every quota
    /// charge. Returns the number of jobs that ran.
    pub fn drain(&mut self) -> usize {
        let ran = self.service.run_all();
        for slot in &mut self.clients {
            slot.queued.clear();
        }
        self.owners.clear();
        ran
    }

    /// Removes and returns a job's result (see
    /// [`PlacementService::take_result`] for the exact contract).
    pub fn take_result(&mut self, id: JobId) -> Option<Result<JobResult, PlaceError>> {
        self.service.take_result(id)
    }

    /// Removes a drained job's quota charge.
    fn uncharge(&mut self, id: JobId) {
        if let Some(client) = self.owners.remove(&id) {
            if let Some(slot) = self.clients.get_mut(client.0 as usize) {
                slot.queued.retain(|&qid| qid != id);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flows::builtin_registry;
    use crate::request::EffortLevel;
    use crate::store::DesignStore;
    use geometry::Rect;
    use netlist::design::{Design, DesignBuilder};
    use netlist::HeapSize;

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

    fn fast_job(design: crate::DesignHandle) -> PlaceJob {
        PlaceJob::new(design, "hidap").with_effort(EffortLevel::Fast)
    }

    #[test]
    fn quota_rejects_the_overflowing_submit_and_frees_on_drain() {
        let mut sched = Scheduler::new(builtin_registry()).with_quota(2);
        let client = sched.register_client("alice");
        let d = sched.service_mut().intern(pipeline_design("p1", 8));
        let a = sched.submit(client, fast_job(d)).unwrap();
        let b = sched.submit(client, fast_job(d)).unwrap();
        match sched.submit(client, fast_job(d)) {
            Err(PlaceError::QuotaExceeded { client, quota }) => {
                assert_eq!(client, "alice");
                assert_eq!(quota, 2);
            }
            other => panic!("expected a quota rejection, got {other:?}"),
        }
        assert_eq!(sched.client_queued(client), 2);
        sched.drain();
        assert_eq!(sched.client_queued(client), 0, "the drain frees the quota");
        let c = sched.submit(client, fast_job(d)).unwrap();
        sched.drain();
        for id in [a, b, c] {
            assert!(sched.take_result(id).unwrap().is_ok());
        }
    }

    #[test]
    fn quotas_are_per_client() {
        let mut sched = Scheduler::new(builtin_registry()).with_quota(1);
        let alice = sched.register_client("alice");
        let bob = sched.register_client("bob");
        let d = sched.service_mut().intern(pipeline_design("p1", 8));
        sched.submit(alice, fast_job(d)).unwrap();
        assert!(matches!(sched.submit(alice, fast_job(d)), Err(PlaceError::QuotaExceeded { .. })));
        assert!(sched.submit(bob, fast_job(d)).is_ok(), "bob's quota is his own");
    }

    #[test]
    fn cancel_frees_the_quota_charge() {
        let mut sched = Scheduler::new(builtin_registry()).with_quota(1);
        let client = sched.register_client("alice");
        let d = sched.service_mut().intern(pipeline_design("p1", 8));
        let job = sched.submit(client, fast_job(d)).unwrap();
        assert!(sched.cancel(job));
        assert_eq!(sched.client_queued(client), 0);
        assert!(sched.submit(client, fast_job(d)).is_ok(), "the freed slot is usable");
        assert!(!sched.cancel(job), "a cancelled job cannot be cancelled again");
        assert!(matches!(sched.take_result(job), Some(Err(PlaceError::Cancelled))));
    }

    #[test]
    fn admission_rejects_when_pinned_bytes_exceed_the_budget() {
        // budget sized to hold the small design but not both: interning the
        // large one pins the store past its budget, so the next submit is
        // rejected with the remedy in the message
        let small = pipeline_design("small", 4);
        let large = pipeline_design("large", 64);
        let budget = small.heap_bytes() + large.heap_bytes() / 2;
        let service = PlacementService::with_store(
            builtin_registry(),
            DesignStore::with_memory_budget(budget),
        );
        let mut sched = Scheduler::with_service(service);
        let client = sched.register_client("ci");
        let ds = sched.service_mut().intern(small);
        let ok = sched.submit(client, fast_job(ds)).unwrap();
        let dl = sched.service_mut().intern(large);
        match sched.submit(client, fast_job(dl)) {
            Err(PlaceError::AdmissionRejected { design, pinned_bytes, budget_bytes }) => {
                assert_eq!(design, dl.0);
                assert!(pinned_bytes > budget_bytes, "{pinned_bytes} vs {budget_bytes}");
            }
            other => panic!("expected an admission rejection, got {other:?}"),
        }
        // releasing the large design unpins it — the next submit is admitted
        sched.service_mut().release(dl);
        sched.service_mut().store_mut().reclaim();
        let retry = sched.submit(client, fast_job(ds)).unwrap();
        sched.drain();
        assert!(sched.take_result(ok).unwrap().is_ok());
        assert!(sched.take_result(retry).unwrap().is_ok());
    }

    #[test]
    fn unregistered_client_is_rejected_not_fatal() {
        // regression: submitting under a never-registered client id used to
        // index out of bounds and take the daemon down (hidap-lint rule
        // daemon-panic); it must be an error the session can report
        let mut sched = Scheduler::new(builtin_registry());
        let d = sched.service_mut().intern(pipeline_design("p1", 8));
        let ghost = ClientId(99);
        assert_eq!(sched.client_queued(ghost), 0, "an unknown id has nothing queued");
        match sched.submit(ghost, fast_job(d)) {
            Err(PlaceError::InvalidRequest(reason)) => {
                assert!(reason.contains("unregistered"), "remedy named: {reason}");
            }
            other => panic!("expected an invalid-request error, got {other:?}"),
        }
        // the scheduler survives: a properly registered client still gets
        // service afterwards
        let client = sched.register_client("alice");
        let job = sched.submit(client, fast_job(d)).unwrap();
        sched.drain();
        assert!(sched.take_result(job).unwrap().is_ok());
    }

    #[test]
    fn unbudgeted_stores_admit_everything() {
        let mut sched = Scheduler::new(builtin_registry());
        let client = sched.register_client("dev");
        let d = sched.service_mut().intern(pipeline_design("p1", 64));
        assert!(sched.submit(client, fast_job(d)).is_ok());
    }
}
