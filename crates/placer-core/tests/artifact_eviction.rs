//! Property-based correctness of memory-governed eviction.
//!
//! The memory budget is a *performance* knob: caches and stores may drop and
//! rebuild whatever they like, but results must never change. These tests
//! drive a [`PlacementService`] over a **zero-byte budget** store (every
//! unreferenced design and artifact is evicted at the first opportunity —
//! the most hostile schedule a budget can produce) with random
//! intern/submit/release/evict interleavings, and assert that:
//!
//! * every job's placement and metrics are **bit-identical** to the same
//!   job run against an unbounded store (the oracle),
//! * a design with live references is **never evicted**, no matter how far
//!   over budget the store is,
//! * released-and-evicted designs **revive under their old handle** on
//!   re-intern.

use eval::EvalConfig;
use placer_core::{DesignHandle, PlaceJob, PlacementService};
use proptest::prelude::*;

/// The fixed pool of distinct design identities the ops index into.
const POOL: usize = 3;

/// A deterministic pipeline design per pool slot (slot `i` differs from
/// slot `j` in name and register count, so they intern separately).
fn pool_design(slot: usize) -> netlist::design::Design {
    use netlist::design::DesignBuilder;
    let mut b = DesignBuilder::new(format!("pool_{slot}"));
    let a = b.add_macro("u_a/ram", "RAM", 200, 150, "u_a");
    let c = b.add_macro("u_b/ram", "RAM", 200, 150, "u_b");
    for i in 0..(6 + 2 * slot) {
        let f = b.add_flop(format!("u_x/pipe_reg[{i}]"), "u_x");
        let n0 = b.add_net(format!("n0_{i}"));
        let n1 = b.add_net(format!("n1_{i}"));
        b.connect_driver(n0, a);
        b.connect_sink(n0, f);
        b.connect_driver(n1, f);
        b.connect_sink(n1, c);
    }
    b.set_die(geometry::Rect::new(0, 0, 2000, 1500));
    b.build()
}

/// One step of a random schedule.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// Intern (or revive) the slot's design and run one evaluated hidap job
    /// on it with this seed.
    Submit(usize, u64),
    /// Drop one reference to the slot's design (no-op when never interned).
    Release(usize),
    /// Evict every unreferenced design right now.
    Evict,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    (0usize..10, 0usize..POOL, 1u64..4).prop_map(|(pick, slot, seed)| match pick {
        0..=4 => Op::Submit(slot, seed),
        5..=7 => Op::Release(slot),
        _ => Op::Evict,
    })
}

/// Runs one evaluated job and returns its outcome.
fn run_job(
    service: &mut PlacementService,
    handle: DesignHandle,
    seed: u64,
) -> placer_core::JobResult {
    let job = service.submit(
        PlaceJob::new(handle, "hidap")
            .with_effort(placer_core::EffortLevel::Fast)
            .with_seeds(vec![seed])
            .with_evaluation(EvalConfig::standard()),
    );
    service.run_all();
    service.take_result(job).expect("job ran").expect("job succeeded")
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12 })]

    #[test]
    fn any_interleaving_under_a_tiny_budget_matches_the_unbounded_oracle(
        ops in prop::collection::vec(op_strategy(), 1..8),
    ) {
        // zero budget: the most aggressive eviction schedule possible
        let budgeted_store = placer_core::DesignStore::with_memory_budget(0);
        let mut budgeted =
            PlacementService::with_store(placer_core::builtin_registry(), budgeted_store);
        let mut oracle = PlacementService::new(placer_core::builtin_registry());

        // pool slot → (handle, live refs we have added) in the budgeted store
        let mut handles: [Option<(DesignHandle, usize)>; POOL] = [None; POOL];

        for &op in &ops {
            match op {
                Op::Submit(slot, seed) => {
                    // intern-or-revive, run, compare against the oracle
                    let handle = budgeted.intern(pool_design(slot));
                    if let Some((known, refs)) = handles[slot] {
                        prop_assert_eq!(handle, known, "revival must reuse the old handle");
                        handles[slot] = Some((known, refs + 1));
                    } else {
                        handles[slot] = Some((handle, 1));
                    }
                    let got = run_job(&mut budgeted, handle, seed);

                    let oracle_handle = oracle.intern(pool_design(slot));
                    let want = run_job(&mut oracle, oracle_handle, seed);
                    prop_assert_eq!(
                        &got.outcome.placement, &want.outcome.placement,
                        "budgeted placement diverged from the unbounded oracle"
                    );
                    prop_assert_eq!(
                        &got.outcome.metrics, &want.outcome.metrics,
                        "budgeted metrics diverged from the unbounded oracle"
                    );
                }
                Op::Release(slot) => {
                    if let Some((handle, refs)) = handles[slot] {
                        if refs > 0 {
                            budgeted.release(handle);
                            handles[slot] = Some((handle, refs - 1));
                        }
                    }
                }
                Op::Evict => {
                    budgeted.store_mut().evict_unreferenced();
                }
            }
            // the liveness invariant, checked after every op: a handle with
            // live references is never evicted, however tight the budget
            for (handle, refs) in handles.iter().flatten() {
                prop_assert_eq!(budgeted.store().ref_count(*handle), *refs);
                if *refs > 0 {
                    prop_assert!(
                        budgeted.store().is_resident(*handle),
                        "live handle {:?} was evicted", handle
                    );
                }
            }
        }

        // the oracle never evicts; the budgeted store never exceeds its
        // budget except through live references
        prop_assert_eq!(oracle.store().design_evictions(), 0);
    }
}

/// The budget-pressure schedule with no randomness: release → immediate
/// eviction → re-intern → bit-identical rerun (the service-level mirror of
/// the store unit tests, kept out of the proptest so it always runs).
#[test]
fn evicted_and_rebuilt_results_are_bit_identical() {
    let store = placer_core::DesignStore::with_memory_budget(0);
    let mut service = PlacementService::with_store(placer_core::builtin_registry(), store);
    let handle = service.intern(pool_design(0));
    let cold = run_job(&mut service, handle, 7);
    let cold_stats = service.store().artifacts().stats();

    service.release(handle);
    assert!(!service.store().is_resident(handle), "zero budget evicts on release");
    assert_eq!(service.store().artifacts().resident_bytes(), 0);

    let revived = service.intern(pool_design(0));
    assert_eq!(revived, handle);
    let rebuilt = run_job(&mut service, handle, 7);
    assert_eq!(cold.outcome.placement, rebuilt.outcome.placement);
    assert_eq!(cold.outcome.metrics, rebuilt.outcome.metrics);

    // the rebuilt pass really rebuilt: one more build of each graph kind
    let rebuilt_stats = service.store().artifacts().stats();
    assert_eq!(rebuilt_stats.net.misses, cold_stats.net.misses + 1, "Gnet rebuilt after eviction");
    assert_eq!(rebuilt_stats.seq.misses, cold_stats.seq.misses + 1, "Gseq rebuilt after eviction");
}
