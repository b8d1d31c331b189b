//! Differential ECO fuzzer: random design × random edit sequence, the
//! incremental path asserted bit-identical to from-scratch.
//!
//! Each round drives one adversarial preset (`workload::adversarial`)
//! through two independent pipelines:
//!
//! * **incremental** — one [`placer_core::PlacementService`]: intern the
//!   base design, place it cold, then run a `replace` job that applies a
//!   seeded random edit script through the store (selective artifact
//!   invalidation) and warm-starts from the held base result, then place
//!   the mutated interned design cold again;
//! * **from-scratch** — `base.clone()`, the same edit script applied
//!   directly via [`netlist::design::Design::apply_edits`], interned into a
//!   *fresh* service with empty caches, and placed cold.
//!
//! The cold results of the two pipelines must agree bit for bit — the
//! in-place mutation plus whatever cached artifacts survived it can change
//! timing, never results. The preserved pre-session pipeline
//! (`bench::reference::evaluate_placement_reference`) re-derives the
//! metrics as a third opinion. Pure-geometry scripts additionally assert
//! the CI invariant from ISSUE 8: zero `Gnet` and zero `Gseq` rebuilds
//! across the replace *and* the post-edit cold job, straight off the
//! artifact-cache miss counters.
//!
//! The default tests are the quick CI shape (one mixed and one
//! geometry-only round per preset). `eco_fuzz_deep` widens to many seeds
//! and longer scripts; run it with `cargo test -p bench -- --ignored`.

use bench::reference::evaluate_placement_reference;
use eval::EvalConfig;
use placer_core::{DesignHandle, EffortLevel, PlaceJob, PlacementService};
use workload::{adversarial_design, random_edits, random_geometry_edits, ADVERSARIAL_PRESETS};

fn job(design: DesignHandle) -> PlaceJob {
    PlaceJob::new(design, "hidap")
        .with_effort(EffortLevel::Fast)
        .with_seeds(vec![7])
        .with_evaluation(EvalConfig::standard())
}

fn service() -> PlacementService {
    PlacementService::new(baselines::default_registry())
}

/// One differential round: `count` random edits (optionally restricted to
/// pure geometry) on `preset`, incremental vs from-scratch.
fn differential_round(preset: &str, seed: u64, count: usize, geometry_only: bool) {
    let base = adversarial_design(preset);
    let edits = if geometry_only {
        random_geometry_edits(&base, seed, count)
    } else {
        random_edits(&base, seed, count)
    };
    assert_eq!(edits.len(), count, "the generator honors the requested script length");

    // --- incremental: one service, the store mutated in place ------------
    let mut inc = service();
    let handle = inc.intern(base.clone());
    let base_job = inc.submit(job(handle));
    inc.run_all();
    let cold_stats = inc.store().artifacts().stats();

    let replace = inc.submit(job(handle).with_replace(base_job, edits.clone()));
    inc.run_all();
    let warm = inc.take_result(replace).expect("replace ran").expect("replace succeeded");
    let log = warm.edit_log.clone().expect("a non-empty script leaves an edit log");
    assert_eq!(log.applied, count, "every edit of the script applied");
    let edited_view = inc.store().get_design(handle).expect("design stays resident");
    assert!(warm.outcome.placement.is_legal(edited_view), "warm re-place stays legal");
    assert!(warm.outcome.metrics.is_some(), "warm re-place evaluated");

    // post-edit cold place through the same (mutated) store
    let cold_job = inc.submit(job(handle));
    inc.run_all();
    let inc_cold = inc.take_result(cold_job).expect("cold job ran").expect("cold job succeeded");

    if geometry_only {
        assert!(log.diff.is_pure_geometry(), "a no-rewire script keeps the identity");
        let stats = inc.store().artifacts().stats();
        assert_eq!(
            stats.seq.misses, cold_stats.seq.misses,
            "{preset} seed {seed}: a pure-geometry script must rebuild zero Gseq"
        );
        assert_eq!(
            stats.net.misses, cold_stats.net.misses,
            "{preset} seed {seed}: a pure-geometry script must rebuild zero Gnet"
        );
    }

    // --- from-scratch: the same script on a clone, all caches cold --------
    let mut scratch = base.clone();
    let scratch_log = scratch.apply_edits(&edits).expect("the script applies to the clone");
    assert_eq!(
        scratch_log.diff, log.diff,
        "{preset} seed {seed}: store-applied and directly-applied edits disagree on the \
         fingerprint diff"
    );
    scratch.validate().expect("the edited design is well-formed");
    let mut fresh_svc = service();
    let fresh_handle = fresh_svc.intern(scratch.clone());
    let fresh_job = fresh_svc.submit(job(fresh_handle));
    fresh_svc.run_all();
    let fresh =
        fresh_svc.take_result(fresh_job).expect("fresh job ran").expect("fresh job succeeded");

    assert_eq!(
        inc_cold.outcome.placement, fresh.outcome.placement,
        "{preset} seed {seed}: incremental and from-scratch placements diverged"
    );
    assert_eq!(
        inc_cold.outcome.metrics, fresh.outcome.metrics,
        "{preset} seed {seed}: incremental and from-scratch metrics diverged"
    );

    // --- third opinion: the preserved one-shot reference pipeline ---------
    let reference = evaluate_placement_reference(
        &scratch,
        &inc_cold.outcome.placement,
        &EvalConfig::standard(),
    );
    assert_eq!(
        &reference,
        inc_cold.outcome.metrics.as_ref().unwrap(),
        "{preset} seed {seed}: the reference pipeline disagrees with the session evaluator"
    );
}

#[test]
fn eco_fuzz_quick_mixed_edits() {
    for (i, preset) in ADVERSARIAL_PRESETS.iter().enumerate() {
        differential_round(preset, 0xEC0 + i as u64, 8, false);
    }
}

#[test]
fn eco_fuzz_quick_geometry_edits_keep_graphs_warm() {
    for (i, preset) in ADVERSARIAL_PRESETS.iter().enumerate() {
        differential_round(preset, 0x6E0 + i as u64, 8, true);
    }
}

/// Pinned regression: this deep-sweep round once produced an *illegal* warm
/// re-place — the edit batch defeated incremental legalization on the
/// near-full die and the warm path returned the overlapping placement
/// instead of falling back to the full flow (fixed in `hidap::flow`).
#[test]
fn eco_fuzz_regression_packed_die_defeats_incremental_legalization() {
    differential_round("adv_packed", 57366, 24, true);
}

/// The deep sweep: every preset × 6 seeds × both modes × two script
/// lengths. Minutes, not seconds — `cargo test -p bench -- --ignored`.
#[test]
#[ignore = "deep fuzz sweep; run explicitly with -- --ignored"]
fn eco_fuzz_deep() {
    for (i, preset) in ADVERSARIAL_PRESETS.iter().enumerate() {
        for seed in 0..6u64 {
            for &count in &[4usize, 24] {
                for geometry_only in [false, true] {
                    differential_round(
                        preset,
                        0xDEE7 + 101 * i as u64 + seed,
                        count,
                        geometry_only,
                    );
                }
            }
        }
    }
}
