//! The spill tier across service lifetimes: warm-start seeds must be a
//! *timing* optimization, never a result change, and they are all the
//! directory holds.
//!
//! These tests drive [`PlacementService`]s pointed at one spill directory
//! and assert that:
//!
//! * a `replace` job whose base result is gone — a [`JobId`] from a previous
//!   service incarnation, or one whose result was already taken — revives
//!   the design's persisted warm-start seed and produces a result
//!   **bit-identical** to the same replace run against the held base,
//! * with no seed file present the structured dependency errors are
//!   unchanged, and a seed file another job wrote is a structured error
//!   naming both jobs, never another job's warm start,
//! * a seed file that is there but refused — an older build's format, a
//!   flipped byte, an undecodable or misfitting seed — is counted in
//!   `seed_rejects` and otherwise reads as absent,
//! * a `rewire` replace, which drops the stale identity's graphs, leaves
//!   seed files only and runs like the same jobs without a spill directory,
//! * random schedules over a zero-budget store **with** a spill directory
//!   (every eviction drops a graph, every miss rebuilds one) match the
//!   unbounded, spill-less oracle bit-identically and leave seed files
//!   only.

use eval::EvalConfig;
use netlist::DesignEdit;
use placer_core::{DesignHandle, JobId, PlaceJob, PlacementService};
use proptest::prelude::*;

/// The fixed pool of distinct design identities (mirrors
/// `artifact_eviction.rs` so the two suites stress the same shapes).
const POOL: usize = 3;

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

fn scratch(test: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("hidap-restart-{}-{test}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn evaluated_job(handle: DesignHandle, seed: u64) -> PlaceJob {
    PlaceJob::new(handle, "hidap")
        .with_effort(placer_core::EffortLevel::Fast)
        .with_seeds(vec![seed])
        .with_evaluation(EvalConfig::standard())
}

/// The resize edit the replace jobs apply: pure geometry, so artifacts stay
/// warm and the post-edit design interns under a new geometry fingerprint.
fn resize_edits(service: &PlacementService, handle: DesignHandle) -> Vec<DesignEdit> {
    let ram = service.store().design(handle).find_cell("u_a/ram").expect("macro exists");
    vec![DesignEdit::ResizeCell { cell: ram, width: 260, height: 170 }]
}

#[test]
fn replace_survives_a_service_restart_bit_identically() {
    let dir = scratch("replace-restart");

    // First service lifetime: a decoy job (different design, so its seed
    // file lives under another fingerprint), the base job, then the
    // reference replace resolved from the held base result.
    let mut first = PlacementService::new(placer_core::builtin_registry()).with_spill_dir(&dir);
    let decoy = first.intern(pool_design(1));
    first.submit(evaluated_job(decoy, 3));
    let design = first.intern(pool_design(0));
    let base = first.submit(evaluated_job(design, 7));
    first.run_all();
    assert_eq!(base, JobId(1));
    assert_eq!(first.stats().seed_spills, 2, "every successful job persists its seed");

    let edits = resize_edits(&first, design);
    let replace = first.submit(evaluated_job(design, 7).with_replace(base, edits.clone()));
    first.run_all();
    let reference = first.take_result(replace).expect("ran").expect("succeeded");
    assert_eq!(first.stats().seed_revives, 0, "a held base resolves in memory, not from disk");

    // Second lifetime over the same directory: the base JobId is stale (it
    // was issued by the previous incarnation and is >= this service's
    // counter), so the replace revives the persisted seed.
    let mut second = PlacementService::new(placer_core::builtin_registry()).with_spill_dir(&dir);
    let design2 = second.intern(pool_design(0));
    let replay = second.submit(evaluated_job(design2, 7).with_replace(base, edits));
    second.run_all();
    let replayed = second.take_result(replay).expect("ran").expect("revived seed served the base");
    assert_eq!(second.stats().seed_revives, 1);

    assert_eq!(
        reference.outcome.placement, replayed.outcome.placement,
        "a revived seed must warm-start exactly like the held base result"
    );
    assert_eq!(reference.outcome.metrics, replayed.outcome.metrics);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn replace_after_the_base_was_taken_revives_from_the_spill_dir() {
    let dir = scratch("taken-base");
    let mut service = PlacementService::new(placer_core::builtin_registry()).with_spill_dir(&dir);
    let design = service.intern(pool_design(0));
    let base = service.submit(evaluated_job(design, 7));
    service.run_all();
    // taking the base result normally fails a later replace (take-once);
    // with a spill directory the persisted seed steps in
    let base_result = service.take_result(base).expect("ran").expect("succeeded");
    let edits = resize_edits(&service, design);
    let replace = service.submit(evaluated_job(design, 7).with_replace(base, edits));
    service.run_all();
    let result = service.take_result(replace).expect("ran").expect("seed file replaced the base");
    assert_eq!(service.stats().seed_revives, 1);
    assert_eq!(result.outcome.placement.macros.len(), base_result.outcome.placement.macros.len());
    let _ = std::fs::remove_dir_all(&dir);
}

/// Two jobs on one design state share its seed file, so the later one's
/// outcome overwrites the earlier one's. A replace naming the earlier job
/// after both results were taken must not warm-start from the later job's
/// placement: it fails naming both jobs, and the writer still revives.
#[test]
fn a_seed_another_job_wrote_is_refused_naming_both_jobs() {
    let dir = scratch("seed-of-another-job");
    let mut service = PlacementService::new(placer_core::builtin_registry()).with_spill_dir(&dir);
    let design = service.intern(pool_design(0));
    let first = service.submit(evaluated_job(design, 7));
    let second = service.submit(evaluated_job(design, 8));
    service.run_all();
    // take both results, as the daemon's `drain` streams them out
    for job in [first, second] {
        service.take_result(job).expect("ran").expect("succeeded");
    }
    let edits = resize_edits(&service, design);

    let stale = service.submit(evaluated_job(design, 7).with_replace(first, edits.clone()));
    service.run_all();
    let err = service.take_result(stale).expect("ran").expect_err("the seed is job 1's");
    let msg = err.to_string();
    assert!(
        msg.contains(&format!("depends on job {}", first.0))
            && msg.contains(&format!("written by job {}", second.0)),
        "the error names the base and the seed's writer: {msg}"
    );
    assert!(matches!(err, placer_core::PlaceError::InvalidRequest(_)), "{err:?}");
    assert_eq!(service.stats().seed_revives, 0, "a refused seed is not a revive");

    let fresh = service.submit(evaluated_job(design, 8).with_replace(second, edits));
    service.run_all();
    service.take_result(fresh).expect("ran").expect("the writer's seed revives");
    assert_eq!(service.stats().seed_revives, 1);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A seed file a replace finds but cannot use is counted in `seed_rejects`
/// and otherwise treated as absent: the replace fails with the structured
/// dependency error a missing file gives. The four causes: a frame an older
/// build wrote (format version 2, byte-wise FNV-1a checksum), one flipped
/// byte, a payload that does not decode, and a seed that does not fit the
/// resident design.
#[test]
fn refused_seed_files_are_counted_and_read_as_absent() {
    let dir = scratch("refused-seed");
    let mut service = PlacementService::new(placer_core::builtin_registry()).with_spill_dir(&dir);
    let design = service.intern(pool_design(0));
    let base = service.submit(evaluated_job(design, 7));
    service.run_all();
    service.take_result(base).expect("ran").expect("succeeded");

    let name = std::fs::read_dir(&dir)
        .expect("spill dir")
        .map(|e| e.expect("entry").file_name().to_string_lossy().into_owned())
        .find(|name| name.starts_with("seed-"))
        .expect("the base persisted its seed");
    let path = dir.join(&name);
    let stem = name.trim_end_matches(".spill");
    let fingerprint = u64::from_str_radix(&stem["seed-".len()..], 16).expect("hex stem");
    let pristine = std::fs::read(&path).expect("seed file");
    let payload = &pristine[24..pristine.len() - 8];

    let mut version_2 = pristine[..24].to_vec();
    version_2[4..8].copy_from_slice(&2u32.to_le_bytes());
    version_2.extend_from_slice(payload);
    let mut byte_fnv = netlist::Fnv1a::new();
    byte_fnv.write_bytes(payload);
    version_2.extend_from_slice(&byte_fnv.finish().to_le_bytes());
    let mut flipped = pristine.clone();
    flipped[24 + payload.len() / 2] ^= 0x10;
    let tier = eval::SpillTier::new(&dir);
    let (writer, mut misfit) = placer_core::seeds::decode_seed(payload).expect("seed decodes");
    assert_eq!(writer, base);
    misfit.placement.macros.pop();
    let misfit = placer_core::seeds::encode_seed(base, &misfit);

    let refusals: [&dyn Fn(); 4] = [
        &|| std::fs::write(&path, &version_2).expect("write"),
        &|| std::fs::write(&path, &flipped).expect("write"),
        &|| assert!(tier.store(stem, fingerprint, b"not a seed")),
        &|| assert!(tier.store(stem, fingerprint, &misfit)),
    ];
    for (i, plant) in refusals.iter().enumerate() {
        plant();
        let replace = service.submit(evaluated_job(design, 7).with_replace(base, Vec::new()));
        service.run_all();
        let err = service.take_result(replace).expect("ran").expect_err("the seed is refused");
        assert!(
            err.to_string().contains("whose result was already taken"),
            "case {i}: a refused seed reads as absent: {err}"
        );
        let stats = service.stats();
        assert_eq!((stats.seed_rejects, stats.seed_revives), (i as u64 + 1, 0), "case {i}");
    }

    // the pristine file still revives, and a revive is not a reject
    std::fs::write(&path, &pristine).expect("write");
    let replace = service.submit(evaluated_job(design, 7).with_replace(base, Vec::new()));
    service.run_all();
    service.take_result(replace).expect("ran").expect("the pristine seed revives");
    let stats = service.stats();
    assert_eq!((stats.seed_rejects, stats.seed_revives), (4, 1));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn without_a_seed_file_the_structured_errors_are_unchanged() {
    let dir = scratch("no-seed");
    let mut service = PlacementService::new(placer_core::builtin_registry()).with_spill_dir(&dir);
    let design = service.intern(pool_design(0));
    // no job has run: the directory holds no seed for this design
    let replace = service.submit(evaluated_job(design, 7).with_replace(JobId(999), Vec::new()));
    service.run_all();
    let err = service.take_result(replace).expect("ran").expect_err("no base, no seed");
    assert!(err.to_string().contains("never submitted"), "unexpected error: {err}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// The names in a spill directory, sorted.
fn spill_files(dir: &std::path::Path) -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .expect("spill dir")
        .map(|e| e.expect("dir entry").file_name().to_string_lossy().into_owned())
        .collect();
    names.sort();
    names
}

/// Whether `name` is a warm-start seed file: `seed-<16 hex digits>.spill`.
fn is_seed_file(name: &str) -> bool {
    name.strip_prefix("seed-").and_then(|rest| rest.strip_suffix(".spill")).is_some_and(|hex| {
        hex.len() == 16 && hex.bytes().all(|b| b.is_ascii_digit() || (b'a'..=b'f').contains(&b))
    })
}

/// A `rewire` replace leaves its old identity, whose graphs the store drops
/// and rebuilds under the new one. The spill directory gets the two jobs'
/// seeds and nothing else, and the jobs place and measure exactly as they do
/// on a service without a spill directory.
#[test]
fn a_rewire_replace_over_a_spill_dir_leaves_only_seed_files() {
    let dir = scratch("rewire-seeds-only");
    let rewire = |service: &PlacementService, handle: DesignHandle| {
        let design = service.store().design(handle);
        let ram = design.find_cell("u_a/ram").expect("macro exists");
        let sinks = ["u_x/pipe_reg[0]", "u_x/pipe_reg[1]"]
            .map(|name| design.find_cell(name).expect("flop exists"))
            .to_vec();
        let net = design.find_net("n0_0").expect("net exists");
        vec![DesignEdit::RewireNet { net, driver: Some(ram), sinks }]
    };

    let mut service = PlacementService::new(placer_core::builtin_registry()).with_spill_dir(&dir);
    let design = service.intern(pool_design(0));
    let base = service.submit(evaluated_job(design, 7));
    service.run_all();
    // taking the base leaves the replace to revive its seed from disk
    let base_result = service.take_result(base).expect("ran").expect("succeeded");
    let edits = rewire(&service, design);
    let replace = service.submit(evaluated_job(design, 7).with_replace(base, edits.clone()));
    service.run_all();
    let replaced = service.take_result(replace).expect("ran").expect("the seed served the base");
    let stats = service.stats();
    assert_eq!((stats.seed_spills, stats.seed_revives), (2, 1));
    assert_eq!(
        (stats.artifacts.net.misses, stats.artifacts.seq.misses),
        (2, 2),
        "one build per graph kind and design identity"
    );
    let files = spill_files(&dir);
    assert_eq!(files.len(), 2, "one seed per design state: {files:?}");
    assert!(files.iter().all(|name| is_seed_file(name)), "only seeds are spilled: {files:?}");

    // the same two jobs on a service without a spill directory, the base
    // held in memory
    let mut oracle = PlacementService::new(placer_core::builtin_registry());
    let design = oracle.intern(pool_design(0));
    let base = oracle.submit(evaluated_job(design, 7));
    oracle.run_all();
    let edits = rewire(&oracle, design);
    let replace = oracle.submit(evaluated_job(design, 7).with_replace(base, edits));
    oracle.run_all();
    let want_base = oracle.take_result(base).expect("ran").expect("succeeded");
    let want = oracle.take_result(replace).expect("ran").expect("succeeded");
    assert_eq!(base_result.outcome.placement, want_base.outcome.placement);
    assert_eq!(base_result.outcome.metrics, want_base.outcome.metrics);
    assert_eq!(replaced.outcome.placement, want.outcome.placement, "a spill dir moved a placement");
    assert_eq!(replaced.outcome.metrics, want.outcome.metrics, "a spill dir moved the metrics");
    let _ = std::fs::remove_dir_all(&dir);
}

/// One step of a random schedule (same shape as `artifact_eviction.rs`).
#[derive(Debug, Clone, Copy)]
enum Op {
    Submit(usize, u64),
    Release(usize),
    Evict,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    (0usize..10, 0usize..POOL, 1u64..4).prop_map(|(pick, slot, seed)| match pick {
        0..=4 => Op::Submit(slot, seed),
        5..=7 => Op::Release(slot),
        _ => Op::Evict,
    })
}

fn run_job(
    service: &mut PlacementService,
    handle: DesignHandle,
    seed: u64,
) -> placer_core::JobResult {
    let job = service.submit(evaluated_job(handle, seed));
    service.run_all();
    service.take_result(job).expect("job ran").expect("job succeeded")
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 8 })]

    #[test]
    fn evicted_runs_over_a_spill_dir_match_the_spill_less_oracle(
        ops in prop::collection::vec(op_strategy(), 1..8),
    ) {
        // zero budget + spill dir: every insert evicts, every fetch of an
        // evicted graph rebuilds it, and every job persists a seed
        let dir = scratch("proptest");
        let store = placer_core::DesignStore::with_memory_budget(0);
        let mut spilled = PlacementService::with_store(placer_core::builtin_registry(), store)
            .with_spill_dir(&dir);
        let mut oracle = PlacementService::new(placer_core::builtin_registry());
        let mut handles: [Option<DesignHandle>; POOL] = [None; POOL];

        for &op in &ops {
            match op {
                Op::Submit(slot, seed) => {
                    let handle = spilled.intern(pool_design(slot));
                    if let Some(known) = handles[slot] {
                        prop_assert_eq!(handle, known);
                    }
                    handles[slot] = Some(handle);
                    let got = run_job(&mut spilled, handle, seed);
                    let oracle_handle = oracle.intern(pool_design(slot));
                    let want = run_job(&mut oracle, oracle_handle, seed);
                    prop_assert_eq!(
                        &got.outcome.placement, &want.outcome.placement,
                        "eviction changed a placement"
                    );
                    prop_assert_eq!(
                        &got.outcome.metrics, &want.outcome.metrics,
                        "eviction changed metrics"
                    );
                }
                Op::Release(slot) => {
                    if let Some(handle) = handles[slot] {
                        spilled.release(handle);
                    }
                }
                Op::Evict => {
                    spilled.store_mut().evict_unreferenced();
                }
            }
        }

        // the evictions wrote nothing: the directory holds the seeds the
        // jobs persisted, one per design state, and no graph
        let stats = spilled.stats();
        let submits = ops.iter().filter(|op| matches!(op, Op::Submit(..))).count();
        prop_assert_eq!(stats.seed_spills, submits as u64, "every job persists its seed");
        let files = if submits == 0 { Vec::new() } else { spill_files(&dir) };
        prop_assert!(
            files.iter().all(|name| is_seed_file(name)),
            "only seeds are spilled: {:?}", files
        );
        let designs = ops.iter().filter_map(|op| match op {
            Op::Submit(slot, _) => Some(*slot),
            _ => None,
        });
        prop_assert_eq!(files.len(), designs.collect::<std::collections::BTreeSet<_>>().len());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
