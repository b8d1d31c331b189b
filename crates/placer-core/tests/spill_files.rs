//! The disk bytes the daemon reads back: `.spill` files and warm-start seed
//! payloads, checked byte for byte.
//!
//! * Mutated files — truncated, bit-flipped, spliced, with a rewritten length
//!   or version field — go through [`SpillTier::read`] and must read as
//!   absent or refused, never panic and never load. The corpus is a real
//!   seed file, written by a placement on a spill-dir service (the only kind
//!   of file the daemon writes and reads back).
//! * Mutated seed payloads are stored again under a fresh checksum, so the
//!   tier accepts them and [`decode_seed`] really sees them. Each must decode
//!   to `None` or to a seed whose re-encoding equals the payload.
//! * The seed of the benchmark's `eco_session` base placement (ignored;
//!   release) keeps its 429,463 payload bytes and their FNV-1a.
//!
//! Each proptest runs 128 cases here; its deep sweep of 2,000 is ignored
//! and runs in CI's golden step:
//!
//! ```sh
//! cargo test --release -p placer-core --test spill_files -- --ignored
//! ```

use eval::{EvalConfig, SpillMiss, SpillTier};
use placer_core::seeds::{decode_seed, encode_seed, SeedRef};
use placer_core::{EffortLevel, JobId, PlaceJob, PlacementService};
use proptest::prelude::*;
use std::path::{Path, PathBuf};
use std::sync::OnceLock;

fn scratch(test: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("hidap-spill-files-{}-{test}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// One `.spill` file of the corpus: its stem, the fingerprint it files
/// under, and its bytes.
struct SpillFile {
    stem: String,
    fingerprint: u64,
    bytes: Vec<u8>,
}

impl SpillFile {
    /// The one file in `dir` whose name starts with `prefix`.
    fn find(dir: &Path, prefix: &str) -> Self {
        let mut names: Vec<String> = std::fs::read_dir(dir)
            .expect("spill dir")
            .map(|e| e.expect("dir entry").file_name().to_string_lossy().into_owned())
            .filter(|name| name.starts_with(prefix) && name.ends_with(".spill"))
            .collect();
        names.sort();
        let name = names.first().unwrap_or_else(|| panic!("no {prefix} file in {dir:?}"));
        let stem = name.trim_end_matches(".spill").to_string();
        let fingerprint =
            u64::from_str_radix(&stem[prefix.len()..], 16).expect("hex fingerprint in the stem");
        let bytes = std::fs::read(dir.join(name)).expect("spill file");
        Self { stem, fingerprint, bytes }
    }
}

/// A real seed file, written once per test binary.
fn corpus() -> &'static SpillFile {
    static CORPUS: OnceLock<SpillFile> = OnceLock::new();
    CORPUS.get_or_init(|| {
        let dir = scratch("corpus");
        let mut service =
            PlacementService::new(placer_core::builtin_registry()).with_spill_dir(&dir);
        let design = workload::presets::service_fleet(1, 0.05).remove(0).design;
        let handle = service.intern(design);
        let job = service.submit(
            PlaceJob::new(handle, "hidap")
                .with_effort(EffortLevel::Fast)
                .with_evaluation(EvalConfig::standard()),
        );
        service.run_all();
        service.take_result(job).expect("ran").expect("placed");
        let seed = SpillFile::find(&dir, "seed-");
        let _ = std::fs::remove_dir_all(&dir);
        seed
    })
}

/// One way to damage a byte string.
#[derive(Debug, Clone, Copy)]
enum Mutation {
    /// Keep the first `n % len` bytes.
    Truncate(usize),
    /// Flip bit `bit` of byte `at % len`.
    Flip(usize, u32),
    /// Drop (`a < b`) or repeat (`a > b`) the section between the two
    /// offsets, each taken `% len`.
    Splice(usize, usize),
    /// Overwrite byte `at % len` with `value` (small values hit tags).
    Set(usize, u8),
    /// Overwrite the frame's length field with the true length plus a
    /// small delta, or with an arbitrary value past `1 << 32`.
    Length(i64, u64),
    /// Overwrite the frame's version field.
    Version(u32),
}

fn mutation() -> impl Strategy<Value = Mutation> {
    let offsets = (0usize..1 << 24, 0usize..1 << 24);
    (0u8..6, offsets, 0u32..8, 0u8..4, (-40i64..40, 0u64..1 << 62)).prop_map(
        |(kind, (a, b), bit, value, (delta, raw))| match kind {
            0 => Mutation::Truncate(a),
            1 => Mutation::Flip(a, bit),
            2 => Mutation::Splice(a, b),
            3 => Mutation::Set(a, value),
            4 => Mutation::Length(delta, raw),
            _ => Mutation::Version(bit),
        },
    )
}

/// `bytes` with `m` applied. The frame fields of [`Mutation::Length`] and
/// [`Mutation::Version`] sit at bytes 16..24 and 4..8 of a `.spill` file.
fn mutate(bytes: &[u8], m: Mutation) -> Vec<u8> {
    let len = bytes.len();
    let mut out = bytes.to_vec();
    let overwrite = |out: &mut Vec<u8>, at: usize, field: &[u8]| {
        if let Some(slot) = out.get_mut(at..at + field.len()) {
            slot.copy_from_slice(field);
        }
    };
    match m {
        Mutation::Truncate(n) => out.truncate(n % len),
        Mutation::Flip(at, bit) => out[at % len] ^= 1 << bit,
        Mutation::Splice(a, b) => out = [&bytes[..a % len], &bytes[b % len..]].concat(),
        Mutation::Set(at, value) => out[at % len] = value,
        Mutation::Length(delta, raw) => {
            let payload = (len - 32) as u64;
            let field =
                if delta % 5 == 0 { raw | 1 << 32 } else { payload.wrapping_add_signed(delta) };
            overwrite(&mut out, 16, &field.to_le_bytes());
        }
        Mutation::Version(v) => overwrite(&mut out, 4, &v.to_le_bytes()),
    }
    out
}

/// A mutated file must be refused — or, when the mutation changed nothing,
/// still load the original payload.
fn check_file(tier: &SpillTier, file: &SpillFile, m: Mutation) -> Result<(), TestCaseError> {
    let bad = mutate(&file.bytes, m);
    std::fs::write(tier.dir().join(format!("{}.spill", file.stem)), &bad).expect("write");
    let read = tier.read(&file.stem, file.fingerprint);
    if bad == file.bytes {
        prop_assert_eq!(read.as_deref().ok(), file.bytes.get(24..file.bytes.len() - 8));
    } else {
        prop_assert_eq!(read, Err(SpillMiss::Refused), "{:?} loaded", m);
    }
    Ok(())
}

/// A mutated seed payload, stored under a fresh checksum, must decode to
/// `None` or to a seed that re-encodes to the same bytes.
fn check_payload(tier: &SpillTier, m: Mutation) -> Result<(), TestCaseError> {
    let seed = corpus();
    let payload = &seed.bytes[24..seed.bytes.len() - 8];
    let bad = mutate(payload, m);
    prop_assert!(tier.store(&seed.stem, seed.fingerprint, &bad));
    let loaded = tier.read(&seed.stem, seed.fingerprint);
    prop_assert_eq!(loaded.as_deref(), Ok(&bad[..]), "a fresh checksum loads");
    if let Some((job, decoded)) = decode_seed(&bad) {
        prop_assert_eq!(&encode_seed(job, &decoded), &bad, "{:?} decoded non-canonically", m);
    }
    Ok(())
}

#[test]
fn the_corpus_loads_and_decodes() {
    let file = corpus();
    let dir = scratch("pristine");
    let tier = SpillTier::new(&dir);
    std::fs::write(dir.join(format!("{}.spill", file.stem)), &file.bytes).expect("write");
    let payload = tier.read(&file.stem, file.fingerprint).expect("the pristine file loads");
    assert_eq!(payload.len() + 32, file.bytes.len());
    let (job, seed) = decode_seed(&payload).expect("the real seed decodes");
    assert_eq!(job, JobId(0));
    assert!(seed.cells.is_some(), "the job evaluated, so the seed carries its cells");
    assert_eq!(encode_seed(job, &seed), payload);
    let _ = std::fs::remove_dir_all(&dir);
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 128 })]

    #[test]
    fn mutated_spill_files_read_as_refused(m in mutation()) {
        let dir = scratch("files");
        check_file(&SpillTier::new(&dir), corpus(), m)?;
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn mutated_seed_payloads_decode_canonically_or_not_at_all(m in mutation()) {
        let dir = scratch("payloads");
        check_payload(&SpillTier::new(&dir), m)?;
        let _ = std::fs::remove_dir_all(&dir);
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 2000 })]

    /// The file sweep over 2,000 cases (`--ignored`; about a second in
    /// release).
    #[test]
    #[ignore]
    fn mutated_spill_files_read_as_refused_deep_sweep(m in mutation()) {
        let dir = scratch("files-deep");
        check_file(&SpillTier::new(&dir), corpus(), m)?;
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The payload sweep over 2,000 cases (`--ignored`).
    #[test]
    #[ignore]
    fn mutated_seed_payloads_decode_canonically_or_not_at_all_deep_sweep(m in mutation()) {
        let dir = scratch("payloads-deep");
        check_payload(&SpillTier::new(&dir), m)?;
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// The seed-1 `eco_session` design as the daemon interns it: the
/// `large_soc_config(0.25)` design named `eco_session`, emitted to Verilog,
/// LEF and DEF at 1,000 DBU/µm and parsed back.
fn eco_session_design() -> netlist::design::Design {
    let mut config = workload::presets::large_soc_config(0.25);
    config.name = "eco_session".to_string();
    config.seed = 1;
    let generated = workload::SocGenerator::new(config).generate();
    let design = &generated.design;
    let lef = workload::emit::emit_lef(design, &generated.library, 1000);
    let options = netlist::verilog::ElaborateOptions {
        library: netlist::lef::parse_lef(&lef).expect("LEF parses").library,
        ..Default::default()
    };
    let verilog = workload::emit::emit_verilog(design);
    let mut parsed = netlist::verilog::parse_verilog(&verilog, Some("eco_session"), &options)
        .expect("Verilog parses");
    let def = workload::emit::emit_def(design, 1000, &std::collections::HashMap::new());
    netlist::def::parse_def(&def).expect("DEF parses").apply_to(&mut parsed);
    parsed
}

/// The seed the benchmark's seed-1 `eco_session` base placement leaves: the
/// design placed once at fast effort with evaluation. Its payload length
/// and FNV-1a are the ones the version-2 build wrote (that build's file
/// checksum was this very fold), so the codec still writes the same bytes;
/// they are encoded in one exact allocation.
#[test]
#[ignore = "places the 25k-cell eco_session design; run in release"]
fn eco_session_base_seed_keeps_its_payload_bytes() {
    let dir = scratch("eco-session-seed");
    let design = eco_session_design();
    let mut service = PlacementService::new(placer_core::builtin_registry()).with_spill_dir(&dir);
    let handle = service.intern(design);
    let job = service.submit(
        PlaceJob::new(handle, "hidap")
            .with_effort(EffortLevel::Fast)
            .with_evaluation(EvalConfig::standard()),
    );
    service.run_all();
    let result = service.take_result(job).expect("ran").expect("placed");

    let file = SpillFile::find(&dir, "seed-");
    let payload = SpillTier::new(&dir).read(&file.stem, file.fingerprint).expect("seed loads");
    assert_eq!(payload.len(), 429_463);
    assert_eq!(file.bytes.len(), 429_463 + 32);
    let mut h = netlist::Fnv1a::new();
    h.write_bytes(&payload);
    assert_eq!(h.finish(), 0x1c60_1204_1e60_1314, "the seed payload bytes moved");

    let seed = SeedRef {
        placement: &result.outcome.placement,
        cells: result.outcome.metrics.as_ref().map(|m| &m.cell_placement),
    };
    let encoded = encode_seed(job, seed);
    assert_eq!(encoded, payload);
    assert_eq!(encoded.capacity(), encoded.len(), "one exact allocation");
    let _ = std::fs::remove_dir_all(&dir);
}
