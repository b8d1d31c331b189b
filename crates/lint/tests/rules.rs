//! Fixture tests: every rule proves one detection, one clean pass, and one
//! honored pragma on a purpose-built source file.

use lint::{analyze, rule_named, FileInput, Finding, RULES};

fn check(path: &str, text: &str) -> Vec<Finding> {
    analyze(&[FileInput { path: path.to_string(), text: text.to_string() }])
}

fn rules_of(findings: &[Finding]) -> Vec<&'static str> {
    findings.iter().map(|f| f.rule).collect()
}

// ---------------------------------------------------------------- hash-iter

#[test]
fn hash_iter_flags_iteration_in_a_deterministic_crate() {
    let findings = check(
        "crates/hidap/src/pass.rs",
        r#"
use std::collections::HashMap;
pub fn order(m: &HashMap<u32, u32>) -> Vec<u32> {
    let mut out = Vec::new();
    for (&k, _) in m.iter() {
        out.push(k);
    }
    out
}
"#,
    );
    assert_eq!(rules_of(&findings), ["hash-iter"], "{findings:?}");
    assert_eq!(findings[0].line, 5);
}

#[test]
fn hash_iter_allows_lookups_and_btree_iteration() {
    let findings = check(
        "crates/hidap/src/pass.rs",
        r#"
use std::collections::{BTreeMap, HashMap};
pub fn ok(m: &HashMap<u32, u32>, b: &BTreeMap<u32, u32>) -> u32 {
    let hit = m.get(&1).copied().unwrap_or(0);
    hit + b.values().sum::<u32>()
}
"#,
    );
    assert_eq!(findings, [], "lookups are fine, and BTreeMap order is stable");
}

#[test]
fn hash_iter_ignores_test_code_and_other_crates() {
    let body = r#"
use std::collections::HashMap;
#[cfg(test)]
mod tests {
    #[test]
    fn t() {
        let m: super::HashMap<u32, u32> = super::HashMap::new();
        for _ in m.iter() {}
    }
}
"#;
    assert_eq!(check("crates/hidap/src/pass.rs", body), [], "test modules are exempt");
    let in_cli = r#"
use std::collections::HashMap;
pub fn report(m: &HashMap<u32, u32>) {
    for _ in m.iter() {}
}
"#;
    assert_eq!(check("crates/cli/src/lib.rs", in_cli), [], "cli is not a deterministic crate");
}

#[test]
fn hash_iter_pragma_waives_with_a_reason() {
    let findings = check(
        "crates/hidap/src/pass.rs",
        r#"
use std::collections::HashMap;
pub fn total(m: &HashMap<u32, u32>) -> u32 {
    // lint:allow(hash-iter): summing is order-independent
    m.values().sum()
}
"#,
    );
    assert_eq!(findings, [], "a reasoned pragma waives the next code line");
}

// ------------------------------------------------------------- daemon-panic

#[test]
fn daemon_panic_flags_unwrap_indexing_and_panics_on_daemon_paths() {
    let findings = check(
        "crates/server/src/session.rs",
        r#"
pub fn step(jobs: &[u32], which: Option<usize>) -> u32 {
    let i = which.unwrap();
    if i > jobs.len() {
        panic!("out of range");
    }
    jobs[i]
}
"#,
    );
    assert_eq!(rules_of(&findings), ["daemon-panic", "daemon-panic", "daemon-panic"]);
    assert_eq!(findings.iter().map(|f| f.line).collect::<Vec<_>>(), [3, 5, 7], "{findings:?}");
}

#[test]
fn daemon_panic_leaves_non_daemon_files_and_tests_alone() {
    let body = r#"
pub fn step(jobs: &[u32]) -> u32 {
    jobs[0]
}
#[cfg(test)]
mod tests {
    #[test]
    fn t() {
        assert_eq!(super::step(&[1]), [1][0]);
        None::<u32>.unwrap();
    }
}
"#;
    // same content: flagged on the daemon path, clean in an ordinary crate
    assert_eq!(rules_of(&check("crates/server/src/foo.rs", body)), ["daemon-panic"]);
    assert_eq!(check("crates/hidap/src/foo.rs", body), []);
    // `intern` reads client files through the Verilog, LEF and DEF parsers,
    // and `replace` decodes spill files through the spill tier, the seed
    // codec and the byte codec; no other netlist module is on the request
    // path
    let decoders = ["eval/src/spill", "placer-core/src/seeds", "netlist/src/codec"];
    for file in
        ["netlist/src/verilog", "netlist/src/lef", "netlist/src/def"].iter().chain(&decoders)
    {
        let path = format!("crates/{file}.rs");
        assert_eq!(rules_of(&check(&path, body)), ["daemon-panic"], "{path}");
    }
    assert_eq!(check("crates/netlist/src/design.rs", body), []);
}

#[test]
fn daemon_panic_pragma_waives_a_proven_infallible_site() {
    let path = "crates/server/src/session.rs";
    let waived = check(
        path,
        r#"
pub fn first(jobs: &[u32]) -> u32 {
    // lint:allow(daemon-panic): jobs is never empty, checked by the caller
    jobs[0]
}
"#,
    );
    assert_eq!(waived, []);
    // the same body without the pragma is flagged there, so the waiver
    // above is what silenced it
    let unwaived = check(
        path,
        r#"
pub fn first(jobs: &[u32]) -> u32 {
    jobs[0]
}
"#,
    );
    assert_eq!(rules_of(&unwaived), ["daemon-panic"]);
}

// --------------------------------------------------------------- wall-clock

#[test]
fn wall_clock_flags_instant_and_system_time_outside_bench() {
    let findings = check(
        "crates/eval/src/timing.rs",
        r#"
use std::time::{Instant, SystemTime};
pub fn stamp() -> (Instant, SystemTime) {
    (Instant::now(), SystemTime::now())
}
"#,
    );
    assert_eq!(rules_of(&findings), ["wall-clock", "wall-clock"]);
}

#[test]
fn wall_clock_is_silent_in_bench_and_in_tests() {
    let body = r#"
use std::time::Instant;
pub fn stamp() -> Instant {
    Instant::now()
}
"#;
    assert_eq!(check("crates/bench/src/run.rs", body), [], "bench owns timing");
    let in_test = r#"
#[cfg(test)]
mod tests {
    #[test]
    fn t() {
        let _ = std::time::Instant::now();
    }
}
"#;
    assert_eq!(check("crates/eval/src/timing.rs", in_test), []);
}

#[test]
fn wall_clock_pragma_waives_a_report_only_read() {
    let findings = check(
        "crates/eval/src/timing.rs",
        r#"
pub fn wall() -> std::time::Instant {
    // lint:allow(wall-clock): report-only timing, never influences results
    std::time::Instant::now()
}
"#,
    );
    assert_eq!(findings, []);
}

// ---------------------------------------------------------------- heap-size

#[test]
fn heap_size_flags_an_unaccounted_pub_struct() {
    let findings = check(
        "crates/netlist/src/types.rs",
        r#"
pub struct Catalog {
    pub names: Vec<String>,
}
"#,
    );
    assert_eq!(rules_of(&findings), ["heap-size"], "{findings:?}");
    assert!(findings[0].message.contains("Catalog"));
}

#[test]
fn heap_size_accepts_an_impl_anywhere_in_the_file_set() {
    let types = FileInput {
        path: "crates/netlist/src/types.rs".to_string(),
        text: "pub struct Catalog {\n    pub names: Vec<String>,\n}\n".to_string(),
    };
    let impls = FileInput {
        path: "crates/netlist/src/heap.rs".to_string(),
        text: "impl HeapSize for Catalog {\n    fn heap_bytes(&self) -> usize { 0 }\n}\n"
            .to_string(),
    };
    assert_eq!(analyze(&[types, impls]), [], "the impl may live in another file");
}

#[test]
fn heap_size_skips_pod_structs_private_structs_and_other_crates() {
    assert_eq!(
        check(
            "crates/netlist/src/types.rs",
            "pub struct Size {\n    pub w: i64,\n    pub h: i64,\n}\n"
        ),
        [],
        "no heap-owning fields"
    );
    assert_eq!(
        check("crates/netlist/src/types.rs", "struct Scratch {\n    names: Vec<String>,\n}\n"),
        [],
        "private structs are not part of the accounting surface"
    );
    assert_eq!(
        check("crates/eval/src/types.rs", "pub struct Catalog {\n    pub names: Vec<String>,\n}\n"),
        [],
        "only the store-facing crates are in scope"
    );
}

#[test]
fn heap_size_pragma_waives_a_transient() {
    let findings = check(
        "crates/netlist/src/types.rs",
        r#"
// lint:allow(heap-size): parse-time transient, dropped before interning
pub struct Scratch {
    pub names: Vec<String>,
}
"#,
    );
    assert_eq!(findings, []);
}

// ----------------------------------------------------------------- test-env

#[test]
fn test_env_flags_sleep_env_and_parallelism_in_tests() {
    let findings = check(
        "crates/hidap/tests/flaky.rs",
        r#"
#[test]
fn t() {
    std::thread::sleep(std::time::Duration::from_millis(50));
    let _ = std::env::var("THREADS");
    let _ = std::thread::available_parallelism();
}
"#,
    );
    assert_eq!(rules_of(&findings), ["test-env", "test-env", "test-env"]);
}

#[test]
fn test_env_exempts_ignored_tests() {
    let findings = check(
        "crates/hidap/tests/slow.rs",
        r#"
#[test]
#[ignore = "wall-clock sensitive; run explicitly"]
fn t() {
    std::thread::sleep(std::time::Duration::from_millis(50));
}
"#,
    );
    assert_eq!(findings, [], "#[ignore] opts a test out of the hermetic contract");
}

#[test]
fn test_env_pragma_waives_a_bounded_poll() {
    let findings = check(
        "crates/hidap/tests/poll.rs",
        r#"
#[test]
fn t() {
    // lint:allow(test-env): bounded poll; load can only delay, not change, the outcome
    std::thread::sleep(std::time::Duration::from_millis(5));
}
"#,
    );
    assert_eq!(findings, []);
}

// ----------------------------------------------------------------- fs-scope

#[test]
fn fs_scope_flags_writes_in_a_deterministic_crate() {
    let findings = check(
        "crates/placer-core/src/store.rs",
        r#"
pub fn persist(dir: &std::path::Path, bytes: &[u8]) {
    let _ = std::fs::create_dir_all(dir);
    let _ = std::fs::write(dir.join("cache.bin"), bytes);
}
"#,
    );
    assert_eq!(rules_of(&findings), ["fs-scope", "fs-scope"], "{findings:?}");
    assert!(findings[1].message.contains("SpillTier"), "{findings:?}");
}

#[test]
fn fs_scope_allows_reads_the_spill_module_and_unscoped_crates() {
    let read = "pub fn f() -> Vec<u8> { std::fs::read(\"x\").unwrap_or_default() }\n";
    assert_eq!(check("crates/netlist/src/parse.rs", read), [], "reads never fire");
    let write = "pub fn f() { let _ = std::fs::write(\"x\", b\"y\"); }\n";
    assert_eq!(check("crates/eval/src/spill.rs", write), [], "the sanctioned spill tier");
    assert_eq!(check("crates/cli/src/lib.rs", write), [], "cli owns real I/O");
    assert_eq!(check("crates/eval/tests/t.rs", write), [], "tests manage their own scratch");
}

#[test]
fn fs_scope_pragma_waives_with_a_reason() {
    let findings = check(
        "crates/graphs/src/dump.rs",
        r#"
pub fn debug_dump(path: &std::path::Path, dot: &str) {
    // lint:allow(fs-scope): debug artifact behind an explicit flag, never read back
    let _ = std::fs::write(path, dot);
}
"#,
    );
    assert_eq!(findings, [], "a reasoned pragma waives the write");
}

// ------------------------------------------------------------------- pragma

#[test]
fn malformed_pragmas_are_findings_and_cannot_be_waived() {
    let unknown =
        check("crates/hidap/src/pass.rs", "// lint:allow(no-such-rule): reason\npub fn f() {}\n");
    assert_eq!(rules_of(&unknown), ["pragma"], "{unknown:?}");

    let missing_reason =
        check("crates/hidap/src/pass.rs", "// lint:allow(hash-iter)\npub fn f() {}\n");
    assert_eq!(rules_of(&missing_reason), ["pragma"], "{missing_reason:?}");
}

// ------------------------------------------------------------------- meta

#[test]
fn every_rule_is_documented_and_resolvable() {
    assert_eq!(RULES.len(), 7);
    for rule in RULES {
        assert!(rule_named(rule.name).is_some());
        assert!(!rule.summary.is_empty());
        assert!(rule.explain.len() > 100, "{} needs a real explanation", rule.name);
    }
    assert!(rule_named("no-such-rule").is_none());
}

#[test]
fn findings_render_as_file_line_rule_message() {
    let f = Finding {
        file: "crates/x/src/y.rs".to_string(),
        line: 7,
        rule: "hash-iter",
        message: "for-loop over hash-ordered m".to_string(),
    };
    assert_eq!(f.to_string(), "crates/x/src/y.rs:7: hash-iter: for-loop over hash-ordered m");
}
