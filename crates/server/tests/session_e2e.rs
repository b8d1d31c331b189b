//! Scripted end-to-end daemon sessions: the full protocol loop against a
//! real placement service, asserting admission control, quotas, priority
//! ordering, stats contents and handle revival — all over the wire.
//!
//! `mutated_scripts_cannot_take_the_session_down` runs 128 mutated hostile
//! scripts here; its deep sweep of 3,000 is ignored and runs in CI's golden
//! step:
//!
//! ```sh
//! cargo test --release -p server --test session_e2e -- --ignored
//! ```

use placer_core::{DesignStore, PlacementService};
use proptest::prelude::*;
use server::{Frame, InternSpec, LoadedDesign, Server, SessionEnd, SharedWriter};
use std::sync::OnceLock;
use workload::SocGenerator;

/// A loader resolving `design=<preset>` against generated designs: `small`
/// and `large` differ enough in size that a budget can hold one but not
/// both.
fn preset_loader() -> impl FnMut(&InternSpec) -> Result<LoadedDesign, String> {
    |spec: &InternSpec| {
        let name = spec.get("design").ok_or_else(|| "intern needs a design= field".to_string())?;
        let design = preset(name).ok_or_else(|| format!("unknown preset '{name}'"))?;
        Ok(LoadedDesign { design, dbu: 1000 })
    }
}

fn preset(name: &str) -> Option<netlist::design::Design> {
    let config = match name {
        "small" => workload::presets::service_fleet_config(0, 0.05),
        "large" => workload::presets::service_fleet_config(1, 0.4),
        _ => return None,
    };
    Some(SocGenerator::new(config).generate().design)
}

/// Bytes a preset will pin once interned (its wiring included).
fn preset_bytes(name: &str) -> usize {
    use netlist::HeapSize;
    preset(name).unwrap().heap_bytes()
}

/// A server whose store holds `small` (pinned) but not `small` + `large`.
fn tight_server() -> Server {
    static BUDGET: OnceLock<usize> = OnceLock::new();
    let budget = *BUDGET.get_or_init(|| preset_bytes("small") + preset_bytes("large") / 2);
    let service = PlacementService::with_store(
        placer_core::builtin_registry(),
        DesignStore::with_memory_budget(budget),
    )
    .with_jobs(1);
    Server::new(service, preset_loader())
}

/// A server with no memory budget: admission control never rejects.
fn unbudgeted_server() -> Server {
    let service = PlacementService::new(placer_core::builtin_registry()).with_jobs(1);
    Server::new(service, preset_loader())
}

/// The `job=` of every `ok` frame acknowledging `cmd`, in transcript order.
fn acked_jobs(frames: &[Frame], cmd: &str) -> Vec<String> {
    frames
        .iter()
        .filter(|f| f.name == "ok" && f.get("cmd") == Some(cmd))
        .map(|f| f.get("job").expect("acks carry the job id").to_string())
        .collect()
}

/// Runs one scripted session, returning the transcript parsed frame by
/// frame (which also exercises the round trip on every reply the daemon
/// writes).
fn run_script(server: &mut Server, script: &str) -> (SessionEnd, Vec<Frame>) {
    let out = SharedWriter::new(Vec::new());
    let end = server.serve_once(script.as_bytes(), out.clone()).expect("session io");
    let transcript = String::from_utf8(out.lock().clone()).expect("utf8 transcript");
    let frames = transcript
        .lines()
        .map(|line| Frame::parse(line).unwrap_or_else(|e| panic!("bad frame '{line}': {e}")))
        .collect();
    (end, frames)
}

/// Frames with a given name, in transcript order.
fn named<'a>(frames: &'a [Frame], name: &str) -> Vec<&'a Frame> {
    frames.iter().filter(|f| f.name == name).collect()
}

#[test]
fn scripted_session_enforces_admission_priorities_and_revival() {
    let mut server = tight_server();
    let script = "\
# warm-up: one client, two designs, three prioritized jobs
hello client=ci
intern design=small
submit design=0 flow=hidap effort=fast seeds=11 priority=0 evaluate=standard
submit design=0 flow=hidap effort=fast seeds=12 priority=5 evaluate=standard
intern design=large
submit design=1 flow=hidap effort=fast seeds=13
drain
stats
release design=1
release design=0
stats
intern design=small
stats
shutdown
";
    let (end, frames) = run_script(&mut server, script);
    assert_eq!(end, SessionEnd::Shutdown);

    // hello
    let hello = &named(&frames, "ok")[0];
    assert_eq!(hello.get("cmd"), Some("hello"));
    assert_eq!(hello.get("client"), Some("0"));

    // interns: small got handle 0, large handle 1
    let interns: Vec<&Frame> =
        frames.iter().filter(|f| f.name == "ok" && f.get("cmd") == Some("intern")).collect();
    assert_eq!(interns.len(), 3, "two cold interns plus the revival");
    assert_eq!(interns[0].get("design"), Some("0"));
    assert_eq!(interns[1].get("design"), Some("1"));
    assert_eq!(interns[0].get("resident"), Some("true"));

    // the third submit (against the large design) was admission-rejected,
    // with the structured numbers and the remedy on the wire
    let errs = named(&frames, "err");
    assert_eq!(errs.len(), 1, "exactly one rejection: {errs:?}");
    let rejected = errs[0];
    assert_eq!(rejected.get("cmd"), Some("submit"));
    assert_eq!(rejected.get("code"), Some("admission-rejected"));
    let pinned: usize = rejected.get("pinned_bytes").unwrap().parse().unwrap();
    let budget: usize = rejected.get("budget_bytes").unwrap().parse().unwrap();
    assert!(pinned > budget, "{pinned} must exceed {budget}");
    assert!(rejected.get("reason").unwrap().contains("release designs"), "remedy is named");

    // the drain ran the two admitted jobs in priority order: job 1
    // (priority 5) before job 0, and the streamed events interleave the
    // same way — every event of job 1 strictly before every event of job 0
    let done = named(&frames, "job-done");
    assert_eq!(done.len(), 2);
    assert_eq!(done[0].get("job"), Some("1"));
    assert_eq!(done[0].get("seed"), Some("12"));
    assert_eq!(done[1].get("job"), Some("0"));
    assert_eq!(done[1].get("seed"), Some("11"));
    for frame in done {
        assert!(frame.get("hpwl_dbu").is_some(), "evaluated jobs report metrics: {frame:?}");
        assert!(frame.get("wall_s").is_some());
    }
    let event_jobs: Vec<&str> = named(&frames, "event")
        .iter()
        .map(|f| f.get("job").expect("events are job-tagged"))
        .collect();
    assert!(!event_jobs.is_empty(), "stage events stream during the drain");
    let switch = event_jobs.iter().position(|&j| j == "0").expect("job 0 emitted events");
    assert!(event_jobs[..switch].iter().all(|&j| j == "1"), "priority order: {event_jobs:?}");
    assert!(event_jobs[switch..].iter().all(|&j| j == "0"), "no interleaving: {event_jobs:?}");

    // stats #1: both designs pinned and resident, artifacts populated
    let stats = named(&frames, "stats");
    assert_eq!(stats.len(), 3);
    assert_eq!(stats[0].get("queued"), Some("0"));
    assert_eq!(stats[0].get("interned"), Some("2"));
    assert_eq!(stats[0].get("resident"), Some("2"));
    assert_ne!(stats[0].get("budget"), Some("none"), "the tight budget is reported");
    let design_rows = named(&frames, "design");
    assert!(design_rows.iter().any(|f| f.get("design") == Some("0")
        && f.get("resident") == Some("true")
        && f.get("bytes").is_some_and(|b| b.parse::<usize>().unwrap() > 0)));

    // stats #2 (after both releases): the budget pressure evicted at least
    // the large design, and the eviction log says so by name
    assert_eq!(stats[1].get("interned"), Some("2"));
    let resident_after: usize = stats[1].get("resident").unwrap().parse().unwrap();
    assert!(resident_after < 2, "releasing under a tight budget evicts");
    let evicted = named(&frames, "evicted");
    assert!(!evicted.is_empty(), "the eviction log is on the wire");
    assert!(evicted.iter().all(|f| f.get("name").is_some() && f.get("bytes").is_some()));

    // the re-intern revived the small design under its original handle
    assert_eq!(interns[2].get("design"), Some("0"), "revival keeps the handle");
    assert_eq!(interns[2].get("resident"), Some("true"));
    let last_design_rows: Vec<&&Frame> =
        design_rows.iter().filter(|f| f.get("design") == Some("0")).collect();
    assert_eq!(
        last_design_rows.last().unwrap().get("resident"),
        Some("true"),
        "stats #3 sees the revived design"
    );
}

#[test]
fn warm_session_rebuilds_no_graphs_and_matches_cold_results() {
    let mut server = tight_server();
    let submit = "\
hello client=ci
intern design=small
submit design=0 flow=hidap effort=fast seeds=7 evaluate=standard
drain
";
    let (end, cold) = run_script(&mut server, submit);
    assert_eq!(end, SessionEnd::Eof, "EOF keeps the daemon alive for the next session");
    let cold_stats = server.service().store().artifacts().stats();
    assert!(cold_stats.seq.misses > 0, "the cold pass built graphs");

    // same commands again on the warm server: a second session, same store
    let (end, warm) = run_script(&mut server, submit);
    assert_eq!(end, SessionEnd::Eof);
    let warm_stats = server.service().store().artifacts().stats();
    assert_eq!(warm_stats.seq.misses, cold_stats.seq.misses, "zero warm seq-graph builds");
    assert_eq!(warm_stats.net.misses, cold_stats.net.misses, "zero warm net-graph builds");

    // the wire reports exactly what a direct service run computes: `Display`
    // of f64 and i128 is lossless, so equal strings are equal bits
    let mut direct = PlacementService::new(placer_core::builtin_registry()).with_jobs(1);
    let handle = direct.intern(preset("small").unwrap());
    let job = direct.submit(
        placer_core::PlaceJob::new(handle, "hidap")
            .with_effort(placer_core::EffortLevel::Fast)
            .with_seeds(vec![7])
            .with_evaluation(eval::EvalConfig::standard()),
    );
    direct.run_all();
    let outcome = direct.take_result(job).unwrap().unwrap().outcome;
    let metrics = outcome.metrics.as_ref().expect("evaluated job");
    let want = [
        ("seed", outcome.seed.to_string()),
        ("hpwl_dbu", metrics.hpwl.dbu.to_string()),
        ("wirelength_m", metrics.wirelength_m.to_string()),
        ("grc_percent", metrics.grc_percent().to_string()),
        ("wns_percent", metrics.wns_percent().to_string()),
        ("tns_ns", metrics.tns_ns().to_string()),
    ];
    for frames in [&cold, &warm] {
        let done = named(frames, "job-done");
        assert_eq!(done.len(), 1, "the session completes its one job");
        for (key, value) in &want {
            assert_eq!(done[0].get(key), Some(value.as_str()), "wire and direct {key} differ");
        }
    }

    // bit-identical completion frames modulo timing fields
    let strip = |frames: &[Frame]| -> Vec<Vec<(String, String)>> {
        frames
            .iter()
            .filter(|f| f.name == "job-done")
            .map(|f| {
                f.fields.iter().filter(|(k, _)| k != "wall_s" && k != "job").cloned().collect()
            })
            .collect()
    };
    assert_eq!(strip(&cold), strip(&warm), "warm results are bit-identical");
}

#[test]
fn replace_session_chains_in_one_drain_and_keeps_artifacts_warm() {
    let mut server = tight_server();
    // author the edit script against the same preset the daemon will intern
    let design = preset("small").unwrap();
    let macro_id = design.macros().next().expect("preset has macros");
    let macro_name = design.cell_name(macro_id).to_owned();
    let script = format!(
        "\
hello client=ci
intern design=small
submit design=0 flow=hidap effort=fast seeds=7 evaluate=standard
replace design=0 base=0 edits=\"resize {macro_name} 220 160\" effort=fast evaluate=standard
drain
stats
shutdown
"
    );
    let (_, frames) = run_script(&mut server, &script);
    let errs = named(&frames, "err");
    assert!(errs.is_empty(), "a chained replace succeeds: {errs:?}");

    // the replace ack echoes the dependency and the parsed edit count
    let replace_ok: Vec<&Frame> =
        frames.iter().filter(|f| f.name == "ok" && f.get("cmd") == Some("replace")).collect();
    assert_eq!(replace_ok.len(), 1);
    assert_eq!(replace_ok[0].get("job"), Some("1"));
    assert_eq!(replace_ok[0].get("base"), Some("0"));
    assert_eq!(replace_ok[0].get("edits"), Some("1"));

    // base ran first (FIFO), then the replace with its edit log on the wire
    let done = named(&frames, "job-done");
    assert_eq!(done.len(), 2);
    assert_eq!(done[0].get("job"), Some("0"));
    assert_eq!(done[1].get("job"), Some("1"));
    assert_eq!(done[1].get("edits_applied"), Some("1"));
    assert_eq!(done[1].get("pure_geometry"), Some("true"));
    assert!(done[1].get("hpwl_dbu").is_some(), "the replace evaluated");

    // a pure-geometry replace rebuilds neither derived graph: the chained
    // session does exactly as many graph builds as a cold-only one
    let mut baseline = tight_server();
    run_script(
        &mut baseline,
        "hello client=ci\nintern design=small\nsubmit design=0 flow=hidap effort=fast seeds=7 evaluate=standard\ndrain\nshutdown\n",
    );
    let cold = baseline.service().store().artifacts().stats();
    let stats = server.service().store().artifacts().stats();
    assert_eq!(stats.seq.misses, cold.seq.misses, "zero Gseq builds for the replace");
    assert_eq!(stats.net.misses, cold.net.misses, "zero Gnet builds for the replace");

    // the queue-depth watermark reports the two-deep backlog
    let stats_frames = named(&frames, "stats");
    assert_eq!(stats_frames[0].get("queued"), Some("0"));
    assert_eq!(stats_frames[0].get("peak_queued"), Some("2"));
}

#[test]
fn replace_errors_are_structured_on_the_wire() {
    let mut server = tight_server();
    let script = "\
hello client=ci
intern design=small
submit design=0 flow=hidap effort=fast seeds=3
drain
replace design=0 base=0
replace design=0 base=9
drain
replace design=7 base=0
replace design=0 base=0 edits=\"resize no/such/cell 10 10\"
shutdown
";
    let (_, frames) = run_script(&mut server, script);
    // drain #1 streamed (and thereby claimed) job 0's result, so a replace
    // in a later drain hits the structured taken-dependency error
    let errs = named(&frames, "err");
    let taken: Vec<&&Frame> = errs
        .iter()
        .filter(|f| f.get("reason").is_some_and(|r| r.contains("already taken")))
        .collect();
    assert_eq!(taken.len(), 1, "{errs:?}");
    assert_eq!(taken[0].get("code"), Some("invalid-request"));
    assert!(taken[0].get("reason").unwrap().contains("job 0"), "the dependency is named");
    // unknown base job: rejected when the replace runs
    assert!(errs.iter().any(|f| f.get("reason").is_some_and(|r| r.contains("job 9"))), "{errs:?}");
    // unknown design handle: rejected at submit time
    assert!(
        errs.iter().any(|f| f.get("cmd") == Some("replace")
            && f.get("design") == Some("7")
            && f.get("reason").is_some_and(|r| r.contains("never interned"))),
        "{errs:?}"
    );
    // a bad edit script is rejected at submit time with its own code
    assert!(
        errs.iter().any(|f| f.get("code") == Some("bad-edit-script")
            && f.get("reason").is_some_and(|r| r.contains("no/such/cell"))),
        "{errs:?}"
    );
}

#[test]
fn protocol_errors_keep_the_session_alive() {
    let mut server = tight_server();
    let script = "\
this is = not a frame
warp speed=9
submit design=0 flow=hidap
result job=99
cancel job=99
release design=99
shutdown
";
    let (end, frames) = run_script(&mut server, script);
    assert_eq!(end, SessionEnd::Shutdown, "the session survives every error");
    let errs = named(&frames, "err");
    assert_eq!(errs.len(), 6);
    assert_eq!(errs[0].get("code"), Some("parse"));
    assert_eq!(errs[0].get("line"), Some("1"), "parse errors carry line numbers");
    assert_eq!(errs[1].get("code"), Some("bad-command"));
    assert_eq!(errs[2].get("code"), Some("no-client"), "submit before hello is rejected");
    assert_eq!(errs[3].get("code"), Some("invalid-request"));
    assert!(errs[3].get("reason").unwrap().contains("job 99"), "the id is named");
    assert_eq!(errs[4].get("code"), Some("invalid-request"));
    assert_eq!(errs[5].get("code"), Some("invalid-request"));
}

#[test]
fn quota_rejections_reach_the_wire() {
    let budget = preset_bytes("small") * 4;
    let service = PlacementService::with_store(
        placer_core::builtin_registry(),
        DesignStore::with_memory_budget(budget),
    )
    .with_jobs(1);
    let mut server = Server::new(service, preset_loader()).with_quota(1);
    let script = "\
hello client=greedy
intern design=small
submit design=0 flow=hidap effort=fast seeds=1
submit design=0 flow=hidap effort=fast seeds=2
shutdown
";
    let (_, frames) = run_script(&mut server, script);
    let errs = named(&frames, "err");
    assert_eq!(errs.len(), 1);
    assert_eq!(errs[0].get("code"), Some("quota-exceeded"));
    assert_eq!(errs[0].get("quota"), Some("1"));
    assert!(errs[0].get("reason").unwrap().contains("greedy"), "the client is named");
}

#[test]
fn result_command_claims_and_then_rejects_reclaims() {
    let mut server = tight_server();
    let script = "\
hello client=ci
intern design=small
submit design=0 flow=hidap effort=fast seeds=3
result job=0
drain
result job=0
shutdown
";
    let (_, frames) = run_script(&mut server, script);
    // before the drain the job is queued: the result command reports that
    let pending: Vec<&Frame> =
        frames.iter().filter(|f| f.name == "err" && f.get("code") == Some("pending")).collect();
    assert_eq!(pending.len(), 1);
    // the drain already claimed and streamed the result, so an explicit
    // re-claim maps take_result's structured error onto the wire
    let taken: Vec<&Frame> = frames
        .iter()
        .filter(|f| f.name == "err" && f.get("code") == Some("invalid-request"))
        .collect();
    assert_eq!(taken.len(), 1);
    assert!(taken[0].get("reason").unwrap().contains("already taken"), "{:?}", taken[0]);
}

#[cfg(unix)]
#[test]
fn unix_socket_sessions_share_one_warm_store() {
    use std::io::{BufRead, BufReader, Write};
    use std::os::unix::net::UnixStream;

    let dir = std::env::temp_dir().join(format!("hidap_serve_test_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let socket = dir.join("hidap.sock");
    let path = socket.clone();
    let daemon = std::thread::spawn(move || {
        let mut server = tight_server();
        server.serve_unix(&path).expect("daemon io");
        server.service().store().artifacts().stats()
    });

    let connect = |socket: &std::path::Path| {
        for _ in 0..200 {
            if let Ok(stream) = UnixStream::connect(socket) {
                return stream;
            }
            // lint:allow(test-env): bounded poll while the daemon socket appears;
            // load can only delay the connect, not change the outcome
            std::thread::sleep(std::time::Duration::from_millis(10));
        }
        panic!("daemon socket never came up");
    };
    let run = |socket: &std::path::Path, script: &str| -> Vec<String> {
        let mut stream = connect(socket);
        stream.write_all(script.as_bytes()).unwrap();
        stream.shutdown(std::net::Shutdown::Write).unwrap();
        BufReader::new(stream).lines().map(|l| l.unwrap()).collect()
    };

    let session = "hello client=ci\nintern design=small\nsubmit design=0 flow=hidap effort=fast seeds=5 evaluate=standard\ndrain\n";
    let first = run(&socket, session);
    assert!(first.iter().any(|l| l.starts_with("job-done")), "{first:?}");
    let second = run(&socket, session);
    assert!(second.iter().any(|l| l.starts_with("job-done")), "{second:?}");
    run(&socket, "shutdown\n");

    let stats = daemon.join().unwrap();
    assert!(stats.seq.hits > 0, "the second connection reused the first's artifacts");
    assert!(!socket.exists(), "the daemon removes its socket on shutdown");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A writer that counts its live clones through a shared token.
#[derive(Clone)]
struct TokenWriter {
    bytes: std::sync::Arc<std::sync::Mutex<Vec<u8>>>,
    _token: std::sync::Arc<()>,
}

impl std::io::Write for TokenWriter {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.bytes.lock().unwrap_or_else(std::sync::PoisonError::into_inner).extend(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

#[test]
fn a_session_ending_at_eof_cancels_its_undrained_jobs() {
    // regression: each queued job's observer held a clone of the session's
    // writer, so a client that submitted and hung up without draining kept
    // its connection open, and the job ran in the next session's drain
    let mut server = unbudgeted_server();
    let token = std::sync::Arc::new(());
    let writer = TokenWriter { bytes: Default::default(), _token: std::sync::Arc::clone(&token) };
    let script = "hello client=a\nintern design=small\nsubmit design=0 flow=hidap effort=fast\n";
    let end = server.serve_once(script.as_bytes(), writer).expect("session io");
    assert_eq!(end, SessionEnd::Eof);
    assert_eq!(std::sync::Arc::strong_count(&token), 1, "the session's writer outlived it");
    let (_, frames) = run_script(&mut server, "hello client=b\ndrain\nresult job=0\n");
    let drained = named(&frames, "ok").into_iter().find(|f| f.get("cmd") == Some("drain"));
    assert_eq!(drained.and_then(|f| f.get("ran")), Some("0"), "{frames:?}");
    let cancelled = named(&frames, "err").into_iter().find(|f| f.get("cmd") == Some("result"));
    assert_eq!(cancelled.and_then(|f| f.get("code")), Some("cancelled"), "{frames:?}");
}

#[cfg(unix)]
#[test]
fn a_client_that_half_closes_after_submitting_reads_eof() {
    use std::io::{BufRead, BufReader, Write};
    use std::os::unix::net::UnixStream;

    let dir = std::env::temp_dir().join(format!("hidap_half_close_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let socket = dir.join("hidap.sock");
    let path = socket.clone();
    let daemon = std::thread::spawn(move || {
        let mut server = unbudgeted_server();
        server.serve_unix(&path).expect("daemon io");
    });
    let connect = |socket: &std::path::Path| {
        for _ in 0..200 {
            if let Ok(stream) = UnixStream::connect(socket) {
                return stream;
            }
            // lint:allow(test-env): bounded poll while the daemon socket appears;
            // load can only delay the connect, not change the outcome
            std::thread::sleep(std::time::Duration::from_millis(10));
        }
        panic!("daemon socket never came up");
    };
    let mut stream = connect(&socket);
    // a generous bound: the daemon answers three commands, then closes
    stream.set_read_timeout(Some(std::time::Duration::from_secs(60))).unwrap();
    stream
        .write_all(
            b"hello client=ci\nintern design=small\nsubmit design=0 flow=hidap effort=fast\n",
        )
        .unwrap();
    stream.shutdown(std::net::Shutdown::Write).unwrap();
    let lines: Vec<String> = BufReader::new(stream)
        .lines()
        .map(|l| l.expect("EOF, not a read timeout, ends the session"))
        .collect();
    assert_eq!(lines.len(), 3, "{lines:?}");
    assert!(lines.iter().all(|l| l.starts_with("ok ")), "{lines:?}");
    let mut stop = connect(&socket);
    stop.write_all(b"shutdown\n").unwrap();
    stop.shutdown(std::net::Shutdown::Write).unwrap();
    let _ = BufReader::new(stop).lines().count();
    daemon.join().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Malformed and out-of-order commands, then one real job and its drain (the
/// closing `shutdown` is added by each test).
const HOSTILE_SCRIPT: &str = "\
frobnicate x=1
intern design=\"oops
submit design=0 flow=hidap
cancel job=42
release design=7
hello client=chaos
submit design=99 flow=hidap effort=fast
submit design=0 flow=nosuchflow
intern design=small
submit design=0 flow=hidap effort=fast seeds=5
drain
";

#[test]
fn hostile_script_cannot_take_the_session_down() {
    // regression companion to the daemon-panic lint rule: every malformed or
    // out-of-order command must come back as an err frame on the wire, and
    // the same session must still serve real work afterwards
    let mut server = tight_server();
    let script = format!("{HOSTILE_SCRIPT}shutdown\n");
    let (end, frames) = run_script(&mut server, &script);
    assert_eq!(end, SessionEnd::Shutdown, "the session reaches an orderly shutdown");

    let errs = named(&frames, "err");
    let codes: Vec<&str> = errs.iter().filter_map(|f| f.get("code")).collect();
    // unknown command, unterminated quote, submit-before-hello, unknown
    // job, unknown design handle
    for expected in ["bad-command", "parse", "no-client", "invalid-request"] {
        assert!(codes.contains(&expected), "missing err code {expected} in {codes:?}");
    }

    // the submits against a bogus handle and a bogus flow were queued, so
    // their failures surface at drain time as job failures, not crashes
    assert!(
        frames.iter().any(|f| f.name == "err" && f.get("code") == Some("unknown-flow")),
        "the bogus flow fails its job: {frames:?}"
    );

    // and the one real job still ran to completion in the same session
    let done = named(&frames, "job-done");
    assert_eq!(done.len(), 1, "exactly one job succeeds: {done:?}");
    assert_eq!(done[0].get("seed"), Some("5"));
}

#[test]
fn replace_on_a_base_that_placed_another_design_fails_on_the_wire() {
    // a warm start from another design's placement would match macros by
    // cell id; the replace must fail with both designs named instead
    let mut server = unbudgeted_server();
    let script = "\
hello client=ci
intern design=small
intern design=large
submit design=0 flow=hidap effort=fast seeds=1
replace design=1 base=0 effort=fast
drain
shutdown
";
    let (_, frames) = run_script(&mut server, script);
    let done = named(&frames, "job-done");
    assert_eq!(done.len(), 1, "only the base places: {done:?}");
    assert_eq!(done[0].get("job"), Some("0"));
    let failed: Vec<&Frame> =
        frames.iter().filter(|f| f.name == "err" && f.get("cmd") == Some("job")).collect();
    assert_eq!(failed.len(), 1, "{frames:?}");
    assert_eq!(failed[0].get("job"), Some("1"));
    assert_eq!(failed[0].get("code"), Some("invalid-request"));
    let reason = failed[0].get("reason").unwrap();
    assert!(reason.contains("replace job 1 places design 1"), "{reason}");
    assert!(reason.contains("base job 0 placed design 0"), "{reason}");
}

#[test]
fn each_session_starts_without_a_client() {
    let mut server = unbudgeted_server();
    let (_, first) =
        run_script(&mut server, "hello client=first\nintern design=small\nsubmit design=0\n");
    assert_eq!(acked_jobs(&first, "submit"), ["0"]);
    // a new connection on the same server must say hello again: it does
    // not inherit the previous connection's client or its quota charge
    let (_, second) = run_script(&mut server, "submit design=0\nhello client=second\n");
    let errs = named(&second, "err");
    assert_eq!(errs.len(), 1, "{second:?}");
    assert_eq!(errs[0].get("code"), Some("no-client"));
    let hello = named(&second, "ok");
    assert_eq!(hello[0].get("client"), Some("1"), "client ids keep counting across sessions");
}

#[test]
fn two_hellos_in_one_session_keep_separate_quotas() {
    let mut server = unbudgeted_server().with_quota(1);
    let script = "\
hello client=alice
intern design=small
submit design=0 seeds=1
submit design=0 seeds=2
hello client=bob
submit design=0 seeds=3
submit design=0 seeds=4
shutdown
";
    let (_, frames) = run_script(&mut server, script);
    let hellos: Vec<&Frame> =
        frames.iter().filter(|f| f.name == "ok" && f.get("cmd") == Some("hello")).collect();
    assert_eq!(hellos[0].get("client"), Some("0"));
    assert_eq!(hellos[1].get("client"), Some("1"));
    assert_eq!(hellos[1].get("quota"), Some("1"));
    assert_eq!(acked_jobs(&frames, "submit"), ["0", "1"], "one job each");
    let errs = named(&frames, "err");
    assert_eq!(errs.len(), 2, "{errs:?}");
    for (err, client) in errs.iter().zip(["alice", "bob"]) {
        assert_eq!(err.get("code"), Some("quota-exceeded"));
        assert!(err.get("reason").unwrap().contains(client), "{err:?}");
    }
}

#[test]
fn cancel_frees_only_its_owners_charge() {
    let mut server = unbudgeted_server().with_quota(1);
    let script = "\
hello client=alice
intern design=small
submit design=0 seeds=1
submit design=0 seeds=2
cancel job=0
submit design=0 seeds=3
hello client=bob
submit design=0 seeds=4
cancel job=1
submit design=0 seeds=5
cancel job=2
submit design=0 seeds=6
shutdown
";
    let (_, frames) = run_script(&mut server, script);
    // alice: over quota, cancel, the freed slot takes job 1; bob: job 2,
    // then cancelling alice's job 1 leaves bob charged, and cancelling his
    // own job 2 frees the slot job 3 takes
    assert_eq!(acked_jobs(&frames, "submit"), ["0", "1", "2", "3"]);
    assert_eq!(acked_jobs(&frames, "cancel"), ["0", "1", "2"]);
    let errs = named(&frames, "err");
    assert_eq!(errs.len(), 2, "{errs:?}");
    assert!(errs[0].get("reason").unwrap().contains("alice"), "{:?}", errs[0]);
    assert!(errs[1].get("reason").unwrap().contains("bob"), "{:?}", errs[1]);
    assert!(errs.iter().all(|f| f.get("code") == Some("quota-exceeded")));
}

#[test]
fn drain_frees_every_charge() {
    let mut server = unbudgeted_server().with_quota(1);
    let script = "\
hello client=alice
intern design=small
submit design=0 effort=fast seeds=1
hello client=bob
submit design=0 effort=fast seeds=2
submit design=0 effort=fast seeds=3
drain
submit design=0 effort=fast seeds=3
shutdown
";
    let (_, frames) = run_script(&mut server, script);
    let drained: Vec<&Frame> =
        frames.iter().filter(|f| f.name == "ok" && f.get("cmd") == Some("drain")).collect();
    assert_eq!(drained[0].get("ran"), Some("2"), "both clients' jobs ran");
    let errs = named(&frames, "err");
    assert_eq!(errs.len(), 1, "only the submit before the drain is over quota: {errs:?}");
    assert_eq!(errs[0].get("code"), Some("quota-exceeded"));
    assert_eq!(acked_jobs(&frames, "submit"), ["0", "1", "2"]);
}

#[test]
fn a_server_without_a_budget_admits_every_submit() {
    let mut server = unbudgeted_server();
    let script = "\
hello client=ci
intern design=small
intern design=large
submit design=0
submit design=1
release design=0
submit design=0
submit design=1
shutdown
";
    let (_, frames) = run_script(&mut server, script);
    assert!(named(&frames, "err").is_empty(), "{frames:?}");
    assert_eq!(acked_jobs(&frames, "submit"), ["0", "1", "2", "3"]);
}

#[test]
fn admission_rejects_when_pinned_bytes_exceed_the_budget() {
    // the budget holds the small design but not both: interning the large
    // one pins the store past its budget, so the next submit is rejected;
    // releasing the large design unpins it and the next submit is admitted
    let mut server = tight_server();
    let script = "\
hello client=ci
intern design=small
submit design=0 effort=fast seeds=1
intern design=large
submit design=1 effort=fast seeds=2
release design=1
submit design=0 effort=fast seeds=3
drain
shutdown
";
    let (_, frames) = run_script(&mut server, script);
    let errs = named(&frames, "err");
    assert_eq!(errs.len(), 1, "only the submit against the large design is rejected: {errs:?}");
    assert_eq!(errs[0].get("cmd"), Some("submit"));
    assert_eq!(errs[0].get("code"), Some("admission-rejected"));
    assert_eq!(errs[0].get("design"), Some("1"));
    let pinned: usize = errs[0].get("pinned_bytes").unwrap().parse().unwrap();
    let budget: usize = errs[0].get("budget_bytes").unwrap().parse().unwrap();
    assert!(pinned > budget, "{pinned} vs {budget}");

    let released: Vec<&Frame> =
        frames.iter().filter(|f| f.name == "ok" && f.get("cmd") == Some("release")).collect();
    assert_eq!(released[0].get("resident"), Some("false"), "the release evicts the large design");
    let admitted = acked_jobs(&frames, "submit");
    assert_eq!(admitted.len(), 2, "the first submit and the retry are admitted");
    let done: Vec<&str> =
        named(&frames, "job-done").iter().map(|f| f.get("job").unwrap()).collect();
    assert_eq!(done, admitted, "both admitted jobs place");
}

#[test]
fn unknown_effort_tiers_are_bad_commands() {
    let mut server = unbudgeted_server();
    let script = "\
hello client=ci
intern design=small
submit design=0 effort=paper
replace design=0 base=0 effort=turbo
shutdown
";
    let (_, frames) = run_script(&mut server, script);
    let errs = named(&frames, "err");
    assert_eq!(errs.len(), 2, "{errs:?}");
    for (err, (cmd, line, tier)) in
        errs.iter().zip([("submit", "3", "paper"), ("replace", "4", "turbo")])
    {
        assert_eq!(err.get("cmd"), Some(cmd));
        assert_eq!(err.get("code"), Some("bad-command"));
        assert_eq!(err.get("line"), Some(line));
        let reason = err.get("reason").unwrap();
        for name in [tier, "fast", "default", "high"] {
            assert!(reason.contains(name), "{reason} names {name}");
        }
    }
    assert_eq!(server.service().stats().queued, 0, "nothing was queued");
}

/// The characters a script mutation inserts: a quote, `=`, digits and a
/// no-break space.
const SCRIPT_INSERTED: [char; 6] = ['"', '=', '0', '7', '9', '\u{a0}'];

/// One mutation of a script: 0 truncates it at the char boundary at or
/// before `at`, 1 deletes `len` lines from line `at`, 2 repeats them, and 3
/// inserts `chars` at the char boundary at or before `at`.
fn mutate_script(text: &str, (kind, at, len, chars): &(u8, usize, usize, Vec<char>)) -> String {
    let mut cut = at % (text.len() + 1);
    while !text.is_char_boundary(cut) {
        cut -= 1;
    }
    let (head, tail) = text.split_at(cut);
    let lines: Vec<&str> = text.split_inclusive('\n').collect();
    let first = at % lines.len().max(1);
    let last = (first + len).min(lines.len());
    match kind {
        0 => head.to_string(),
        1 => [&lines[..first], &lines[last..]].concat().concat(),
        2 => [&lines[..last], &lines[first..]].concat().concat(),
        _ => format!("{head}{}{tail}", chars.iter().collect::<String>()),
    }
}

fn arb_script_mutations() -> impl Strategy<Value = Vec<(u8, usize, usize, Vec<char>)>> {
    prop::collection::vec(
        (
            0u8..4,
            0usize..10_000,
            1usize..4,
            prop::collection::vec(prop::sample::select(SCRIPT_INSERTED.to_vec()), 1..4),
        ),
        1..4,
    )
}

/// Runs [`HOSTILE_SCRIPT`] mutated by each of `mutations` in turn, then a
/// closing `stats` and `shutdown`, on a fresh budgeted server. The session
/// must end without a panic at the closing `shutdown` (no mutation can spell
/// one), every reply must parse as a frame, and the closing `stats` must
/// answer.
fn check_mutated_script(mutations: &[(u8, usize, usize, Vec<char>)]) -> Result<(), TestCaseError> {
    let body = mutations.iter().fold(HOSTILE_SCRIPT.to_string(), |text, m| mutate_script(&text, m));
    let script = format!("{body}\nstats\nshutdown\n");
    let out = SharedWriter::new(Vec::new());
    let session = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        tight_server().serve_once(script.as_bytes(), out.clone())
    }));
    let end = match session {
        Ok(end) => end.map_err(|e| TestCaseError::fail(format!("session io: {e}")))?,
        Err(_) => return Err(TestCaseError::fail(format!("the session panicked on {script:?}"))),
    };
    prop_assert_eq!(end, SessionEnd::Shutdown, "script {:?}", script);
    let transcript = String::from_utf8(out.lock().clone()).expect("utf8 transcript");
    let mut frames = Vec::new();
    for line in transcript.lines() {
        match Frame::parse(line) {
            Ok(frame) => frames.push(frame),
            Err(e) => return Err(TestCaseError::fail(format!("bad frame {line:?}: {e}"))),
        }
    }
    prop_assert_eq!(named(&frames, "stats").len(), 1, "the closing stats answers: {:?}", script);
    let last = frames.iter().rposition(|f| f.name == "ok" && f.get("cmd") == Some("shutdown"));
    prop_assert_eq!(last, Some(frames.len() - 1), "the session ends at the shutdown");
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 128 })]

    #[test]
    fn mutated_scripts_cannot_take_the_session_down(mutations in arb_script_mutations()) {
        check_mutated_script(&mutations)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 3000 })]

    /// The mutated-script sweep over 3,000 cases (`--ignored`; run in
    /// release).
    #[test]
    #[ignore]
    fn mutated_scripts_cannot_take_the_session_down_deep_sweep(
        mutations in arb_script_mutations(),
    ) {
        check_mutated_script(&mutations)?;
    }
}
