//! End-to-end `--serve` session through the CLI front end: emit real
//! Verilog/LEF inputs, drive the daemon with a command script, and assert
//! the transcript — admission control, priority order, and zero warm graph
//! rebuilds, all through the file loader the binary uses.

use server::{Frame, SharedWriter};
use workload::emit::{emit_lef, emit_verilog};
use workload::{SocConfig, SocGenerator, SubsystemConfig};

fn soc_config(name: &str, bits: usize, seed: u64) -> SocConfig {
    SocConfig {
        name: name.into(),
        subsystems: vec![
            SubsystemConfig::balanced("u_cpu", 2, bits),
            SubsystemConfig::balanced("u_dsp", 2, bits),
        ],
        channels: vec![(0, 1), (1, 0)],
        io_subsystems: vec![0],
        io_bits: 8,
        utilization: 0.5,
        aspect_ratio: 1.0,
        seed,
    }
}

/// Emits a design as Verilog + LEF and returns the file paths.
fn write_inputs(dir: &std::path::Path, config: SocConfig) -> (String, String) {
    let name = config.name.clone();
    let generated = SocGenerator::new(config).generate();
    let verilog = dir.join(format!("{name}.v"));
    let lef = dir.join(format!("{name}.lef"));
    std::fs::write(&verilog, emit_verilog(&generated.design)).unwrap();
    std::fs::write(&lef, emit_lef(&generated.design, &generated.library, 1000)).unwrap();
    (verilog.to_str().unwrap().to_string(), lef.to_str().unwrap().to_string())
}

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("hidap_serve_test_{tag}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn parse_transcript(bytes: &[u8]) -> Vec<Frame> {
    String::from_utf8(bytes.to_vec())
        .unwrap()
        .lines()
        .map(|line| Frame::parse(line).unwrap_or_else(|e| panic!("bad frame '{line}': {e}")))
        .collect()
}

#[test]
fn serve_session_places_files_with_priorities_and_zero_warm_rebuilds() {
    let dir = temp_dir("e2e");
    let (small_v, small_lef) = write_inputs(&dir, soc_config("soc_small", 4, 5));
    let (large_v, large_lef) = write_inputs(&dir, soc_config("soc_large", 96, 7));

    // budget sized between the two designs: holds the small one pinned,
    // rejects new work once the large one is pinned alongside it
    let small_bytes = {
        use netlist::HeapSize;
        let opts = cli::parse_args(&[
            "--verilog".into(),
            small_v.clone(),
            "--lef".into(),
            small_lef.clone(),
        ])
        .unwrap();
        let (design, _) = cli::load_design(&opts).unwrap();
        design.heap_bytes()
    };
    let large_bytes = {
        use netlist::HeapSize;
        let opts = cli::parse_args(&[
            "--verilog".into(),
            large_v.clone(),
            "--lef".into(),
            large_lef.clone(),
        ])
        .unwrap();
        let (design, _) = cli::load_design(&opts).unwrap();
        design.heap_bytes()
    };
    let budget_mib = (small_bytes + large_bytes / 2) as f64 / (1u64 << 20) as f64;

    let opts =
        cli::parse_args(&["--serve".into(), "--memory-budget".into(), format!("{budget_mib}")])
            .unwrap();
    let script = format!(
        "hello client=ci\n\
         intern verilog={small_v} lef={small_lef}\n\
         submit design=0 flow=hidap effort=fast seeds=11 priority=0 evaluate=standard\n\
         submit design=0 flow=hidap effort=fast seeds=12 priority=5 evaluate=standard\n\
         intern verilog={large_v} lef={large_lef}\n\
         submit design=1 flow=hidap effort=fast seeds=13\n\
         drain\n\
         release design=1\n\
         submit design=0 flow=hidap effort=fast seeds=11 priority=0 evaluate=standard\n\
         drain\n\
         stats\n\
         shutdown\n"
    );

    // drive build_server directly (instead of run_serve_session) to keep
    // the daemon for in-process artifact-counter assertions afterwards
    let mut daemon = cli::build_server(&opts);
    let out = SharedWriter::new(Vec::new());
    let end = daemon.serve_once(script.as_bytes(), out.clone()).unwrap();
    assert_eq!(end, server::SessionEnd::Shutdown);
    let frames = parse_transcript(&out.lock());

    // the loader read the real files: interns echo the parsed design names
    let interns: Vec<&Frame> =
        frames.iter().filter(|f| f.name == "ok" && f.get("cmd") == Some("intern")).collect();
    assert_eq!(interns.len(), 2);
    assert_eq!(interns[0].get("name"), Some("soc_small"));
    assert_eq!(interns[1].get("name"), Some("soc_large"));
    assert_eq!(interns[0].get("dbu"), Some("1000"));

    // admission rejected the submit against the over-budget store
    let rejections: Vec<&Frame> = frames
        .iter()
        .filter(|f| f.name == "err" && f.get("code") == Some("admission-rejected"))
        .collect();
    assert_eq!(rejections.len(), 1, "{frames:#?}");

    // priority 5 completed before priority 0 in the first drain
    let done: Vec<&Frame> = frames.iter().filter(|f| f.name == "job-done").collect();
    assert_eq!(done.len(), 3);
    assert_eq!(done[0].get("seed"), Some("12"));
    assert_eq!(done[1].get("seed"), Some("11"));

    // the warm re-submit (same design, same spec) was bit-identical
    let strip = |f: &Frame| -> Vec<(String, String)> {
        f.fields.iter().filter(|(k, _)| k != "wall_s" && k != "job").cloned().collect()
    };
    assert_eq!(strip(done[1]), strip(done[2]), "warm result matches cold bit-for-bit");

    // and performed zero graph rebuilds: misses stayed at the cold count
    // (one per kind per design that ran)
    let stats = daemon.service().store().artifacts().stats();
    assert_eq!(stats.seq.misses, 1, "only the cold run built the sequential graph");
    assert_eq!(stats.net.misses, 1, "only the cold run built the netlist graph");
    assert!(stats.seq.hits >= 1, "the warm run hit the cache");

    // the stats frames agree with the in-process counters (one source of
    // truth through PlacementService::stats)
    let artifact_rows: Vec<&Frame> = frames.iter().filter(|f| f.name == "artifact").collect();
    let seq_row = artifact_rows.iter().find(|f| f.get("kind") == Some("seq")).unwrap();
    assert_eq!(seq_row.get("misses"), Some("1"));

    // the released large design was evicted under the budget, so the
    // high-water mark strictly exceeds the surviving residency
    let stats_frame = frames.iter().find(|f| f.name == "stats").unwrap();
    let peak: usize = stats_frame.get("peak_bytes").unwrap().parse().unwrap();
    let resident: usize = stats_frame.get("resident_bytes").unwrap().parse().unwrap();
    assert!(peak > resident, "peak {peak} should exceed post-eviction residency {resident}");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn serve_session_reports_loader_errors_without_dying() {
    let opts = cli::parse_args(&["--serve".into()]).unwrap();
    let script =
        "hello client=ci\nintern verilog=/nonexistent/x.v\nintern design=preset\nshutdown\n";
    let out = SharedWriter::new(Vec::new());
    let end = cli::run_serve_session(&opts, script.as_bytes(), out.clone()).unwrap();
    assert_eq!(end, server::SessionEnd::Shutdown);
    let frames = parse_transcript(&out.lock());
    let errs: Vec<&Frame> = frames.iter().filter(|f| f.name == "err").collect();
    assert_eq!(errs.len(), 2);
    assert_eq!(errs[0].get("code"), Some("load-failed"));
    assert!(errs[0].get("reason").unwrap().contains("cannot read"), "{:?}", errs[0]);
    assert_eq!(errs[1].get("code"), Some("load-failed"));
    assert!(errs[1].get("reason").unwrap().contains("verilog="), "the required field is named");
}

/// A chain of `n` modules, each instantiating the next, one per line.
fn module_chain(n: usize) -> String {
    let mut src = String::new();
    for i in 0..n - 1 {
        src.push_str(&format!("module m{i} (input a); m{} u (.a(a)); endmodule\n", i + 1));
    }
    src.push_str(&format!("module m{} (input a); BUF g (.A(a)); endmodule\n", n - 1));
    src
}

/// One malformed input of [`serve_session_rejects_an_overwide_vector_and_keeps_serving`]:
/// the file texts, the top module and the expected reason.
struct BadInput {
    verilog: String,
    lef: Option<&'static str>,
    def: Option<&'static str>,
    top: Option<&'static str>,
    expected: &'static str,
}

impl BadInput {
    fn verilog(verilog: String, top: Option<&'static str>, expected: &'static str) -> Self {
        Self { verilog, lef: None, def: None, top, expected }
    }
}

/// A top module instantiating a two-macro module under one escaped name of
/// `segments` `/`-separated segments, each of which the hierarchy tree
/// makes a level.
fn deep_instance_path(segments: usize) -> String {
    let name = vec!["a"; segments].join("/");
    format!(
        "module sub (input i, output o); COMB g (.A(i), .Y(o)); \
         RAM m1 (.D(i), .Q(q1)); RAM m2 (.D(i), .Q(q2)); endmodule\n\
         module top (input i, output o); sub \\{name}  (.i(i), .o(o)); endmodule\n"
    )
}

/// A one-macro netlist for the LEF/DEF rows.
const ONE_RAM: &str = "module top (input a, output y);\n  RAM u_ram (.A(a), .Y(y));\nendmodule\n";

#[test]
fn serve_session_rejects_an_overwide_vector_and_keeps_serving() {
    // each used to either slip through or abort the daemon: with a stack
    // overflow (Verilog, or the hierarchy tree of a deep escaped instance
    // path), a panic in the DEF reader (swapped DIEAREA corners) or a panic
    // in the first placement (negative LEF SIZE); a net driven by two cells
    // used to load with the first driver left on a net it no longer drives
    let depth = 200_000;
    let unclosed = format!("{}a{}", "{".repeat(depth), "}".repeat(depth - 1));
    let rows = [
        BadInput::verilog(
            "module top (a, z);\n  input [2097151:0] a;\n  output z;\nendmodule\n".into(),
            None,
            "line 2: vector [2097151:0] is wider than 1048576 bits",
        ),
        BadInput::verilog(
            "module top (input a, output y);\n  wire n;\n  BUF g (.A(a), .Y(n));\n  \
             top u_again (.a(n), .y(y));\n  BUF h (.A(n), .Y(y));\nendmodule\n"
                .into(),
            Some("top"),
            "line 4: instance 'u_again' instantiates module 'top' inside itself",
        ),
        BadInput::verilog(
            "module top (input a);\n  ping u0 (.a(a));\nendmodule\n\
             module ping (input a);\n  pong u1 (.a(a));\nendmodule\n\
             module pong (input a);\n  ping u2 (.a(a));\nendmodule\n"
                .into(),
            None,
            "line 8: instance 'u2' instantiates module 'ping' inside itself",
        ),
        BadInput::verilog(
            format!("module top (input a);\n  BUF u1 (.A({unclosed}));\nendmodule\n"),
            Some("top"),
            "line 2: expected '}', found Some(Symbol(')'))",
        ),
        BadInput::verilog(
            "module top (input a, output y);\n  BUF g (.A(a), .Y(y));\n  \
             BUF h (.A(a), .Y(y));\nendmodule\n"
                .into(),
            Some("top"),
            "line 3: net 'y' is driven by instance 'g' and again by instance 'h'",
        ),
        BadInput::verilog(
            module_chain(40_000),
            None,
            "line 256: instance 'u' of module 'm256' is nested deeper than 256 levels",
        ),
        BadInput {
            verilog: deep_instance_path(20_000),
            lef: Some("MACRO RAM\n  CLASS BLOCK ;\n  SIZE 60 BY 40 ;\nEND RAM\n"),
            def: None,
            top: Some("top"),
            expected: "line 2: an instance of module 'sub' has a hierarchy path of 20000 levels, \
                       more than 256",
        },
        BadInput {
            verilog: ONE_RAM.into(),
            lef: Some("MACRO RAM\n  CLASS BLOCK ;\n  SIZE -60 BY 40 ;\nEND RAM\n"),
            def: None,
            top: Some("top"),
            expected: "line 3: negative SIZE of MACRO RAM",
        },
        BadInput {
            verilog: ONE_RAM.into(),
            lef: Some("MACRO RAM\n  CLASS BLOCK ;\n  SIZE 60 BY 40 ;\nEND RAM\n"),
            def: Some("DESIGN top ;\nUNITS DISTANCE MICRONS 1000 ;\nDIEAREA ( 1023363 852803 ) ( 0 0 ) ;\n"),
            top: Some("top"),
            expected: "line 3: DIEAREA ( 1023363 852803 ) ( 0 0 )",
        },
    ];
    let dir = temp_dir("rejects");
    let opts = cli::parse_args(&["--serve".into()]).unwrap();
    for (i, row) in rows.iter().enumerate() {
        let mut intern = String::from("intern");
        for (key, text) in
            [("verilog", Some(row.verilog.as_str())), ("lef", row.lef), ("def", row.def)]
        {
            if let Some(text) = text {
                let path = dir.join(format!("bad{i}.{key}"));
                std::fs::write(&path, text).unwrap();
                intern.push_str(&format!(" {key}={}", path.display()));
            }
        }
        if let Some(top) = row.top {
            intern.push_str(&format!(" top={top}"));
        }
        let script = format!("hello client=ci\n{intern}\nstats\nshutdown\n");
        let out = SharedWriter::new(Vec::new());
        let end = cli::run_serve_session(&opts, script.as_bytes(), out.clone()).unwrap();
        assert_eq!(end, server::SessionEnd::Shutdown);
        let frames = parse_transcript(&out.lock());
        let errs: Vec<&Frame> = frames.iter().filter(|f| f.name == "err").collect();
        assert_eq!(errs.len(), 1, "row {i}: {frames:#?}");
        assert_eq!(errs[0].get("cmd"), Some("intern"));
        assert_eq!(errs[0].get("code"), Some("load-failed"));
        let reason = errs[0].get("reason").unwrap();
        assert!(reason.contains(row.expected), "row {i}: {reason}");
        assert!(frames.iter().any(|f| f.name == "stats"), "row {i}: the daemon still answers");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
