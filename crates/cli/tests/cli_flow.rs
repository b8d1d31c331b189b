//! End-to-end test of the command-line front end: emit a synthetic SoC as
//! Verilog + LEF, drive the CLI library against the files, and check the
//! placed DEF and SVG outputs.

use cli::{load_design, parse_args, place, run};
use workload::emit::{emit_lef, emit_verilog};
use workload::{SocConfig, SocGenerator, SubsystemConfig};

fn write_inputs(dir: &std::path::Path) -> (std::path::PathBuf, std::path::PathBuf) {
    write_inputs_at(dir, 1000)
}

/// Writes the test SoC with a LEF at `dbu_per_micron` database units per µm.
fn write_inputs_at(
    dir: &std::path::Path,
    dbu_per_micron: i64,
) -> (std::path::PathBuf, std::path::PathBuf) {
    let generated = SocGenerator::new(SocConfig {
        name: "cli_soc".into(),
        subsystems: vec![
            SubsystemConfig::balanced("u_cpu", 2, 8),
            SubsystemConfig::balanced("u_dsp", 2, 8),
        ],
        channels: vec![(0, 1), (1, 0)],
        io_subsystems: vec![0],
        io_bits: 8,
        utilization: 0.5,
        aspect_ratio: 1.0,
        seed: 5,
    })
    .generate();
    let verilog = dir.join("cli_soc.v");
    let lef = dir.join("cli_soc.lef");
    std::fs::write(&verilog, emit_verilog(&generated.design)).unwrap();
    std::fs::write(&lef, emit_lef(&generated.design, &generated.library, dbu_per_micron)).unwrap();
    (verilog, lef)
}

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("hidap_cli_test_{tag}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn cli_places_design_and_writes_outputs() {
    let dir = temp_dir("full");
    let (verilog, lef) = write_inputs(&dir);
    let out_def = dir.join("placed.def");
    let out_svg = dir.join("floorplan.svg");
    let args: Vec<String> = [
        "--verilog",
        verilog.to_str().unwrap(),
        "--lef",
        lef.to_str().unwrap(),
        "--top",
        "cli_soc",
        "--effort",
        "fast",
        "--out",
        out_def.to_str().unwrap(),
        "--svg",
        out_svg.to_str().unwrap(),
        "--report",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    let opts = parse_args(&args).expect("arguments parse");
    let output = run(&opts).expect("CLI flow succeeds");
    assert!(output.contains("placed 4 macros"));
    assert!(output.contains("wirelength"));

    // the DEF can be re-read and contains every macro
    let def_text = std::fs::read_to_string(&out_def).unwrap();
    let def = netlist::def::parse_def(&def_text).unwrap();
    assert_eq!(def.components.len(), 4);
    // the SVG looks like an SVG
    let svg_text = std::fs::read_to_string(&out_svg).unwrap();
    assert!(svg_text.starts_with("<svg"));

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn cli_baseline_flow_also_works() {
    let dir = temp_dir("baseline");
    let (verilog, lef) = write_inputs(&dir);
    let args: Vec<String> = [
        "--verilog",
        verilog.to_str().unwrap(),
        "--lef",
        lef.to_str().unwrap(),
        "--flow",
        "indeda",
        "--effort",
        "fast",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    let opts = parse_args(&args).expect("arguments parse");
    let (design, _) = load_design(&opts).expect("design loads");
    let placement = place(&design, &opts).expect("baseline places");
    assert_eq!(placement.macros.len(), 4);
    assert!(placement.is_legal(&design));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn cli_manifest_places_a_fleet_through_one_service() {
    let dir = temp_dir("manifest");
    // two distinct designs; the first is listed twice so the service interns
    // it once and the repeated job reuses its cached artifacts
    let (verilog_a, lef_a) = write_inputs(&dir);
    let generated_b = SocGenerator::new(SocConfig {
        name: "cli_soc_b".into(),
        subsystems: vec![
            SubsystemConfig::balanced("u_gpu", 3, 8),
            SubsystemConfig::balanced("u_npu", 2, 8),
        ],
        channels: vec![(0, 1)],
        io_subsystems: vec![0],
        io_bits: 8,
        utilization: 0.5,
        aspect_ratio: 1.2,
        seed: 11,
    })
    .generate();
    let verilog_b = dir.join("cli_soc_b.v");
    let lef_b = dir.join("cli_soc_b.lef");
    std::fs::write(&verilog_b, emit_verilog(&generated_b.design)).unwrap();
    std::fs::write(&lef_b, emit_lef(&generated_b.design, &generated_b.library, 1000)).unwrap();

    let manifest = dir.join("designs.txt");
    std::fs::write(
        &manifest,
        format!(
            "# cli manifest test\n\
             {} lef={} top=cli_soc\n\
             {} lef={} top=cli_soc_b flow=indeda seed=3\n\
             {} lef={} top=cli_soc  # same design again: interned once\n",
            verilog_a.display(),
            lef_a.display(),
            verilog_b.display(),
            lef_b.display(),
            verilog_a.display(),
            lef_a.display(),
        ),
    )
    .unwrap();

    let args: Vec<String> =
        ["--manifest", manifest.to_str().unwrap(), "--effort", "fast", "--report"]
            .iter()
            .map(|s| s.to_string())
            .collect();
    let opts = parse_args(&args).expect("arguments parse");
    let output = run(&opts).expect("manifest flow succeeds");
    assert!(output.contains("cli_soc (hidap): placed 4 macros"), "{output}");
    assert!(output.contains("cli_soc_b (indeda): placed 5 macros"), "{output}");
    assert!(output.contains("wirelength"), "{output}");
    // 3 jobs, 2 interned designs; the repeated design reuses its stored
    // artifacts. Gseq: 2 builds for 2 designs, every other fetch is a hit
    // (job 1 flow miss + eval hit, job 2 eval miss, job 3 flow + eval hits).
    // Gnet: 2 builds (job 1 flow, job 2's Gseq derivation), 2 hits (job 1's
    // Gseq derivation, job 3 flow).
    // jobs drain one at a time, so the queue-depth watermark stays at 1
    assert!(
        output.contains("service: 3 jobs over 2 interned designs (peak queue depth 1)"),
        "{output}"
    );
    assert!(output.contains("cache: Gseq 2 built, 3 reused"), "{output}");
    assert!(output.contains("Gnet 2 built, 2 reused"), "{output}");
    // the memory line reports resident bytes split into designs + artifacts,
    // plus the run's high-water mark
    assert!(output.contains("MiB resident (designs "), "{output}");
    assert!(output.contains("), peak "), "{output}");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn cli_manifest_per_line_grids_run_their_own_sweeps() {
    let dir = temp_dir("manifest_grids");
    let (verilog, lef) = write_inputs(&dir);
    // line 1 carries its own seed×λ grid (no global --sweep); line 2 is a
    // plain single run of the same design — the heterogeneous-fleet shape
    let manifest = dir.join("designs.txt");
    std::fs::write(
        &manifest,
        format!(
            "{v} lef={l} top=cli_soc seeds=3,4 lambdas=0.2,0.8\n{v} lef={l} top=cli_soc seed=5\n",
            v = verilog.display(),
            l = lef.display(),
        ),
    )
    .unwrap();
    let opts = parse_args(
        &["--manifest", manifest.to_str().unwrap(), "--effort", "fast", "--memory-budget", "256"]
            .iter()
            .map(|s| s.to_string())
            .collect::<Vec<String>>(),
    )
    .unwrap();
    let output = run(&opts).expect("manifest flow succeeds");
    // both jobs run over one interned design; the grid line reports its
    // winner's seed and λ, the plain line its pinned seed
    assert!(output.contains("service: 2 jobs over 1 interned designs"), "{output}");
    assert_eq!(output.matches("cli_soc (hidap): placed 4 macros").count(), 2, "{output}");
    assert!(output.contains(", seed 5"), "{output}");
    assert!(output.contains("lambda 0."), "{output}");
    assert!(output.contains("budget 256.0 MiB"), "{output}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn cli_manifest_sweeps_report_wirelength_at_the_design_scale() {
    // a LEF at 2000 DBU/µm: a sweep line and a handFP line must report the
    // wirelength the single-design `--report` measures for the same
    // placement, not one measured at the standard 1000 DBU/µm
    let dir = temp_dir("manifest_dbu");
    let (verilog, lef) = write_inputs_at(&dir, 2000);
    let manifest = dir.join("designs.txt");
    std::fs::write(
        &manifest,
        format!(
            "{v} lef={l} top=cli_soc
             {v} lef={l} top=cli_soc seeds=1 lambdas=0.5,0.5
             {v} lef={l} top=cli_soc flow=handfp
",
            v = verilog.display(),
            l = lef.display(),
        ),
    )
    .unwrap();
    let cli = |args: &[&str]| {
        let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        run(&parse_args(&args).expect("arguments parse")).expect("CLI run succeeds")
    };
    let wirelengths = |output: &str| -> Vec<String> {
        output
            .lines()
            .filter_map(|line| line.trim().strip_prefix("wirelength: "))
            .map(|rest| rest.split(',').next().unwrap_or(rest).to_string())
            .collect()
    };
    let batch = cli(&["--manifest", manifest.to_str().unwrap(), "--effort", "fast", "--report"]);
    let single = |flow: &str| {
        let output = cli(&[
            "--verilog",
            verilog.to_str().unwrap(),
            "--lef",
            lef.to_str().unwrap(),
            "--top",
            "cli_soc",
            "--flow",
            flow,
            "--effort",
            "fast",
            "--report",
        ]);
        wirelengths(&output).pop().expect("--report prints the wirelength")
    };
    let hidap = single("hidap");
    assert_ne!(hidap, "0.0000 m", "the design must be large enough to tell scales apart");
    assert_eq!(wirelengths(&batch), [hidap.clone(), hidap, single("handfp")], "{batch}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn cli_manifest_memory_budget_evicts_finished_designs() {
    let dir = temp_dir("manifest_budget");
    let (verilog_a, lef_a) = write_inputs(&dir);
    let generated_b = SocGenerator::new(SocConfig {
        name: "cli_soc_evict".into(),
        subsystems: vec![SubsystemConfig::balanced("u_aux", 2, 8)],
        channels: vec![],
        io_subsystems: vec![0],
        io_bits: 8,
        utilization: 0.5,
        aspect_ratio: 1.0,
        seed: 23,
    })
    .generate();
    let verilog_b = dir.join("cli_soc_evict.v");
    let lef_b = dir.join("cli_soc_evict.lef");
    std::fs::write(&verilog_b, emit_verilog(&generated_b.design)).unwrap();
    std::fs::write(&lef_b, emit_lef(&generated_b.design, &generated_b.library, 1000)).unwrap();

    let manifest = dir.join("designs.txt");
    std::fs::write(
        &manifest,
        format!(
            "{} lef={} top=cli_soc\n{} lef={} top=cli_soc_evict\n",
            verilog_a.display(),
            lef_a.display(),
            verilog_b.display(),
            lef_b.display(),
        ),
    )
    .unwrap();
    // a budget far below one design: each design is released after its line
    // and evicted under pressure, yet every line still places successfully
    // (eviction changes memory, never results)
    let opts = parse_args(
        &["--manifest", manifest.to_str().unwrap(), "--effort", "fast", "--memory-budget", "0.01"]
            .iter()
            .map(|s| s.to_string())
            .collect::<Vec<String>>(),
    )
    .unwrap();
    let output = run(&opts).expect("manifest flow succeeds under eviction pressure");
    assert!(output.contains("cli_soc (hidap): placed 4 macros"), "{output}");
    assert!(output.contains("cli_soc_evict (hidap): placed 2 macros"), "{output}");
    assert!(output.contains("budget 0.0 MiB"), "{output}");
    assert!(output.contains("2 designs evicted"), "{output}");
    // everything was evicted, so the tail residency is tiny — the peak
    // field is what records the run's true footprint
    assert!(output.contains("), peak "), "{output}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn cli_spill_dir_requires_a_service_mode() {
    // the directory holds the daemon's warm-start seeds, which only a
    // `replace` reads: a single design or a manifest has no use for it
    for args in [
        &["--verilog", "x.v", "--spill-dir", "/tmp/spill"][..],
        &["--manifest", "designs.txt", "--spill-dir", "/tmp/spill"][..],
    ] {
        let err = parse_args(&args.iter().map(|s| s.to_string()).collect::<Vec<String>>())
            .expect_err("--spill-dir without --serve is rejected");
        assert!(err.contains("--spill-dir") && err.contains("--serve"), "{args:?}: {err}");
    }
    let opts = parse_args(
        &["--serve", "--spill-dir", "/tmp/spill"].iter().map(|s| s.to_string()).collect::<Vec<_>>(),
    )
    .expect("--serve takes a spill directory");
    assert_eq!(opts.spill_dir.as_deref(), Some(std::path::Path::new("/tmp/spill")));
}

#[test]
fn cli_manifest_reports_per_design_failures_without_dropping_the_rest() {
    let dir = temp_dir("manifest_partial");
    let (verilog, lef) = write_inputs(&dir);
    // a DEF with a die far too small for the macros fails that line's
    // placement; the healthy line must still be reported
    let tiny_def = dir.join("tiny.def");
    std::fs::write(
        &tiny_def,
        netlist::def::write_def("cli_soc", 1000, geometry::Rect::new(0, 0, 10, 10), &[], &[]),
    )
    .unwrap();
    let manifest = dir.join("designs.txt");
    // line 2 fails placement (tiny die), line 3 fails to even load — both
    // must be reported inline without discarding line 1's finished result
    std::fs::write(
        &manifest,
        format!(
            "{v} lef={l} top=cli_soc\n{v} lef={l} def={d} top=cli_soc\n{m} lef={l}\n",
            v = verilog.display(),
            l = lef.display(),
            d = tiny_def.display(),
            m = dir.join("missing.v").display(),
        ),
    )
    .unwrap();
    let opts = parse_args(
        &["--manifest", manifest.to_str().unwrap(), "--effort", "fast"]
            .iter()
            .map(|s| s.to_string())
            .collect::<Vec<String>>(),
    )
    .unwrap();
    let err = run(&opts).expect_err("a failing design fails the run");
    // ... but only after every design was placed and reported
    assert!(err.contains("cli_soc (hidap): placed 4 macros"), "{err}");
    assert!(err.contains("FAILED"), "{err}");
    assert!(err.contains("missing.v (hidap): FAILED: cannot read"), "{err}");
    assert!(err.contains("2 of 3 designs failed"), "{err}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn cli_reports_missing_files_gracefully() {
    let args: Vec<String> =
        ["--verilog", "/nonexistent/path/x.v"].iter().map(|s| s.to_string()).collect();
    let opts = parse_args(&args).unwrap();
    let err = run(&opts).unwrap_err();
    assert!(err.contains("cannot read"));
}
