//! End-to-end tests of the unified engine API across every registered flow:
//! registry resolution, the `Placer` trait, stage observability, batch
//! sweeps, and the CLI's `--sweep`/`--jobs` path.

use placer_core::{
    BatchGrid, BatchRunner, CollectingObserver, EffortLevel, PlaceContext, PlaceRequest, StageEvent,
};
use std::sync::Arc;
use workload::presets::fig1_design;

#[test]
fn every_registered_flow_places_through_the_trait() {
    let generated = fig1_design();
    let design = &generated.design;
    let registry = baselines::default_registry();
    let names = registry.names();
    assert_eq!(names, vec!["handfp", "hidap", "indeda"]);
    for name in names {
        let placer = registry.create(&name).unwrap();
        let request = PlaceRequest::new(design).with_effort(EffortLevel::Fast).with_seed(1);
        let outcome = placer
            .place(&request, &mut PlaceContext::new())
            .unwrap_or_else(|e| panic!("{name} failed: {e}"));
        assert_eq!(outcome.flow, name);
        assert_eq!(outcome.placement.macros.len(), design.num_macros(), "{name}");
        assert!(outcome.placement.is_legal(design), "{name} placement must be legal");
        assert!(!outcome.stage_timings.is_empty(), "{name} must report stage timings");
    }
}

#[test]
fn observer_sees_hidap_stage_events_through_the_engine() {
    let generated = fig1_design();
    let design = &generated.design;
    let obs = Arc::new(CollectingObserver::new());
    let placer = baselines::default_registry().create("hidap").unwrap();
    let mut ctx = PlaceContext::new().with_observer(obs.clone());
    placer.place(&PlaceRequest::new(design).with_effort(EffortLevel::Fast), &mut ctx).unwrap();
    assert_eq!(obs.count(|e| matches!(e, StageEvent::FlowStarted { .. })), 1);
    assert_eq!(obs.count(|e| matches!(e, StageEvent::HierarchyBuilt { .. })), 1);
    assert_eq!(obs.count(|e| matches!(e, StageEvent::ShapeCurvesReady { .. })), 1);
    assert!(obs.count(|e| matches!(e, StageEvent::LevelFloorplanned { .. })) >= 2);
    assert_eq!(obs.count(|e| matches!(e, StageEvent::LegalizationDone { .. })), 1);
    assert_eq!(obs.count(|e| matches!(e, StageEvent::FlippingDone { .. })), 1);
    assert_eq!(obs.count(|e| matches!(e, StageEvent::FlowFinished { .. })), 1);
}

#[test]
fn handfp_emits_batch_events_for_every_candidate() {
    let generated = fig1_design();
    let design = &generated.design;
    let obs = Arc::new(CollectingObserver::new());
    let oracle = baselines::HandFp::new(baselines::HandFpConfig::fast());
    let mut ctx = PlaceContext::new().with_observer(obs.clone());
    placer_core::Placer::place(&oracle, &PlaceRequest::new(design), &mut ctx).unwrap();
    let candidates = oracle.num_candidates();
    assert_eq!(obs.count(|e| matches!(e, StageEvent::BatchRunStarted { .. })), candidates);
    assert_eq!(obs.count(|e| matches!(e, StageEvent::BatchRunFinished { .. })), candidates);
}

#[test]
fn batch_runner_works_over_any_registered_flow() {
    let generated = fig1_design();
    let design = &generated.design;
    // indeda has no λ knob but still participates in seed sweeps
    let placer = baselines::default_registry().create("indeda").unwrap();
    let grid = BatchGrid::new(vec![1, 2, 3], vec![0.5]);
    let batch = BatchRunner::new()
        .with_jobs(2)
        .run(
            placer.as_ref(),
            &PlaceRequest::new(design).with_effort(EffortLevel::Fast),
            &grid,
            &mut PlaceContext::new(),
        )
        .unwrap();
    assert_eq!(batch.runs.len(), 3);
    assert!(batch.winner.placement.is_legal(design));
}

#[test]
fn sweeping_the_composite_handfp_flow_is_rejected() {
    let generated = fig1_design();
    let opts = cli::Options {
        flow: "handfp".into(),
        sweep: true,
        effort: EffortLevel::Fast,
        ..cli::Options::default()
    };
    let err = cli::place(&generated.design, &opts).unwrap_err();
    assert!(err.contains("already sweeps"), "{err}");
}

#[test]
fn indeda_sweep_collapses_the_lambda_axis() {
    let generated = fig1_design();
    let opts = cli::Options {
        flow: "indeda".into(),
        sweep: true,
        effort: EffortLevel::Fast,
        seeds: vec![1, 2],
        lambdas: vec![0.2, 0.5, 0.8],
        ..cli::Options::default()
    };
    let (_, info) = cli::place_outcome(&generated.design, &opts, &mut PlaceContext::new()).unwrap();
    // 2 seeds x 1 collapsed λ, not 2 x 3
    assert_eq!(info.candidates, 2);
}

#[test]
fn cli_sweep_flag_drives_the_batch_engine() {
    use workload::emit::{emit_lef, emit_verilog};
    use workload::{SocConfig, SocGenerator, SubsystemConfig};

    let generated = SocGenerator::new(SocConfig {
        name: "sweep_soc".into(),
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
    let dir = std::env::temp_dir().join(format!("hidap_engine_test_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let verilog = dir.join("sweep_soc.v");
    let lef = dir.join("sweep_soc.lef");
    std::fs::write(&verilog, emit_verilog(&generated.design)).unwrap();
    std::fs::write(&lef, emit_lef(&generated.design, &generated.library, 1000)).unwrap();

    let args: Vec<String> = [
        "--verilog",
        verilog.to_str().unwrap(),
        "--lef",
        lef.to_str().unwrap(),
        "--top",
        "sweep_soc",
        "--effort",
        "fast",
        "--sweep",
        "--jobs",
        "2",
        "--seeds",
        "1,2",
        "--lambdas",
        "0.2,0.8",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    let opts = cli::parse_args(&args).expect("arguments parse");
    let output = cli::run(&opts).expect("CLI sweep succeeds");
    assert!(output.contains("placed 4 macros"), "{output}");
    assert!(output.contains("sweep: 4 candidates"), "{output}");
    assert!(output.contains("winner seed"), "{output}");

    // the sweep result is independent of the worker count
    let serial_opts = cli::Options { jobs: 1, ..opts.clone() };
    let (design, _) = cli::load_design(&opts).unwrap();
    let a = cli::place(&design, &opts).unwrap();
    let b = cli::place(&design, &serial_opts).unwrap();
    assert_eq!(a, b);

    let _ = std::fs::remove_dir_all(&dir);
}
