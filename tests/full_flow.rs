//! End-to-end integration tests: generator → HiDaP → evaluation.

use eval::{EvalConfig, Evaluator};
use hidap::{HidapConfig, HidapFlow};
use workload::presets::{fig1_design, generate_circuit};
use workload::{SocConfig, SocGenerator, SubsystemConfig};

#[test]
fn fig1_design_places_all_macros_legally() {
    let generated = fig1_design();
    let placement = HidapFlow::new(HidapConfig::fast()).run(&generated.design).expect("flow");
    assert_eq!(placement.macros.len(), 16);
    assert!(placement.is_legal(&generated.design));
    // the two clusters must be visible at the top level
    assert!(placement.top_blocks.len() >= 2);
}

#[test]
fn c1_standin_full_pipeline() {
    let generated = generate_circuit("c1");
    let design = &generated.design;
    let placement = HidapFlow::new(HidapConfig::fast()).run(design).expect("flow");
    assert_eq!(placement.macros.len(), 32);
    assert!(placement.is_legal(design));

    let metrics = Evaluator::new(EvalConfig::standard()).evaluate(design, &placement);
    assert!(metrics.wirelength_m > 0.0);
    assert!(metrics.hpwl.routed_nets > 0);
    assert!(metrics.grc_percent() >= 0.0 && metrics.grc_percent() <= 100.0);
    assert!(metrics.wns_percent() <= 0.0);
    assert!(metrics.density.peak() > 0.0);
}

#[test]
fn dataflow_aware_placement_beats_random_macro_scatter() {
    // HiDaP should comfortably beat a placement that scatters macros without
    // looking at connectivity (a sanity check on the whole objective chain).
    let generated = fig1_design();
    let design = &generated.design;
    // one evaluation session for both candidates
    let mut evaluator = Evaluator::new(EvalConfig::standard());

    let hidap = HidapFlow::new(HidapConfig::fast()).run(design).expect("flow");
    let hidap_wl = evaluator.evaluate(design, &hidap).wirelength_m;

    // adversarial scatter: place macros round-robin in opposite corners so
    // connected clusters are torn apart, then legalize via the same helper
    use hidap::legalize::{legalize_macros, MacroFootprint, MacroFootprints};
    use hidap::{MacroPlacement, PlacedMacro};
    let die = design.die();
    let mut footprints = MacroFootprints::for_design(design);
    for (i, m) in design.macros().enumerate() {
        let corner = match i % 2 {
            0 => geometry::Point::new(die.llx, die.lly),
            _ => geometry::Point::new(
                die.urx - design.cell(m).width,
                die.ury - design.cell(m).height,
            ),
        };
        footprints.insert(m, MacroFootprint { location: corner, rotated: false });
    }
    legalize_macros(design, die, &mut footprints);
    let scatter: MacroPlacement = footprints
        .iter()
        .map(|(c, fp)| PlacedMacro::new(c, fp.location, geometry::Orientation::N))
        .collect();
    let scatter_wl = evaluator.evaluate(design, &scatter).wirelength_m;

    assert!(
        hidap_wl < scatter_wl,
        "dataflow-aware placement ({hidap_wl:.4} m) should beat adversarial scatter ({scatter_wl:.4} m)"
    );
}

#[test]
fn flow_is_deterministic_across_runs() {
    let generated = generate_circuit("c8");
    let a = HidapFlow::new(HidapConfig::fast()).run(&generated.design).expect("flow");
    let b = HidapFlow::new(HidapConfig::fast()).run(&generated.design).expect("flow");
    assert_eq!(a, b);
}

#[test]
fn high_utilization_design_still_legalizes() {
    // A design where macros occupy most of the die exercises the area
    // budgeting and legalization paths.
    let config = SocConfig {
        name: "dense".into(),
        subsystems: vec![
            SubsystemConfig::balanced("u_a", 6, 8),
            SubsystemConfig::balanced("u_b", 6, 8),
        ],
        channels: vec![(0, 1)],
        io_subsystems: vec![0],
        io_bits: 8,
        utilization: 0.8,
        aspect_ratio: 1.0,
        seed: 11,
    };
    let generated = SocGenerator::new(config).generate();
    let placement = HidapFlow::new(HidapConfig::fast()).run(&generated.design).expect("flow");
    assert!(placement.is_legal(&generated.design), "dense design must still legalize");
}
