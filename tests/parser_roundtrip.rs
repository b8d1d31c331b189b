//! Integration tests of the file-format path: generator → Verilog/LEF/DEF
//! emission → parsers → placement.

use hidap::{HidapConfig, HidapFlow};
use netlist::def::parse_def;
use netlist::lef::parse_lef;
use netlist::verilog::{parse_verilog, ElaborateOptions};
use workload::emit::{emit_def, emit_lef, emit_verilog};
use workload::{SocConfig, SocGenerator, SubsystemConfig};

fn small_soc() -> workload::GeneratedDesign {
    SocGenerator::new(SocConfig {
        name: "rt_soc".into(),
        subsystems: vec![
            SubsystemConfig::balanced("u_cpu", 3, 8),
            SubsystemConfig::balanced("u_dsp", 2, 8),
            SubsystemConfig::balanced("u_io", 1, 4),
        ],
        channels: vec![(0, 1), (1, 2), (2, 0)],
        io_subsystems: vec![2],
        io_bits: 8,
        utilization: 0.5,
        aspect_ratio: 1.0,
        seed: 17,
    })
    .generate()
}

#[test]
fn verilog_lef_roundtrip_preserves_structure() {
    let generated = small_soc();
    let verilog = emit_verilog(&generated.design);
    let lef = emit_lef(&generated.design, &generated.library, 2000);

    let parsed_lef = parse_lef(&lef).expect("emitted LEF must parse");
    assert_eq!(parsed_lef.dbu_per_micron, 2000);
    for m in generated.library.blocks() {
        let p = parsed_lef.library.find_macro(&m.name).expect("macro definition survives");
        assert_eq!((p.width, p.height), (m.width, m.height));
    }

    let opts = ElaborateOptions { library: generated.library.clone(), ..Default::default() };
    let parsed =
        parse_verilog(&verilog, Some("rt_soc"), &opts).expect("emitted Verilog must parse");
    assert_eq!(parsed.num_cells(), generated.design.num_cells());
    assert_eq!(parsed.num_macros(), generated.design.num_macros());
    assert_eq!(parsed.num_ports(), generated.design.num_ports());
    parsed.validate().expect("re-parsed netlist is consistent");
}

#[test]
fn reparsed_design_can_be_placed() {
    let generated = small_soc();
    let verilog = emit_verilog(&generated.design);
    let opts = ElaborateOptions { library: generated.library.clone(), ..Default::default() };
    let mut design = parse_verilog(&verilog, Some("rt_soc"), &opts).expect("parse");
    design.set_die(generated.design.die());
    let placement =
        HidapFlow::new(HidapConfig::fast()).run(&design).expect("flow on re-parsed design");
    assert_eq!(placement.macros.len(), generated.design.num_macros());
    assert!(placement.is_legal(&design));
}

#[test]
fn def_roundtrip_preserves_placement() {
    let generated = small_soc();
    let design = &generated.design;
    let placement = HidapFlow::new(HidapConfig::fast()).run(design).expect("flow");
    let def_text = emit_def(design, 1000, &placement.to_map());
    let parsed = parse_def(&def_text).expect("emitted DEF must parse");
    assert_eq!(parsed.die, design.die());
    assert_eq!(parsed.components.len(), design.num_macros());
    // every macro's location survives the round trip
    for placed in &placement.macros {
        let name = design.cell_name(placed.cell);
        let comp = parsed.find_component(name).expect("component present");
        assert_eq!(comp.location, placed.location, "location of {name}");
        assert_eq!(comp.orientation, placed.orientation, "orientation of {name}");
    }
    // and applying the DEF back onto a fresh copy restores the flow's
    // macros, entry for entry in the same cell order
    let mut fresh = design.clone();
    let restored = parsed.apply_to(&mut fresh);
    assert_eq!(restored.macros, placement.macros);
    // a design re-parsed from the emitted Verilog starts with every port
    // unplaced; the DEF places each one where the generator did
    let opts = ElaborateOptions { library: generated.library.clone(), ..Default::default() };
    let mut reparsed =
        parse_verilog(&emit_verilog(design), Some("rt_soc"), &opts).expect("emitted Verilog");
    assert!(reparsed.ports().all(|(_, p)| p.position.is_none()));
    assert!(design.ports().all(|(_, p)| p.position.is_some()));
    parsed.apply_to(&mut reparsed);
    assert_eq!(reparsed.num_ports(), design.num_ports());
    for (id, port) in design.ports() {
        let name = design.port_name(id);
        let id = reparsed.find_port(name).expect("port survives the round trip");
        assert_eq!(reparsed.port(id).position, port.position, "position of {name}");
    }
}
