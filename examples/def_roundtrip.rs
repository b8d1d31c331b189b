//! Exercise the file-format path: generate a synthetic SoC, emit it as
//! structural Verilog + LEF, parse both back, place the macros with HiDaP and
//! write/re-read the floorplan DEF.
//!
//! Run with: `cargo run --release -p bench --example def_roundtrip`

use hidap::{HidapConfig, HidapFlow};
use netlist::def::parse_def;
use netlist::lef::parse_lef;
use netlist::verilog::{parse_verilog, ElaborateOptions};
use workload::emit::{emit_def, emit_lef, emit_verilog};
use workload::{SocConfig, SocGenerator, SubsystemConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Generate a small SoC.
    let generated = SocGenerator::new(SocConfig {
        name: "roundtrip_soc".into(),
        subsystems: vec![
            SubsystemConfig::balanced("u_cpu", 3, 8),
            SubsystemConfig::balanced("u_dsp", 2, 8),
        ],
        channels: vec![(0, 1), (1, 0)],
        io_subsystems: vec![0],
        io_bits: 8,
        utilization: 0.5,
        aspect_ratio: 1.2,
        seed: 42,
    })
    .generate();

    // Emit Verilog + LEF text.
    let verilog_text = emit_verilog(&generated.design);
    let lef_text = emit_lef(&generated.design, &generated.library, 1000);
    println!("emitted {} bytes of Verilog, {} bytes of LEF", verilog_text.len(), lef_text.len());

    // Parse them back through the netlist crate's parsers.
    let lef = parse_lef(&lef_text)?;
    let opts = ElaborateOptions { library: lef.library.clone(), ..Default::default() };
    let mut design = parse_verilog(&verilog_text, Some("roundtrip_soc"), &opts)?;
    design.set_die(generated.design.die());
    for (id, port) in generated.design.ports() {
        let name = generated.design.port_name(id);
        if let (Some(pos), Some(new_pid)) = (port.position, design.find_port(name)) {
            design.set_port_position(new_pid, Some(pos));
        }
    }
    println!(
        "re-parsed design: {} cells ({} macros), {} nets",
        design.num_cells(),
        design.num_macros(),
        design.num_nets()
    );
    assert_eq!(design.num_macros(), generated.design.num_macros());

    // Place the macros of the re-parsed design and write the floorplan DEF.
    let placement = HidapFlow::new(HidapConfig::default()).run(&design)?;
    let def_text = emit_def(&design, 1000, &placement.to_map());
    let def = parse_def(&def_text)?;
    println!("floorplan DEF round trip: {} components, die {}", def.components.len(), def.die);
    assert_eq!(def.components.len(), design.num_macros());
    println!("round trip OK");
    Ok(())
}
