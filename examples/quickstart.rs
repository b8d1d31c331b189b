//! Quickstart: build a tiny design programmatically, run a flow through the
//! unified `Placer` engine API, print the macro placement and write it out
//! as DEF.
//!
//! Run with: `cargo run --release --example quickstart`

use geometry::Rect;
use netlist::design::DesignBuilder;
use placer_core::{PlaceContext, PlaceRequest};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A miniature design: two RAM banks exchanging data through a 16-bit
    // register pipeline in a glue module.
    let mut b = DesignBuilder::new("quickstart");
    let ram0 = b.add_macro("u_core/ram0", "RAM512", 250_000, 180_000, "u_core");
    let ram1 = b.add_macro("u_mem/ram1", "RAM512", 250_000, 180_000, "u_mem");
    for bit in 0..16 {
        let f = b.add_flop(format!("u_glue/pipe_reg[{bit}]"), "u_glue");
        let to_pipe = b.add_net(format!("u_glue/d[{bit}]"));
        let from_pipe = b.add_net(format!("u_glue/q[{bit}]"));
        b.connect_driver(to_pipe, ram0);
        b.connect_sink(to_pipe, f);
        b.connect_driver(from_pipe, f);
        b.connect_sink(from_pipe, ram1);
    }
    b.set_die(Rect::new(0, 0, 1_200_000, 900_000));
    let design = b.build();

    // Resolve the flow by name through the registry (any of "hidap",
    // "indeda", "handfp") and place through the engine API.
    let registry = baselines::default_registry();
    let placer = registry.create("hidap")?;
    let request = PlaceRequest::new(&design).with_seed(1).with_lambda(0.5);
    let outcome = placer.place(&request, &mut PlaceContext::new())?;
    let placement = &outcome.placement;

    println!("placed {} macros (legal: {}):", placement.macros.len(), placement.is_legal(&design));
    for placed in &placement.macros {
        println!(
            "  {:<16} at ({:>8}, {:>8})  orientation {}",
            design.cell_name(placed.cell),
            placed.location.x,
            placed.location.y,
            placed.orientation
        );
    }
    println!("\nstage timings:");
    for timing in &outcome.stage_timings {
        println!("  {:<12} {:.4} s", timing.stage, timing.seconds);
    }

    // Export the floorplan as DEF, ready for a downstream place-and-route tool.
    let entries = netlist::def::placement_entries_from_view(&design, placement, true);
    let pins = netlist::def::port_entries(&design);
    let def_text = netlist::def::write_def(design.name(), 1000, design.die(), &entries, &pins);
    println!("\n--- floorplan.def ---\n{def_text}");
    Ok(())
}
