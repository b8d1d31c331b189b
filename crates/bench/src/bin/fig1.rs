//! Regenerates Fig. 1 of the paper: the evolution of the multi-level block
//! floorplan of a 16-macro design, from the first top-level partition down to
//! fixed macro locations.
//!
//! ```text
//! cargo run --release -p bench --bin fig1 -- [--effort fast|default|high]
//! ```

use bench::experiments::parse_common_args;
use bench::report::ascii_floorplan;
use hidap::{HidapFlow, MacroPlacement};
use placer_core::flows::hidap_config;
use workload::presets::fig1_design;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (_, effort) = parse_common_args(&args, &[]);

    let generated = fig1_design();
    let design = &generated.design;
    println!(
        "# Fig. 1 reproduction: {} macros, {} cells, die {} x {}",
        design.num_macros(),
        design.num_cells(),
        design.die().width(),
        design.die().height()
    );

    let placement: MacroPlacement =
        HidapFlow::new(hidap_config(effort)).run(design).expect("HiDaP flow failed");

    // Stage (a): the top-level block partition found by declustering.
    println!("\n(a) top-level block floorplan (dark blocks hold macros):");
    println!("{}", ascii_floorplan(design.die(), &placement.top_blocks, 64));

    // Stage (d): final macro locations.
    println!("(d) final macro placement:");
    let macro_rects: Vec<(String, geometry::Rect)> = placement
        .macros
        .iter()
        .map(|m| {
            let rect = placement.rect_of(m.cell, design).expect("placed macro");
            (design.cell_name(m.cell).to_owned(), rect)
        })
        .collect();
    println!("{}", ascii_floorplan(design.die(), &macro_rects, 64));

    println!("legal: {}", placement.is_legal(design));
    for (name, rect) in &macro_rects {
        println!("  {:<22} {}", name, rect);
    }
}
