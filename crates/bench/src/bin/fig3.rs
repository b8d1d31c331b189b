//! Regenerates Fig. 2/3 of the paper: the four-block system whose layout
//! differs depending on whether block flow, macro flow or their combination
//! drives the affinity.
//!
//! * λ = 1.0 — block flow only: A–D cluster around X, relative order arbitrary,
//! * λ = 0.0 — macro flow only: A→{B,C}→D chain respected, X can land anywhere,
//! * λ = 0.5 — combined: both structures respected (the paper's Fig. 3c).
//!
//! ```text
//! cargo run --release -p bench --bin fig3 -- [--effort fast|default|high]
//! ```

use bench::experiments::parse_common_args;
use bench::report::ascii_floorplan;
use eval::{EvalConfig, Evaluator};
use hidap::{HidapConfig, HidapFlow};
use placer_core::flows::hidap_config;
use workload::presets::fig3_design;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (_, effort) = parse_common_args(&args, &[]);
    let design = fig3_design();
    println!(
        "# Fig. 3 reproduction: {} macros (blocks A-D) + standard-cell hub X, {} cells",
        design.num_macros(),
        design.num_cells()
    );

    let mut evaluator = Evaluator::new(EvalConfig::standard());
    for (label, lambda) in [
        ("(a) block flow only, lambda = 1.0", 1.0),
        ("(b) macro flow only, lambda = 0.0", 0.0),
        ("(c) combined,        lambda = 0.5", 0.5),
    ] {
        let config = HidapConfig { lambda, ..hidap_config(effort) };
        let placement = HidapFlow::new(config).run(&design).expect("flow failed");
        let metrics = evaluator.evaluate(&design, &placement);
        println!(
            "\n{label}:  WL = {:.4} m, legal = {}",
            metrics.wirelength_m,
            placement.is_legal(&design)
        );
        let rects: Vec<(String, geometry::Rect)> = placement
            .macros
            .iter()
            .map(|m| {
                (
                    design.cell_name(m.cell).to_owned(),
                    placement.rect_of(m.cell, &design).expect("placed"),
                )
            })
            .collect();
        println!("{}", ascii_floorplan(design.die(), &rects, 56));
    }
}
