//! Ablation of the hierarchical-declustering parameters (Sect. IV-B): the
//! paper fixes `min_area` = 40 % and `open_area` = 1 % of the floorplanned
//! node's area; this binary sweeps both and reports the effect on block count
//! and measured wirelength.
//!
//! ```text
//! cargo run --release -p bench --bin ablation_decluster -- [--circuits c2] [--effort fast|default|high]
//! ```

use bench::experiments::parse_common_args;
use eval::{EvalConfig, Evaluator};
use hidap::decluster::hierarchical_declustering;
use hidap::shape_curves::ShapeCurveSet;
use hidap::{HidapConfig, HidapFlow};
use netlist::hierarchy::HierarchyTree;
use placer_core::flows::hidap_config;
use workload::presets::generate_circuit;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (circuits, effort) = parse_common_args(&args, &["c2"]);
    let circuit = circuits.first().map(String::as_str).unwrap_or("c2");
    let generated = generate_circuit(circuit);
    let design = &generated.design;
    let ht = HierarchyTree::from_design(design);
    let mut evaluator = Evaluator::new(EvalConfig::standard());

    println!("# declustering ablation on {circuit} — effort {effort:?}");
    println!(
        "{:>10} {:>10} {:>14} {:>12} {:>12}",
        "open_area", "min_area", "top blocks", "WL (m)", "legal"
    );
    for open_area_frac in [0.002, 0.01, 0.05] {
        for min_area_frac in [0.1, 0.4, 0.8] {
            let config = HidapConfig { open_area_frac, min_area_frac, ..hidap_config(effort) };
            // block count at the top level
            let curves = ShapeCurveSet::generate(design, &ht, &config);
            let blocks = hierarchical_declustering(design, &ht, &curves, ht.root(), &config);
            // full flow quality
            let placement = HidapFlow::new(config).run(design).expect("flow failed");
            let wl = evaluator.evaluate(design, &placement).wirelength_m;
            println!(
                "{:>9.1}% {:>9.0}% {:>14} {:>12.3} {:>12}",
                open_area_frac * 100.0,
                min_area_frac * 100.0,
                blocks.len(),
                wl,
                placement.is_legal(design)
            );
        }
    }
    println!("\n# the paper's operating point is open_area = 1%, min_area = 40%");
}
