//! Ablation of the latency-decay exponent `k` in `score(h, k)` (Sect. IV-D):
//! larger `k` makes long-latency dataflow matter less for block adjacency.
//!
//! ```text
//! cargo run --release -p bench --bin ablation_score_k -- [--circuits c2] [--effort fast|default|high]
//! ```

use bench::experiments::parse_common_args;
use eval::{EvalConfig, Evaluator};
use hidap::{HidapConfig, HidapFlow};
use placer_core::flows::hidap_config;
use workload::presets::generate_circuit;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (circuits, effort) = parse_common_args(&args, &["c2"]);
    let mut evaluator = Evaluator::new(EvalConfig::standard());

    println!("# score(h, k) exponent ablation — effort {effort:?}");
    println!("{:<8} {:>4} {:>12} {:>10} {:>10}", "circuit", "k", "WL (m)", "GRC%", "WNS%");
    for circuit in &circuits {
        eprintln!("running {circuit} ...");
        let generated = generate_circuit(circuit);
        let design = &generated.design;
        for k in [0u32, 1, 2, 3] {
            let config = HidapConfig { score_k: k, ..hidap_config(effort) };
            let placement = HidapFlow::new(config).run(design).expect("flow failed");
            let metrics = evaluator.evaluate(design, &placement);
            println!(
                "{:<8} {:>4} {:>12.3} {:>10.2} {:>10.1}",
                circuit,
                k,
                metrics.wirelength_m,
                metrics.grc_percent(),
                metrics.wns_percent()
            );
        }
    }
    println!("\n# k = 1 is the paper's formulation (bits / latency)");
}
