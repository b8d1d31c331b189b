//! The λ exploration of Sect. V: HiDaP is run with λ ∈ {0.2, 0.5, 0.8} (plus
//! the 0.0 / 1.0 extremes for context) on every requested circuit, and the
//! per-λ measured wirelength is reported.
//!
//! ```text
//! cargo run --release -p bench --bin lambda_sweep -- [--circuits c1,c2] [--effort fast|default|high]
//! ```

use bench::experiments::parse_common_args;
use eval::{EvalConfig, Evaluator};
use hidap::{HidapConfig, HidapFlow};
use placer_core::flows::hidap_config;
use workload::presets::generate_circuit;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (circuits, effort) = parse_common_args(&args, &["c1", "c5", "c8"]);
    let lambdas = [0.0, 0.2, 0.5, 0.8, 1.0];

    println!("# lambda sweep — effort {effort:?}");
    print!("{:<8}", "circuit");
    for l in lambdas {
        print!("  WL@{l:<5}");
    }
    println!("  best");
    for circuit in &circuits {
        eprintln!("running {circuit} ...");
        let generated = generate_circuit(circuit);
        let design = &generated.design;
        // one session per circuit: every lambda candidate reuses its Gseq
        let mut evaluator = Evaluator::new(EvalConfig::standard());
        print!("{circuit:<8}");
        let mut best = (f64::INFINITY, 0.0);
        for lambda in lambdas {
            let config = HidapConfig { lambda, ..hidap_config(effort) };
            let placement = HidapFlow::new(config).run(design).expect("flow failed");
            let wl = evaluator.evaluate(design, &placement).wirelength_m;
            print!("  {wl:<8.3}");
            if wl < best.0 {
                best = (wl, lambda);
            }
        }
        println!("  lambda={}", best.1);
    }
}
