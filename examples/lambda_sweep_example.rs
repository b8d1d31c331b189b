//! Sweep the λ parameter that blends block flow and macro flow (Sect. IV-D)
//! and observe its effect on measured wirelength — the knob the paper
//! explores with λ ∈ {0.2, 0.5, 0.8}.
//!
//! The sweep runs through the engine's `BatchRunner`, so all λ values are
//! explored in parallel across the available cores and the winner is picked
//! deterministically.
//!
//! Run with: `cargo run --release --example lambda_sweep_example`

use hidap::{HidapConfig, HidapFlow};
use placer_core::{BatchGrid, BatchRunner, PlaceContext, PlaceRequest};
use workload::presets::fig1_design;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let generated = fig1_design();
    let design = &generated.design;
    println!("fig. 1 design: {} macros, {} cells\n", design.num_macros(), design.num_cells());

    let placer = HidapFlow::new(HidapConfig::default());
    let grid = BatchGrid::new(vec![1], vec![0.0, 0.2, 0.5, 0.8, 1.0]);
    let batch = BatchRunner::new().run(
        &placer,
        &PlaceRequest::new(design),
        &grid,
        &mut PlaceContext::new(),
    )?;

    println!("{:>8} {:>14}", "lambda", "WL (m)");
    for run in &batch.runs {
        println!(
            "{:>8.1} {:>14.4}{}",
            run.lambda,
            run.score.unwrap_or(f64::NAN),
            if run.index == batch.winner_index { "  <- winner" } else { "" },
        );
    }
    println!(
        "\nbest wirelength {:.4} m at lambda = {:.1}",
        batch.winner_score,
        batch.winner.lambda.unwrap_or(f64::NAN),
    );
    println!("(the paper reports HiDaP as the best of three lambda values per circuit)");
    Ok(())
}
