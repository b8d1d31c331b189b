//! Regenerates Fig. 9 of the paper: standard-cell density maps of circuit c3
//! placed with the three flows, plus the top-level block floorplan HiDaP
//! derived from the dataflow graph (Fig. 9d).
//!
//! ```text
//! cargo run --release -p bench --bin fig9 -- [--circuits c3] [--effort fast|default|high]
//! ```

use baselines::{HandFp, HandFpConfig, IndEda, IndEdaConfig};
use bench::experiments::parse_common_args;
use bench::report::ascii_floorplan;
use eval::{EvalConfig, Evaluator};
use hidap::HidapFlow;
use placer_core::flows::hidap_config;
use workload::presets::generate_circuit;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (circuits, effort) = parse_common_args(&args, &["c3"]);
    let circuit = circuits.first().map(String::as_str).unwrap_or("c3");

    let generated = generate_circuit(circuit);
    let design = &generated.design;
    println!(
        "# Fig. 9 reproduction on {circuit}: {} cells, {} macros",
        design.num_cells(),
        design.num_macros()
    );
    // one evaluation session for all three flows (Gseq built once)
    let mut evaluator = Evaluator::new(EvalConfig::standard());

    // (a) IndEDA
    let indeda = IndEda::new(IndEdaConfig::for_effort(effort)).run(design).expect("IndEDA failed");
    let m_ind = evaluator.evaluate(design, &indeda);
    println!(
        "\n(a) IndEDA   WL = {:.3} m, peak density = {:.2}",
        m_ind.wirelength_m,
        m_ind.density.peak()
    );
    println!("{}", m_ind.density.to_ascii());

    // (c) HiDaP (printed before handFP to mirror the paper's layout order a/c/b)
    let hidap = HidapFlow::new(hidap_config(effort)).run(design).expect("HiDaP failed");
    let m_hidap = evaluator.evaluate(design, &hidap);
    println!(
        "(c) HiDaP    WL = {:.3} m, peak density = {:.2}",
        m_hidap.wirelength_m,
        m_hidap.density.peak()
    );
    println!("{}", m_hidap.density.to_ascii());

    // (b) handFP proxy
    let (handfp, wl) =
        HandFp::new(HandFpConfig::for_effort(effort)).run(design).expect("handFP failed");
    let m_hand = evaluator.evaluate(design, &handfp);
    println!("(b) handFP   WL = {:.3} m, peak density = {:.2}", wl, m_hand.density.peak());
    println!("{}", m_hand.density.to_ascii());

    // (d) the top block floorplan of HiDaP (the Gdf view).
    println!("(d) HiDaP top-level block floorplan (dataflow blocks):");
    println!("{}", ascii_floorplan(design.die(), &hidap.top_blocks, 64));

    println!(
        "peak cell density:  IndEDA {:.2}   HiDaP {:.2}   handFP {:.2}",
        m_ind.density.peak(),
        m_hidap.density.peak(),
        m_hand.density.peak()
    );
}
