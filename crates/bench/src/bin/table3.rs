//! Regenerates Table III of the paper: per-circuit wirelength, congestion and
//! timing for the three flows (IndEDA stand-in, HiDaP, handFP proxy).
//!
//! The default scenario list is [`bench::experiments::TABLE_SCENARIOS`]:
//! the paper's c1–c8 stand-ins plus the `large_soc` scale scenario (~90k
//! cells, 200 macros — expect minutes for that row even at fast effort).
//!
//! ```text
//! cargo run --release -p bench --bin table3 -- [--circuits c1,c2,large_soc] [--effort fast|default|high]
//! ```

use bench::experiments::{compare_flows, parse_common_args, TABLE_SCENARIOS};
use bench::report::{comparisons_json, format_table3};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (circuits, effort) = parse_common_args(&args, &TABLE_SCENARIOS);

    println!("# Table III reproduction — effort {effort:?}");
    println!(
        "# (synthetic c1-c8 stand-ins; macro counts match the paper, cell counts are scaled)\n"
    );

    let mut comparisons = Vec::new();
    for circuit in &circuits {
        eprintln!("running {circuit} ...");
        let cmp = compare_flows(circuit, effort);
        println!("{}", format_table3(std::slice::from_ref(&cmp)));
        comparisons.push(cmp);
    }

    println!("# full table\n{}", format_table3(&comparisons));
    let json = comparisons_json(&comparisons);
    let path = "table3_results.json";
    if std::fs::write(path, json).is_ok() {
        println!("# raw results written to {path}");
    }
}
