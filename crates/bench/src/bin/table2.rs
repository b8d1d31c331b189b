//! Regenerates Table II of the paper: average (geometric-mean) wirelength
//! normalized to handFP, average WNS, and the effort of each flow.
//!
//! ```text
//! cargo run --release -p bench --bin table2 -- [--circuits c1,c2] [--effort fast|default|high]
//! ```

use bench::experiments::{compare_flows, parse_common_args};
use bench::report::{format_table2, format_table3};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let all = ["c1", "c2", "c3", "c4", "c5", "c6", "c7", "c8"];
    let (circuits, effort) = parse_common_args(&args, &all);

    println!("# Table II reproduction — effort {effort:?}\n");
    let mut comparisons = Vec::new();
    for circuit in &circuits {
        eprintln!("running {circuit} ...");
        comparisons.push(compare_flows(circuit, effort));
    }

    println!("{}", format_table2(&comparisons));
    println!("# paper reference: IndEDA 1.143 / -39.1%  |  HiDaP 1.013 / -24.6%  |  handFP 1.000 / -17.9%");
    println!("\n# per-circuit detail\n{}", format_table3(&comparisons));
}
