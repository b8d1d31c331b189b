//! The three-flow comparison used by the table experiments.

use baselines::{HandFp, HandFpConfig, IndEda, IndEdaConfig};
use eval::{EvalConfig, Evaluator, PlacementMetrics};
use hidap::{HidapConfig, HidapFlow, MacroPlacement};
use netlist::design::Design;
use placer_core::flows::hidap_config;
use placer_core::{BatchGrid, BatchRunner, EffortLevel, PlaceContext, PlaceRequest};
use std::time::Instant;
use workload::presets::generate_circuit;

/// The scenarios of the table experiments: the paper's c1–c8 stand-ins plus
/// the `large_soc` scale scenario (~90k cells, 200 macros) that exercises the
/// dense data plane and the reused evaluation session at production size.
///
/// The ~1M-cell `mega_soc` scale scenario is deliberately *not* part of the
/// default set (a three-flow comparison at that size takes hours); request it
/// explicitly with `--circuits mega_soc` — `generate_circuit` resolves it —
/// or run `hidap --report` on the emitted `mega_soc` files for one flow at
/// that scale (see `docs/SCALING.md`).
pub const TABLE_SCENARIOS: [&str; 9] =
    ["c1", "c2", "c3", "c4", "c5", "c6", "c7", "c8", "large_soc"];

/// The measured outcome of one flow on one circuit.
#[derive(Debug, Clone, PartialEq)]
pub struct FlowResult {
    /// Flow name (`IndEDA`, `HiDaP`, `handFP`).
    pub flow: String,
    /// Wirelength in meters.
    pub wirelength_m: f64,
    /// Wirelength normalized to the handFP flow of the same circuit.
    pub wl_normalized: f64,
    /// Global-routing overflow percentage.
    pub grc_percent: f64,
    /// Worst negative slack as a percentage of the clock period.
    pub wns_percent: f64,
    /// Total negative slack in nanoseconds.
    pub tns_ns: f64,
    /// Flow runtime in seconds (placement only, excluding evaluation).
    pub runtime_s: f64,
    /// Whether the macro placement is legal.
    pub legal: bool,
}

/// The three-flow comparison for one circuit — one group of rows of Table III.
#[derive(Debug, Clone, PartialEq)]
pub struct CircuitComparison {
    /// Circuit name.
    pub circuit: String,
    /// Number of standard cells + macros in the synthetic stand-in.
    pub cells: usize,
    /// Number of macros.
    pub macros: usize,
    /// Results for IndEDA, HiDaP and handFP (in that order).
    pub results: Vec<FlowResult>,
    /// The λ value that won the best-of-three selection for HiDaP.
    pub hidap_best_lambda: f64,
}

impl CircuitComparison {
    /// The result of a given flow.
    pub fn flow(&self, name: &str) -> Option<&FlowResult> {
        self.results.iter().find(|r| r.flow == name)
    }
}

fn flow_result(
    name: &str,
    design: &Design,
    placement: &MacroPlacement,
    runtime_s: f64,
    evaluator: &mut Evaluator,
) -> (FlowResult, PlacementMetrics) {
    let metrics = evaluator.evaluate(design, placement);
    (
        FlowResult {
            flow: name.to_string(),
            wirelength_m: metrics.wirelength_m,
            wl_normalized: 0.0, // filled once handFP is known
            grc_percent: metrics.grc_percent(),
            wns_percent: metrics.wns_percent(),
            tns_ns: metrics.tns_ns(),
            runtime_s,
            legal: placement.is_legal(design),
        },
        metrics,
    )
}

/// Runs HiDaP once per λ in {0.2, 0.5, 0.8} and keeps the placement with the
/// best measured wirelength, as the paper does ("best WL of three").
///
/// The three λ runs fan out across all cores through the engine's
/// [`BatchRunner`]; the winner is deterministic regardless of thread count.
pub fn hidap_best_of_lambdas(
    design: &Design,
    base: &HidapConfig,
    eval_cfg: &EvalConfig,
) -> Result<(MacroPlacement, f64, f64), hidap::HidapError> {
    let placer = HidapFlow::new(base.clone());
    let grid = BatchGrid::new(vec![base.seed], vec![0.2, 0.5, 0.8]);
    let template = PlaceRequest::new(design).with_evaluation(*eval_cfg);
    let batch = BatchRunner::new()
        .run(&placer, &template, &grid, &mut PlaceContext::new())
        .map_err(|e| match e {
            placer_core::PlaceError::Flow(inner) => inner,
            other => hidap::HidapError::Internal(other.to_string()),
        })?;
    let lambda = batch.winner.lambda.expect("hidap reports lambda");
    Ok((batch.winner.placement, batch.winner_score, lambda))
}

/// Runs the three flows on one of the c1–c8 stand-ins and measures them with
/// the shared evaluation pipeline.
pub fn compare_flows(circuit: &str, effort: EffortLevel) -> CircuitComparison {
    let generated = generate_circuit(circuit);
    compare_flows_on(circuit, &generated.design, effort)
}

/// Runs the three flows on an arbitrary design.
pub fn compare_flows_on(name: &str, design: &Design, effort: EffortLevel) -> CircuitComparison {
    let eval_cfg = EvalConfig::standard();
    // one evaluation session for all three flows: Gseq is built once
    let mut evaluator = Evaluator::new(eval_cfg);

    // IndEDA-style baseline.
    let t = Instant::now();
    let indeda_placement =
        IndEda::new(IndEdaConfig::for_effort(effort)).run(design).expect("IndEDA baseline failed");
    let indeda_time = t.elapsed().as_secs_f64();
    let (mut indeda, _) =
        flow_result("IndEDA", design, &indeda_placement, indeda_time, &mut evaluator);

    // HiDaP, best of three λ.
    let t = Instant::now();
    let (hidap_placement, _, best_lambda) =
        hidap_best_of_lambdas(design, &hidap_config(effort), &eval_cfg).expect("HiDaP flow failed");
    let hidap_time = t.elapsed().as_secs_f64();
    let (mut hidap, _) = flow_result("HiDaP", design, &hidap_placement, hidap_time, &mut evaluator);

    // handFP oracle.
    let t = Instant::now();
    let (handfp_placement, _) =
        HandFp::new(HandFpConfig::for_effort(effort)).run(design).expect("handFP oracle failed");
    let handfp_time = t.elapsed().as_secs_f64();
    let (mut handfp, _) =
        flow_result("handFP", design, &handfp_placement, handfp_time, &mut evaluator);

    // Normalize wirelengths to handFP as in the paper.
    let reference = handfp.wirelength_m.max(1e-12);
    indeda.wl_normalized = indeda.wirelength_m / reference;
    hidap.wl_normalized = hidap.wirelength_m / reference;
    handfp.wl_normalized = 1.0;

    CircuitComparison {
        circuit: name.to_string(),
        cells: design.num_cells(),
        macros: design.num_macros(),
        results: vec![indeda, hidap, handfp],
        hidap_best_lambda: best_lambda,
    }
}

/// Geometric mean of a series (used for Table II wirelength averages).
pub fn geometric_mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let sum_ln: f64 = values.iter().map(|v| v.max(1e-12).ln()).sum();
    (sum_ln / values.len() as f64).exp()
}

/// Parses an `--effort` value: the engine's `fast`, `default` and `high`,
/// plus `paper`, the harness spelling of `high`.
fn parse_effort(s: &str) -> Option<EffortLevel> {
    match s {
        "paper" => Some(EffortLevel::High),
        other => EffortLevel::parse(other),
    }
}

/// Parses `--circuits` / `--effort` style command-line arguments shared by the
/// harness binaries. Returns `(circuits, effort)`; the effort defaults to
/// fast. An unknown `--effort` value exits the process with status 2.
pub fn parse_common_args(args: &[String], default_circuits: &[&str]) -> (Vec<String>, EffortLevel) {
    let mut circuits: Vec<String> = default_circuits.iter().map(|s| s.to_string()).collect();
    let mut effort = EffortLevel::Fast;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--circuits" if i + 1 < args.len() => {
                circuits = args[i + 1].split(',').map(|s| s.trim().to_string()).collect();
                i += 2;
            }
            "--effort" if i + 1 < args.len() => {
                effort = parse_effort(&args[i + 1]).unwrap_or_else(|| {
                    eprintln!(
                        "unknown effort '{}' (expected fast|default|high, or paper)",
                        args[i + 1]
                    );
                    std::process::exit(2)
                });
                i += 2;
            }
            other => {
                eprintln!("ignoring unknown argument '{other}'");
                i += 1;
            }
        }
    }
    (circuits, effort)
}

#[cfg(test)]
mod tests {
    use super::*;
    use geometry::Rect;
    use netlist::design::DesignBuilder;

    fn tiny_design() -> Design {
        let mut b = DesignBuilder::new("tiny");
        let a = b.add_macro("u_a/ram", "RAM", 200, 150, "u_a");
        let c = b.add_macro("u_b/ram", "RAM", 200, 150, "u_b");
        for i in 0..8 {
            let f = b.add_flop(format!("u_x/r_reg[{i}]"), "u_x");
            let n0 = b.add_net(format!("a{i}"));
            let n1 = b.add_net(format!("b{i}"));
            b.connect_driver(n0, a);
            b.connect_sink(n0, f);
            b.connect_driver(n1, f);
            b.connect_sink(n1, c);
        }
        b.set_die(Rect::new(0, 0, 2000, 1500));
        b.build()
    }

    #[test]
    fn compare_flows_on_tiny_design_produces_three_rows() {
        let d = tiny_design();
        let cmp = compare_flows_on("tiny", &d, EffortLevel::Fast);
        assert_eq!(cmp.results.len(), 3);
        assert_eq!(cmp.macros, 2);
        assert!(cmp.results.iter().all(|r| r.legal));
        assert!(cmp.results.iter().all(|r| r.wirelength_m > 0.0));
        let handfp = cmp.flow("handFP").unwrap();
        assert!((handfp.wl_normalized - 1.0).abs() < 1e-9);
        assert!([0.2, 0.5, 0.8].contains(&cmp.hidap_best_lambda));
    }

    #[test]
    fn geometric_mean_basics() {
        assert_eq!(geometric_mean(&[]), 0.0);
        assert!((geometric_mean(&[2.0, 8.0]) - 4.0).abs() < 1e-9);
        assert!((geometric_mean(&[1.0, 1.0, 1.0]) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn table_scenarios_promote_the_scale_scenario() {
        assert!(TABLE_SCENARIOS.contains(&"large_soc"));
        for preset in &workload::presets::PAPER_CIRCUITS {
            assert!(TABLE_SCENARIOS.contains(&preset.name));
        }
    }

    #[test]
    fn effort_parsing() {
        assert_eq!(parse_effort("fast"), Some(EffortLevel::Fast));
        assert_eq!(parse_effort("paper"), Some(EffortLevel::High));
        assert_eq!(parse_effort("bogus"), None);
    }

    #[test]
    fn common_arg_parsing() {
        let args: Vec<String> =
            ["--circuits", "c1,c3", "--effort", "default"].iter().map(|s| s.to_string()).collect();
        let (circuits, effort) = parse_common_args(&args, &["c1"]);
        assert_eq!(circuits, vec!["c1", "c3"]);
        assert_eq!(effort, EffortLevel::Default);
        let (circuits, effort) = parse_common_args(&[], &["c1", "c2"]);
        assert_eq!(circuits, vec!["c1", "c2"]);
        assert_eq!(effort, EffortLevel::Fast);
    }
}
