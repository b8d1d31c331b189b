//! Loading a design the way `hidap` loads it, checking a placed DEF, and
//! the traced in-process run of the cold flow: every layer timed from
//! outside through its public functions, in the order `cli::run` calls
//! them.

use crate::json::Json;
use eval::{EvalConfig, Evaluator, PlacementMetrics};
use geometry::Rect;
use graphs::seqgraph::SeqGraphConfig;
use hidap::HidapConfig;
use netlist::def::PlaceStatus;
use netlist::verilog::ElaborateOptions;
use netlist::{Design, HeapSize};
use placer_core::{EffortLevel, FlowObserver, PlaceContext, PlaceRequest, StageEvent};
use std::io::Write as _;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Instant;

const MIB: f64 = (1u64 << 20) as f64;

/// The leaf spans of the traced cold run, in call order. They do not
/// overlap, so their sum over the traced wall time is the coverage.
const LEAF_SPANS: &[&str] = &[
    "netlist.lef_s",
    "netlist.verilog_s",
    "netlist.def_s",
    "netlist.csr_s",
    "graphs.gnet_s",
    "graphs.gseq_s",
    "hidap.hierarchy_s",
    "hidap.shape_curves_s",
    "hidap.floorplan.top_s",
    "hidap.floorplan.nested_s",
    "hidap.legalize_s",
    "hidap.flipping_s",
    "netlist.def_write_s",
    "eval.cell_place_s",
    "eval.hpwl_s",
    "eval.congestion_s",
    "eval.timing_s",
    "eval.density_s",
];

/// Named wall-clock spans in seconds; a name timed twice accumulates.
#[derive(Debug, Default)]
pub struct Spans(Vec<(&'static str, f64)>);

impl Spans {
    /// Runs `f`, adding its wall time to the span `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.add(name, start.elapsed().as_secs_f64());
        out
    }

    fn add(&mut self, name: &'static str, seconds: f64) {
        match self.0.iter_mut().find(|(n, _)| *n == name) {
            Some((_, total)) => *total += seconds,
            None => self.0.push((name, seconds)),
        }
    }

    fn get(&self, name: &str) -> f64 {
        self.0.iter().find(|(n, _)| *n == name).map_or(0.0, |(_, s)| *s)
    }
}

/// Loads `design.lef`, `design.v` and `design.def` from `dir` exactly as
/// `cli::load_design` does, timing each parser into `spans`. Returns the
/// design and its DBU scale.
pub fn load(dir: &Path, top: &str, spans: &mut Spans) -> Result<(Design, i64), String> {
    let read = |name: &str| {
        std::fs::read_to_string(dir.join(name))
            .map_err(|e| format!("cannot read {}: {e}", dir.join(name).display()))
    };
    let lef = spans.time("netlist.lef_s", || {
        netlist::lef::parse_lef(&read("design.lef")?).map_err(|e| format!("LEF parse error: {e}"))
    })?;
    let mut dbu = lef.dbu_per_micron;
    let options = ElaborateOptions { library: lef.library, ..ElaborateOptions::default() };
    let mut design = spans.time("netlist.verilog_s", || {
        netlist::verilog::parse_verilog(&read("design.v")?, Some(top), &options)
            .map_err(|e| format!("Verilog parse error: {e}"))
    })?;
    spans.time("netlist.def_s", || {
        let def = netlist::def::parse_def(&read("design.def")?)
            .map_err(|e| format!("DEF parse error: {e}"))?;
        if def.dbu_per_micron > 0 {
            dbu = def.dbu_per_micron;
        }
        def.apply_to(&mut design);
        Ok::<_, String>(())
    })?;
    Ok((design, dbu))
}

/// Checks a placed DEF the way a user would read it back: it parses, it
/// holds exactly `macros` components, and every one is FIXED with its
/// LEF footprint inside the die.
pub fn check_def(lef: &Path, def: &Path, macros: usize) -> Result<Json, String> {
    let read = |path: &Path| {
        std::fs::read_to_string(path).map_err(|e| format!("cannot read {}: {e}", path.display()))
    };
    let library =
        netlist::lef::parse_lef(&read(lef)?).map_err(|e| format!("LEF parse error: {e}"))?.library;
    let mut problems = Vec::new();
    match netlist::def::parse_def(&read(def)?) {
        Err(e) => problems.push(format!("placed DEF does not parse: {e}")),
        Ok(placed) => {
            if placed.components.len() != macros {
                problems
                    .push(format!("{} components for {macros} macros", placed.components.len()));
            }
            for c in &placed.components {
                let Some(master) = library.find_macro(&c.cell) else {
                    problems.push(format!("{} has unknown master {}", c.name, c.cell));
                    continue;
                };
                let (w, h) = c.orientation.transformed_size(master.width, master.height);
                if c.status != PlaceStatus::Fixed {
                    problems.push(format!("{} is not FIXED", c.name));
                } else if !placed.die.contains_rect(&Rect::from_size(
                    c.location.x,
                    c.location.y,
                    w,
                    h,
                )) {
                    problems.push(format!("{} lies outside the die", c.name));
                }
            }
        }
    }
    let count = problems.len();
    problems.truncate(5);
    Ok(Json::object(vec![
        ("ok", Json::from(count == 0)),
        ("problems", Json::from(count)),
        ("first", Json::Array(problems.into_iter().map(Json::Str).collect())),
    ]))
}

/// Timestamps every stage event of a flow run.
#[derive(Default)]
struct Timeline(Mutex<Vec<(Instant, StageEvent)>>);

impl FlowObserver for Timeline {
    fn on_event(&self, event: &StageEvent) {
        let now = Instant::now();
        self.0.lock().expect("timeline lock").push((now, event.clone()));
    }
}

/// Clock-free work counts of one flow run, read off its stage events.
#[derive(Default)]
struct FlowCounts {
    curves: usize,
    levels: usize,
    blocks: usize,
    moved: usize,
    flipped: usize,
    max_level_s: f64,
}

/// Splits a flow run into stage spans: each span runs from the previous
/// event to its own, so a level's span covers that level's declustering,
/// target areas, dataflow and layout.
fn flow_spans(events: &[(Instant, StageEvent)], spans: &mut Spans) -> FlowCounts {
    let mut counts = FlowCounts::default();
    let mut prev: Option<Instant> = None;
    for (at, event) in events {
        let span = prev.map_or(0.0, |p| at.duration_since(p).as_secs_f64());
        match event {
            StageEvent::HierarchyBuilt { .. } => spans.add("hidap.hierarchy_s", span),
            StageEvent::ShapeCurvesReady { curves } => {
                spans.add("hidap.shape_curves_s", span);
                counts.curves = *curves;
            }
            StageEvent::LevelFloorplanned { depth, blocks, .. } => {
                let name =
                    if *depth == 0 { "hidap.floorplan.top_s" } else { "hidap.floorplan.nested_s" };
                spans.add(name, span);
                counts.levels += 1;
                counts.blocks += blocks;
                counts.max_level_s = counts.max_level_s.max(span);
            }
            StageEvent::LegalizationDone { moved } => {
                spans.add("hidap.legalize_s", span);
                counts.moved = *moved;
            }
            StageEvent::FlippingDone { flipped } => {
                spans.add("hidap.flipping_s", span);
                counts.flipped = *flipped;
            }
            StageEvent::FlowStarted { .. }
            | StageEvent::FlowFinished { .. }
            | StageEvent::BatchRunStarted { .. }
            | StageEvent::BatchRunFinished { .. } => {}
        }
        prev = Some(*at);
    }
    counts
}

/// The `--report` lines `cli::run` prints for a placement and its metrics.
fn report_lines(
    design: &Design,
    dbu: i64,
    placement: &hidap::MacroPlacement,
    metrics: &PlacementMetrics,
) -> String {
    format!(
        "placed {} macros on a {:.1} x {:.1} um die (legal: {})\nwirelength: {:.4} m\n\
         congestion (GRC%): {:.2}\nWNS: {:.2}% of clock\nTNS: {:.1} ns\npeak cell density: {:.2}\n",
        placement.macros.len(),
        design.die().width() as f64 / dbu as f64,
        design.die().height() as f64 / dbu as f64,
        placement.is_legal(design),
        metrics.wirelength_m,
        metrics.grc_percent(),
        metrics.wns_percent(),
        metrics.tns_ns(),
        metrics.density.peak(),
    )
}

/// The traced cold run of `hidap --effort fast --out --report` on the
/// inputs in `dir`, writing the placed DEF to `def_out`:
///
/// 1. `parse_lef`, `parse_verilog`, `parse_def` + `apply_to`;
/// 2. `Design::connectivity`;
/// 3. `Gnet` and `Gseq` built on the placer's context, so graph builds get
///    their own spans instead of counting as hierarchy time;
/// 4. `Placer::place` with an observer timestamping every stage event;
/// 5. `write_def_to`;
/// 6. the report's fresh `Evaluator`, split into its parts.
///
/// The split metrics are asserted equal to `Evaluator::evaluate` after the
/// traced region ends.
pub fn trace_cold(dir: &Path, top: &str, def_out: &Path) -> Result<Json, String> {
    let mut spans = Spans(LEAF_SPANS.iter().map(|&name| (name, 0.0)).collect());
    let start = Instant::now();

    let (design, dbu) = load(dir, top, &mut spans)?;
    spans.time("netlist.csr_s", || design.connectivity());

    let timeline = Arc::new(Timeline::default());
    let mut ctx = PlaceContext::new().with_observer(timeline.clone());
    let seq_config = SeqGraphConfig { min_register_bits: HidapConfig::fast().min_register_bits };
    spans.time("graphs.gnet_s", || ctx.artifacts().get_or_build_net(&design));
    spans.time("graphs.gseq_s", || ctx.artifacts().get_or_build_seq(&design, &seq_config));
    let placer = baselines::default_registry().create("hidap").map_err(|e| e.to_string())?;
    let request =
        PlaceRequest::new(&design).with_seed(1).with_effort(EffortLevel::Fast).with_lambda(0.5);
    let outcome = placer.place(&request, &mut ctx).map_err(|e| format!("placement failed: {e}"))?;
    let events = std::mem::take(&mut *timeline.0.lock().expect("timeline lock"));
    let flow = flow_spans(&events, &mut spans);
    let placement = &outcome.placement;

    spans
        .time("netlist.def_write_s", || {
            let entries = netlist::def::placement_entries_from_view(&design, placement, true);
            let pins = netlist::def::port_entries(&design);
            let mut out = std::io::BufWriter::new(std::fs::File::create(def_out)?);
            netlist::def::write_def_to(
                &mut out,
                design.name(),
                dbu,
                design.die(),
                &entries,
                &pins,
            )?;
            out.flush()
        })
        .map_err(|e| format!("cannot write {}: {e}", def_out.display()))?;

    let config = EvalConfig { dbu_per_micron: dbu, ..EvalConfig::standard() };
    let evaluator = Evaluator::new(config);
    spans.time("graphs.gnet_s", || evaluator.cache().get_or_build_net(&design));
    let gseq = spans.time("graphs.gseq_s", || evaluator.seq_graph(&design));
    let cells = spans.time("eval.cell_place_s", || {
        eval::place_standard_cells(&design, placement, &config.placer)
    });
    let hpwl = spans.time("eval.hpwl_s", || eval::total_hpwl(&design, &cells));
    let congestion = spans.time("eval.congestion_s", || {
        eval::congestion::estimate_congestion(&design, &cells, placement, &config.congestion)
    });
    let timing = spans.time("eval.timing_s", || {
        eval::timing::estimate_timing(&design, &gseq, &cells, &config.timing)
    });
    let density = spans.time("eval.density_s", || {
        eval::DensityMap::compute(&design, &cells, placement, config.density_bins)
    });
    let wall_s = start.elapsed().as_secs_f64();

    let split = PlacementMetrics {
        wirelength_m: hpwl.meters(dbu),
        hpwl,
        congestion,
        timing,
        density,
        cell_placement: cells,
    };
    // untimed: the split must be exactly what the CLI's evaluator computes
    let direct = Evaluator::new(config).evaluate(&design, placement);
    if direct != split {
        return Err("the split evaluation differs from Evaluator::evaluate".into());
    }

    let placer_graphs = ctx.artifacts().stats();
    let report_graphs = evaluator.cache().stats();
    let floorplan_s = spans.get("hidap.floorplan.top_s") + spans.get("hidap.floorplan.nested_s");
    let covered_s: f64 = LEAF_SPANS.iter().map(|name| spans.get(name)).sum();
    let mut metrics: Vec<(&str, Json)> =
        spans.0.iter().map(|&(name, seconds)| (name, Json::from(seconds))).collect();
    metrics.extend([
        ("hidap.floorplan_s", Json::from(floorplan_s)),
        ("hidap.floorplan.max_level_s", Json::from(flow.max_level_s)),
        ("hidap.shape_curves.curves", Json::from(flow.curves)),
        ("hidap.floorplan.levels", Json::from(flow.levels)),
        ("hidap.floorplan.blocks", Json::from(flow.blocks)),
        ("hidap.legalize.moved", Json::from(flow.moved)),
        ("hidap.flipping.flipped", Json::from(flow.flipped)),
        ("graphs.gnet_builds", Json::from(placer_graphs.net.misses + report_graphs.net.misses)),
        ("graphs.gseq_builds", Json::from(placer_graphs.seq.misses + report_graphs.seq.misses)),
        ("netlist.cells", Json::from(design.num_cells())),
        ("netlist.pins", Json::from(design.connectivity().num_pins())),
        ("netlist.macros", Json::from(design.num_macros())),
        ("netlist.design_mib", Json::from(design.resident_bytes() as f64 / MIB)),
        ("eval.wns_pct", Json::from(split.wns_percent())),
        ("eval.tns_ns", Json::from(split.tns_ns())),
    ]);
    Ok(Json::object(vec![
        ("wall_s", Json::from(wall_s)),
        ("covered_s", Json::from(covered_s)),
        ("metrics", Json::object(metrics)),
        ("report", Json::Str(report_lines(&design, dbu, placement, &split))),
    ]))
}
