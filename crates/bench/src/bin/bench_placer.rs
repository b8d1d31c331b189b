//! Dense-data-plane macrobench at `large_soc` scale, in three parts:
//!
//! 1. analytical-placer sweeps + HPWL, hash-map stores vs the dense CSR path
//!    (the PR-2 comparison, preserved),
//! 2. `evaluator_reuse`: a 16-candidate evaluation sweep through the
//!    pre-session one-shot pipeline preserved in
//!    `bench::reference::evaluate_placement_reference` (one `to_map()`, one
//!    rescan-sweep placement and one fresh `Gseq` per candidate) vs a reused
//!    [`eval::Evaluator`] session (incremental-sum placer sweeps, one `Gseq`
//!    for the whole sweep, serial and per-worker-clone parallel variants),
//! 3. `service_reuse`: a fleet of distinct designs placed **twice** through
//!    one [`placer_core::PlacementService`] — the cold pass builds every
//!    per-design `Gseq` into the store's shared artifact cache, the warm
//!    pass reuses them (asserted in-process through the cache-hit
//!    counters), and the serial warm/cold timing ratio measures the
//!    artifact reuse,
//! 4. `artifact_reuse`: the full design-store lifecycle on a fresh service —
//!    a **cold** pass (every `Gnet` and `Gseq` built), a **warm** pass
//!    (asserted in-process to perform zero `NetGraph` *and* zero `SeqGraph`
//!    builds — the CI gate), then every design **released, evicted and
//!    re-interned** and a rebuilt pass run from empty caches. A fourth
//!    **revived** pass repeats the lifecycle on a spill-dir-backed store
//!    (`docs/MEMORY.md`): eviction demotes every graph to disk, and the
//!    pass after re-interning is asserted in-process
//!    to perform zero graph rebuilds — every miss served by
//!    deserialization. Placements and metrics must be bit-identical
//!    across all four passes (eviction changes timing, never results).
//! 5. `serve_session`: the same N-job fleet scripted through the
//!    `hidap --serve` daemon loop (`crates/server`), cold session vs warm
//!    session against one live daemon, with every `job-done` frame's
//!    metrics asserted bit-identical to direct `PlacementService`
//!    execution — the wire adds overhead, never drift.
//!
//! 6. `eco_incremental`: the ECO re-place loop — place one design, resize
//!    one macro (a pure-geometry edit), then re-place cold vs warm through
//!    a `replace` job. The warm job rebuilds zero graphs and its result is
//!    asserted bit-identical to the warm flow run directly in process; the
//!    cold/warm floors give the measured ECO speedup.
//!
//! 7. `--scale-sweep`: the million-cell scale axis — each scale point is
//!    generated, emitted to Verilog/LEF/DEF text, re-parsed through the
//!    streaming parsers, placed and measured (parse ms, place ms, HPWL ms,
//!    resident bytes via `HeapSize`), with the dense result asserted
//!    bit-identical to the preserved `bench::reference` hash-map path at
//!    every point. Lands as the `scale_curve` array in the JSON. Scale 12
//!    is the `mega_soc` preset (~1M cells); `--quick` sweeps small scales
//!    only (the CI shape), `--scales 0.5,2` overrides the list.
//!
//! All parts cross-check that the before/after paths produce bit-identical
//! results, and the timings land in `BENCH_placer.json` (`--quick` writes
//! the uncommitted `BENCH_placer.quick.json`, `--out` overrides either, and
//! an unknown argument or an unparsable value exits 2). Warm/cold ratios
//! are measured **floor against floor**: a store is only cold once, but
//! fresh stores are cheap, so the cold time is the minimum over N fresh
//! services and the warm time the minimum over N repeats on the survivor.
//! The ratios are asserted ≥ 1.0 — a warm pass does strictly less work, so
//! only a measurement-structure bug can lose.
//!
//! ```text
//! cargo run --release -p bench --bin bench_placer            # full large_soc
//! cargo run --release -p bench --bin bench_placer -- --scale 0.25 --repeats 5
//! cargo run --release -p bench --bin bench_placer -- --quick # CI-sized run
//! cargo run --release -p bench --bin bench_placer -- --scale-sweep   # + curve
//! ```

use bench::reference::{place_standard_cells_hashmap, to_dense, total_hpwl_hashmap};
use eval::{place_standard_cells, total_hpwl, EvalConfig, Evaluator, PlacerConfig};
use geometry::{Orientation, Point};
use hidap::{MacroPlacement, PlacedMacro};
use netlist::design::{CellId, Design};
use placer_core::{EffortLevel, JobId, JobResult, PlaceJob, PlaceRequest, PlacementService};
use std::collections::HashMap;
use std::time::Instant;
use workload::presets::{large_soc_config, service_fleet};
use workload::SocGenerator;

/// A deterministic macro grid placement (the bench measures the evaluation
/// substrate, not macro placement, so a cheap legal-ish grid is enough).
/// `rotation` shifts which macro lands in which grid slot, producing distinct
/// sweep candidates from the same grid.
fn grid_macro_placement(design: &Design, rotation: usize) -> MacroPlacement {
    let die = design.die();
    let macros: Vec<CellId> = design.macros().collect();
    let cols = (macros.len() as f64).sqrt().ceil() as i64;
    let mut placement = MacroPlacement::default();
    for (i, &m) in macros.iter().enumerate() {
        let cell = design.cell(m);
        let slot = (i + rotation) % macros.len();
        let col = slot as i64 % cols;
        let row = slot as i64 / cols;
        let x = (die.llx + col * die.width() / cols).min(die.urx - cell.width).max(die.llx);
        let y = (die.lly + row * die.height() / cols).min(die.ury - cell.height).max(die.lly);
        placement.macros.push(PlacedMacro {
            cell: m,
            location: Point::new(x, y),
            orientation: Orientation::N,
        });
    }
    placement
}

fn median(samples: &mut [f64]) -> f64 {
    samples.sort_by(|a, b| a.total_cmp(b));
    samples[samples.len() / 2]
}

/// One point on the scale curve: the full text-to-metrics pipeline at one
/// workload scale.
struct ScalePoint {
    scale: f64,
    cells: usize,
    nets: usize,
    macros: usize,
    gen_ms: f64,
    parse_ms: f64,
    place_ms: f64,
    hpwl_ms: f64,
    parse_bytes: usize,
    peak_bytes: usize,
}

/// Ceiling on the streaming parsers' per-cell resident cost (the parsed
/// `Design`'s `heap_bytes` over its cell count, its CSR wiring included).
/// Small designs carry fixed overheads, so the bound is calibrated against
/// the quick scales (~266 B/cell at 0.05, falling with scale) and holds
/// with ≥2x headroom at every measured point;
/// a regression in the parsers' compaction (owned-token vectors, per-name
/// `String`s) blows past it immediately.
const PARSE_BYTES_PER_CELL_CEILING: usize = 600;

/// Generates `large_soc_config(scale)`, emits it to Verilog/LEF/DEF text,
/// re-parses it through the streaming parsers, places it on the dense path
/// and cross-checks every result against the preserved
/// `bench::reference` hash-map pipeline — the same end-to-end shape a user
/// runs, measured at one scale.
fn sweep_point(scale: f64) -> ScalePoint {
    use netlist::HeapSize;

    eprintln!("scale sweep: generating scale {scale} ...");
    let t = Instant::now();
    let generated = SocGenerator::new(large_soc_config(scale)).generate();
    let verilog = workload::emit::emit_verilog(&generated.design);
    let lef = workload::emit::emit_lef(&generated.design, &generated.library, 1000);
    let def = workload::emit::emit_def(&generated.design, 1000, &HashMap::new());
    let gen_s = t.elapsed().as_secs_f64();

    eprintln!(
        "scale sweep: parsing {:.1} MiB of Verilog ...",
        verilog.len() as f64 / (1u64 << 20) as f64
    );
    let t = Instant::now();
    let lef_file = netlist::lef::parse_lef(&lef).expect("emitted LEF parses");
    let elaborate =
        netlist::verilog::ElaborateOptions { library: lef_file.library, ..Default::default() };
    let mut design = netlist::verilog::parse_verilog(&verilog, None, &elaborate)
        .expect("emitted Verilog parses");
    netlist::def::parse_def(&def).expect("emitted DEF parses").apply_to(&mut design);
    let parse_s = t.elapsed().as_secs_f64();
    let parse_bytes = design.heap_bytes();

    // the parsed design is the generated design: same id families, same die
    assert_eq!(design.num_cells(), generated.design.num_cells(), "cell count drifts");
    assert_eq!(design.num_nets(), generated.design.num_nets(), "net count drifts");
    assert_eq!(design.num_macros(), generated.design.num_macros(), "macro count drifts");
    assert_eq!(design.num_ports(), generated.design.num_ports(), "port count drifts");
    assert_eq!(design.die(), generated.design.die(), "die drifts through the DEF");
    drop(generated);

    let cells = design.num_cells();
    assert!(
        parse_bytes <= cells * PARSE_BYTES_PER_CELL_CEILING,
        "parsed design costs {} bytes for {cells} cells ({} B/cell) — over the \
         {PARSE_BYTES_PER_CELL_CEILING} B/cell streaming-parser ceiling",
        parse_bytes,
        parse_bytes / cells.max(1)
    );

    eprintln!("scale sweep: placing {cells} cells ...");
    let base = grid_macro_placement(&design, 0);
    let cfg = PlacerConfig::default();
    let t = Instant::now();
    let dense = place_standard_cells(&design, &base, &cfg);
    let place_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let wl = total_hpwl(&design, &dense);
    let hpwl_s = t.elapsed().as_secs_f64();
    // design + name tables + CSR, the resident footprint of the point
    let peak_bytes = design.heap_bytes();

    // every point on the curve is bit-identical to the preserved hash-map
    // reference — scaling up never buys a different answer
    let reference = place_standard_cells_hashmap(&design, &base.to_map(), &cfg);
    assert_eq!(
        total_hpwl_hashmap(&design, &reference),
        wl,
        "dense and reference HPWL disagree at scale {scale}"
    );
    assert_eq!(
        to_dense(&design, &reference),
        dense,
        "dense and reference placements disagree at scale {scale}"
    );

    ScalePoint {
        scale,
        cells,
        nets: design.num_nets(),
        macros: design.num_macros(),
        gen_ms: gen_s * 1e3,
        parse_ms: parse_s * 1e3,
        place_ms: place_s * 1e3,
        hpwl_ms: hpwl_s * 1e3,
        parse_bytes,
        peak_bytes,
    }
}

const USAGE: &str = "usage: bench_placer [--quick] [--scale <f>] [--repeats <n>] \
[--candidates <n>] [--scale-sweep] [--scales <f,f,...>] [--out <file>] [--spill-dir <dir>]";

/// Prints `msg` and the usage, then exits 2.
fn usage_error(msg: &str) -> ! {
    eprintln!("bench_placer: {msg}\n{USAGE}");
    std::process::exit(2);
}

/// The parsed value of `flag`, or a usage error.
fn value<T: std::str::FromStr>(flag: &str, value: Option<String>) -> T {
    let Some(v) = value else { usage_error(&format!("{flag} needs a value")) };
    v.parse().unwrap_or_else(|_| usage_error(&format!("invalid {flag} value '{v}'")))
}

fn main() {
    let mut args = std::env::args().skip(1);
    let mut scale = 1.0f64;
    let mut repeats = 3usize;
    let mut candidates = 16usize;
    let mut out_path: Option<String> = None;
    let mut quick = false;
    let mut spill_dir_arg: Option<std::path::PathBuf> = None;
    let mut scale_sweep = false;
    let mut sweep_scales: Option<Vec<f64>> = None;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--scale" => scale = value("--scale", args.next()),
            "--repeats" => repeats = value::<usize>("--repeats", args.next()).max(1),
            "--candidates" => candidates = value::<usize>("--candidates", args.next()).max(1),
            "--quick" => {
                // CI-sized run: the same equality checks on a small design
                quick = true;
                scale = 0.05;
                repeats = 1;
                candidates = 4;
            }
            "--scale-sweep" => scale_sweep = true,
            "--scales" => {
                let list: String = value("--scales", args.next());
                sweep_scales = Some(
                    list.split(',').map(|s| value("--scales", Some(s.trim().into()))).collect(),
                );
            }
            "--out" => out_path = Some(value("--out", args.next())),
            // scratch directory for the artifact-revive pass; defaults to a
            // per-process temp dir, wiped before each round
            "--spill-dir" => {
                spill_dir_arg = Some(value::<String>("--spill-dir", args.next()).into())
            }
            other => usage_error(&format!("unknown argument '{other}'")),
        }
    }
    // the committed BENCH_placer.json is the full run's; a quick run never
    // overwrites it unless asked to
    let out_path = out_path.unwrap_or_else(|| {
        if quick { "BENCH_placer.quick.json" } else { "BENCH_placer.json" }.to_string()
    });
    // warm timings are min-of-N; the quick run leans on more repeats to
    // beat scheduler noise on a small design
    let warm_passes = if quick { 5 } else { 3 };

    eprintln!("generating large_soc (scale {scale}) ...");
    let generated = SocGenerator::new(large_soc_config(scale)).generate();
    let design = &generated.design;
    let csr = design.connectivity();
    eprintln!(
        "design: {} cells, {} nets ({} pins), {} macros",
        design.num_cells(),
        design.num_nets(),
        csr.num_pins(),
        design.num_macros()
    );
    let base_placement = grid_macro_placement(design, 0);
    let mp = base_placement.to_map();
    let cfg = PlacerConfig::default();

    // --- hash-map reference ------------------------------------------------
    let mut hashmap_place_s = Vec::new();
    let mut hashmap_hpwl_s = Vec::new();
    let mut reference = HashMap::new();
    for _ in 0..repeats {
        let t = Instant::now();
        reference = place_standard_cells_hashmap(design, &mp, &cfg);
        hashmap_place_s.push(t.elapsed().as_secs_f64());
        let t = Instant::now();
        let _ = total_hpwl_hashmap(design, &reference);
        hashmap_hpwl_s.push(t.elapsed().as_secs_f64());
    }
    let wl_reference = total_hpwl_hashmap(design, &reference);

    // --- dense CSR path ----------------------------------------------------
    let mut dense_place_s = Vec::new();
    let mut dense_hpwl_s = Vec::new();
    let mut dense = eval::CellPlacement::default();
    for _ in 0..repeats {
        let t = Instant::now();
        dense = place_standard_cells(design, &base_placement, &cfg);
        dense_place_s.push(t.elapsed().as_secs_f64());
        let t = Instant::now();
        let _ = total_hpwl(design, &dense);
        dense_hpwl_s.push(t.elapsed().as_secs_f64());
    }
    let wl_dense = total_hpwl(design, &dense);

    // --- cross-check: both paths must agree bit for bit --------------------
    assert_eq!(wl_reference, wl_dense, "hashmap and dense HPWL disagree");
    assert_eq!(to_dense(design, &reference), dense, "hashmap and dense placements disagree");

    let hm_place = median(&mut hashmap_place_s);
    let hm_hpwl = median(&mut hashmap_hpwl_s);
    let dn_place = median(&mut dense_place_s);
    let dn_hpwl = median(&mut dense_hpwl_s);
    let speedup_place = hm_place / dn_place.max(1e-12);
    let speedup_hpwl = hm_hpwl / dn_hpwl.max(1e-12);
    let speedup_total = (hm_place + hm_hpwl) / (dn_place + dn_hpwl).max(1e-12);

    println!(
        "placer sweep: hashmap {:.1} ms, dense {:.1} ms ({speedup_place:.2}x)",
        hm_place * 1e3,
        dn_place * 1e3
    );
    println!(
        "HPWL:         hashmap {:.2} ms, dense {:.2} ms ({speedup_hpwl:.2}x)",
        hm_hpwl * 1e3,
        dn_hpwl * 1e3
    );
    println!(
        "combined speedup: {speedup_total:.2}x (HPWL {} DBU over {} nets)",
        wl_dense.dbu, wl_dense.routed_nets
    );

    // --- evaluator reuse: one-shot baseline vs reused session --------------
    //
    // Three shapes of the same 16-candidate sweep:
    //  * one-shot — the pre-session `evaluate_placement` preserved verbatim
    //    in `bench::reference` (the call shape every bench binary used): one
    //    `to_map()` HashMap, one rescan-sweep standard-cell placement and
    //    one freshly built Gseq per candidate;
    //  * session (serial) — one `Evaluator`, candidates as `PlacementView`s:
    //    the map and Gseq rebuilds disappear and the placer sweep runs on
    //    incrementally maintained per-net sums;
    //  * session (parallel) — `Evaluator` is `Clone + Send` around a shared
    //    `ArtifactCache`, so per-worker clones fan the sweep across all
    //    cores while still building one Gseq total (the shape `BatchRunner`
    //    uses). The old boundary had no shareable session to clone.
    let sweep: Vec<MacroPlacement> =
        (0..candidates).map(|c| grid_macro_placement(design, c * 7 + 1)).collect();
    let eval_cfg = EvalConfig::standard();

    eprintln!("evaluator sweep: {candidates} candidates, one-shot path ...");
    let t = Instant::now();
    let oneshot_metrics: Vec<_> = sweep
        .iter()
        .map(|candidate| {
            // the pre-session boundary: a map per candidate, a Gseq per call
            bench::reference::evaluate_placement_reference(design, &candidate.to_map(), &eval_cfg)
        })
        .collect();
    let oneshot_s = t.elapsed().as_secs_f64();

    eprintln!("evaluator sweep: {candidates} candidates, reused session (serial) ...");
    let mut evaluator = Evaluator::new(eval_cfg);
    let t = Instant::now();
    let reused_metrics: Vec<_> =
        sweep.iter().map(|candidate| evaluator.evaluate(design, candidate)).collect();
    let reused_s = t.elapsed().as_secs_f64();

    let workers = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    eprintln!("evaluator sweep: {candidates} candidates, reused session ({workers} workers) ...");
    let session = Evaluator::new(eval_cfg);
    let t = Instant::now();
    let parallel_metrics = {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let next = AtomicUsize::new(0);
        let slots: Vec<_> = sweep.iter().map(|_| std::sync::Mutex::new(None)).collect();
        std::thread::scope(|scope| {
            for _ in 0..workers.min(sweep.len()) {
                // per-worker clones share one ArtifactCache: one Gseq total
                let mut worker = session.clone();
                let next = &next;
                let slots = &slots;
                let sweep = &sweep;
                scope.spawn(move || loop {
                    let i = next.fetch_add(1, Ordering::SeqCst);
                    let Some(candidate) = sweep.get(i) else { break };
                    let metrics = worker.evaluate(design, candidate);
                    *slots[i].lock().expect("metrics slot") = Some(metrics);
                });
            }
        });
        slots
            .into_iter()
            .map(|slot| slot.into_inner().expect("metrics slot").expect("every candidate ran"))
            .collect::<Vec<_>>()
    };
    let parallel_s = t.elapsed().as_secs_f64();

    // fixed-seed metrics must be bit-identical across all three paths
    for ((one, reused), parallel) in
        oneshot_metrics.iter().zip(&reused_metrics).zip(&parallel_metrics)
    {
        assert_eq!(one, reused, "one-shot and serial-session metrics disagree");
        assert_eq!(one, parallel, "one-shot and parallel-session metrics disagree");
    }
    let speedup_eval = oneshot_s / reused_s.max(1e-12);
    let speedup_parallel = oneshot_s / parallel_s.max(1e-12);
    println!(
        "evaluator sweep ({candidates} candidates): one-shot {:.1} ms, session {:.1} ms \
         ({speedup_eval:.2}x), session x{workers} workers {:.1} ms ({speedup_parallel:.2}x)",
        oneshot_s * 1e3,
        reused_s * 1e3,
        parallel_s * 1e3
    );

    // --- service reuse: a fleet placed twice through one service -----------
    //
    // N distinct designs, each placed once per pass (hidap fast, full
    // evaluation) through a single `PlacementService`. The cold pass builds
    // every per-design `Gseq` into the store's shared LRU; the warm pass
    // resubmits the same jobs and reuses them. The serial warm/cold ratio is
    // the measured benefit of store-owned artifacts; results must be
    // bit-identical (shared caches change timing, never outcomes).
    let fleet_size = 3usize;
    let fleet_scale = scale.clamp(0.05, 1.0);
    eprintln!(
        "service reuse: generating a fleet of {fleet_size} designs (scale {fleet_scale}) ..."
    );
    let fleet: Vec<Design> =
        service_fleet(fleet_size, fleet_scale).into_iter().map(|g| g.design).collect();

    fn run_fleet_pass(
        service: &mut PlacementService,
        handles: &[placer_core::DesignHandle],
        eval_cfg: EvalConfig,
    ) -> (Vec<JobResult>, f64) {
        let jobs: Vec<JobId> = handles
            .iter()
            .map(|&h| {
                service.submit(
                    PlaceJob::new(h, "hidap")
                        .with_effort(EffortLevel::Fast)
                        .with_evaluation(eval_cfg),
                )
            })
            .collect();
        let t = Instant::now();
        service.run_all();
        let elapsed = t.elapsed().as_secs_f64();
        let results = jobs
            .into_iter()
            .map(|j| service.take_result(j).expect("job ran").expect("job succeeded"))
            .collect();
        (results, elapsed)
    }

    // A store is only cold once, but fresh stores are cheap. Each round
    // runs a cold pass on a fresh service and a warm pass on that same
    // service back to back — paired samples share ambient noise — and both
    // timings keep their minimum. Rounds continue past the `warm_passes`
    // floor (up to 5x) until the warm floor dips under the cold floor: the
    // warm pass does strictly less work, so its true floor IS lower, and
    // on a noisy box extra rounds separate the floors instead of flaking.
    eprintln!("service reuse: paired cold/warm passes ({warm_passes}+ rounds) ...");
    let mut service = PlacementService::new(baselines::default_registry());
    let mut handles: Vec<placer_core::DesignHandle> =
        fleet.iter().map(|d| service.intern(d.clone())).collect();
    let mut cold_results = Vec::new();
    let mut warm_results = Vec::new();
    let mut cold_s = f64::INFINITY;
    let mut warm_s = f64::INFINITY;
    for round in 1..=warm_passes * 5 {
        if round > 1 {
            service = PlacementService::new(baselines::default_registry());
            handles = fleet.iter().map(|d| service.intern(d.clone())).collect();
        }
        let (results, s) = run_fleet_pass(&mut service, &handles, eval_cfg);
        cold_results = results;
        cold_s = cold_s.min(s);
        assert_eq!(
            service.store().artifacts().stats().seq.misses as usize,
            fleet_size,
            "cold pass builds one Gseq per design"
        );
        let (results, s) = run_fleet_pass(&mut service, &handles, eval_cfg);
        warm_results = results;
        warm_s = warm_s.min(s);
        if round >= warm_passes && warm_s <= cold_s {
            break;
        }
    }
    let seq_built = service.store().artifacts().stats().seq.misses;
    let seq_reused = service.store().artifacts().stats().seq.hits;
    // the warm-cache pass must actually reuse the stored SeqGraphs, and
    // rebuild nothing (miss counter frozen at the cold count) — this gate
    // runs before the JSON artifact is written/uploaded
    assert!(seq_reused > 0, "warm pass must hit the store's SeqGraph cache (hits = {seq_reused})");
    assert_eq!(seq_built as usize, fleet_size, "warm pass must not rebuild any graph");
    for (cold, warm) in cold_results.iter().zip(&warm_results) {
        assert_eq!(
            cold.outcome.placement, warm.outcome.placement,
            "cold and warm placements disagree"
        );
        assert_eq!(cold.outcome.metrics, warm.outcome.metrics, "cold and warm metrics disagree");
    }
    let speedup_service = cold_s / warm_s.max(1e-12);
    assert!(
        speedup_service >= 1.0,
        "a warm pass does strictly less work than the cold pass, yet measured \
         {speedup_service:.3}x (cold floor {cold_s:.4}s vs warm floor {warm_s:.4}s)"
    );
    println!(
        "service reuse ({fleet_size} designs x2): cold {:.1} ms, warm {:.1} ms \
         ({speedup_service:.2}x, {seq_built} Gseq built, {seq_reused} reused)",
        cold_s * 1e3,
        warm_s * 1e3
    );

    // --- artifact reuse: cold / warm / evicted-and-rebuilt hidap passes ----
    //
    // The full design-store lifecycle on a fresh service. Pass 1 (cold)
    // builds every Gnet and Gseq into the byte-budgeted artifact cache;
    // pass 2 (warm) must perform ZERO NetGraph builds and ZERO SeqGraph
    // builds — the in-process CI gate mirroring the Gseq assertion above —
    // so a hidap run against a warm design touches no graph constructor at
    // all. Then every handle is released, `evict_unreferenced` drops the
    // designs AND their artifacts, the fleet is re-interned under the same
    // handles, and pass 3 rebuilds from empty caches. All three passes must
    // produce bit-identical placements and metrics.
    eprintln!("artifact reuse: paired cold/warm passes ({warm_passes}+ rounds) ...");
    let mut art_service = PlacementService::new(baselines::default_registry());
    let mut art_handles: Vec<placer_core::DesignHandle> = Vec::new();
    let mut art_cold = Vec::new();
    let mut art_warm = Vec::new();
    let mut art_cold_s = f64::INFINITY;
    let mut art_warm_s = f64::INFINITY;
    let mut cold_stats = art_service.store().artifacts().stats();
    for round in 1..=warm_passes * 5 {
        let mut fresh = PlacementService::new(baselines::default_registry());
        let fresh_handles: Vec<_> = fleet.iter().map(|d| fresh.intern(d.clone())).collect();
        let (results, s) = run_fleet_pass(&mut fresh, &fresh_handles, eval_cfg);
        art_cold = results;
        art_cold_s = art_cold_s.min(s);
        art_service = fresh;
        art_handles = fresh_handles;
        cold_stats = art_service.store().artifacts().stats();
        assert_eq!(cold_stats.net.misses as usize, fleet_size, "cold pass: one Gnet per design");
        assert_eq!(cold_stats.seq.misses as usize, fleet_size, "cold pass: one Gseq per design");
        let (results, s) = run_fleet_pass(&mut art_service, &art_handles, eval_cfg);
        art_warm = results;
        art_warm_s = art_warm_s.min(s);
        if round >= warm_passes && art_warm_s <= art_cold_s {
            break;
        }
    }
    let warm_stats = art_service.store().artifacts().stats();
    // CI gate: a warm hidap run performs zero NetGraph builds (and zero
    // SeqGraph builds) — asserted before the JSON artifact is written
    assert_eq!(
        warm_stats.net.misses, cold_stats.net.misses,
        "warm hidap runs must perform zero NetGraph builds"
    );
    assert_eq!(
        warm_stats.seq.misses, cold_stats.seq.misses,
        "warm hidap runs must perform zero SeqGraph builds"
    );
    assert!(warm_stats.net.hits > cold_stats.net.hits, "warm pass reuses the stored NetGraphs");
    let net_built = warm_stats.net.misses;
    let net_reused = warm_stats.net.hits;

    eprintln!("artifact reuse: evicting and re-interning the fleet ...");
    for &h in &art_handles {
        art_service.release(h);
    }
    let evicted = art_service.store_mut().evict_unreferenced();
    assert_eq!(evicted, fleet_size, "every released design is evicted");
    assert_eq!(
        art_service.store().artifacts().resident_bytes(),
        0,
        "design eviction purges the designs' artifacts"
    );
    let revived: Vec<_> = fleet.iter().map(|d| art_service.intern(d.clone())).collect();
    assert_eq!(revived, art_handles, "re-interned designs revive their old handles");

    eprintln!("artifact reuse: rebuilt pass ...");
    let (art_rebuilt, art_rebuilt_s) = run_fleet_pass(&mut art_service, &art_handles, eval_cfg);
    let rebuilt_stats = art_service.store().artifacts().stats();
    assert_eq!(
        rebuilt_stats.net.misses as usize,
        2 * fleet_size,
        "the rebuilt pass reconstructs every Gnet from scratch"
    );
    for ((cold, warm), rebuilt) in art_cold.iter().zip(&art_warm).zip(&art_rebuilt) {
        assert_eq!(
            cold.outcome.placement, warm.outcome.placement,
            "cold and warm placements disagree"
        );
        assert_eq!(
            cold.outcome.placement, rebuilt.outcome.placement,
            "cold and evicted-and-rebuilt placements disagree"
        );
        assert_eq!(cold.outcome.metrics, warm.outcome.metrics, "cold/warm metrics disagree");
        assert_eq!(
            cold.outcome.metrics, rebuilt.outcome.metrics,
            "cold and evicted-and-rebuilt metrics disagree"
        );
    }
    let speedup_artifact = art_cold_s / art_warm_s.max(1e-12);
    assert!(
        speedup_artifact >= 1.0,
        "a zero-rebuild warm pass must not lose to the cold pass, yet measured \
         {speedup_artifact:.3}x (cold floor {art_cold_s:.4}s vs warm floor {art_warm_s:.4}s)"
    );
    println!(
        "artifact reuse ({fleet_size} designs x3): cold {:.1} ms, warm {:.1} ms \
         ({speedup_artifact:.2}x), rebuilt {:.1} ms ({net_built} Gnet built, {net_reused} \
         reused, {evicted} designs evicted)",
        art_cold_s * 1e3,
        art_warm_s * 1e3,
        art_rebuilt_s * 1e3
    );

    // --- artifact revive: the disk spill tier turns rebuilds into loads ---
    //
    // The same eviction lifecycle as the rebuilt pass, but the store carries
    // a scratch spill directory (the bench-owned analogue of `--spill-dir`,
    // see docs/MEMORY.md): eviction demotes every Gnet/Gseq to disk, and
    // the pass after re-interning *revives* them by
    // deserialization — ZERO constructor runs. Cold and revived samples are
    // paired per round and keep running minimums (the noise-floor pattern
    // above), with rounds extending until the revived floor dips under its
    // paired cold floor.
    eprintln!("artifact revive: paired cold/revived passes ({warm_passes}+ rounds) ...");
    let spill_dir = spill_dir_arg.unwrap_or_else(|| {
        std::env::temp_dir().join(format!("hidap-bench-spill-{}", std::process::id()))
    });
    let mut art_revived = Vec::new();
    let mut art_spill_cold_s = f64::INFINITY;
    let mut art_revived_s = f64::INFINITY;
    let mut revived_service = None;
    for round in 1..=warm_passes * 5 {
        // every round starts from an empty tier, so its cold pass really
        // builds and its eviction really spills
        let _ = std::fs::remove_dir_all(&spill_dir);
        let store = placer_core::DesignStore::new().with_spill_dir(&spill_dir);
        let mut svc = PlacementService::with_store(baselines::default_registry(), store);
        let hs: Vec<_> = fleet.iter().map(|d| svc.intern(d.clone())).collect();
        let (results, s) = run_fleet_pass(&mut svc, &hs, eval_cfg);
        for (cold, spill_cold) in art_cold.iter().zip(&results) {
            assert_eq!(
                cold.outcome.placement, spill_cold.outcome.placement,
                "attaching a spill directory changed a cold placement"
            );
        }
        art_spill_cold_s = art_spill_cold_s.min(s);

        for &h in &hs {
            svc.release(h);
        }
        let dropped = svc.store_mut().evict_unreferenced();
        assert_eq!(dropped, fleet_size, "every released design is evicted");
        assert_eq!(
            svc.store().artifacts().stats().spills() as usize,
            2 * fleet_size,
            "eviction demotes every Gnet and Gseq to the spill tier"
        );
        let rehydrated: Vec<_> = fleet.iter().map(|d| svc.intern(d.clone())).collect();
        assert_eq!(rehydrated, hs, "re-interned designs revive their old handles");

        let (results, s) = run_fleet_pass(&mut svc, &hs, eval_cfg);
        art_revived = results;
        art_revived_s = art_revived_s.min(s);
        revived_service = Some(svc);
        if round >= warm_passes && art_revived_s <= art_spill_cold_s {
            break;
        }
    }
    let revived_service = revived_service.expect("at least one revive round ran");
    let revived_stats = revived_service.store().artifacts().stats();
    // CI gate: the revived pass performs ZERO graph rebuilds — every miss is
    // served from the spill tier by deserialization, so the per-kind miss
    // counters stay frozen at the cold count (asserted before the JSON
    // artifact is written/uploaded)
    assert_eq!(
        revived_stats.net.misses as usize, fleet_size,
        "the revived pass must not rebuild any NetGraph"
    );
    assert_eq!(
        revived_stats.seq.misses as usize, fleet_size,
        "the revived pass must not rebuild any SeqGraph"
    );
    assert_eq!(
        revived_stats.net.revives as usize, fleet_size,
        "every evicted NetGraph is revived from disk"
    );
    assert_eq!(
        revived_stats.seq.revives as usize, fleet_size,
        "every evicted SeqGraph is revived from disk"
    );
    for (cold, revived) in art_cold.iter().zip(&art_revived) {
        assert_eq!(
            cold.outcome.placement, revived.outcome.placement,
            "cold and revived placements disagree"
        );
        assert_eq!(
            cold.outcome.metrics, revived.outcome.metrics,
            "cold and revived metrics disagree"
        );
    }
    let speedup_revived = art_spill_cold_s / art_revived_s.max(1e-12);
    assert!(
        speedup_revived >= 1.0,
        "a zero-rebuild revived pass must not lose to its paired cold pass, yet measured \
         {speedup_revived:.3}x (cold floor {art_spill_cold_s:.4}s vs revived floor \
         {art_revived_s:.4}s)"
    );
    let revived_vs_warm = art_revived_s / art_warm_s.max(1e-12);
    let _ = std::fs::remove_dir_all(&spill_dir);
    println!(
        "artifact revive ({fleet_size} designs x2): cold {:.1} ms, revived {:.1} ms \
         ({speedup_revived:.2}x, 0 graphs rebuilt, {} Gnet + {} Gseq revived; \
         {revived_vs_warm:.2}x of the warm floor {:.1} ms)",
        art_spill_cold_s * 1e3,
        art_revived_s * 1e3,
        revived_stats.net.revives,
        revived_stats.seq.revives,
        art_warm_s * 1e3
    );

    // --- serve session: the daemon loop vs direct service execution --------
    //
    // The same N-job fleet driven two ways: directly through a serial
    // `PlacementService`, and over the wire through the `hidap --serve`
    // session loop (script in, frames out). Two scripted sessions run
    // against one daemon — the cold session interns and places every
    // design, the warm session resubmits the same jobs against the
    // still-warm store. The metrics on the wire must be bit-identical to
    // direct execution (`f64` Display round-trips exactly, so string
    // comparison IS bit comparison), and the warm/cold ratio times the
    // daemon's artifact reuse including all protocol overhead.
    eprintln!("serve session: {fleet_size} jobs, direct service ...");
    let serve_designs: Vec<Design> = fleet.clone();
    let mut direct = PlacementService::new(baselines::default_registry()).with_jobs(1);
    let direct_jobs: Vec<JobId> = serve_designs
        .iter()
        .enumerate()
        .map(|(i, design)| {
            let handle = direct.intern(design.clone());
            direct.submit(
                PlaceJob::new(handle, "hidap")
                    .with_effort(EffortLevel::Fast)
                    .with_seeds(vec![i as u64 + 1])
                    .with_evaluation(eval_cfg),
            )
        })
        .collect();
    direct.run_all();
    let direct_results: Vec<JobResult> = direct_jobs
        .into_iter()
        .map(|j| direct.take_result(j).expect("job ran").expect("job succeeded"))
        .collect();

    let make_daemon = || {
        let loader_designs = serve_designs.clone();
        let loader = move |spec: &server::InternSpec| -> Result<server::LoadedDesign, String> {
            let index: usize = spec
                .get("design")
                .ok_or_else(|| "intern needs design=<index>".to_string())?
                .parse()
                .map_err(|_| "design= must be an index".to_string())?;
            let design = loader_designs
                .get(index)
                .ok_or_else(|| format!("no fleet design {index}"))?
                .clone();
            Ok(server::LoadedDesign { design, dbu: 1000 })
        };
        let service = PlacementService::new(baselines::default_registry()).with_jobs(1);
        server::Server::new(placer_core::Scheduler::with_service(service), loader)
    };

    let submits: String = (0..fleet_size)
        .map(|i| {
            format!("submit design={i} flow=hidap effort=fast seeds={} evaluate=standard\n", i + 1)
        })
        .collect();
    let interns: String = (0..fleet_size).map(|i| format!("intern design={i}\n")).collect();
    // the warm script carries no shutdown so it can repeat for min-of-N
    // timing; a final one-frame session shuts the daemon down cleanly
    let cold_script = format!("hello client=bench\n{interns}{submits}drain\n");
    let warm_script = format!("hello client=bench\n{submits}drain\n");

    let run_session = |daemon: &mut server::Server, script: &str, expect: server::SessionEnd| {
        let out = server::SharedWriter::new(Vec::new());
        let t = Instant::now();
        let end = daemon.serve_once(script.as_bytes(), out.clone()).expect("session io");
        let elapsed = t.elapsed().as_secs_f64();
        assert_eq!(end, expect, "session ended unexpectedly");
        let transcript = String::from_utf8(out.lock().clone()).expect("utf-8 transcript");
        let done: Vec<server::Frame> = transcript
            .lines()
            .map(|line| server::Frame::parse(line).expect("well-formed frame"))
            .filter(|f| f.name == "job-done")
            .collect();
        (done, elapsed)
    };

    eprintln!("serve session: paired cold/warm sessions ({warm_passes}+ rounds) ...");
    let mut daemon = make_daemon();
    let mut serve_cold = Vec::new();
    let mut serve_warm = Vec::new();
    let mut serve_cold_s = f64::INFINITY;
    let mut serve_warm_s = f64::INFINITY;
    for round in 1..=warm_passes * 5 {
        let mut fresh = make_daemon();
        let (done, s) = run_session(&mut fresh, &cold_script, server::SessionEnd::Eof);
        serve_cold = done;
        serve_cold_s = serve_cold_s.min(s);
        daemon = fresh;
        let (done, s) = run_session(&mut daemon, &warm_script, server::SessionEnd::Eof);
        serve_warm = done;
        serve_warm_s = serve_warm_s.min(s);
        if round >= warm_passes && serve_warm_s <= serve_cold_s {
            break;
        }
    }
    run_session(&mut daemon, "hello client=bench\nshutdown\n", server::SessionEnd::Shutdown);
    assert_eq!(serve_cold.len(), fleet_size, "cold session completes every job");
    assert_eq!(serve_warm.len(), fleet_size, "warm session completes every job");
    assert_eq!(
        daemon.scheduler().service().store().artifacts().stats().seq.misses as usize,
        fleet_size,
        "the warm session rebuilds no graphs over the wire"
    );

    // every frame's metrics must match direct execution bit for bit, both
    // sessions (Display of f64/i128 is lossless, so equal strings ⇔ equal
    // bits)
    for frames in [&serve_cold, &serve_warm] {
        for (frame, direct) in frames.iter().zip(&direct_results) {
            let metrics = direct.outcome.metrics.as_ref().expect("evaluated job");
            assert_eq!(frame.get("seed"), Some(direct.outcome.seed.to_string().as_str()));
            assert_eq!(frame.get("hpwl_dbu"), Some(metrics.hpwl.dbu.to_string().as_str()));
            assert_eq!(
                frame.get("wirelength_m"),
                Some(metrics.wirelength_m.to_string().as_str()),
                "wire and direct wirelength disagree"
            );
            assert_eq!(frame.get("grc_percent"), Some(metrics.grc_percent().to_string().as_str()));
            assert_eq!(frame.get("wns_percent"), Some(metrics.wns_percent().to_string().as_str()));
            assert_eq!(frame.get("tns_ns"), Some(metrics.tns_ns().to_string().as_str()));
        }
    }
    let speedup_serve = serve_cold_s / serve_warm_s.max(1e-12);
    assert!(
        speedup_serve >= 1.0,
        "a warm session (no interns, no graph builds) must not lose to the cold one, yet \
         measured {speedup_serve:.3}x (cold floor {serve_cold_s:.4}s vs warm floor \
         {serve_warm_s:.4}s)"
    );
    println!(
        "serve session ({fleet_size} jobs x2): cold {:.1} ms, warm {:.1} ms \
         ({speedup_serve:.2}x, wire metrics ≡ direct)",
        serve_cold_s * 1e3,
        serve_warm_s * 1e3
    );

    // --- eco incremental: cold vs warm re-place after a one-macro edit -----
    //
    // The ECO loop of the replace subsystem: one design placed, then a
    // single macro's footprint resized (a pure-geometry edit) and the
    // design re-placed two ways — cold (full flow on the edited design,
    // fresh caches) and warm (a `replace` job warm-started from the held
    // base result, every identity-keyed artifact still cached). The warm
    // job must rebuild zero graphs, its result must be bit-identical to
    // running the warm flow directly in process (the service adds
    // orchestration, never drift), and the paired floors give the measured
    // ECO speedup. All assertions run before the JSON artifact is written.
    eprintln!("eco incremental: paired cold/warm re-place ({warm_passes}+ rounds) ...");
    let eco_design = fleet[0].clone();
    let eco_macro = eco_design.macros().next().expect("fleet designs carry macros");
    let (macro_w, macro_h) = {
        let c = eco_design.cell(eco_macro);
        (c.width, c.height)
    };
    let eco_edits = vec![netlist::DesignEdit::ResizeCell {
        cell: eco_macro,
        width: macro_w * 11 / 10,
        height: macro_h,
    }];
    let mut eco_edited = eco_design.clone();
    let eco_log = eco_edited.apply_edits(&eco_edits).expect("the eco edit applies");
    assert!(eco_log.diff.is_pure_geometry(), "a resize keeps the design identity");

    let mut eco_cold_s = f64::INFINITY;
    let mut eco_warm_s = f64::INFINITY;
    for round in 1..=warm_passes * 5 {
        // cold re-place: the edited design from scratch, empty caches
        let mut cold_svc = PlacementService::new(baselines::default_registry());
        let ch = cold_svc.intern(eco_edited.clone());
        let cold_job = cold_svc.submit(
            PlaceJob::new(ch, "hidap").with_effort(EffortLevel::Fast).with_evaluation(eval_cfg),
        );
        let t = Instant::now();
        cold_svc.run_all();
        eco_cold_s = eco_cold_s.min(t.elapsed().as_secs_f64());
        cold_svc.take_result(cold_job).expect("cold job ran").expect("cold job succeeded");

        // warm re-place: base place (untimed), then the replace job (timed)
        let mut warm_svc = PlacementService::new(baselines::default_registry());
        let wh = warm_svc.intern(eco_design.clone());
        let base_job = warm_svc.submit(
            PlaceJob::new(wh, "hidap").with_effort(EffortLevel::Fast).with_evaluation(eval_cfg),
        );
        warm_svc.run_all();
        let base_stats = warm_svc.store().artifacts().stats();
        let replace_job = warm_svc.submit(
            PlaceJob::new(wh, "hidap")
                .with_effort(EffortLevel::Fast)
                .with_evaluation(eval_cfg)
                .with_replace(base_job, eco_edits.clone()),
        );
        let t = Instant::now();
        warm_svc.run_all();
        eco_warm_s = eco_warm_s.min(t.elapsed().as_secs_f64());
        let warm =
            warm_svc.take_result(replace_job).expect("replace ran").expect("replace succeeded");
        let eco_stats = warm_svc.store().artifacts().stats();
        assert_eq!(
            eco_stats.seq.misses, base_stats.seq.misses,
            "the warm re-place rebuilds no Gseq"
        );
        assert_eq!(
            eco_stats.net.misses, base_stats.net.misses,
            "the warm re-place rebuilds no Gnet"
        );
        assert!(warm.edit_log.as_ref().expect("edit log").diff.is_pure_geometry());
        assert!(warm.outcome.placement.is_legal(&eco_edited), "the warm re-place stays legal");

        // the service's warm result must match the warm flow run directly
        let base_outcome =
            warm_svc.take_result(base_job).expect("base held").expect("base succeeded").outcome;
        let base_metrics = base_outcome.metrics.as_ref().expect("base evaluated");
        let direct_req = PlaceRequest::new(&eco_edited)
            .with_seed(1)
            .with_effort(EffortLevel::Fast)
            .with_evaluation(eval_cfg)
            .with_warm_start(&base_outcome.placement)
            .with_warm_cells(&base_metrics.cell_placement);
        let direct = baselines::default_registry()
            .create("hidap")
            .expect("hidap flow")
            .place(&direct_req, &mut placer_core::PlaceContext::new())
            .expect("direct warm place");
        assert_eq!(
            warm.outcome.placement, direct.placement,
            "the service replace and the direct warm flow disagree"
        );
        assert_eq!(
            warm.outcome.metrics, direct.metrics,
            "the service replace and the direct warm flow metrics disagree"
        );

        if round >= warm_passes && eco_warm_s <= eco_cold_s {
            break;
        }
    }
    let speedup_eco = eco_cold_s / eco_warm_s.max(1e-12);
    assert!(
        speedup_eco >= 1.0,
        "a warm re-place (no global stages, no graph builds) must not lose to the cold one, \
         yet measured {speedup_eco:.3}x (cold floor {eco_cold_s:.4}s vs warm floor \
         {eco_warm_s:.4}s)"
    );
    println!(
        "eco incremental (one-macro resize): cold {:.1} ms, warm {:.1} ms \
         ({speedup_eco:.2}x, 0 graphs rebuilt, warm ≡ direct)",
        eco_cold_s * 1e3,
        eco_warm_s * 1e3
    );

    // --- scale sweep: the million-cell axis --------------------------------
    //
    // Each point runs the full text pipeline (generate → emit → streaming
    // parse → dense place → HPWL) with the dense results asserted
    // bit-identical to the hash-map reference, and records resident bytes
    // via HeapSize. Scale 12 is the mega_soc preset (~1M cells). The quick
    // list keeps CI at small scales; the committed BENCH_placer.json
    // carries the full curve.
    let curve: Vec<ScalePoint> = if scale_sweep {
        let scales = sweep_scales.unwrap_or_else(|| {
            if quick {
                vec![0.05, 0.1, 0.25]
            } else {
                vec![0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 12.0]
            }
        });
        scales
            .into_iter()
            .map(|s| {
                let p = sweep_point(s);
                println!(
                    "scale {:>5}: {:>7} cells, gen {:>8.1} ms, parse {:>8.1} ms, place \
                     {:>8.1} ms, HPWL {:>7.1} ms, {:.1} MiB resident",
                    p.scale,
                    p.cells,
                    p.gen_ms,
                    p.parse_ms,
                    p.place_ms,
                    p.hpwl_ms,
                    p.peak_bytes as f64 / (1u64 << 20) as f64
                );
                p
            })
            .collect()
    } else {
        Vec::new()
    };
    let scale_curve_json: String = if curve.is_empty() {
        "[]".to_string()
    } else {
        let entries: Vec<String> = curve
            .iter()
            .map(|p| {
                format!(
                    "    {{\n      \"scale\": {},\n      \"cells\": {},\n      \"nets\": {},\n      \"macros\": {},\n      \"gen_ms\": {:.3},\n      \"parse_ms\": {:.3},\n      \"place_ms\": {:.3},\n      \"hpwl_ms\": {:.3},\n      \"parse_bytes\": {},\n      \"peak_bytes\": {},\n      \"bit_identical_to_reference\": true\n    }}",
                    p.scale,
                    p.cells,
                    p.nets,
                    p.macros,
                    p.gen_ms,
                    p.parse_ms,
                    p.place_ms,
                    p.hpwl_ms,
                    p.parse_bytes,
                    p.peak_bytes,
                )
            })
            .collect();
        format!("[\n{}\n  ]", entries.join(",\n"))
    };

    let json = format!(
        "{{\n  \"bench\": \"placer_sweep_plus_hpwl\",\n  \"workload\": \"large_soc\",\n  \"scale\": {scale},\n  \"cells\": {},\n  \"nets\": {},\n  \"pins\": {},\n  \"macros\": {},\n  \"repeats\": {repeats},\n  \"hashmap_place_ms\": {:.3},\n  \"hashmap_hpwl_ms\": {:.3},\n  \"dense_place_ms\": {:.3},\n  \"dense_hpwl_ms\": {:.3},\n  \"speedup_place\": {:.3},\n  \"speedup_hpwl\": {:.3},\n  \"speedup_combined\": {:.3},\n  \"hpwl_dbu\": {},\n  \"routed_nets\": {},\n  \"results_bit_identical\": true,\n  \"evaluator_reuse\": {{\n    \"candidates\": {candidates},\n    \"oneshot_ms\": {:.3},\n    \"reused_ms\": {:.3},\n    \"reused_parallel_ms\": {:.3},\n    \"workers\": {workers},\n    \"speedup\": {:.3},\n    \"speedup_parallel\": {:.3},\n    \"metrics_bit_identical\": true\n  }},\n  \"service_reuse\": {{\n    \"designs\": {fleet_size},\n    \"fleet_scale\": {fleet_scale},\n    \"jobs_per_pass\": {fleet_size},\n    \"cold_ms\": {:.3},\n    \"warm_ms\": {:.3},\n    \"speedup\": {:.3},\n    \"seq_graphs_built\": {seq_built},\n    \"seq_graphs_reused\": {seq_reused},\n    \"metrics_bit_identical\": true\n  }},\n  \"artifact_reuse\": {{\n    \"designs\": {fleet_size},\n    \"fleet_scale\": {fleet_scale},\n    \"cold_ms\": {:.3},\n    \"warm_ms\": {:.3},\n    \"rebuilt_ms\": {:.3},\n    \"revived_ms\": {:.3},\n    \"speedup\": {:.3},\n    \"speedup_revived\": {:.3},\n    \"revived_vs_warm\": {:.3},\n    \"net_graphs_built\": {net_built},\n    \"net_graphs_reused\": {net_reused},\n    \"warm_net_graph_builds\": 0,\n    \"warm_seq_graph_builds\": 0,\n    \"revived_graph_rebuilds\": 0,\n    \"net_graphs_revived\": {},\n    \"seq_graphs_revived\": {},\n    \"designs_evicted\": {evicted},\n    \"metrics_bit_identical\": true\n  }},\n  \"serve_session\": {{\n    \"jobs\": {fleet_size},\n    \"fleet_scale\": {fleet_scale},\n    \"cold_ms\": {:.3},\n    \"warm_ms\": {:.3},\n    \"speedup\": {:.3},\n    \"warm_graph_rebuilds\": 0,\n    \"metrics_bit_identical_to_direct\": true\n  }},\n  \"eco_incremental\": {{\n    \"fleet_scale\": {fleet_scale},\n    \"edit\": \"resize one macro +10% width (pure geometry)\",\n    \"cold_ms\": {:.3},\n    \"warm_ms\": {:.3},\n    \"speedup\": {:.3},\n    \"warm_net_graph_builds\": 0,\n    \"warm_seq_graph_builds\": 0,\n    \"warm_bit_identical_to_direct\": true\n  }},\n  \"warm_samples\": {warm_passes},\n  \"scale_curve\": {scale_curve_json}\n}}\n",
        design.num_cells(),
        design.num_nets(),
        csr.num_pins(),
        design.num_macros(),
        hm_place * 1e3,
        hm_hpwl * 1e3,
        dn_place * 1e3,
        dn_hpwl * 1e3,
        speedup_place,
        speedup_hpwl,
        speedup_total,
        wl_dense.dbu,
        wl_dense.routed_nets,
        oneshot_s * 1e3,
        reused_s * 1e3,
        parallel_s * 1e3,
        speedup_eval,
        speedup_parallel,
        cold_s * 1e3,
        warm_s * 1e3,
        speedup_service,
        art_cold_s * 1e3,
        art_warm_s * 1e3,
        art_rebuilt_s * 1e3,
        art_revived_s * 1e3,
        speedup_artifact,
        speedup_revived,
        revived_vs_warm,
        revived_stats.net.revives,
        revived_stats.seq.revives,
        serve_cold_s * 1e3,
        serve_warm_s * 1e3,
        speedup_serve,
        eco_cold_s * 1e3,
        eco_warm_s * 1e3,
        speedup_eco,
    );
    std::fs::write(&out_path, json).expect("write BENCH_placer.json");
    eprintln!("wrote {out_path}");
}
