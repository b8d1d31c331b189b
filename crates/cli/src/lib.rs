//! Library backing the `hidap` command-line tool.
//!
//! The binary is a thin wrapper around [`run`]; all argument parsing and flow
//! orchestration lives here so it can be unit-tested without spawning a
//! process.
//!
//! ```text
//! hidap --verilog design.v --lef macros.lef [--def floorplan.def]
//!       [--top NAME] [--flow hidap|indeda|handfp] [--lambda 0.5]
//!       [--effort fast|default|high] [--seed 1] [--sweep] [--jobs N]
//!       [--seeds 1,2,3] [--lambdas 0.2,0.5,0.8]
//!       [--out placed.def] [--svg floorplan.svg] [--report]
//! hidap --manifest designs.txt [--memory-budget 512] [shared flags]
//! ```
//!
//! Flows are resolved by name through the engine's flow registry
//! ([`baselines::default_registry`]), and every placement goes through the
//! unified [`placer_core::Placer`] API:
//!
//! ```no_run
//! use placer_core::{PlaceContext, PlaceRequest};
//!
//! let design = cli::load_design(&cli::parse_args(&[
//!     "--verilog".into(), "design.v".into(),
//! ])?)?.0;
//! let registry = baselines::default_registry();
//! let placer = registry.create("hidap").map_err(|e| e.to_string())?;
//! let request = PlaceRequest::new(&design).with_seed(1).with_lambda(0.5);
//! let outcome = placer
//!     .place(&request, &mut PlaceContext::new())
//!     .map_err(|e| e.to_string())?;
//! println!("placed {} macros", outcome.placement.macros.len());
//! # Ok::<(), String>(())
//! ```
//!
//! With `--sweep`, the tool fans a seed×λ grid out across `--jobs` worker
//! threads via [`placer_core::BatchRunner`] and keeps the lowest-wirelength
//! winner; the result is identical for any `--jobs` value.

#![forbid(unsafe_code)]

use eval::EvalConfig;
use geometry::Rect;
use hidap::MacroPlacement;
use netlist::design::Design;
use netlist::verilog::ElaborateOptions;
use placer_core::{
    BatchGrid, BatchRunner, EffortLevel, PlaceContext, PlaceJob, PlaceOutcome, PlaceRequest,
    PlacementService,
};
use std::path::{Path, PathBuf};

/// Parsed command-line options.
#[derive(Debug, Clone, PartialEq)]
pub struct Options {
    /// Structural Verilog netlist (required unless `--manifest` is given).
    pub verilog: PathBuf,
    /// Manifest file for batch mode: one design per line, placed through a
    /// single [`PlacementService`] with shared artifact caches.
    pub manifest: Option<PathBuf>,
    /// LEF file with macro footprints (optional).
    pub lef: Option<PathBuf>,
    /// DEF file providing the die area and port locations (optional; a square
    /// die at 60 % utilization is derived when absent).
    pub def: Option<PathBuf>,
    /// Top module name (inferred when absent).
    pub top: Option<String>,
    /// Flow to run, resolved through the flow registry.
    pub flow: String,
    /// λ blend between block flow and macro flow.
    pub lambda: f64,
    /// Effort preset (`--effort fast|default|high`).
    pub effort: EffortLevel,
    /// Random seed (base seed of the sweep when `--sweep` is given).
    pub seed: u64,
    /// Run a seed×λ sweep and keep the lowest-wirelength winner.
    pub sweep: bool,
    /// Worker threads for the sweep (0 = all available cores).
    pub jobs: usize,
    /// Explicit sweep seeds; derived from `seed` when empty.
    pub seeds: Vec<u64>,
    /// Sweep λ values.
    pub lambdas: Vec<f64>,
    /// Memory budget in MiB for the `--manifest` batch store or the
    /// `--serve` daemon store (designs + cached artifacts). In batch mode
    /// designs are released after their last manifest line, so the budget
    /// bounds the batch's peak resident bytes; in serve mode it also feeds
    /// admission control. `None` leaves the store unbounded.
    pub memory_budget_mib: Option<f64>,
    /// Disk spill directory for the `--serve` daemon: every successful job
    /// persists its warm-start seed there, so a `replace` whose base result
    /// is gone (taken by a drain, or issued before a daemon restart pointed
    /// at the same directory) revives it (see `docs/MEMORY.md`). Seeds are
    /// all it holds; evicted graphs are rebuilt. `None` (the default)
    /// writes nothing.
    pub spill_dir: Option<PathBuf>,
    /// Run the placement daemon: a long-lived session speaking the line
    /// protocol of `docs/PROTOCOL.md` over stdin/stdout (or `--socket`).
    pub serve: bool,
    /// Unix-socket path for `--serve`: accept connections there instead of
    /// speaking on stdin/stdout, keeping the store warm across sessions.
    pub socket: Option<PathBuf>,
    /// Per-client quota of queued jobs for `--serve` (0 keeps the default,
    /// [`server::Server::DEFAULT_QUOTA`]).
    pub quota: usize,
    /// Output DEF path (optional).
    pub out: Option<PathBuf>,
    /// Output SVG path (optional).
    pub svg: Option<PathBuf>,
    /// Print evaluation metrics after placement.
    pub report: bool,
}

impl Default for Options {
    fn default() -> Self {
        Self {
            verilog: PathBuf::new(),
            manifest: None,
            lef: None,
            def: None,
            top: None,
            flow: "hidap".to_string(),
            lambda: 0.5,
            effort: EffortLevel::Default,
            seed: 1,
            sweep: false,
            jobs: 0,
            seeds: Vec::new(),
            lambdas: vec![0.2, 0.5, 0.8],
            memory_budget_mib: None,
            spill_dir: None,
            serve: false,
            socket: None,
            quota: 0,
            out: None,
            svg: None,
            report: false,
        }
    }
}

/// The usage string printed on `--help` or argument errors.
pub const USAGE: &str = "usage: hidap --verilog <file.v> [--lef <file.lef>] [--def <file.def>] \
[--top <module>] [--flow hidap|indeda|handfp] [--lambda <0..1>] [--effort fast|default|high] \
[--seed <n>] [--sweep] [--jobs <n>] [--seeds <n,n,...>] [--lambdas <l,l,...>] \
[--out <placed.def>] [--svg <floorplan.svg>] [--report]\n\
       hidap --manifest <designs.txt> [--memory-budget <MiB>] [shared flags as above]\n\
       hidap --serve [--socket <path>] [--memory-budget <MiB>] [--spill-dir <dir>] [--quota \
<n>]\n\
manifest lines:  <file.v> [lef=<file>] [def=<file>] [top=<name>] [flow=<name>] \
[lambda=<0..1>] [seed=<n>] [seeds=<n,n,...>] [lambdas=<l,l,...>] [effort=<tier>]   \
('#' starts a comment)\n\
serve mode speaks the line protocol documented in docs/PROTOCOL.md (commands hello, \
intern, submit, replace, cancel, release, result, stats, drain, shutdown)\n\
docs/ECO.md covers incremental ECO re-placement: the edit-script language, selective \
artifact invalidation and the warm-start guarantees behind the replace command\n\
docs/SCALING.md covers the million-cell scale axis: the mega_soc preset, the streaming \
parsers, and placing under --memory-budget\n\
docs/MEMORY.md covers the artifact plane: graphs resident or rebuilt under the byte \
budget, and the --spill-dir warm-start seeds";

fn parse_list<T: std::str::FromStr>(value: &str, flag: &str) -> Result<Vec<T>, String> {
    value
        .split(',')
        .map(|s| s.trim().parse().map_err(|_| format!("invalid {flag} entry '{s}'")))
        .collect()
}

/// Parses command-line arguments (excluding the program name).
///
/// All value validation happens here, at parse time: unknown flows (checked
/// against the flow registry), out-of-range `--lambda`, unknown `--effort`
/// values and malformed lists are rejected with a clear message instead of
/// failing deep inside a flow.
///
/// # Errors
///
/// Returns a human-readable message for unknown flags, missing values,
/// invalid values or a missing `--verilog` input.
pub fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut opts = Options::default();
    let mut i = 0;
    let mut have_verilog = false;
    while i < args.len() {
        let flag = args[i].as_str();
        let value = |i: &mut usize| -> Result<String, String> {
            *i += 1;
            args.get(*i).cloned().ok_or_else(|| format!("missing value for {flag}"))
        };
        match flag {
            "--verilog" => {
                opts.verilog = PathBuf::from(value(&mut i)?);
                have_verilog = true;
            }
            "--manifest" => opts.manifest = Some(PathBuf::from(value(&mut i)?)),
            "--lef" => opts.lef = Some(PathBuf::from(value(&mut i)?)),
            "--def" => opts.def = Some(PathBuf::from(value(&mut i)?)),
            "--top" => opts.top = Some(value(&mut i)?),
            "--flow" => {
                let name = value(&mut i)?;
                let registry = baselines::default_registry();
                if !registry.contains(&name) {
                    return Err(format!(
                        "unknown flow '{name}' (known flows: {})",
                        registry.names().join(", ")
                    ));
                }
                opts.flow = name;
            }
            "--lambda" => {
                opts.lambda =
                    value(&mut i)?.parse().map_err(|_| "invalid --lambda value".to_string())?;
            }
            "--effort" => {
                let effort = value(&mut i)?;
                opts.effort = EffortLevel::parse(&effort).ok_or_else(|| {
                    format!("unknown effort '{effort}' (expected fast|default|high)")
                })?;
            }
            "--seed" => {
                opts.seed =
                    value(&mut i)?.parse().map_err(|_| "invalid --seed value".to_string())?;
            }
            "--sweep" => opts.sweep = true,
            "--jobs" => {
                opts.jobs =
                    value(&mut i)?.parse().map_err(|_| "invalid --jobs value".to_string())?;
            }
            "--seeds" => opts.seeds = parse_list(&value(&mut i)?, "--seeds")?,
            "--lambdas" => opts.lambdas = parse_list(&value(&mut i)?, "--lambdas")?,
            "--memory-budget" => {
                let mib: f64 = value(&mut i)?
                    .parse()
                    .map_err(|_| "invalid --memory-budget value".to_string())?;
                if !mib.is_finite() || mib <= 0.0 {
                    return Err(format!("--memory-budget must be a positive MiB count, got {mib}"));
                }
                opts.memory_budget_mib = Some(mib);
            }
            "--spill-dir" => opts.spill_dir = Some(PathBuf::from(value(&mut i)?)),
            "--serve" => opts.serve = true,
            "--socket" => opts.socket = Some(PathBuf::from(value(&mut i)?)),
            "--quota" => {
                opts.quota =
                    value(&mut i)?.parse().map_err(|_| "invalid --quota value".to_string())?;
            }
            "--out" => opts.out = Some(PathBuf::from(value(&mut i)?)),
            "--svg" => opts.svg = Some(PathBuf::from(value(&mut i)?)),
            "--report" => opts.report = true,
            "--help" | "-h" => return Err(USAGE.to_string()),
            other => return Err(format!("unknown argument '{other}'\n{USAGE}")),
        }
        i += 1;
    }
    if opts.serve && (have_verilog || opts.manifest.is_some()) {
        return Err(format!(
            "--serve runs a daemon; designs are interned over the protocol, not on the command \
             line (drop --verilog/--manifest)\n{USAGE}"
        ));
    }
    if !opts.serve {
        if opts.socket.is_some() {
            return Err("--socket selects the --serve transport; add --serve".to_string());
        }
        if opts.quota != 0 {
            return Err("--quota bounds --serve clients; add --serve".to_string());
        }
    }
    if have_verilog && opts.manifest.is_some() {
        return Err(format!("--verilog and --manifest are mutually exclusive\n{USAGE}"));
    }
    if !have_verilog && opts.manifest.is_none() && !opts.serve {
        return Err(format!("--verilog (or --manifest, or --serve) is required\n{USAGE}"));
    }
    if (opts.manifest.is_some() || opts.serve) && (opts.out.is_some() || opts.svg.is_some()) {
        return Err(
            "--out/--svg write a single design; they are not available with --manifest or --serve"
                .to_string(),
        );
    }
    if opts.memory_budget_mib.is_some() && opts.manifest.is_none() && !opts.serve {
        return Err("--memory-budget bounds the --manifest or --serve service store; it has no \
             effect on a single-design run"
            .to_string());
    }
    if opts.spill_dir.is_some() && !opts.serve {
        return Err("--spill-dir holds the --serve daemon's warm-start seeds for replace; a \
             single-design or --manifest run places no replace"
            .to_string());
    }
    if !(0.0..=1.0).contains(&opts.lambda) {
        return Err(format!("--lambda must be between 0 and 1, got {}", opts.lambda));
    }
    if let Some(bad) = opts.lambdas.iter().find(|l| !(0.0..=1.0).contains(*l)) {
        return Err(format!("--lambdas entries must be between 0 and 1, got {bad}"));
    }
    if opts.lambdas.is_empty() {
        return Err("--lambdas must name at least one value".to_string());
    }
    Ok(opts)
}

/// Loads the design described by the options: Verilog netlist, optional LEF
/// footprints, optional DEF die/ports. Returns the design and the DBU scale.
pub fn load_design(opts: &Options) -> Result<(Design, i64), String> {
    let verilog_text = std::fs::read_to_string(&opts.verilog)
        .map_err(|e| format!("cannot read {}: {e}", opts.verilog.display()))?;
    let mut elaborate = ElaborateOptions::default();
    let mut dbu = 1000i64;
    if let Some(lef_path) = &opts.lef {
        let lef_text = std::fs::read_to_string(lef_path)
            .map_err(|e| format!("cannot read {}: {e}", lef_path.display()))?;
        let lef =
            netlist::lef::parse_lef(&lef_text).map_err(|e| format!("LEF parse error: {e}"))?;
        dbu = lef.dbu_per_micron;
        elaborate.library = lef.library;
    }
    let mut design =
        netlist::verilog::parse_verilog(&verilog_text, opts.top.as_deref(), &elaborate)
            .map_err(|e| format!("Verilog parse error: {e}"))?;

    if let Some(def_path) = &opts.def {
        let def_text = std::fs::read_to_string(def_path)
            .map_err(|e| format!("cannot read {}: {e}", def_path.display()))?;
        let def =
            netlist::def::parse_def(&def_text).map_err(|e| format!("DEF parse error: {e}"))?;
        if def.dbu_per_micron > 0 {
            dbu = def.dbu_per_micron;
        }
        def.apply_to(&mut design);
    }
    if design.die().area() == 0 {
        // derive a square die at 60% utilization when none was provided
        let side = ((design.total_cell_area() as f64 / 0.6).sqrt()).ceil() as i64;
        design.set_die(Rect::new(0, 0, side.max(1), side.max(1)));
    }
    Ok((design, dbu))
}

/// A one-line summary of how a placement was obtained.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct PlacementInfo {
    /// Winning seed (differs from the base seed under `--sweep`).
    pub seed: u64,
    /// Winning λ, for flows with a λ knob.
    pub lambda: Option<f64>,
    /// Number of sweep candidates (1 without `--sweep`).
    pub candidates: usize,
    /// Worker threads the sweep used.
    pub jobs: usize,
}

/// Runs the selected flow on a loaded design through the engine API.
pub fn place(design: &Design, opts: &Options) -> Result<MacroPlacement, String> {
    place_outcome(design, opts, &mut PlaceContext::new()).map(|(outcome, _)| outcome.placement)
}

/// Like [`place`], but runs in `ctx` and returns the full [`PlaceOutcome`]
/// (stage timings, metrics) and sweep information. The graphs the flow
/// builds stay in `ctx`'s artifact cache, so evaluating the result with
/// [`PlaceContext::evaluator`] does not build them again.
pub fn place_outcome(
    design: &Design,
    opts: &Options,
    ctx: &mut PlaceContext,
) -> Result<(PlaceOutcome, PlacementInfo), String> {
    let registry = baselines::default_registry();
    let placer = registry.create(&opts.flow).map_err(|e| e.to_string())?;
    if opts.sweep {
        if placer.is_composite() {
            return Err(format!(
                "flow '{}' already sweeps a seed×λ grid internally; drop --sweep (configure the \
                 flow's own grid instead) or sweep a single-run flow like 'hidap'",
                opts.flow
            ));
        }
        // flows without a λ knob would run identical placements per λ entry
        let lambdas =
            if placer.supports_lambda() { opts.lambdas.clone() } else { vec![opts.lambda] };
        let grid = if opts.seeds.is_empty() {
            BatchGrid::derived(opts.seed, 4, lambdas)
        } else {
            BatchGrid::new(opts.seeds.clone(), lambdas)
        };
        let candidates = grid.len();
        let runner = BatchRunner::new().with_jobs(opts.jobs);
        let template = PlaceRequest::new(design).with_effort(opts.effort);
        let batch = runner
            .run(placer.as_ref(), &template, &grid, ctx)
            .map_err(|e| format!("placement failed: {e}"))?;
        let info = PlacementInfo {
            seed: batch.winner.seed,
            lambda: batch.winner.lambda,
            candidates,
            jobs: runner.effective_jobs(candidates),
        };
        Ok((batch.winner, info))
    } else {
        let request = PlaceRequest::new(design)
            .with_seed(opts.seed)
            .with_effort(opts.effort)
            .with_lambda(opts.lambda);
        let outcome = placer.place(&request, ctx).map_err(|e| format!("placement failed: {e}"))?;
        let info =
            PlacementInfo { seed: outcome.seed, lambda: outcome.lambda, candidates: 1, jobs: 1 };
        Ok((outcome, info))
    }
}

/// One line of a `--manifest` file: a design plus its per-design overrides.
/// Fields not named on the line inherit the command-line defaults.
#[derive(Debug, Clone, PartialEq)]
pub struct ManifestEntry {
    /// Structural Verilog netlist of this design.
    pub verilog: PathBuf,
    /// LEF file with macro footprints.
    pub lef: Option<PathBuf>,
    /// DEF file providing die area and port locations.
    pub def: Option<PathBuf>,
    /// Top module name.
    pub top: Option<String>,
    /// Flow to place this design with.
    pub flow: String,
    /// Explicit `lambda=` override: pins this design's λ even under
    /// `--sweep` (the line sweeps seeds only). `None` inherits `--lambda`
    /// for single runs and the `--lambdas` axis for sweeps. Mutually
    /// exclusive with `lambdas=`.
    pub lambda: Option<f64>,
    /// Explicit `lambdas=` override: this design sweeps its own λ grid,
    /// with or without the global `--sweep`. Empty inherits.
    pub lambdas: Option<Vec<f64>>,
    /// Seed for this design's run (base seed under `--sweep`; ignored when
    /// `seeds=` is given).
    pub seed: u64,
    /// Explicit `seeds=` override: this design sweeps exactly these seeds,
    /// with or without the global `--sweep`. Empty inherits.
    pub seeds: Vec<u64>,
    /// Effort preset for this design.
    pub effort: EffortLevel,
}

/// Parses a `--manifest` file: one design per line, `#` starts a comment,
/// the first token is the Verilog path (resolved relative to `base_dir`),
/// every later token is a `key=value` override (`lef=`, `def=`, `top=`,
/// `flow=`, `lambda=`, `lambdas=`, `seed=`, `seeds=`, `effort=`). Values
/// are validated like the equivalent command-line flags. `seeds=`/`lambdas=`
/// give the line its own sweep grid — heterogeneous fleets can mix
/// single-run designs with per-design grids in one manifest, with or
/// without the global `--sweep`.
pub fn parse_manifest(
    text: &str,
    base_dir: &Path,
    defaults: &Options,
) -> Result<Vec<ManifestEntry>, String> {
    let registry = baselines::default_registry();
    let resolve = |raw: &str| {
        let path = PathBuf::from(raw);
        if path.is_absolute() {
            path
        } else {
            base_dir.join(path)
        }
    };
    let mut entries = Vec::new();
    for (line_no, raw_line) in text.lines().enumerate() {
        let line = raw_line.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let at = |msg: String| format!("manifest line {}: {msg}", line_no + 1);
        let mut tokens = line.split_whitespace();
        let mut entry = ManifestEntry {
            verilog: resolve(tokens.next().expect("non-empty line has a first token")),
            lef: defaults.lef.clone(),
            def: defaults.def.clone(),
            top: defaults.top.clone(),
            flow: defaults.flow.clone(),
            lambda: None,
            lambdas: None,
            seed: defaults.seed,
            seeds: Vec::new(),
            effort: defaults.effort,
        };
        for token in tokens {
            let (key, value) = token
                .split_once('=')
                .ok_or_else(|| at(format!("expected key=value, got '{token}'")))?;
            match key {
                "lef" => entry.lef = Some(resolve(value)),
                "def" => entry.def = Some(resolve(value)),
                "top" => entry.top = Some(value.to_string()),
                "flow" => {
                    if !registry.contains(value) {
                        return Err(at(format!(
                            "unknown flow '{value}' (known flows: {})",
                            registry.names().join(", ")
                        )));
                    }
                    entry.flow = value.to_string();
                }
                "lambda" => {
                    let lambda: f64 =
                        value.parse().map_err(|_| at(format!("invalid lambda '{value}'")))?;
                    if !(0.0..=1.0).contains(&lambda) {
                        return Err(at(format!("lambda must be between 0 and 1, got {lambda}")));
                    }
                    entry.lambda = Some(lambda);
                }
                "lambdas" => {
                    let lambdas: Vec<f64> = parse_list(value, "lambdas=").map_err(&at)?;
                    if let Some(bad) = lambdas.iter().find(|l| !(0.0..=1.0).contains(*l)) {
                        return Err(at(format!("lambda must be between 0 and 1, got {bad}")));
                    }
                    entry.lambdas = Some(lambdas);
                }
                "seed" => {
                    entry.seed =
                        value.parse().map_err(|_| at(format!("invalid seed '{value}'")))?;
                }
                "seeds" => entry.seeds = parse_list(value, "seeds=").map_err(&at)?,
                "effort" => {
                    entry.effort = EffortLevel::parse(value).ok_or_else(|| {
                        at(format!("unknown effort '{value}' (expected fast|default|high)"))
                    })?;
                }
                other => return Err(at(format!("unknown key '{other}'"))),
            }
        }
        if entry.lambda.is_some() && entry.lambdas.is_some() {
            return Err(at("lambda= and lambdas= are mutually exclusive".to_string()));
        }
        entries.push(entry);
    }
    if entries.is_empty() {
        return Err("manifest names no designs".to_string());
    }
    Ok(entries)
}

/// Batch driver behind `--manifest`: loads every design named by the
/// manifest, interns them into one [`PlacementService`] (shared connectivity
/// and artifact caches), runs one job per line and releases each design
/// after its last line — so under `--memory-budget` the store can evict
/// finished designs (and their artifacts) while later lines still run,
/// bounding the batch's peak resident bytes, not just its tail. Per-design
/// failures — an unreadable/unparsable input file as much as a failed
/// placement — are reported inline and do not stop the other designs; the
/// run errors (carrying the full report) when any design failed. Returns
/// the text printed to stdout.
pub fn run_manifest(opts: &Options) -> Result<String, String> {
    let manifest_path = opts.manifest.as_ref().expect("run_manifest requires --manifest");
    let text = std::fs::read_to_string(manifest_path)
        .map_err(|e| format!("cannot read {}: {e}", manifest_path.display()))?;
    let base_dir = manifest_path.parent().unwrap_or(Path::new("."));
    let entries = parse_manifest(&text, base_dir, opts)?;
    let registry = baselines::default_registry();

    // reject composite flows before anything runs, with the same actionable
    // message as the single-design front end — a line sweeps when the global
    // --sweep applies or when it carries its own seeds=/lambdas= grid
    for entry in &entries {
        let sweeps = opts.sweep
            || entry.seeds.len() > 1
            || entry.lambdas.as_ref().is_some_and(|l| l.len() > 1);
        if sweeps && registry.create(&entry.flow).map_err(|e| e.to_string())?.is_composite() {
            return Err(format!(
                "flow '{}' already sweeps a seed×λ grid internally; drop --sweep and per-line \
                 seeds=/lambdas= grids (configure the flow's own grid instead) or sweep a \
                 single-run flow like 'hidap'",
                entry.flow
            ));
        }
    }

    // one byte-budgeted store for the whole fleet: designs plus their
    // derived artifacts (Gnet, Gseq) under --memory-budget when given.
    // Without the flag the store is effectively unbounded for the run, so
    // no manifest line ever evicts another's warm artifacts (the PR-4
    // guarantee) — a finite batch is not the long-lived service the default
    // artifact budget protects against.
    let budget_bytes = opts
        .memory_budget_mib
        .map(|mib| (mib * (1u64 << 20) as f64) as usize)
        .unwrap_or(usize::MAX);
    let store = placer_core::DesignStore::with_memory_budget(budget_bytes);
    let mut service = PlacementService::with_store(registry, store).with_jobs(opts.jobs);
    // repeated lines with the same input files skip the parse entirely —
    // the front-end load is the dominant cost for large netlists
    type LoadSpec = (PathBuf, Option<PathBuf>, Option<PathBuf>, Option<String>);
    let mut loaded: std::collections::HashMap<LoadSpec, (placer_core::DesignHandle, i64, String)> =
        std::collections::HashMap::new();
    // how many lines still need each design: the handle is released after
    // its last line, so under --memory-budget the store can evict finished
    // designs while later lines are still running (the budget bounds the
    // run's peak, not just its tail)
    let mut lines_left: std::collections::HashMap<LoadSpec, usize> =
        std::collections::HashMap::new();
    for entry in &entries {
        *lines_left
            .entry((entry.verilog.clone(), entry.lef.clone(), entry.def.clone(), entry.top.clone()))
            .or_insert(0) += 1;
    }

    let mut output = String::new();
    let mut failures = 0usize;
    for entry in &entries {
        let spec: LoadSpec =
            (entry.verilog.clone(), entry.lef.clone(), entry.def.clone(), entry.top.clone());
        let (handle, dbu, name) = match loaded.get(&spec) {
            Some(cached) => cached.clone(),
            None => {
                let load_opts = Options {
                    verilog: entry.verilog.clone(),
                    lef: entry.lef.clone(),
                    def: entry.def.clone(),
                    top: entry.top.clone(),
                    ..opts.clone()
                };
                match load_design(&load_opts) {
                    Ok((design, dbu)) => {
                        let name = design.name().to_string();
                        let handle = service.intern(design);
                        loaded.insert(spec.clone(), (handle, dbu, name.clone()));
                        (handle, dbu, name)
                    }
                    Err(e) => {
                        // a bad input file fails its own line, exactly like
                        // a placement failure — earlier lines' finished
                        // results must not be discarded by a later typo
                        failures += 1;
                        output.push_str(&format!(
                            "{} ({}): FAILED: {e}\n",
                            entry.verilog.display(),
                            entry.flow
                        ));
                        *lines_left.get_mut(&spec).expect("every entry was counted") -= 1;
                        continue;
                    }
                }
            }
        };
        // per-line grid resolution: an explicit lambdas= sweeps that grid,
        // lambda= pins a single λ (even under --sweep), and without either
        // the line inherits the global axis (--lambdas when sweeping,
        // --lambda otherwise); seeds= overrides the seed axis the same way
        let lambdas = if let Some(lambdas) = &entry.lambdas {
            lambdas.clone()
        } else if let Some(lambda) = entry.lambda {
            vec![lambda]
        } else if opts.sweep {
            opts.lambdas.clone()
        } else {
            vec![opts.lambda]
        };
        let seeds = if !entry.seeds.is_empty() {
            entry.seeds.clone()
        } else if opts.sweep {
            if opts.seeds.is_empty() {
                BatchGrid::derived(entry.seed, 4, lambdas.clone()).seeds
            } else {
                opts.seeds.clone()
            }
        } else {
            vec![entry.seed]
        };
        let mut job = PlaceJob::new(handle, &entry.flow)
            .with_effort(entry.effort)
            .with_seeds(seeds)
            .with_lambdas(lambdas);
        if opts.report {
            job = job.with_evaluation(EvalConfig { dbu_per_micron: dbu, ..EvalConfig::standard() });
        }
        // run this line now (the queue drains serially either way) and
        // report it while its design is guaranteed resident
        let job_id = service.submit(job);
        service.run_all();
        match service.take_result(job_id).expect("run_all completed the submitted job") {
            Ok(result) => {
                let design = service.store().design(result.design);
                let placement = &result.outcome.placement;
                output.push_str(&format!(
                    "{name} ({}): placed {} macros on a {:.1} x {:.1} um die (legal: {}), seed \
                     {}{}\n",
                    entry.flow,
                    placement.macros.len(),
                    design.die().width() as f64 / dbu as f64,
                    design.die().height() as f64 / dbu as f64,
                    placement.is_legal(design),
                    result.outcome.seed,
                    result.outcome.lambda.map(|l| format!(", lambda {l}")).unwrap_or_default(),
                ));
                if let Some(metrics) = &result.outcome.metrics {
                    output.push_str(&format!(
                        "  wirelength: {:.4} m, GRC%: {:.2}, WNS: {:.2}%, TNS: {:.1} ns\n",
                        metrics.wirelength_m,
                        metrics.grc_percent(),
                        metrics.wns_percent(),
                        metrics.tns_ns(),
                    ));
                }
            }
            Err(e) => {
                // report the failure and keep going: the other designs'
                // results must not be lost to one bad entry
                failures += 1;
                output.push_str(&format!("{name} ({}): FAILED: {e}\n", entry.flow));
            }
        }
        // this line is done with its design: after the last line naming it,
        // drop the intern reference so budget pressure can evict it, and
        // re-apply the budget — the line's flow/evaluation grew the artifact
        // side of the accounting, which only reclaim() folds back in
        let left = lines_left.get_mut(&spec).expect("every entry was counted");
        *left -= 1;
        if *left == 0 {
            service.release(handle);
        }
        service.store_mut().reclaim();
    }
    // one source of truth with the daemon's `stats` command: the service's
    // own snapshot, not counters re-derived from the store piecemeal
    let stats = service.stats();
    let mib = |bytes: usize| bytes as f64 / (1u64 << 20) as f64;
    output.push_str(&format!(
        "service: {} jobs over {} interned designs (peak queue depth {})\n",
        entries.len(),
        stats.interned_designs,
        stats.peak_queued,
    ));
    output.push_str(&format!(
        "cache: Gseq {} built, {} reused; Gnet {} built, {} reused; {} artifacts evicted\n",
        stats.artifacts.seq.misses,
        stats.artifacts.seq.hits,
        stats.artifacts.net.misses,
        stats.artifacts.net.hits,
        stats.artifacts.evictions(),
    ));
    output.push_str(&format!(
        "memory: {:.1} MiB resident (designs {:.1} MiB + artifacts {:.1} MiB), peak {:.1} MiB{}{}\n",
        mib(stats.resident_bytes),
        mib(stats.design_bytes),
        mib(stats.artifact_bytes),
        mib(stats.peak_resident_bytes),
        match opts.memory_budget_mib {
            Some(budget_mib) => format!(", budget {budget_mib:.1} MiB"),
            None => String::new(),
        },
        match stats.design_evictions {
            0 => String::new(),
            n => format!(", {n} designs evicted"),
        },
    ));
    if failures > 0 {
        return Err(format!("{output}{failures} of {} designs failed", entries.len()));
    }
    Ok(output)
}

/// Builds the `--serve` daemon: a [`server::Server`] whose loader reads
/// `intern verilog=<path> [lef=<path>] [def=<path>] [top=<name>]` commands
/// through [`load_design`] (paths resolved against the daemon's working
/// directory), over a store honoring `--memory-budget`, persisting
/// warm-start seeds under `--spill-dir`, with the per-client quota `--quota`
/// sets. Jobs drain serially (`--jobs 1` semantics) so the event stream is
/// deterministic; see `docs/PROTOCOL.md`.
pub fn build_server(opts: &Options) -> server::Server {
    let store = match opts.memory_budget_mib {
        Some(mib) => {
            placer_core::DesignStore::with_memory_budget((mib * (1u64 << 20) as f64) as usize)
        }
        None => placer_core::DesignStore::new(),
    };
    let mut service =
        PlacementService::with_store(baselines::default_registry(), store).with_jobs(1);
    if let Some(dir) = &opts.spill_dir {
        service = service.with_spill_dir(dir.clone());
    }
    let server = server::Server::new(service, file_design_loader());
    match opts.quota {
        0 => server,
        quota => server.with_quota(quota),
    }
}

/// The daemon's design loader: `intern` frames name input files like the
/// single-design command line does (`verilog=` required, `lef=`/`def=`/
/// `top=` optional).
fn file_design_loader() -> impl FnMut(&server::InternSpec) -> Result<server::LoadedDesign, String> {
    |spec: &server::InternSpec| {
        let verilog =
            spec.get("verilog").ok_or_else(|| "intern needs a verilog=<path> field".to_string())?;
        let load_opts = Options {
            verilog: PathBuf::from(verilog),
            lef: spec.get("lef").map(PathBuf::from),
            def: spec.get("def").map(PathBuf::from),
            top: spec.get("top").map(str::to_string),
            ..Options::default()
        };
        let (design, dbu) = load_design(&load_opts)?;
        Ok(server::LoadedDesign { design, dbu })
    }
}

/// Runs one `--serve` session over an explicit reader/writer pair (the
/// testable core of serve mode; [`run_serve`] binds it to stdin/stdout or
/// the `--socket` transport). Returns how the session ended.
pub fn run_serve_session<R: std::io::BufRead, W: std::io::Write + Send + 'static>(
    opts: &Options,
    reader: R,
    writer: W,
) -> Result<server::SessionEnd, String> {
    let mut daemon = build_server(opts);
    daemon.serve_once(reader, writer).map_err(|e| format!("serve session failed: {e}"))
}

/// The `--serve` entry point: speaks the protocol on stdin/stdout, or — with
/// `--socket <path>` — serves unix-socket connections (one at a time, store
/// staying warm) until a client sends `shutdown`.
pub fn run_serve(opts: &Options) -> Result<(), String> {
    let mut daemon = build_server(opts);
    match &opts.socket {
        Some(path) => daemon.serve_unix(path).map_err(|e| format!("serve failed: {e}")),
        None => {
            let stdin = std::io::stdin();
            let stdout = std::io::stdout();
            daemon
                .serve_once(stdin.lock(), stdout)
                .map(|_| ())
                .map_err(|e| format!("serve failed: {e}"))
        }
    }
}

/// End-to-end CLI driver: load, place, write outputs, optionally report.
/// In manifest mode ([`Options::manifest`]), places every design of the
/// manifest through one [`PlacementService`] instead; in serve mode
/// ([`Options::serve`]), runs the placement daemon (output streams over the
/// protocol, so the returned stdout text is empty).
/// Returns the text printed to stdout.
pub fn run(opts: &Options) -> Result<String, String> {
    if opts.serve {
        return run_serve(opts).map(|()| String::new());
    }
    if opts.manifest.is_some() {
        return run_manifest(opts);
    }
    run_placement(opts, &mut PlaceContext::new())
}

/// Loads and places one design in `ctx`, writes the outputs, and reports.
/// The report evaluates through `ctx`, whose artifact cache already holds
/// the graphs the placement built.
fn run_placement(opts: &Options, ctx: &mut PlaceContext) -> Result<String, String> {
    let (design, dbu) = load_design(opts)?;
    let (outcome, info) = place_outcome(&design, opts, ctx)?;
    let placement = &outcome.placement;
    let mut output = String::new();
    output.push_str(&format!(
        "placed {} macros on a {:.1} x {:.1} um die (legal: {})\n",
        placement.macros.len(),
        design.die().width() as f64 / dbu as f64,
        design.die().height() as f64 / dbu as f64,
        placement.is_legal(&design),
    ));
    if opts.sweep {
        output.push_str(&format!(
            "sweep: {} candidates on {} threads, winner seed {}{}\n",
            info.candidates,
            info.jobs,
            info.seed,
            info.lambda.map(|l| format!(" lambda {l}")).unwrap_or_default(),
        ));
    }

    if let Some(out) = &opts.out {
        let entries = netlist::def::placement_entries_from_view(&design, placement, true);
        let pins = netlist::def::port_entries(&design);
        // stream straight to disk; a large_soc DEF is tens of MB and never
        // needs to exist as one String
        std::fs::File::create(out)
            .map(std::io::BufWriter::new)
            .and_then(|mut w| {
                netlist::def::write_def_to(
                    &mut w,
                    design.name(),
                    dbu,
                    design.die(),
                    &entries,
                    &pins,
                )
                .and_then(|()| std::io::Write::flush(&mut w))
            })
            .map_err(|e| format!("cannot write {}: {e}", out.display()))?;
        output.push_str(&format!("wrote {}\n", out.display()));
    }
    if let Some(svg) = &opts.svg {
        let svg_text = eval::visualize::floorplan_svg(&design, placement, design.name());
        std::fs::write(svg, svg_text)
            .map_err(|e| format!("cannot write {}: {e}", svg.display()))?;
        output.push_str(&format!("wrote {}\n", svg.display()));
    }
    if opts.report {
        let eval_cfg = EvalConfig { dbu_per_micron: dbu, ..EvalConfig::standard() };
        let metrics = ctx.evaluator(eval_cfg).evaluate(&design, placement);
        output.push_str(&format!(
            "wirelength: {:.4} m\ncongestion (GRC%): {:.2}\nWNS: {:.2}% of clock\nTNS: {:.1} ns\npeak cell density: {:.2}\n",
            metrics.wirelength_m,
            metrics.grc_percent(),
            metrics.wns_percent(),
            metrics.tns_ns(),
            metrics.density.peak(),
        ));
        for timing in &outcome.stage_timings {
            output.push_str(&format!("stage {}: {:.3} s\n", timing.stage, timing.seconds));
        }
    }
    Ok(output)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parse_minimal_arguments() {
        let opts = parse_args(&args(&["--verilog", "a.v"])).unwrap();
        assert_eq!(opts.verilog, PathBuf::from("a.v"));
        assert_eq!(opts.flow, "hidap");
        assert_eq!(opts.lambda, 0.5);
        assert!(!opts.sweep);
        assert_eq!(opts.jobs, 0);
        assert!(!opts.report);
    }

    #[test]
    fn parse_full_arguments() {
        let opts = parse_args(&args(&[
            "--verilog",
            "a.v",
            "--lef",
            "a.lef",
            "--def",
            "a.def",
            "--top",
            "chip",
            "--flow",
            "indeda",
            "--lambda",
            "0.8",
            "--effort",
            "high",
            "--seed",
            "7",
            "--sweep",
            "--jobs",
            "4",
            "--seeds",
            "1,2,3",
            "--lambdas",
            "0.1,0.9",
            "--out",
            "out.def",
            "--svg",
            "fp.svg",
            "--report",
        ]))
        .unwrap();
        assert_eq!(opts.flow, "indeda");
        assert_eq!(opts.lambda, 0.8);
        assert_eq!(opts.effort, EffortLevel::High);
        assert_eq!(opts.seed, 7);
        assert!(opts.sweep);
        assert_eq!(opts.jobs, 4);
        assert_eq!(opts.seeds, vec![1, 2, 3]);
        assert_eq!(opts.lambdas, vec![0.1, 0.9]);
        assert!(opts.report);
        assert_eq!(opts.top.as_deref(), Some("chip"));
    }

    #[test]
    fn parse_errors() {
        assert!(parse_args(&args(&[])).is_err());
        assert!(parse_args(&args(&["--verilog"])).is_err());
        assert!(parse_args(&args(&["--verilog", "a.v", "--bogus"])).is_err());
        assert!(parse_args(&args(&["--verilog", "a.v", "--flow", "magic"])).is_err());
        assert!(parse_args(&args(&["--verilog", "a.v", "--jobs", "many"])).is_err());
        assert!(parse_args(&args(&["--verilog", "a.v", "--seeds", "1,x"])).is_err());
    }

    #[test]
    fn lambda_out_of_range_rejected_at_parse_time() {
        for bad in ["2.0", "-0.1", "1.0001"] {
            let err = parse_args(&args(&["--verilog", "a.v", "--lambda", bad])).unwrap_err();
            assert!(err.contains("--lambda must be between 0 and 1"), "{err}");
        }
        // boundary values are accepted
        assert!(parse_args(&args(&["--verilog", "a.v", "--lambda", "0.0"])).is_ok());
        assert!(parse_args(&args(&["--verilog", "a.v", "--lambda", "1.0"])).is_ok());
        // sweep lambdas are validated too
        let err = parse_args(&args(&["--verilog", "a.v", "--lambdas", "0.2,1.5"])).unwrap_err();
        assert!(err.contains("between 0 and 1"), "{err}");
    }

    #[test]
    fn unknown_effort_rejected_at_parse_time() {
        let err = parse_args(&args(&["--verilog", "a.v", "--effort", "nope"])).unwrap_err();
        assert!(err.contains("unknown effort 'nope'"), "{err}");
        assert!(err.contains("fast|default|high"), "{err}");
        for good in ["fast", "default", "high"] {
            assert!(parse_args(&args(&["--verilog", "a.v", "--effort", good])).is_ok());
        }
    }

    #[test]
    fn unknown_flow_lists_registry_names() {
        let err = parse_args(&args(&["--verilog", "a.v", "--flow", "magic"])).unwrap_err();
        assert!(err.contains("handfp"), "{err}");
        assert!(err.contains("hidap"), "{err}");
        assert!(err.contains("indeda"), "{err}");
    }

    #[test]
    fn manifest_flag_parses_and_excludes_single_design_flags() {
        let opts = parse_args(&args(&["--manifest", "designs.txt"])).unwrap();
        assert_eq!(opts.manifest, Some(PathBuf::from("designs.txt")));
        // --verilog and --manifest are mutually exclusive
        let err = parse_args(&args(&["--verilog", "a.v", "--manifest", "m.txt"])).unwrap_err();
        assert!(err.contains("mutually exclusive"), "{err}");
        // single-design outputs are rejected in batch mode
        let err = parse_args(&args(&["--manifest", "m.txt", "--out", "x.def"])).unwrap_err();
        assert!(err.contains("not available with --manifest"), "{err}");
        // neither input is an error
        let err = parse_args(&args(&[])).unwrap_err();
        assert!(err.contains("--verilog (or --manifest, or --serve)"), "{err}");
    }

    #[test]
    fn manifest_lines_parse_with_overrides_and_defaults() {
        let defaults = parse_args(&args(&["--manifest", "m.txt", "--flow", "indeda"])).unwrap();
        let text = "\
# fleet of two
a.v flow=hidap lambda=0.25 seed=9 effort=fast   # inline comment
sub/b.v lef=b.lef top=chip
";
        let entries = parse_manifest(text, Path::new("/base"), &defaults).unwrap();
        assert_eq!(entries.len(), 2);
        assert_eq!(entries[0].verilog, PathBuf::from("/base/a.v"));
        assert_eq!(entries[0].flow, "hidap");
        assert_eq!(entries[0].lambda, Some(0.25));
        assert_eq!(entries[0].seed, 9);
        assert_eq!(entries[0].effort, EffortLevel::Fast);
        // unnamed keys inherit the command-line defaults (λ stays unpinned
        // so sweeps use the --lambdas axis)
        assert_eq!(entries[1].flow, "indeda");
        assert_eq!(entries[1].lambda, None);
        assert_eq!(entries[1].lef, Some(PathBuf::from("/base/b.lef")));
        assert_eq!(entries[1].top.as_deref(), Some("chip"));
        assert_eq!(entries[1].verilog, PathBuf::from("/base/sub/b.v"));
    }

    #[test]
    fn memory_budget_flag_parses_and_requires_manifest() {
        let opts = parse_args(&args(&["--manifest", "m.txt", "--memory-budget", "512"])).unwrap();
        assert_eq!(opts.memory_budget_mib, Some(512.0));
        // fractional budgets are fine (tests use tiny ones)
        let opts = parse_args(&args(&["--manifest", "m.txt", "--memory-budget", "0.5"])).unwrap();
        assert_eq!(opts.memory_budget_mib, Some(0.5));
        for bad in ["0", "-3", "nan", "lots"] {
            let err =
                parse_args(&args(&["--manifest", "m.txt", "--memory-budget", bad])).unwrap_err();
            assert!(err.contains("--memory-budget"), "{bad}: {err}");
        }
        // the budget governs the manifest service store only
        let err = parse_args(&args(&["--verilog", "a.v", "--memory-budget", "64"])).unwrap_err();
        assert!(err.contains("--manifest"), "{err}");
    }

    #[test]
    fn manifest_lines_parse_per_line_grids() {
        let defaults = parse_args(&args(&["--manifest", "m.txt"])).unwrap();
        let text = "a.v seeds=1,2,3 lambdas=0.2,0.8\nb.v seeds=9\nc.v\n";
        let entries = parse_manifest(text, Path::new("/base"), &defaults).unwrap();
        assert_eq!(entries[0].seeds, vec![1, 2, 3]);
        assert_eq!(entries[0].lambdas, Some(vec![0.2, 0.8]));
        assert_eq!(entries[1].seeds, vec![9]);
        assert_eq!(entries[1].lambdas, None);
        // unnamed lines inherit (empty = use the global axis)
        assert!(entries[2].seeds.is_empty());
        assert_eq!(entries[2].lambdas, None);
    }

    #[test]
    fn manifest_validation_errors_name_the_line() {
        let defaults = parse_args(&args(&["--manifest", "m.txt"])).unwrap();
        let base = Path::new(".");
        for (text, needle) in [
            ("a.v flow=magic", "unknown flow 'magic'"),
            ("a.v lambda=1.5", "between 0 and 1"),
            ("a.v effort=turbo", "unknown effort 'turbo'"),
            ("a.v seed=many", "invalid seed"),
            ("a.v seeds=1,x", "invalid seeds"),
            ("a.v lambdas=0.2,1.5", "between 0 and 1"),
            ("a.v lambdas=0.2,zz", "invalid lambdas"),
            ("a.v lambda=0.5 lambdas=0.2", "mutually exclusive"),
            ("a.v bogus=1", "unknown key 'bogus'"),
            ("a.v nokey", "expected key=value"),
            ("# only comments\n", "no designs"),
        ] {
            let err = parse_manifest(text, base, &defaults).unwrap_err();
            assert!(err.contains(needle), "{text:?}: {err}");
        }
        let err = parse_manifest("ok.v\nbad.v lambda=7", base, &defaults).unwrap_err();
        assert!(err.contains("line 2"), "{err}");
    }

    #[test]
    fn serve_flags_parse_and_exclude_batch_inputs() {
        let opts = parse_args(&args(&["--serve"])).unwrap();
        assert!(opts.serve);
        assert_eq!(opts.socket, None);
        let opts = parse_args(&args(&[
            "--serve",
            "--socket",
            "/tmp/hidap.sock",
            "--memory-budget",
            "64",
            "--quota",
            "4",
        ]))
        .unwrap();
        assert_eq!(opts.socket, Some(PathBuf::from("/tmp/hidap.sock")));
        assert_eq!(opts.memory_budget_mib, Some(64.0));
        assert_eq!(opts.quota, 4);
        // the daemon takes designs over the protocol, not the command line
        let err = parse_args(&args(&["--serve", "--verilog", "a.v"])).unwrap_err();
        assert!(err.contains("--serve runs a daemon"), "{err}");
        let err = parse_args(&args(&["--serve", "--manifest", "m.txt"])).unwrap_err();
        assert!(err.contains("--serve runs a daemon"), "{err}");
        let err = parse_args(&args(&["--serve", "--out", "x.def"])).unwrap_err();
        assert!(err.contains("not available"), "{err}");
        // serve-only flags demand --serve
        let err = parse_args(&args(&["--verilog", "a.v", "--socket", "s"])).unwrap_err();
        assert!(err.contains("--serve"), "{err}");
        let err = parse_args(&args(&["--verilog", "a.v", "--quota", "2"])).unwrap_err();
        assert!(err.contains("--serve"), "{err}");
        // --help names the protocol and ECO documents, and the replace command
        let usage = parse_args(&args(&["--help"])).unwrap_err();
        assert!(usage.contains("docs/PROTOCOL.md"), "{usage}");
        assert!(usage.contains("docs/ECO.md"), "{usage}");
        assert!(usage.contains("replace"), "{usage}");
    }

    #[test]
    fn report_evaluates_with_the_graphs_the_placement_built() {
        use workload::emit::{emit_lef, emit_verilog};
        use workload::{SocConfig, SocGenerator, SubsystemConfig};
        let generated = SocGenerator::new(SocConfig {
            name: "report_soc".into(),
            subsystems: vec![
                SubsystemConfig::balanced("u_cpu", 2, 4),
                SubsystemConfig::balanced("u_dsp", 2, 4),
            ],
            channels: vec![(0, 1), (1, 0)],
            io_subsystems: vec![0],
            io_bits: 4,
            utilization: 0.5,
            aspect_ratio: 1.0,
            seed: 3,
        })
        .generate();
        let dir = std::env::temp_dir().join(format!("hidap_cli_report_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let (verilog, lef) = (dir.join("report_soc.v"), dir.join("report_soc.lef"));
        std::fs::write(&verilog, emit_verilog(&generated.design)).unwrap();
        std::fs::write(&lef, emit_lef(&generated.design, &generated.library, 1000)).unwrap();
        let opts = parse_args(&args(&[
            "--verilog",
            verilog.to_str().unwrap(),
            "--lef",
            lef.to_str().unwrap(),
            "--effort",
            "fast",
            "--report",
        ]))
        .unwrap();

        let mut ctx = PlaceContext::new();
        let report = run_placement(&opts, &mut ctx).unwrap();
        let stats = ctx.artifacts().stats();
        // the placement built each graph once, and the report's evaluation
        // fetched the placement's Gseq instead of building its own
        assert_eq!((stats.net.misses, stats.seq.misses), (1, 1), "each graph is built once");
        assert_eq!(stats.seq.hits, 1, "the report reuses the placement's Gseq");

        // the report equals what a fresh evaluator computes for the placement
        let (design, dbu) = load_design(&opts).unwrap();
        let placement = place(&design, &opts).unwrap();
        let fresh =
            eval::Evaluator::new(EvalConfig { dbu_per_micron: dbu, ..EvalConfig::standard() })
                .evaluate(&design, &placement);
        for line in [
            format!("wirelength: {:.4} m", fresh.wirelength_m),
            format!("congestion (GRC%): {:.2}", fresh.grc_percent()),
            format!("WNS: {:.2}% of clock", fresh.wns_percent()),
            format!("TNS: {:.1} ns", fresh.tns_ns()),
            format!("peak cell density: {:.2}", fresh.density.peak()),
        ] {
            assert!(report.lines().any(|l| l == line), "missing '{line}' in:\n{report}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn effort_mapping() {
        let opts = parse_args(&args(&["--verilog", "a.v", "--effort", "fast"])).unwrap();
        assert_eq!(opts.effort, EffortLevel::Fast);
    }
}
