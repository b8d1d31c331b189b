//! The three benchmark workloads and the generator that turns a workload,
//! a size and a seed into the Verilog/LEF/DEF text the program reads.

use crate::json::Json;
use netlist::Design;
use std::collections::HashMap;
use std::path::Path;
use workload::{large_soc_config, SocConfig, SocGenerator, SubsystemConfig};

/// Database units per micron of every emitted LEF/DEF file.
pub const DBU: i64 = 1000;

/// One of the benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// 400 macros: the two annealers dominate.
    MacroHeavy,
    /// 16 macros, ~793k cells: parsing, graphs and evaluation dominate.
    CellHeavy,
    /// 200 macros, ~25k cells, driven as a warm ECO session over the daemon.
    EcoSession,
}

impl Workload {
    pub fn parse(name: &str) -> Result<Self, String> {
        match name {
            "macro_heavy" => Ok(Self::MacroHeavy),
            "cell_heavy" => Ok(Self::CellHeavy),
            "eco_session" => Ok(Self::EcoSession),
            other => Err(format!(
                "unknown workload '{other}' (expected macro_heavy, cell_heavy or eco_session)"
            )),
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Self::MacroHeavy => "macro_heavy",
            Self::CellHeavy => "cell_heavy",
            Self::EcoSession => "eco_session",
        }
    }
}

/// `full` is the measured size; `tiny` keeps the same shape small enough
/// for the benchmark's self-test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Full,
    Tiny,
}

impl Size {
    pub fn parse(name: &str) -> Result<Self, String> {
        match name {
            "full" => Ok(Self::Full),
            "tiny" => Ok(Self::Tiny),
            other => Err(format!("unknown size '{other}' (expected full or tiny)")),
        }
    }
}

/// A `large_soc`-shaped configuration: `subsystems` pipelines of 4 stages,
/// a ring plus a skip channel per subsystem, an I/O bus on every fourth.
fn soc(subsystems: usize, macros: usize, bits: usize, glue: usize) -> SocConfig {
    SocConfig {
        name: String::new(),
        subsystems: (0..subsystems)
            .map(|s| SubsystemConfig {
                name: format!("u_sub{s}"),
                macros,
                macro_size: (60_000, 40_000),
                pipeline_stages: 4,
                datapath_bits: bits,
                glue_per_stage: glue,
            })
            .collect(),
        channels: (0..subsystems)
            .flat_map(|s| [(s, (s + 1) % subsystems), (s, (s + 5) % subsystems)])
            .collect(),
        io_subsystems: (0..subsystems).step_by(4).collect(),
        io_bits: 64.min(bits),
        utilization: 0.55,
        aspect_ratio: 1.2,
        seed: 0,
    }
}

/// The generator configuration of a workload. The benchmark seed becomes
/// `SocConfig::seed` (macro size jitter, glue connectivity); the topology
/// is fixed per workload and size.
pub fn config(workload: Workload, size: Size, seed: u64) -> SocConfig {
    let mut config = match (workload, size) {
        // the `large_soc` preset: 16 subsystems, 200 macros, ~90k cells
        (Workload::MacroHeavy, Size::Full) => large_soc_config(1.0),
        // 8 subsystems x 2 macros, 256-bit datapaths, 4,000 glue cells
        // per stage: ~155k cells
        (Workload::CellHeavy, Size::Full) => soc(8, 2, 256, 4_000),
        // 200 macros, ~25k cells
        (Workload::EcoSession, Size::Full) => large_soc_config(0.25),
        (Workload::MacroHeavy, Size::Tiny) => soc(4, 4, 8, 40),
        (Workload::CellHeavy, Size::Tiny) => soc(2, 2, 32, 600),
        (Workload::EcoSession, Size::Tiny) => soc(4, 3, 8, 40),
    };
    config.name = workload.name().to_string();
    config.seed = seed;
    config
}

/// The counts and identity fingerprints that pin a design: two runs whose
/// records agree ran the same inputs.
pub fn design_record(design: &Design) -> Vec<(&'static str, Json)> {
    let csr = design.connectivity();
    vec![
        ("cells", Json::from(design.num_cells())),
        ("nets", Json::from(design.num_nets())),
        ("macros", Json::from(design.num_macros())),
        ("ports", Json::from(design.num_ports())),
        ("pins", Json::from(csr.num_pins())),
        ("geometry_fp", Json::Str(format!("{:016x}", design.geometry_fingerprint()))),
        ("connectivity_fp", Json::Str(format!("{:016x}", csr.fingerprint()))),
    ]
}

/// Generates the workload's inputs into `dir`: `design.v`, `design.lef`,
/// `design.def` (die and ports, no placements) and, for `eco_session`,
/// `edits.txt` with one single-edit script per line. Returns the input
/// record printed with every result.
pub fn generate(
    workload: Workload,
    size: Size,
    seed: u64,
    edits: usize,
    dir: &Path,
) -> Result<Json, String> {
    let generated = SocGenerator::new(config(workload, size, seed)).generate();
    let design = &generated.design;
    let verilog = workload::emit::emit_verilog(design);
    let write = |name: &str, text: &str| {
        std::fs::write(dir.join(name), text)
            .map_err(|e| format!("cannot write {}: {e}", dir.join(name).display()))
    };
    write("design.v", &verilog)?;
    write("design.lef", &workload::emit::emit_lef(design, &generated.library, DBU))?;
    write("design.def", &workload::emit::emit_def(design, DBU, &HashMap::new()))?;

    let mut record = vec![
        ("workload", Json::from(workload.name())),
        ("seed", Json::from(seed)),
        ("top", Json::from(design.name())),
    ];
    record.extend(design_record(design));
    record.push(("verilog_bytes", Json::from(verilog.len())));

    if edits > 0 {
        let scripts = edit_stream(dir, design.name(), seed, edits)?;
        write("edits.txt", &scripts.join("\n"))?;
        let rewires = scripts.iter().filter(|s| s.starts_with("rewire ")).count();
        record.push(("edits", Json::from(scripts.len())));
        record.push(("rewire_edits", Json::from(rewires)));
    }
    Ok(Json::object(record))
}

/// The ECO edit stream: edit `i` is `random_edits(base, seed + i, 1)`
/// rendered as an edit script. Every edit is drawn against the base design,
/// loaded from the emitted files exactly as the daemon loads it (so every
/// name resolves on the daemon's side): edits do not compound, a die edit
/// grows the base die by 2-8 % and a resize stays within 60-110 % of the
/// base footprint, so a long session stays near the base design.
fn edit_stream(dir: &Path, top: &str, seed: u64, count: usize) -> Result<Vec<String>, String> {
    let base = crate::trace::load(dir, top, &mut crate::trace::Spans::default())?.0;
    Ok((0..count as u64)
        .map(|i| {
            let edits = workload::random_edits(&base, seed.wrapping_add(i), 1);
            netlist::edit::format_edit_script(&edits, &base)
        })
        .collect())
}
