//! The parameterized synthetic SoC generator.
//!
//! A generated design is a tree of *subsystems* below the top level.  Each
//! subsystem contains:
//!
//! * a memory group with `macros` hard macros (SRAM-like footprints),
//! * a pipelined datapath: `pipeline_stages` register arrays of
//!   `datapath_bits` bits each, connected stage to stage through small clouds
//!   of combinational glue,
//! * local glue logic reading and driving the datapath.
//!
//! Subsystems communicate through an interconnect module (`u_noc`): for every
//! configured channel a register array in `u_noc` forwards `datapath_bits`
//! bits from one subsystem's last pipeline stage to another subsystem's first
//! stage — this is the block-flow / macro-flow structure of Fig. 2.  Primary
//! port buses are attached to designated subsystems and placed on the die
//! boundary.

use geometry::{Dbu, Point, Rect};
use netlist::design::{CellId, Design, DesignBuilder, NetId, PortDirection};
use netlist::library::{Library, MacroDef, PinDef};
use rand::{ChaCha8Rng, Rng, SeedableRng};

/// Configuration of one subsystem.
#[derive(Debug, Clone, PartialEq)]
pub struct SubsystemConfig {
    /// Instance name (e.g. `u_cpu0`).
    pub name: String,
    /// Number of hard macros in the subsystem's memory group.
    pub macros: usize,
    /// Width and height of each macro in DBU.
    pub macro_size: (Dbu, Dbu),
    /// Number of pipeline register stages.
    pub pipeline_stages: usize,
    /// Bit width of the datapath registers.
    pub datapath_bits: usize,
    /// Number of combinational glue cells per pipeline stage.
    pub glue_per_stage: usize,
}

impl SubsystemConfig {
    /// A balanced subsystem used by the presets.
    pub fn balanced(name: impl Into<String>, macros: usize, datapath_bits: usize) -> Self {
        Self {
            name: name.into(),
            macros,
            macro_size: (60_000, 40_000),
            pipeline_stages: 3,
            datapath_bits,
            glue_per_stage: 4 * datapath_bits,
        }
    }
}

/// Configuration of a whole synthetic SoC.
#[derive(Debug, Clone, PartialEq)]
pub struct SocConfig {
    /// Design name.
    pub name: String,
    /// The subsystems of the design.
    pub subsystems: Vec<SubsystemConfig>,
    /// Communication channels between subsystems, as `(from, to)` indices.
    pub channels: Vec<(usize, usize)>,
    /// Subsystems that receive a primary input bus / drive a primary output bus.
    pub io_subsystems: Vec<usize>,
    /// Width of each primary port bus.
    pub io_bits: usize,
    /// Die utilization (total cell area / die area).
    pub utilization: f64,
    /// Die aspect ratio (width / height).
    pub aspect_ratio: f64,
    /// Random seed (macro size jitter, glue connectivity).
    pub seed: u64,
}

impl SocConfig {
    /// Total number of macros across all subsystems.
    pub fn total_macros(&self) -> usize {
        self.subsystems.iter().map(|s| s.macros).sum()
    }
}

/// The output of the generator.
#[derive(Debug, Clone)]
pub struct GeneratedDesign {
    /// The generated circuit (die area already set).
    pub design: Design,
    /// The macro library referenced by the circuit.
    pub library: Library,
    /// The configuration it was generated from.
    pub config: SocConfig,
}

/// The synthetic SoC generator.
#[derive(Debug, Clone)]
pub struct SocGenerator {
    config: SocConfig,
}

impl SocGenerator {
    /// Creates a generator for a configuration.
    pub fn new(config: SocConfig) -> Self {
        Self { config }
    }

    /// Generates the design. The same configuration always produces the same
    /// circuit.
    pub fn generate(&self) -> GeneratedDesign {
        let cfg = &self.config;
        let mut rng = ChaCha8Rng::seed_from_u64(cfg.seed);
        let mut b = DesignBuilder::new(cfg.name.clone());
        let mut library = Library::new();

        // Per-subsystem bookkeeping of the pipeline boundaries: the input-mux
        // cells feeding the first stage, and the nets driven by the last stage.
        let mut first_stage_muxes: Vec<Vec<CellId>> = Vec::new();
        let mut last_stage_outputs: Vec<Vec<NetId>> = Vec::new();

        for (s_idx, sub) in cfg.subsystems.iter().enumerate() {
            let (muxes, outs) = self.build_subsystem(&mut b, &mut library, &mut rng, s_idx, sub);
            first_stage_muxes.push(muxes);
            last_stage_outputs.push(outs);
        }

        // Interconnect: one register array per channel inside u_noc.
        for (c_idx, &(from, to)) in cfg.channels.iter().enumerate() {
            let bits =
                cfg.subsystems[from].datapath_bits.min(cfg.subsystems[to].datapath_bits).max(1);
            for bit in 0..bits {
                let f = b.add_flop(format!("u_noc/ch{c_idx}_reg[{bit}]"), "u_noc");
                let src_net = last_stage_outputs[from][bit % last_stage_outputs[from].len()];
                b.connect_sink(src_net, f);
                let out_net = b.add_net(format!("u_noc/ch{c_idx}_q[{bit}]"));
                b.connect_driver(out_net, f);
                // drive a glue cell in the target subsystem that feeds its first-stage mux
                let glue = b.add_comb(
                    format!("{}/rx_ch{c_idx}_{bit}", cfg.subsystems[to].name),
                    cfg.subsystems[to].name.clone(),
                );
                b.connect_sink(out_net, glue);
                let rx_net =
                    b.add_net(format!("{}/rx_ch{c_idx}_q[{bit}]", cfg.subsystems[to].name));
                b.connect_driver(rx_net, glue);
                let mux = first_stage_muxes[to][bit % first_stage_muxes[to].len()];
                b.connect_sink(rx_net, mux);
            }
        }

        // Primary I/O buses.
        for (io_idx, &s_idx) in cfg.io_subsystems.iter().enumerate() {
            let sub = &cfg.subsystems[s_idx];
            for bit in 0..cfg.io_bits {
                let in_port = b.add_port(format!("din{io_idx}[{bit}]"), PortDirection::Input);
                let n = b.add_net(format!("din{io_idx}_net[{bit}]"));
                b.connect_port_driver(n, in_port);
                let glue =
                    b.add_comb(format!("{}/io_in_{io_idx}_{bit}", sub.name), sub.name.clone());
                b.connect_sink(n, glue);
                let io_net = b.add_net(format!("{}/io_in_{io_idx}_q[{bit}]", sub.name));
                b.connect_driver(io_net, glue);
                let mux = first_stage_muxes[s_idx][bit % first_stage_muxes[s_idx].len()];
                b.connect_sink(io_net, mux);

                let out_port = b.add_port(format!("dout{io_idx}[{bit}]"), PortDirection::Output);
                let out_net = last_stage_outputs[s_idx][bit % last_stage_outputs[s_idx].len()];
                b.connect_port_sink(out_net, out_port);
            }
        }

        // Die area from utilization, ports on the boundary.
        let mut design = b.build();
        let total_area = design.total_cell_area();
        let die_area = (total_area as f64 / cfg.utilization.clamp(0.05, 0.95)).max(1.0);
        let height = (die_area / cfg.aspect_ratio).sqrt();
        let width = height * cfg.aspect_ratio;
        let die = Rect::new(0, 0, width.round() as Dbu, height.round() as Dbu);
        design.set_die(die);
        place_ports_on_boundary(&mut design, die);
        design.bind_library(&library);

        GeneratedDesign { design, library, config: cfg.clone() }
    }

    /// Builds one subsystem; returns the input-mux cells feeding its first
    /// pipeline stage and the nets driven by its last stage.
    fn build_subsystem(
        &self,
        b: &mut DesignBuilder,
        library: &mut Library,
        rng: &mut ChaCha8Rng,
        s_idx: usize,
        sub: &SubsystemConfig,
    ) -> (Vec<CellId>, Vec<NetId>) {
        let path = sub.name.clone();
        let mem_path = format!("{path}/u_mem");
        let dp_path = format!("{path}/u_dp");

        // --- memory group ---------------------------------------------------
        let lib_name = format!("SRAM_{}x{}", sub.macro_size.0, sub.macro_size.1);
        if library.find_macro(&lib_name).is_none() {
            library.add_macro(MacroDef {
                name: lib_name.clone(),
                width: sub.macro_size.0,
                height: sub.macro_size.1,
                is_block: true,
                pins: vec![
                    PinDef { name: "D".into(), offset: Point::new(0, sub.macro_size.1 / 2) },
                    PinDef { name: "Q".into(), offset: Point::new(0, sub.macro_size.1 / 4) },
                ],
            });
        }
        let mut macros: Vec<CellId> = Vec::with_capacity(sub.macros);
        for m in 0..sub.macros {
            macros.push(b.add_macro(
                format!("{mem_path}/bank{m}"),
                lib_name.clone(),
                sub.macro_size.0,
                sub.macro_size.1,
                mem_path.clone(),
            ));
        }

        // --- pipelined datapath ----------------------------------------------
        // stage s register: u_dp/stage{s}_reg[bit]
        let bits = sub.datapath_bits.max(1);
        let mut stage_regs: Vec<Vec<CellId>> = Vec::new();
        for s in 0..sub.pipeline_stages.max(1) {
            let mut regs = Vec::with_capacity(bits);
            for bit in 0..bits {
                regs.push(b.add_flop(format!("{dp_path}/stage{s}_reg[{bit}]"), dp_path.clone()));
            }
            stage_regs.push(regs);
        }
        // first-stage input muxes: one comb cell per bit drives the stage-0
        // register; local memories, the interconnect and the I/O glue all
        // feed these muxes through their own nets (single-driver netlist).
        let mut first_muxes = Vec::with_capacity(bits);
        for (bit, &reg) in stage_regs[0].iter().enumerate() {
            let mux = b.add_comb(format!("{dp_path}/in_mux_{bit}"), dp_path.clone());
            let n = b.add_net(format!("{dp_path}/stage0_d[{bit}]"));
            b.connect_driver(n, mux);
            b.connect_sink(n, reg);
            first_muxes.push(mux);
        }
        // stage-to-stage connections through combinational glue
        for s in 1..stage_regs.len() {
            for bit in 0..bits {
                let q = b.add_net(format!("{dp_path}/stage{}_q[{bit}]", s - 1));
                b.connect_driver(q, stage_regs[s - 1][bit]);
                let glue = b.add_comb(format!("{dp_path}/alu{s}_{bit}",), dp_path.clone());
                b.connect_sink(q, glue);
                // a second random operand from the same previous stage models datapath mixing
                let other_bit = rng.gen_range(0..bits);
                let other_q = b.add_net(format!("{dp_path}/stage{}_q[{other_bit}]", s - 1));
                b.connect_driver(other_q, stage_regs[s - 1][other_bit]);
                b.connect_sink(other_q, glue);
                let d = b.add_net(format!("{dp_path}/stage{s}_d[{bit}]"));
                b.connect_driver(d, glue);
                b.connect_sink(d, stage_regs[s][bit]);
            }
        }
        // last-stage output nets
        let last = stage_regs.len() - 1;
        let mut last_outputs = Vec::with_capacity(bits);
        for (bit, &reg) in stage_regs[last].iter().enumerate() {
            let n = b.add_net(format!("{dp_path}/stage{last}_q[{bit}]"));
            b.connect_driver(n, reg);
            last_outputs.push(n);
        }

        // --- memory <-> datapath traffic -------------------------------------
        // every macro reads the last stage and writes the first stage
        for (m_idx, &m) in macros.iter().enumerate() {
            let wr_bits = bits.clamp(1, 16);
            for bit in 0..wr_bits {
                let src = last_outputs[(m_idx + bit) % bits];
                b.connect_sink(src, m);
                let q = b.add_net(format!("{mem_path}/bank{m_idx}_q[{bit}]"));
                b.connect_driver(q, m);
                let glue = b.add_comb(format!("{mem_path}/rd_mux{m_idx}_{bit}"), mem_path.clone());
                b.connect_sink(q, glue);
                let rd_net = b.add_net(format!("{mem_path}/rd_data{m_idx}[{bit}]"));
                b.connect_driver(rd_net, glue);
                b.connect_sink(rd_net, first_muxes[(m_idx + bit) % bits]);
            }
        }

        // --- local glue logic -------------------------------------------------
        let glue_path = format!("{path}/u_ctl");
        for g in 0..(sub.glue_per_stage * sub.pipeline_stages.max(1)) {
            let cell = b.add_comb(format!("{glue_path}/g{g}"), glue_path.clone());
            // read a random datapath net, drive nothing critical (local control)
            let bit = rng.gen_range(0..bits);
            b.connect_sink(last_outputs[bit], cell);
        }
        let _ = s_idx;
        (first_muxes, last_outputs)
    }
}

/// Distributes the primary ports evenly along the die boundary (inputs on the
/// left and bottom edges, outputs on the right and top edges).
fn place_ports_on_boundary(design: &mut Design, die: Rect) {
    let ports: Vec<_> = design.port_ids().collect();
    if ports.is_empty() {
        return;
    }
    let inputs: Vec<_> = ports
        .iter()
        .copied()
        .filter(|&p| design.port(p).direction == PortDirection::Input)
        .collect();
    let outputs: Vec<_> = ports.iter().copied().filter(|p| !inputs.contains(p)).collect();
    for (i, &p) in inputs.iter().enumerate() {
        let frac = (i + 1) as f64 / (inputs.len() + 1) as f64;
        let pos = Point::new(die.llx, die.lly + (die.height() as f64 * frac) as Dbu);
        design.set_port_position(p, Some(pos));
    }
    for (i, &p) in outputs.iter().enumerate() {
        let frac = (i + 1) as f64 / (outputs.len() + 1) as f64;
        let pos = Point::new(die.urx, die.lly + (die.height() as f64 * frac) as Dbu);
        design.set_port_position(p, Some(pos));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netlist::design::CellKind;
    use netlist::hierarchy::HierarchyTree;

    fn small_config() -> SocConfig {
        SocConfig {
            name: "tiny".into(),
            subsystems: vec![
                SubsystemConfig::balanced("u_cpu", 4, 8),
                SubsystemConfig::balanced("u_dsp", 2, 8),
            ],
            channels: vec![(0, 1), (1, 0)],
            io_subsystems: vec![0],
            io_bits: 8,
            utilization: 0.5,
            aspect_ratio: 1.0,
            seed: 1,
        }
    }

    #[test]
    fn generates_requested_macros() {
        let g = SocGenerator::new(small_config()).generate();
        assert_eq!(g.design.num_macros(), 6);
        assert_eq!(g.config.total_macros(), 6);
        assert!(g.library.blocks().count() >= 1);
    }

    #[test]
    fn design_is_consistent_and_hierarchical() {
        let g = SocGenerator::new(small_config()).generate();
        g.design.validate().expect("consistent netlist");
        let ht = HierarchyTree::from_design(&g.design);
        assert!(ht.find("u_cpu").is_some());
        assert!(ht.find("u_cpu/u_mem").is_some());
        assert!(ht.find("u_cpu/u_dp").is_some());
        assert!(ht.find("u_noc").is_some());
        // all macros live under the memory groups
        for m in g.design.macros() {
            assert!(g.design.hier_path(g.design.cell(m).hier_path).contains("u_mem"));
        }
    }

    #[test]
    fn die_respects_utilization() {
        let g = SocGenerator::new(small_config()).generate();
        let die_area = g.design.die().area() as f64;
        let cell_area = g.design.total_cell_area() as f64;
        let utilization = cell_area / die_area;
        assert!((utilization - 0.5).abs() < 0.05, "utilization {utilization}");
    }

    #[test]
    fn ports_are_on_the_boundary() {
        let g = SocGenerator::new(small_config()).generate();
        let die = g.design.die();
        assert!(g.design.num_ports() > 0);
        for (_, port) in g.design.ports() {
            let pos = port.position.expect("all ports placed");
            assert!(pos.x == die.llx || pos.x == die.urx || pos.y == die.lly || pos.y == die.ury);
        }
    }

    #[test]
    fn deterministic_generation() {
        let a = SocGenerator::new(small_config()).generate();
        let b = SocGenerator::new(small_config()).generate();
        assert_eq!(a.design, b.design);
    }

    #[test]
    fn has_sequential_and_combinational_logic() {
        let g = SocGenerator::new(small_config()).generate();
        let flops = g.design.cells().filter(|(_, c)| c.kind == CellKind::Flop).count();
        let combs = g.design.cells().filter(|(_, c)| c.kind == CellKind::Comb).count();
        assert!(flops > 16, "expected pipeline registers, got {flops}");
        assert!(combs > 32, "expected glue logic, got {combs}");
    }

    #[test]
    fn channels_create_cross_subsystem_paths() {
        let g = SocGenerator::new(small_config()).generate();
        // a register in u_noc must exist per channel bit
        let d = &g.design;
        let noc_regs = d
            .cells()
            .filter(|(_, c)| d.hier_path(c.hier_path) == "u_noc" && c.kind == CellKind::Flop)
            .count();
        assert_eq!(noc_regs, 2 * 8);
    }
}
