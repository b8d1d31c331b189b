//! Workload presets: the c1–c8 stand-ins and the paper's illustrative designs.
//!
//! Macro counts match Table III of the paper; cell counts are scaled down by
//! roughly 250× so that a full three-flow comparison runs on a laptop in
//! minutes rather than the hours a signoff-size design would need.  The
//! `paper_cells` field records the original size for reporting.

use crate::generator::{GeneratedDesign, SocConfig, SocGenerator, SubsystemConfig};
use geometry::{Dbu, Point, Rect};
use netlist::design::{Design, DesignBuilder, PortDirection};

/// Description of one benchmark circuit of the paper.
#[derive(Debug, Clone, PartialEq)]
pub struct CircuitPreset {
    /// Circuit name (`c1` … `c8`).
    pub name: &'static str,
    /// Number of macros (matches the paper).
    pub macros: usize,
    /// Cell count of the original industrial design (millions), for reporting.
    pub paper_cells_millions: f64,
    /// Wirelength of the handcrafted floorplan in the paper (meters), for reporting.
    pub paper_handfp_wl_m: f64,
}

/// The eight circuits of Table III.
pub const PAPER_CIRCUITS: [CircuitPreset; 8] = [
    CircuitPreset { name: "c1", macros: 32, paper_cells_millions: 0.52, paper_handfp_wl_m: 12.81 },
    CircuitPreset { name: "c2", macros: 100, paper_cells_millions: 3.95, paper_handfp_wl_m: 38.97 },
    CircuitPreset { name: "c3", macros: 94, paper_cells_millions: 3.78, paper_handfp_wl_m: 38.16 },
    CircuitPreset { name: "c4", macros: 122, paper_cells_millions: 4.81, paper_handfp_wl_m: 38.35 },
    CircuitPreset { name: "c5", macros: 133, paper_cells_millions: 1.39, paper_handfp_wl_m: 38.06 },
    CircuitPreset { name: "c6", macros: 90, paper_cells_millions: 2.87, paper_handfp_wl_m: 74.87 },
    CircuitPreset { name: "c7", macros: 108, paper_cells_millions: 1.67, paper_handfp_wl_m: 35.29 },
    CircuitPreset { name: "c8", macros: 37, paper_cells_millions: 2.20, paper_handfp_wl_m: 25.17 },
];

/// Builds the generator configuration for one of the c1–c8 stand-ins.
///
/// # Panics
///
/// Panics if `name` is not one of `c1` … `c8`.
pub fn circuit_preset(name: &str) -> SocConfig {
    let preset = PAPER_CIRCUITS
        .iter()
        .find(|p| p.name == name)
        .unwrap_or_else(|| panic!("unknown circuit preset '{name}'"));
    let index = name[1..].parse::<u64>().unwrap_or(1);

    // Subsystem structure scales with the macro count; datapath width scales
    // with the original design size so bigger designs have more glue.
    let num_subsystems = (preset.macros / 12).clamp(3, 12);
    let base = preset.macros / num_subsystems;
    let mut remainder = preset.macros % num_subsystems;
    let bits = if preset.paper_cells_millions > 3.0 {
        48
    } else if preset.paper_cells_millions > 1.5 {
        32
    } else {
        24
    };
    // Macro footprint varies across circuits so macro-area dominance differs.
    let macro_size: (Dbu, Dbu) = match index % 3 {
        0 => (80_000, 40_000),
        1 => (60_000, 40_000),
        _ => (50_000, 30_000),
    };

    let mut subsystems = Vec::with_capacity(num_subsystems);
    for s in 0..num_subsystems {
        let extra = if remainder > 0 { 1 } else { 0 };
        remainder = remainder.saturating_sub(1);
        let mut sub = SubsystemConfig::balanced(format!("u_sub{s}"), base + extra, bits);
        sub.macro_size = macro_size;
        sub.pipeline_stages = 2 + (s % 3);
        subsystems.push(sub);
    }

    // Channels: a ring plus cross links between every other pair.
    let mut channels = Vec::new();
    for s in 0..num_subsystems {
        channels.push((s, (s + 1) % num_subsystems));
    }
    for s in (0..num_subsystems).step_by(2) {
        channels.push((s, (s + num_subsystems / 2) % num_subsystems));
    }

    SocConfig {
        name: preset.name.to_string(),
        subsystems,
        channels,
        io_subsystems: vec![0, num_subsystems / 2],
        io_bits: bits,
        utilization: 0.55,
        aspect_ratio: if index % 2 == 0 { 1.0 } else { 1.4 },
        seed: 0xC1AC0 + index,
    }
}

/// Generates one of the c1–c8 stand-ins, the `large_soc` scale scenario
/// (full ~90k-cell size — the table-experiment entry point treats it as a
/// ninth circuit), or the ~1M-cell `mega_soc` scale scenario.
pub fn generate_circuit(name: &str) -> GeneratedDesign {
    if name == "large_soc" {
        return large_soc();
    }
    if name == "mega_soc" {
        return mega_soc();
    }
    SocGenerator::new(circuit_preset(name)).generate()
}

/// Configuration of the `large_soc` scale preset: ~100k cells and 200 macros
/// across 16 subsystems — the scenario the dense data plane is sized for
/// (hash-map stores dominate the placer runtime well before this scale).
///
/// `scale ≤ 1.0` shrinks the glue/datapath budget proportionally (macro count
/// and subsystem count stay fixed, bit-exact with earlier revisions); `1.0` is
/// the full ~100k-cell design, small fractions make the same topology
/// affordable in debug-build tests.  `scale > 1.0` instead grows the
/// *subsystem count* (and with it the macro count) proportionally while each
/// subsystem keeps its full-scale glue budget — the million-cell axis: scale
/// 12 is the [`mega_soc`] preset (~1M cells, 2400 macros).
pub fn large_soc_config(scale: f64) -> SocConfig {
    let scale = scale.clamp(0.01, 16.0);
    let (num_subsystems, total_macros, glue_scale) = if scale <= 1.0 {
        (16usize, 200usize, scale)
    } else {
        (
            ((16.0 * scale).round() as usize).max(17),
            ((200.0 * scale).round() as usize).max(201),
            1.0,
        )
    };
    let base_macros = total_macros / num_subsystems;
    let extra_macros = total_macros % num_subsystems;
    SocConfig {
        name: "large_soc".into(),
        subsystems: (0..num_subsystems)
            .map(|s| {
                let bits = ((64.0 * glue_scale).round() as usize).max(4);
                SubsystemConfig {
                    name: format!("u_sub{s}"),
                    macros: base_macros + usize::from(s < extra_macros),
                    macro_size: (60_000, 40_000),
                    pipeline_stages: 4,
                    datapath_bits: bits,
                    glue_per_stage: ((1_150.0 * glue_scale).round() as usize).max(8),
                }
            })
            .collect(),
        channels: {
            let mut channels = Vec::new();
            for s in 0..num_subsystems {
                channels.push((s, (s + 1) % num_subsystems));
                channels.push((s, (s + 5) % num_subsystems));
            }
            channels
        },
        io_subsystems: (0..num_subsystems).step_by(4).collect(),
        io_bits: ((64.0 * glue_scale).round() as usize).max(4),
        utilization: 0.55,
        aspect_ratio: 1.2,
        seed: 0x1A26E50C,
    }
}

/// Generates the full-size `large_soc` preset (~100k cells, 200 macros).
pub fn large_soc() -> GeneratedDesign {
    SocGenerator::new(large_soc_config(1.0)).generate()
}

/// The scale factor of the `mega_soc` preset relative to `large_soc`.
pub const MEGA_SOC_SCALE: f64 = 12.0;

/// Configuration of the `mega_soc` preset: the million-cell scale axis.
///
/// This is [`large_soc_config`] at scale 12 — 192 subsystems, 2400 macros,
/// ~1.1M cells — under its own name (so it gets a distinct identity key in
/// the design store and the artifact cache).
pub fn mega_soc_config() -> SocConfig {
    let mut config = large_soc_config(MEGA_SOC_SCALE);
    config.name = "mega_soc".into();
    config
}

/// Generates the full ~1M-cell `mega_soc` preset.  Release builds only in
/// practice: debug-build generation takes minutes.
pub fn mega_soc() -> GeneratedDesign {
    SocGenerator::new(mega_soc_config()).generate()
}

/// Configuration of one design of the multi-design *service fleet*: a set of
/// distinct small SoCs (different names, topologies and seeds, so every
/// design has a distinct identity key) sized for multi-design service
/// benchmarks and tests. `scale` grows the glue/datapath budget; `0.1` keeps
/// a whole fleet affordable in debug-build tests.
pub fn service_fleet_config(index: usize, scale: f64) -> SocConfig {
    let scale = scale.clamp(0.01, 1.0);
    let num_subsystems = 6 + index % 3;
    let bits = ((64.0 * scale).round() as usize).max(4);
    let subsystems = (0..num_subsystems)
        .map(|s| SubsystemConfig {
            name: format!("u_s{s}"),
            // few macros per subsystem: fleet designs are datapath-heavy
            // (expensive derived artifacts) with a cheap macro placement
            macros: 1 + (index + s) % 2,
            macro_size: (40_000, 30_000),
            pipeline_stages: 4,
            datapath_bits: bits,
            glue_per_stage: ((1_150.0 * scale).round() as usize).max(8),
        })
        .collect();
    SocConfig {
        name: format!("fleet_{index}"),
        subsystems,
        channels: (0..num_subsystems).map(|s| (s, (s + 1) % num_subsystems)).collect(),
        io_subsystems: vec![0],
        io_bits: bits,
        utilization: 0.5,
        aspect_ratio: 1.0,
        seed: 0xF1EE7 + index as u64,
    }
}

/// Generates a fleet of `count` distinct designs (see
/// [`service_fleet_config`]).
pub fn service_fleet(count: usize, scale: f64) -> Vec<GeneratedDesign> {
    (0..count).map(|i| SocGenerator::new(service_fleet_config(i, scale)).generate()).collect()
}

/// The 16-macro, two-cluster design used to illustrate the multi-level flow
/// in Fig. 1 of the paper.
pub fn fig1_design() -> GeneratedDesign {
    let config = SocConfig {
        name: "fig1".into(),
        subsystems: vec![
            SubsystemConfig::balanced("u_left", 8, 16),
            SubsystemConfig::balanced("u_right", 8, 16),
        ],
        channels: vec![(0, 1), (1, 0)],
        io_subsystems: vec![0],
        io_bits: 16,
        utilization: 0.45,
        aspect_ratio: 1.6,
        seed: 0xF161,
    };
    SocGenerator::new(config).generate()
}

/// The small system of Fig. 2 / Fig. 3: four single-macro blocks A–D
/// communicating through a standard-cell hub X.  A feeds B and C, B and C
/// feed D; all traffic crosses registers inside X, so block flow sees only
/// `*–X` edges while macro flow reveals the A→{B,C}→D structure.
pub fn fig3_design() -> Design {
    let mut b = DesignBuilder::new("fig3");
    let bits = 32usize;
    let macro_w: Dbu = 120_000;
    let macro_h: Dbu = 90_000;
    let names = ["u_a", "u_b", "u_c", "u_d"];
    let macros: Vec<_> = names
        .iter()
        .map(|n| b.add_macro(format!("{n}/mac"), "MACRO_BLOCK", macro_w, macro_h, n))
        .collect();
    let connect = |b: &mut DesignBuilder, from: usize, to: &[usize], tag: &str| {
        for bit in 0..bits {
            let f = b.add_flop(format!("u_x/{tag}_reg[{bit}]"), "u_x");
            let n_in = b.add_net(format!("u_x/{tag}_d[{bit}]"));
            b.connect_driver(n_in, macros[from]);
            b.connect_sink(n_in, f);
            let n_out = b.add_net(format!("u_x/{tag}_q[{bit}]"));
            b.connect_driver(n_out, f);
            for &t in to {
                b.connect_sink(n_out, macros[t]);
            }
        }
    };
    connect(&mut b, 0, &[1, 2], "a2bc");
    connect(&mut b, 1, &[3], "b2d");
    connect(&mut b, 2, &[3], "c2d");
    // some glue logic inside X so it has standard-cell area of its own
    for g in 0..256 {
        b.add_comb(format!("u_x/ctl{g}"), "u_x");
    }
    // an input bus into A
    for bit in 0..bits {
        let p = b.add_port(format!("din[{bit}]"), PortDirection::Input);
        let n = b.add_net(format!("din_net[{bit}]"));
        b.connect_port_driver(n, p);
        b.connect_sink(n, macros[0]);
    }
    let mut design = b.build();
    let total = design.total_cell_area() as f64;
    let side = (total / 0.45).sqrt() as Dbu;
    let die = Rect::new(0, 0, side, side);
    design.set_die(die);
    for (i, pid) in design.port_ids().enumerate().collect::<Vec<_>>() {
        let frac = (i + 1) as f64 / (bits + 1) as f64;
        design.set_port_position(pid, Some(Point::new(0, (die.height() as f64 * frac) as Dbu)));
    }
    design
}

#[cfg(test)]
mod tests {
    use super::*;
    use netlist::hierarchy::HierarchyTree;

    #[test]
    fn every_preset_matches_paper_macro_count() {
        for preset in &PAPER_CIRCUITS {
            let config = circuit_preset(preset.name);
            assert_eq!(config.total_macros(), preset.macros, "{}", preset.name);
        }
    }

    #[test]
    fn c1_generates_consistent_design() {
        let g = generate_circuit("c1");
        assert_eq!(g.design.num_macros(), 32);
        g.design.validate().expect("consistent design");
        assert!(g.design.num_cells() > 1000, "c1 should have substantial glue logic");
        assert!(g.design.die().area() > 0);
    }

    #[test]
    #[should_panic]
    fn unknown_preset_panics() {
        circuit_preset("c99");
    }

    #[test]
    fn fig1_has_sixteen_macros_in_two_clusters() {
        let g = fig1_design();
        assert_eq!(g.design.num_macros(), 16);
        let ht = HierarchyTree::from_design(&g.design);
        let left = ht.find("u_left").unwrap();
        let right = ht.find("u_right").unwrap();
        assert_eq!(ht.node(left).subtree_macros, 8);
        assert_eq!(ht.node(right).subtree_macros, 8);
    }

    #[test]
    fn fig3_structure_matches_paper_example() {
        let d = fig3_design();
        assert_eq!(d.num_macros(), 4);
        d.validate().unwrap();
        let ht = HierarchyTree::from_design(&d);
        // blocks A-D have one macro each, X has none but plenty of cells
        for name in ["u_a", "u_b", "u_c", "u_d"] {
            assert_eq!(ht.node(ht.find(name).unwrap()).subtree_macros, 1);
        }
        let x = ht.node(ht.find("u_x").unwrap());
        assert_eq!(x.subtree_macros, 0);
        assert!(x.subtree_cells > 256);
    }

    #[test]
    fn large_soc_config_has_200_macros() {
        let config = large_soc_config(1.0);
        assert_eq!(config.total_macros(), 200);
        assert_eq!(config.subsystems.len(), 16);
        // scaled-down variant keeps the macro count and topology
        let small = large_soc_config(0.05);
        assert_eq!(small.total_macros(), 200);
        assert_eq!(small.channels, config.channels);
    }

    #[test]
    fn large_soc_scaled_down_generates_consistently() {
        // the full ~100k-cell generation runs in the (release-built) bench
        // harness; tests exercise the same topology at 5% glue scale
        let g = SocGenerator::new(large_soc_config(0.05)).generate();
        assert_eq!(g.design.num_macros(), 200);
        g.design.validate().expect("consistent design");
        assert!(g.design.num_cells() > 2_000);
    }

    #[test]
    #[ignore = "generates the full ~100k-cell design; run with --ignored in release"]
    fn large_soc_full_scale_counts() {
        let g = large_soc();
        assert_eq!(g.design.num_macros(), 200);
        let cells = g.design.num_cells();
        assert!(
            (80_000..140_000).contains(&cells),
            "large_soc should have ~100k cells, got {cells}"
        );
        g.design.validate().expect("consistent design");
    }

    #[test]
    fn mega_soc_config_scales_subsystems_proportionally() {
        let config = mega_soc_config();
        assert_eq!(config.name, "mega_soc");
        assert_eq!(config.subsystems.len(), 192);
        assert_eq!(config.total_macros(), 2400);
        // per-subsystem glue stays at full-scale values: the scale axis grows
        // the design by adding subsystems, not by inflating one subsystem
        for sub in &config.subsystems {
            assert_eq!(sub.datapath_bits, 64);
            assert_eq!(sub.glue_per_stage, 1150);
        }
        assert_eq!(config.io_subsystems.len(), 48);
    }

    #[test]
    fn scale_clamp_is_bit_exact_below_one() {
        // lifting the clamp upward must not change any scale <= 1.0 config
        let full = large_soc_config(1.0);
        assert_eq!(full.subsystems.len(), 16);
        assert_eq!(full.total_macros(), 200);
        assert_eq!(full.io_subsystems, vec![0, 4, 8, 12]);
        assert_eq!(full.io_bits, 64);
        let tiny = large_soc_config(0.05);
        assert_eq!(tiny.subsystems.len(), 16);
        assert_eq!(tiny.total_macros(), 200);
        assert_eq!(tiny.subsystems[0].glue_per_stage, 58);
    }

    #[test]
    fn scale_axis_is_generation_stable_at_small_scale() {
        // the fast pinned twin of `mega_soc_full_scale_counts_and_identity`:
        // exact id-family counts and all three identity fingerprints of the
        // scale-0.05 config. Any drift in the generator, the scale axis or
        // the fingerprint hashing shows up here in a debug-build test run,
        // without waiting for the release-only million-cell twin.
        let g = SocGenerator::new(large_soc_config(0.05)).generate();
        assert_eq!(g.design.num_cells(), 5496);
        assert_eq!(g.design.num_nets(), 2400);
        assert_eq!(g.design.num_ports(), 32);
        assert_eq!(g.design.num_macros(), 200);
        assert_eq!(g.design.geometry_fingerprint(), 0x1cdb_c84d_1a0c_914d);
        assert_eq!(g.design.seq_name_fingerprint(), 0x3f5e_af78_a543_0fa5);
        assert_eq!(g.design.connectivity().fingerprint(), 0xf8a3_161d_0152_a5bc);
    }

    #[test]
    #[ignore = "generates the full ~1M-cell design; run with --ignored in release"]
    fn mega_soc_full_scale_counts_and_identity() {
        let g = mega_soc();
        // pinned id-family counts: the million-cell axis is deterministic,
        // so "about a million cells" is really exactly this many
        assert_eq!(g.design.num_cells(), 1_074_528);
        assert_eq!(g.design.num_nets(), 230_400);
        assert_eq!(g.design.num_ports(), 6_144);
        assert_eq!(g.design.num_macros(), 2400);
        // and the identity fingerprints the design store / artifact cache
        // key on — a silent generator change would repoint every cached
        // artifact, so it must be loud here
        assert_eq!(g.design.geometry_fingerprint(), 0xabec_bcda_4dd3_ccc5);
        assert_eq!(g.design.seq_name_fingerprint(), 0x5187_e717_3b75_1aeb);
        assert_eq!(g.design.connectivity().fingerprint(), 0x35dd_e36d_b908_50ad);
        g.design.validate().expect("consistent design");
    }

    #[test]
    fn service_fleet_designs_are_distinct_and_consistent() {
        let fleet = service_fleet(4, 0.1);
        assert_eq!(fleet.len(), 4);
        let mut names: Vec<&str> = fleet.iter().map(|g| g.design.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 4, "fleet designs must have distinct names");
        for g in &fleet {
            g.design.validate().expect("consistent design");
            assert!(g.design.num_macros() >= 4);
            assert!(g.design.die().area() > 0);
        }
        // topologies differ too, not just the names
        assert_ne!(fleet[0].config.subsystems.len(), fleet[1].config.subsystems.len());
    }

    #[test]
    fn larger_presets_have_more_cells() {
        let c1 = generate_circuit("c1");
        let c4 = generate_circuit("c4");
        assert!(c4.design.num_cells() > c1.design.num_cells());
        assert!(c4.design.num_macros() > c1.design.num_macros());
    }
}
