//! Adversarial workload presets and the random ECO edit generator.
//!
//! The `presets` module models *representative* designs; this module models
//! the nasty corners a placement service meets in production ECO traffic:
//!
//! * [`adv_fanout`] — a few broadcast nets with hundreds of sinks each
//!   (clock-enable / reset shape), stressing net-model degree handling,
//! * `adv_aspect` ([`adv_aspect_config`]) — a pathologically wide die (8:1 aspect ratio),
//!   stressing shelf legalization and shape curves,
//! * `adv_macro_heavy` ([`adv_macro_heavy_config`]) — macro area dominating the die, leaving little
//!   slack for legalization to resolve overlaps,
//! * `adv_packed` ([`adv_packed_config`]) — near-full utilization, the near-degenerate end of the
//!   die-sizing axis.
//!
//! Every preset is deterministic; the tests below pin exact id-family counts
//! and all three identity fingerprints (the `mega_soc` regression pattern),
//! so a silent generator change cannot repoint cached artifacts.
//!
//! [`random_edits`] / [`random_geometry_edits`] generate seeded random edit
//! scripts against a design — the input side of the differential ECO fuzzer
//! (`bench/tests/eco_fuzz.rs`), which asserts that incrementally edited
//! designs place identically to from-scratch rebuilds.

use crate::generator::{SocConfig, SocGenerator, SubsystemConfig};
use geometry::{Dbu, Point, Rect};
use netlist::design::{CellId, Design, DesignBuilder, NetId, PortDirection, PortId};
use netlist::edit::DesignEdit;
use rand::{ChaCha8Rng, Rng, SeedableRng};

/// Names of the adversarial presets accepted by [`adversarial_design`].
pub const ADVERSARIAL_PRESETS: [&str; 4] =
    ["adv_fanout", "adv_aspect", "adv_macro_heavy", "adv_packed"];

/// Generates one adversarial preset by name.
///
/// # Panics
///
/// Panics if `name` is not one of [`ADVERSARIAL_PRESETS`].
pub fn adversarial_design(name: &str) -> Design {
    match name {
        "adv_fanout" => adv_fanout(),
        "adv_aspect" => SocGenerator::new(adv_aspect_config()).generate().design,
        "adv_macro_heavy" => SocGenerator::new(adv_macro_heavy_config()).generate().design,
        "adv_packed" => SocGenerator::new(adv_packed_config()).generate().design,
        other => panic!("unknown adversarial preset '{other}'"),
    }
}

/// The high-fanout preset: one control macro broadcasting eight enable-like
/// nets to every state flop of six memory blocks (384 sinks per net), plus
/// ordinary per-flop data nets so the design still has local structure.
pub fn adv_fanout() -> Design {
    let mut b = DesignBuilder::new("adv_fanout");
    let blocks = 6usize;
    let flops_per_block = 64usize;
    let ctl = b.add_macro("u_ctl/rom", "CTL_ROM", 50_000, 40_000, "u_ctl");
    let broadcast: Vec<NetId> = (0..8)
        .map(|i| {
            let n = b.add_net(format!("u_ctl/bcast[{i}]"));
            b.connect_driver(n, ctl);
            n
        })
        .collect();
    for blk in 0..blocks {
        let hier = format!("u_b{blk}");
        let mac = b.add_macro(format!("{hier}/ram"), "RAM", 40_000, 30_000, hier.clone());
        for f in 0..flops_per_block {
            let flop = b.add_flop(format!("{hier}/state_reg[{f}]"), hier.clone());
            for &n in &broadcast {
                b.connect_sink(n, flop);
            }
            let d = b.add_net(format!("{hier}/q[{f}]"));
            b.connect_driver(d, flop);
            b.connect_sink(d, mac);
        }
    }
    for bit in 0..8 {
        let p = b.add_port(format!("cfg[{bit}]"), PortDirection::Input);
        let n = b.add_net(format!("cfg_net[{bit}]"));
        b.connect_port_driver(n, p);
        b.connect_sink(n, ctl);
    }
    let mut design = b.build();
    let side = ((design.total_cell_area() as f64 / 0.5).sqrt()).ceil() as Dbu;
    let die = Rect::new(0, 0, side.max(1), side.max(1));
    design.set_die(die);
    for (i, pid) in design.port_ids().enumerate().collect::<Vec<_>>() {
        let frac = (i + 1) as f64 / 9.0;
        design.set_port_position(pid, Some(Point::new(0, (die.height() as f64 * frac) as Dbu)));
    }
    design
}

/// The pathological-aspect-ratio preset: an 8:1 die, so the shelf packer
/// works with a die barely taller than a rotated macro.
pub fn adv_aspect_config() -> SocConfig {
    SocConfig {
        name: "adv_aspect".into(),
        subsystems: (0..4)
            .map(|s| SubsystemConfig {
                name: format!("u_strip{s}"),
                macros: 2,
                macro_size: (40_000, 30_000),
                pipeline_stages: 3,
                datapath_bits: 16,
                glue_per_stage: 64,
            })
            .collect(),
        channels: vec![(0, 1), (1, 2), (2, 3), (3, 0)],
        io_subsystems: vec![0],
        io_bits: 16,
        utilization: 0.4,
        aspect_ratio: 8.0,
        seed: 0xA5BEC7,
    }
}

/// The macro-dominated preset: 48 large macros covering roughly two thirds
/// of the die, with only a sliver of glue logic between them.
pub fn adv_macro_heavy_config() -> SocConfig {
    SocConfig {
        name: "adv_macro_heavy".into(),
        subsystems: (0..4)
            .map(|s| SubsystemConfig {
                name: format!("u_bank{s}"),
                macros: 12,
                macro_size: (80_000, 60_000),
                pipeline_stages: 2,
                datapath_bits: 4,
                glue_per_stage: 8,
            })
            .collect(),
        channels: vec![(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)],
        io_subsystems: vec![0],
        io_bits: 8,
        utilization: 0.7,
        aspect_ratio: 1.0,
        seed: 0x3AC20,
    }
}

/// The near-full-utilization preset: 92 % of the die is cell area, leaving
/// legalization almost no slack to resolve overlaps.
pub fn adv_packed_config() -> SocConfig {
    SocConfig {
        name: "adv_packed".into(),
        subsystems: (0..6)
            .map(|s| SubsystemConfig {
                name: format!("u_p{s}"),
                macros: 2,
                macro_size: (50_000, 40_000),
                pipeline_stages: 4,
                datapath_bits: 24,
                glue_per_stage: 96,
            })
            .collect(),
        channels: (0..6).map(|s| (s, (s + 1) % 6)).collect(),
        io_subsystems: vec![0, 3],
        io_bits: 24,
        utilization: 0.92,
        aspect_ratio: 1.0,
        seed: 0x9AC4ED,
    }
}

/// Generates a seeded random ECO edit script against `design`: footprint
/// resizes, placement-seed macro moves, master swaps, port moves, net
/// rewires and grow-only die changes.  Every edit applies cleanly to the
/// design it was generated for (ids are sampled from it, dimensions stay
/// positive, die changes only grow), so fuzzers can apply the script without
/// filtering.  Deterministic in `(design, seed, count)`.
pub fn random_edits(design: &Design, seed: u64, count: usize) -> Vec<DesignEdit> {
    random_edit_script(design, seed, count, true)
}

/// Like [`random_edits`], but restricted to pure-geometry (and
/// placement-seed) kinds: no net rewires, so the batch's
/// [`netlist::edit::FingerprintDiff`] is pure geometry and cached
/// `Gnet`/`Gseq` artifacts must stay warm.
pub fn random_geometry_edits(design: &Design, seed: u64, count: usize) -> Vec<DesignEdit> {
    random_edit_script(design, seed, count, false)
}

fn random_edit_script(design: &Design, seed: u64, count: usize, rewires: bool) -> Vec<DesignEdit> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let macros: Vec<CellId> = design.macros().collect();
    let cells: Vec<CellId> = design.cell_ids().collect();
    let nets: Vec<NetId> = design.net_ids().collect();
    let ports: Vec<PortId> = design.port_ids().collect();
    let die = design.die();
    let pick = |rng: &mut ChaCha8Rng, n: usize| rng.gen_range(0..n);
    // dimensions stay within [60 %, 110 %] of the original footprint so a
    // long script cannot blow the macro area past the die
    let jitter = |rng: &mut ChaCha8Rng, dim: Dbu| -> Dbu {
        let lo = (dim as f64 * 0.6) as Dbu;
        let hi = (dim as f64 * 1.1) as Dbu;
        rng.gen_range(lo..=hi.max(lo + 1)).max(1)
    };
    let mut edits = Vec::with_capacity(count);
    let mut die_grown = die;
    for _ in 0..count {
        let kind = rng.gen_range(0..if rewires { 7usize } else { 5usize });
        edits.push(match kind {
            0 | 1 => {
                let cell = macros[pick(&mut rng, macros.len())];
                let c = design.cell(cell);
                DesignEdit::ResizeCell {
                    cell,
                    width: jitter(&mut rng, c.width),
                    height: jitter(&mut rng, c.height),
                }
            }
            2 => {
                let cell = macros[pick(&mut rng, macros.len())];
                DesignEdit::MoveMacro {
                    cell,
                    to: Point::new(
                        rng.gen_range(die.llx..die.urx.max(die.llx + 1)),
                        rng.gen_range(die.lly..die.ury.max(die.lly + 1)),
                    ),
                }
            }
            3 => {
                let cell = macros[pick(&mut rng, macros.len())];
                let c = design.cell(cell);
                let (width, height) = (jitter(&mut rng, c.width), jitter(&mut rng, c.height));
                DesignEdit::SwapMaster {
                    cell,
                    lib_cell: format!("ECO_ALT_{width}x{height}"),
                    width,
                    height,
                }
            }
            4 if !ports.is_empty() => {
                let port = ports[pick(&mut rng, ports.len())];
                let to = if rng.gen_bool(0.8) {
                    Some(Point::new(die.llx, rng.gen_range(die.lly..die.ury.max(die.lly + 1))))
                } else {
                    None
                };
                DesignEdit::MovePort { port, to }
            }
            4 => {
                // port-free designs fall back to a die grow
                die_grown = grow(die_grown, &mut rng);
                DesignEdit::SetDie { die: die_grown }
            }
            5 => {
                let net = nets[pick(&mut rng, nets.len())];
                let driver =
                    if rng.gen_bool(0.8) { Some(cells[pick(&mut rng, cells.len())]) } else { None };
                let sinks = (0..rng.gen_range(1..=4usize))
                    .map(|_| cells[pick(&mut rng, cells.len())])
                    .collect();
                DesignEdit::RewireNet { net, driver, sinks }
            }
            _ => {
                die_grown = grow(die_grown, &mut rng);
                DesignEdit::SetDie { die: die_grown }
            }
        });
    }
    edits
}

/// Grows a die outline by 2–8 % in each dimension (grow-only, so macros that
/// fit before still fit).
fn grow(die: Rect, rng: &mut ChaCha8Rng) -> Rect {
    let gw = (die.width() as f64 * rng.gen_range(0.02..0.08)) as Dbu;
    let gh = (die.height() as f64 * rng.gen_range(0.02..0.08)) as Dbu;
    Rect::new(die.llx, die.lly, die.urx + gw.max(1), die.ury + gh.max(1))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fanout_preset_has_broadcast_nets_and_pinned_identity() {
        let d = adv_fanout();
        d.validate().expect("consistent design");
        let max_degree =
            d.net_ids().map(|n| d.connectivity().degree(n)).max().expect("design has nets");
        assert!(max_degree >= 385, "broadcast nets fan out to every flop, got {max_degree}");
        // pinned id-family counts + identity fingerprints (mega_soc pattern)
        assert_eq!(d.num_cells(), 391);
        assert_eq!(d.num_nets(), 400);
        assert_eq!(d.num_ports(), 8);
        assert_eq!(d.num_macros(), 7);
        assert_eq!(d.geometry_fingerprint(), 0x5ef5_79b1_0f9d_523f);
        assert_eq!(d.seq_name_fingerprint(), 0xbfe4_137b_6059_54d0);
        assert_eq!(d.connectivity().fingerprint(), 0x2c38_04ad_ef0a_02ac);
    }

    #[test]
    fn aspect_preset_is_pathologically_wide_with_pinned_identity() {
        let g = SocGenerator::new(adv_aspect_config()).generate();
        let d = &g.design;
        d.validate().expect("consistent design");
        let die = d.die();
        let ratio = die.width() as f64 / die.height() as f64;
        assert!((7.5..8.5).contains(&ratio), "8:1 die, got {ratio}");
        // the die is barely taller than a rotated macro
        assert!(die.height() < 2 * 40_000, "height {} leaves no stacking slack", die.height());
        assert_eq!(d.num_macros(), 8);
        assert_eq!(d.geometry_fingerprint(), 0x248d_72ef_d087_4e9f);
        assert_eq!(d.seq_name_fingerprint(), 0x1d12_6faf_2112_a57f);
        assert_eq!(d.connectivity().fingerprint(), 0x94b2_d763_8b99_ac1a);
    }

    #[test]
    fn macro_heavy_preset_is_macro_dominated_with_pinned_identity() {
        let g = SocGenerator::new(adv_macro_heavy_config()).generate();
        let d = &g.design;
        d.validate().expect("consistent design");
        let macro_area: i128 = d.macros().map(|m| d.cell(m).area()).sum();
        let frac = macro_area as f64 / d.die().area() as f64;
        assert!(frac > 0.6, "macros dominate the die, got {frac:.2}");
        assert!(frac < 1.0, "but still fit, got {frac:.2}");
        assert_eq!(d.num_macros(), 48);
        assert_eq!(d.geometry_fingerprint(), 0x9ff5_430c_928b_5641);
        assert_eq!(d.seq_name_fingerprint(), 0x42cd_6e2a_322b_4691);
        assert_eq!(d.connectivity().fingerprint(), 0xf9a6_606e_91f4_49f0);
    }

    #[test]
    fn packed_preset_is_near_full_with_pinned_identity() {
        let g = SocGenerator::new(adv_packed_config()).generate();
        let d = &g.design;
        d.validate().expect("consistent design");
        let util = d.total_cell_area() as f64 / d.die().area() as f64;
        assert!(util > 0.85, "near-full utilization, got {util:.2}");
        assert_eq!(d.num_macros(), 12);
        assert_eq!(d.geometry_fingerprint(), 0xa1ac_446f_8f22_2409);
        assert_eq!(d.seq_name_fingerprint(), 0x1aab_da8a_089d_d62d);
        assert_eq!(d.connectivity().fingerprint(), 0xc353_db50_a705_4535);
    }

    #[test]
    fn every_preset_resolves_by_name() {
        for name in ADVERSARIAL_PRESETS {
            let d = adversarial_design(name);
            assert_eq!(d.name(), name);
            d.validate().expect("consistent design");
        }
    }

    #[test]
    #[should_panic]
    fn unknown_adversarial_preset_panics() {
        adversarial_design("adv_nope");
    }

    #[test]
    fn random_edits_are_deterministic_and_apply_cleanly() {
        for name in ADVERSARIAL_PRESETS {
            let base = adversarial_design(name);
            let edits = random_edits(&base, 42, 16);
            assert_eq!(edits.len(), 16);
            assert_eq!(edits, random_edits(&base, 42, 16), "deterministic in the seed");
            assert_ne!(edits, random_edits(&base, 43, 16), "seed actually matters");
            let mut edited = base.clone();
            let log = edited.apply_edits(&edits).expect("generated edits apply cleanly");
            assert_eq!(log.applied, 16);
            edited.validate().expect("edited design stays consistent");
        }
    }

    #[test]
    fn geometry_edits_keep_the_artifact_identity() {
        let base = adversarial_design("adv_fanout");
        let edits = random_geometry_edits(&base, 7, 24);
        assert!(
            edits.iter().all(|e| !matches!(e, DesignEdit::RewireNet { .. })),
            "geometry scripts never rewire"
        );
        let mut edited = base.clone();
        let log = edited.apply_edits(&edits).expect("clean apply");
        assert!(log.diff.is_pure_geometry(), "Gnet/Gseq stay warm under geometry scripts");
    }
}
