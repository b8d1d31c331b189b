//! Golden fingerprints of the circuit graphs `Gnet` and `Gseq`.
//!
//! Each pin records a graph's node count, edge count and an FNV-1a over
//! every successor and predecessor row (row length, then each neighbour),
//! plus, for `Gseq`, every node's bit width and every edge's bits. `Gseq` is
//! pinned twice: with `min_register_bits` 1 (the fast effort) and 32, which
//! discards narrow register arrays. A change to how the graphs are stored or
//! built that alters one row, one order or one width moves a pin. The values
//! were recorded before `Gnet` became CSR rows and `Gseq`'s edge inference
//! stopped using hash sets.
//!
//! `c1` and `c8` run by default; the other presets and the million-cell
//! `mega_soc` are ignored. Run them with
//!
//! ```sh
//! cargo test --release --test golden_graphs -- --ignored
//! ```
//!
//! The file also pins the target-area search's clock-free work counter per
//! floorplanning level on `c1`.

use graphs::seqgraph::SeqGraphConfig;
use graphs::{NetGraph, SeqGraph, SeqNodeId};
use hidap::recursive::RecursiveFloorplanner;
use hidap::shape_curves::ShapeCurveSet;
use hidap::HidapConfig;
use netlist::hierarchy::HierarchyTree;
use rand::{ChaCha8Rng, SeedableRng};
use workload::presets::generate_circuit;

/// A graph's node count, edge count and row fingerprint.
type Pin = (usize, usize, u64);

/// `(preset, Gnet, Gseq at min_register_bits 1, Gseq at 32)`.
const GOLDEN: [(&str, Pin, Pin, Pin); 10] = [
    (
        "c1",
        (2224, 3404, 0x6ef1_ba9a_1cc3_1cb3),
        (50, 84, 0x049e_47b8_e8ed_0186),
        (36, 0, 0xdd5f_37a8_b4f8_daa5),
    ),
    (
        "c2",
        (9764, 13762, 0x4e15_734e_b52a_4d38),
        (139, 243, 0xc951_a773_fc2f_b22a),
        (139, 243, 0xc951_a773_fc2f_b22a),
    ),
    (
        "c3",
        (8702, 12423, 0x35be_3211_97e9_2a08),
        (129, 227, 0xf547_b370_724c_97e7),
        (129, 227, 0xf547_b370_724c_97e7),
    ),
    (
        "c4",
        (12154, 17063, 0xc8da_adba_5af2_b005),
        (170, 297, 0xb807_a9fa_650c_515e),
        (170, 297, 0xb807_a9fa_650c_515e),
    ),
    (
        "c5",
        (7829, 12580, 0xc375_3b05_2708_30d0),
        (186, 325, 0xdbf8_7d36_89c4_f969),
        (137, 0, 0x716c_0a79_23d9_26e4),
    ),
    (
        "c6",
        (6266, 9592, 0x23f8_3bd5_7ce5_c442),
        (125, 219, 0x87c2_e752_70fb_b1ff),
        (125, 219, 0x87c2_e752_70fb_b1ff),
    ),
    (
        "c7",
        (8108, 12175, 0xb410_e785_daf0_e839),
        (153, 266, 0xf8b3_f0ad_3fe2_7c2c),
        (153, 266, 0xf8b3_f0ad_3fe2_7c2c),
    ),
    (
        "c8",
        (2869, 4268, 0x7f67_2e1f_559b_3dc0),
        (55, 94, 0xc33c_9a2d_68da_0800),
        (55, 94, 0xc33c_9a2d_68da_0800),
    ),
    (
        "large_soc",
        (90056, 100297, 0xab04_9b61_4cb7_3dbb),
        (304, 520, 0x1d1e_601d_cd55_a2f5),
        (304, 520, 0x1d1e_601d_cd55_a2f5),
    ),
    (
        "mega_soc",
        (1_080_672, 1_203_632, 0xc5c6_681b_2971_4af4),
        (3648, 6240, 0xb3ba_a2ef_550a_448d),
        (3648, 6240, 0xb3ba_a2ef_550a_448d),
    ),
];

/// FNV-1a, fed in pieces.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn feed(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

fn gnet_pin(g: &NetGraph) -> Pin {
    let mut h = Fnv::new();
    for rows in [NetGraph::successors, NetGraph::predecessors] {
        for i in 0..g.num_nodes() {
            let row = rows(g, i);
            h.feed(&(row.len() as u64).to_le_bytes());
            for &v in row {
                h.feed(&v.to_le_bytes());
            }
        }
    }
    (g.num_nodes(), g.num_edges(), h.0)
}

fn gseq_pin(g: &SeqGraph) -> Pin {
    let mut h = Fnv::new();
    for node in g.nodes() {
        h.feed(&node.width.to_le_bytes());
    }
    for rows in [SeqGraph::successors, SeqGraph::predecessors] {
        for i in 0..g.num_nodes() {
            let row = rows(g, SeqNodeId(i as u32));
            h.feed(&(row.len() as u64).to_le_bytes());
            for &(t, bits) in row {
                h.feed(&(t as u32).to_le_bytes());
                h.feed(&bits.to_le_bytes());
            }
        }
    }
    (g.num_nodes(), g.num_edges(), h.0)
}

fn check(names: &[&str]) {
    let mut got = Vec::new();
    let mut want = Vec::new();
    for &name in names {
        let design = generate_circuit(name).design;
        let gnet = NetGraph::from_design(&design);
        let gseq = |min_register_bits| {
            let config = SeqGraphConfig { min_register_bits };
            gseq_pin(&SeqGraph::from_netgraph(&design, &gnet, &config))
        };
        got.push((name, gnet_pin(&gnet), gseq(1), gseq(32)));
        want.push(*GOLDEN.iter().find(|row| row.0 == name).expect("pinned preset"));
    }
    assert_eq!(got, want, "the circuit graphs moved");
}

#[test]
fn small_presets_build_their_pinned_graphs() {
    check(&["c1", "c8"]);
}

#[test]
#[ignore = "builds the graphs of seven presets; run in release"]
fn every_preset_builds_its_pinned_graphs() {
    check(&["c2", "c3", "c4", "c5", "c6", "c7", "large_soc"]);
}

#[test]
#[ignore = "builds the million-cell mega_soc; run in release"]
fn mega_soc_builds_its_pinned_graphs() {
    check(&["mega_soc"]);
}

/// Node slots each floorplanning level's target-area search touches on `c1`
/// with the fast effort, in the order the levels are floorplanned. Before
/// the search ran on reused, epoch-stamped buffers, every level filled three
/// arrays over all 2,224 `Gnet` nodes and a map over all 2,128 cells: 8,800
/// slots at each of the seven levels.
#[test]
fn target_area_search_touches_its_pinned_slots_per_level() {
    let design = generate_circuit("c1").design;
    let config = HidapConfig::fast();
    let ht = HierarchyTree::from_design(&design);
    let curves = ShapeCurveSet::generate(&design, &ht, &config);
    let gnet = NetGraph::from_design(&design);
    let gseq = SeqGraph::from_netgraph(
        &design,
        &gnet,
        &SeqGraphConfig { min_register_bits: config.min_register_bits },
    );
    let mut fp = RecursiveFloorplanner::new(&design, &ht, &gnet, &gseq, &curves, &config);
    let mut rng = ChaCha8Rng::seed_from_u64(config.seed);
    fp.floorplan(ht.root(), design.die(), &[], 0, &mut rng, &mut |_| {});
    assert_eq!(fp.target_area_slots, [6359, 1353, 409, 1698, 409, 1873, 374]);
}
