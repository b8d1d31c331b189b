//! Golden fingerprints of the HiDaP flow's output.
//!
//! Each fingerprint hashes every macro's cell id, location and orientation,
//! plus the name and rectangle of every top-level block, of
//! `HidapFlow::new(HidapConfig::fast()).run` on a preset circuit. A change
//! to the annealers, the curve composition or the target-area search that
//! alters one placement decision moves the fingerprint, so speedups of those
//! stages must leave every value below untouched.
//!
//! `c1` and `c8` run by default. The whole corpus (c1–c8 plus `large_soc`)
//! takes minutes in a debug build and is ignored; run it with
//!
//! ```sh
//! cargo test --release --test golden_flow -- --ignored
//! ```

use hidap::{HidapConfig, HidapFlow, MacroPlacement};
use workload::presets::generate_circuit;

/// The pinned fingerprint of every preset circuit.
const GOLDEN: [(&str, u64); 9] = [
    ("c1", 0xd86b_4105_a3fa_9d3b),
    ("c2", 0xb8f8_8e2a_ac22_1ef6),
    ("c3", 0x1f50_f74e_7ca8_0d25),
    ("c4", 0x26fe_2f65_5a15_2421),
    ("c5", 0x2c30_5527_9cb2_57d9),
    ("c6", 0x17ae_6e8e_c7b4_fbbc),
    ("c7", 0xa683_7519_78f9_9a37),
    ("c8", 0xc22d_2819_a54c_5593),
    ("large_soc", 0xc9c3_4c1c_e22e_4212),
];

/// FNV-1a over a canonical byte encoding of the placement.
fn fingerprint(placement: &MacroPlacement) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325_u64;
    let mut feed = |bytes: &[u8]| {
        for &b in bytes {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for m in &placement.macros {
        feed(&m.cell.0.to_le_bytes());
        feed(&m.location.x.to_le_bytes());
        feed(&m.location.y.to_le_bytes());
        feed(m.orientation.def_name().as_bytes());
    }
    for (name, rect) in &placement.top_blocks {
        feed(name.as_bytes());
        for coord in [rect.llx, rect.lly, rect.urx, rect.ury] {
            feed(&coord.to_le_bytes());
        }
    }
    hash
}

fn check(names: &[&str]) {
    let mut got = Vec::new();
    let mut want = Vec::new();
    for &name in names {
        let generated = generate_circuit(name);
        let placement = HidapFlow::new(HidapConfig::fast()).run(&generated.design).expect("flow");
        assert!(placement.is_legal(&generated.design), "{name}: illegal placement");
        got.push((name, fingerprint(&placement)));
        want.push(*GOLDEN.iter().find(|(n, _)| *n == name).expect("pinned circuit"));
    }
    assert_eq!(got, want, "HiDaP placements moved");
}

#[test]
fn small_circuits_match_their_golden_fingerprints() {
    check(&["c1", "c8"]);
}

#[test]
#[ignore = "places nine circuits; run in release"]
fn every_preset_matches_its_golden_fingerprint() {
    let names: Vec<&str> = GOLDEN.iter().map(|(n, _)| *n).collect();
    check(&names);
}
