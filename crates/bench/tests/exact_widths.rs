//! The evaluation kernels' two accumulator widths against the `i128`
//! reference pipeline.
//!
//! The placer's star sums and the RUDY overlap products run in `i64` when a
//! bound computed from the inputs allows it, and in `i128` past it. These
//! tests drive designs through both sides: coordinates up to 2^60 DBU, past
//! both bounds, where the evaluation must still equal
//! [`evaluate_placement_reference`]; a wide cell on 1,024 nets, whose
//! per-listing occurrence counts the placer takes in linear time, against the
//! rescanning placer that has no such counts; and spreading over overfull
//! bins, with cell areas inside and past `i64`, against the rescanning
//! placer's per-bin lists. Under `cargo test` an `i64` overflow panics.

use bench::reference::{evaluate_placement_reference, place_standard_cells_rescan};
use eval::{place_standard_cells, EvalConfig, Evaluator, PlacerConfig};
use geometry::{Orientation, Point, Rect};
use netlist::design::{CellId, CellKind, Design, DesignBuilder, PortDirection};
use netlist::{MacroPlacement, PlacedMacro};

const FAR: i64 = 1 << 60;

/// A design on a die of 2^60 × 2^60 DBU, with four 2^57-DBU macros and
/// four ports in its upper-right quarter, a 64-bit register array between
/// them and 192 combinational cells, one net of 33 pins among them. Its
/// coordinates share one sign, so the star sums' true values, not only
/// their partial sums, leave the `i64` range.
fn far_design() -> Design {
    let mut b = DesignBuilder::new("far");
    let side = FAR >> 3;
    let macros: Vec<CellId> =
        (0..4).map(|i| b.add_macro(format!("ram{i}"), "RAM", side, side, "")).collect();
    let ports: Vec<_> = [(FAR, FAR >> 1), (FAR >> 1, FAR), (FAR, FAR), (FAR, 3 * (FAR >> 2))]
        .into_iter()
        .enumerate()
        .map(|(i, (x, y))| {
            let p = b.add_port(format!("p{i}"), PortDirection::Input);
            b.place_port(p, Point::new(x, y));
            p
        })
        .collect();
    let flops: Vec<CellId> = (0..64).map(|i| b.add_flop(format!("r_reg[{i}]"), "")).collect();
    let combs: Vec<CellId> = (0..192).map(|i| b.add_comb(format!("g{i}"), "")).collect();
    for (i, &f) in flops.iter().enumerate() {
        // port → comb → flop → comb → macro
        let a = b.add_net(format!("a{i}"));
        b.connect_port_driver(a, ports[i % 4]);
        b.connect_sink(a, combs[3 * i]);
        let d = b.add_net(format!("d{i}"));
        b.connect_driver(d, combs[3 * i]);
        b.connect_sink(d, f);
        let q = b.add_net(format!("q{i}"));
        b.connect_driver(q, f);
        b.connect_sink(q, combs[3 * i + 1]);
        b.connect_sink(q, combs[3 * i + 2]);
        let m = b.add_net(format!("m{i}"));
        b.connect_driver(m, combs[3 * i + 1]);
        b.connect_sink(m, macros[i % 4]);
        let r = b.add_net(format!("r{i}"));
        b.connect_driver(r, macros[(i + 1) % 4]);
        b.connect_sink(r, combs[3 * i + 2]);
    }
    let wide = b.add_net("wide");
    b.connect_driver(wide, combs[0]);
    for &f in flops.iter().step_by(2) {
        b.connect_sink(wide, f);
    }
    b.set_die(Rect::new(0, 0, FAR, FAR));
    b.build()
}

/// The macros at the corners of the upper-right quarter, scaled towards the
/// origin by `1 / shrink`.
fn corners(design: &Design, shrink: i64) -> MacroPlacement {
    let (half, top) = (FAR >> 1, FAR - (FAR >> 3));
    let at = [(half, half), (top, half), (half, top), (top, top)];
    design
        .macros()
        .zip(at)
        .map(|(m, (x, y))| PlacedMacro::new(m, Point::new(x / shrink, y / shrink), Orientation::N))
        .collect()
}

#[test]
fn coordinates_up_to_2_pow_60_match_the_reference_cold_and_stay_deterministic_warm() {
    let design = far_design();
    design.validate().expect("a consistent design");
    // past both bounds: the sum over the 33-pin net alone adds 33
    // coordinates of up to 2^60, and the grid spans 2^60 × 2^60 DBU
    assert!(FAR as i128 * 33 > i64::MAX as i128);
    let cfg = EvalConfig::standard();
    let cold_macros = corners(&design, 1);
    let cold = Evaluator::new(cfg).evaluate(&design, &cold_macros);
    assert_eq!(cold, evaluate_placement_reference(&design, &cold_macros, &cfg));
    assert!(cold.hpwl.dbu > i64::MAX as i128, "the wirelength itself is past i64");
    assert!(cold.cell_placement.placed().all(|(_, p)| design.die().contains(p)));

    // warm, after every macro moved halfway to the origin, from two fresh
    // sessions
    let moved = corners(&design, 2);
    let warm =
        |seed: &eval::CellPlacement| Evaluator::new(cfg).evaluate_warm(&design, &moved, seed);
    let (a, sweeps_a) = warm(&cold.cell_placement);
    let (b, sweeps_b) = warm(&cold.cell_placement);
    assert_eq!(a, b);
    assert_eq!(sweeps_a, sweeps_b);
    assert!(a.cell_placement.placed().all(|(_, p)| design.die().contains(p)));
    // chained again from its own result
    assert_eq!(warm(&a.cell_placement), warm(&b.cell_placement));
}

#[test]
fn a_wide_cell_on_1024_nets_places_like_the_rescan() {
    // the wide cell sinks every net and also drives every other one, so it
    // lists each net once or twice: 1,536 listings over 1,024 nets
    let mut b = DesignBuilder::new("wide");
    let wide = b.add_comb("wide", "");
    let ram = b.add_macro("ram", "RAM", 40_000, 40_000, "");
    let port = b.add_port("in", PortDirection::Input);
    b.place_port(port, Point::new(0, 250_000));
    let out = b.add_port("out", PortDirection::Output);
    b.place_port(out, Point::new(500_000, 100_000));
    for i in 0..1024 {
        let n = b.add_net(format!("n{i}"));
        let c = b.add_comb(format!("c{i}"), "");
        if i % 2 == 0 {
            b.connect_driver(n, c);
            if i % 8 == 0 {
                b.connect_port_sink(n, out);
            }
        } else {
            b.connect_driver(n, wide);
            b.connect_sink(n, c);
        }
        b.connect_sink(n, wide);
        let feed = b.add_net(format!("f{i}"));
        if i % 3 == 0 {
            b.connect_driver(feed, ram);
        } else {
            b.connect_port_driver(feed, port);
        }
        b.connect_sink(feed, c);
    }
    b.set_die(Rect::new(0, 0, 500_000, 500_000));
    let design = b.build();
    design.validate().expect("a consistent design");
    assert_eq!(design.connectivity().nets_of(wide).len(), 1536);

    let cfg = PlacerConfig::default();
    for at in [Point::new(10_000, 20_000), Point::new(400_000, 300_000)] {
        let macros: MacroPlacement =
            [PlacedMacro::new(ram, at, Orientation::N)].into_iter().collect();
        assert_eq!(
            place_standard_cells(&design, &macros, &cfg),
            place_standard_cells_rescan(&design, &macros, &cfg),
            "macro at {at}"
        );
    }
}

#[test]
fn spreading_matches_the_rescan_on_overfull_bins_with_areas_inside_and_past_i64() {
    // 600 unconnected cells of mixed footprints start around the die center
    // and overfill its bins; at `scale` 2^31 the footprints pass 2^63 DBU²
    for scale in [1i64, 1 << 31] {
        let mut b = DesignBuilder::new("crowd");
        for i in 0..600i64 {
            let (w, h) = (10 + 10 * (i % 3), 20 + 10 * (i % 2));
            b.add_cell(format!("c{i}"), "STD", CellKind::Comb, w * scale, h * scale, "");
        }
        b.set_die(Rect::new(0, 0, 4000 * scale, 4000 * scale));
        let design = b.build();
        assert_eq!(design.cell(CellId(0)).area() > i64::MAX as i128, scale > 1);
        let cfg = PlacerConfig::default();
        let spread = place_standard_cells(&design, &MacroPlacement::default(), &cfg);
        assert_eq!(spread, place_standard_cells_rescan(&design, &MacroPlacement::default(), &cfg));
        let unspread = PlacerConfig { spreading_passes: 0, ..cfg };
        assert_ne!(spread, place_standard_cells(&design, &MacroPlacement::default(), &unspread));
    }
}
