//! Property-based tests of the evaluation-session API:
//!
//! * [`eval::IncrementalHpwl`] deltas applied over random single-cell move
//!   sequences stay bit-identical to a full [`eval::total_hpwl`] recompute,
//! * [`netlist::MacroPlacement::placement_of`] finds every macro of a
//!   hand-built vector, sorted or not, and the [`eval::Evaluator`] produces
//!   bit-identical metrics whatever order the vector lists its macros in,
//! * the bin grid shared by spreading, congestion and density: its per-bin
//!   macro coverage equals the all-pairs sum bit for bit, a box's column ×
//!   row overlap equals `Rect::overlap_area`, and the RUDY demand of boxes
//!   inside the die sums to their wire length (ROADMAP item 3), also on
//!   dies narrower than the bin count; per bin, RUDY demand equals an
//!   `i128` oracle bit for bit on both sides of the grid's `i64` bound.

// The grid and its accumulators are crate-private; the tests compile their
// sources as their own modules.
#[allow(dead_code)]
#[path = "../src/exact.rs"]
mod exact;
#[allow(dead_code)]
#[path = "../src/grid.rs"]
mod grid;

use eval::{CellPlacement, Evaluator, IncrementalHpwl};
use geometry::{Orientation, Point, Rect};
use grid::BinGrid;
use netlist::design::{CellId, Design, DesignBuilder, PortDirection};
use netlist::{MacroPlacement, PlacedMacro};
use proptest::prelude::*;

const DIE: i64 = 10_000;

/// A random flat design: `num_cells` combinational cells, a couple of placed
/// ports, and random driver→sinks nets over them.
fn arbitrary_design() -> impl Strategy<Value = Design> {
    (
        2usize..12, // cells
        0usize..3,  // ports
        prop::collection::vec(
            (0usize..12, prop::collection::vec(0usize..14, 1..4)), // nets
            1..16,
        ),
    )
        .prop_map(|(num_cells, num_ports, nets)| {
            let mut b = DesignBuilder::new("prop");
            let cells: Vec<CellId> =
                (0..num_cells).map(|i| b.add_comb(format!("c{i}"), "")).collect();
            let ports: Vec<_> =
                (0..num_ports).map(|i| b.add_port(format!("p{i}"), PortDirection::Input)).collect();
            for (i, &p) in ports.iter().enumerate() {
                b.place_port(p, Point::new(0, (i as i64 + 1) * DIE / 4));
            }
            for (n, (driver, sinks)) in nets.into_iter().enumerate() {
                let net = b.add_net(format!("n{n}"));
                // indexes past the cell count address the ports (if any)
                let driver_cell = cells[driver % num_cells];
                b.connect_driver(net, driver_cell);
                for s in sinks {
                    if s < num_cells {
                        if cells[s] != driver_cell {
                            b.connect_sink(net, cells[s]);
                        }
                    } else if !ports.is_empty() {
                        b.connect_port_sink(net, ports[s % ports.len()]);
                    }
                }
            }
            b.set_die(Rect::new(0, 0, DIE, DIE));
            b.build()
        })
}

fn any_orientation() -> impl Strategy<Value = Orientation> {
    prop::sample::select(vec![
        Orientation::N,
        Orientation::S,
        Orientation::W,
        Orientation::E,
        Orientation::FN,
        Orientation::FS,
        Orientation::FW,
        Orientation::FE,
    ])
}

/// A die from raw draws: lower-left anywhere near the origin, and edges that
/// are either wide or narrower than 64 DBU (below the bin count of many
/// grids).
fn die_of(llx: i64, lly: i64, w: i64, h: i64, narrow: (bool, bool)) -> Rect {
    let w = if narrow.0 { 1 + w % 63 } else { w };
    let h = if narrow.1 { 1 + h % 63 } else { h };
    Rect::new(llx, lly, llx + w, lly + h)
}

/// A rectangle from four raw draws: free coordinates around the die (so it
/// may stick out or lie outside), or, when `snap`, spanning whole bins so its
/// edges lie on bin edges.
fn rect_of(grid: &BinGrid, die: Rect, raw: (i64, i64, i64, i64), snap: bool) -> Rect {
    let (a, b, c, d) = raw;
    if snap {
        let n = grid.bins() as i64;
        let (x0, x1) = (a.rem_euclid(n) as usize, c.rem_euclid(n) as usize);
        let (y0, y1) = (b.rem_euclid(n) as usize, d.rem_euclid(n) as usize);
        let lo = grid.bin_rect(x0.min(x1), y0.min(y1));
        let hi = grid.bin_rect(x0.max(x1), y0.max(y1));
        return Rect::new(lo.llx, lo.lly, hi.urx, hi.ury);
    }
    // coordinates within the die, widened by a quarter on each side
    let at = |v: i64, lo: i64, len: i64| lo - len / 4 + v.rem_euclid(len + len / 2 + 1);
    let (x0, x1) = (at(a, die.llx, die.width()), at(c, die.llx, die.width()));
    let (y0, y1) = (at(b, die.lly, die.height()), at(d, die.lly, die.height()));
    Rect::new(x0.min(x1), y0.min(y1), x0.max(x1), y0.max(y1))
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24 })]

    /// Macro coverage visits only the bins each macro overlaps, yet equals
    /// the all-pairs per-bin sum in macro order bit for bit: empty,
    /// overlapping, bin-edge-aligned and partly-outside macro sets alike.
    #[test]
    fn macro_coverage_equals_the_all_pairs_sum(
        corner in (-5_000i64..5_000, -5_000i64..5_000),
        size in (1i64..40_000, 1i64..40_000),
        narrow in (any::<bool>(), any::<bool>()),
        bins in 2usize..40,
        macros in prop::collection::vec(
            ((-100_000i64..100_000, -100_000i64..100_000, -100_000i64..100_000, -100_000i64..100_000), any::<bool>()),
            0..8,
        ),
    ) {
        let die = die_of(corner.0, corner.1, size.0, size.1, narrow);
        let grid = BinGrid::new(die, bins);
        let rects: Vec<Rect> = macros.iter().map(|&(raw, snap)| rect_of(&grid, die, raw, snap)).collect();
        let covered = grid.macro_coverage(&rects);
        let n = grid.bins();
        prop_assert_eq!(covered.len(), n * n);
        for bx in 0..n {
            for by in 0..n {
                let bin = grid.bin_rect(bx, by);
                let all_pairs = rects.iter().fold(0.0f64, |sum, m| sum + m.overlap_area(&bin) as f64);
                prop_assert_eq!(
                    covered[bx * n + by].to_bits(),
                    all_pairs.to_bits(),
                    "bin ({}, {}) of {:?} over {:?}", bx, by, bin, rects
                );
            }
        }
    }

    /// A box's overlap with a bin is its column overlap times its row
    /// overlap, equal to `Rect::overlap_area`, and no bin outside the box's
    /// `bin_span` overlaps it.
    #[test]
    fn column_times_row_overlap_equals_overlap_area(
        corner in (-5_000i64..5_000, -5_000i64..5_000),
        size in (1i64..40_000, 1i64..40_000),
        narrow in (any::<bool>(), any::<bool>()),
        bins in 2usize..40,
        boxes in prop::collection::vec(
            ((-100_000i64..100_000, -100_000i64..100_000, -100_000i64..100_000, -100_000i64..100_000), any::<bool>()),
            1..6,
        ),
    ) {
        let die = die_of(corner.0, corner.1, size.0, size.1, narrow);
        let grid = BinGrid::new(die, bins);
        let n = grid.bins();
        let (mut cols, mut rows) = (Vec::new(), Vec::new());
        for (raw, snap) in boxes {
            let r = rect_of(&grid, die, raw, snap);
            grid.column_overlaps(&r, (0, n - 1), &mut cols);
            grid.row_overlaps(&r, (0, n - 1), &mut rows);
            let ((x0, x1), (y0, y1)) = grid.bin_span(&r);
            for (bx, &ox) in cols.iter().enumerate() {
                for (by, &oy) in rows.iter().enumerate() {
                    let exact = grid.bin_rect(bx, by).overlap_area(&r);
                    prop_assert_eq!(i128::from(ox) * i128::from(oy), exact, "bin ({}, {}) and {:?}", bx, by, r);
                    let in_span = (x0..=x1).contains(&bx) && (y0..=y1).contains(&by);
                    prop_assert!(in_span || exact == 0, "bin ({}, {}) outside the span of {:?}", bx, by, r);
                }
            }
        }
    }

    /// RUDY conserves demand: boxes of positive area inside the die put
    /// exactly `(w + h) · wire_pitch` each onto the grid, also when the die
    /// is narrower or shorter than the bin count.
    #[test]
    fn rudy_demand_sums_to_the_wire_length(
        corner in (-5_000i64..5_000, -5_000i64..5_000),
        size in (1i64..40_000, 1i64..40_000),
        narrow in (any::<bool>(), any::<bool>()),
        bins in 2usize..80,
        wire_pitch in 0.1f64..4.0,
        boxes in prop::collection::vec((0i64..1_000_000, 0i64..1_000_000, 0i64..1_000_000, 0i64..1_000_000), 1..12),
    ) {
        let die = die_of(corner.0, corner.1, size.0, size.1, narrow);
        let grid = BinGrid::new(die, bins);
        let rects: Vec<Rect> = boxes
            .iter()
            .map(|&(a, b, c, d)| {
                let (x0, x1) = (die.llx + a % (die.width() + 1), die.llx + c % (die.width() + 1));
                let (y0, y1) = (die.lly + b % (die.height() + 1), die.lly + d % (die.height() + 1));
                Rect::new(x0.min(x1), y0.min(y1), x0.max(x1), y0.max(y1))
            })
            .filter(|r| r.area() > 0)
            .collect();
        let demand: f64 = grid.rudy_demand(rects.iter().copied(), wire_pitch).iter().sum();
        let wire: f64 = rects.iter().map(|r| (r.width() + r.height()) as f64 * wire_pitch).sum();
        prop_assert!(
            (demand - wire).abs() <= 1e-9 * wire.max(1.0),
            "demand {} against wire {} on {:?} with {} bins", demand, wire, die, bins
        );
    }

    /// Per bin, RUDY demand equals the box-order sum of `density ·
    /// |bin ∩ box|` with the intersection area taken in `i128` (a box of
    /// zero area counts 1 in every bin it touches), bit for bit: on dies
    /// from 1 DBU to 2^60 DBU a side, so the grid's extent falls on both
    /// sides of the `i64` bound, and boxes reaching past ±2^60.
    #[test]
    fn rudy_demand_matches_the_i128_oracle(
        scale in (0u32..61, 0u32..61),
        corner in (-(1i64 << 60)..(1i64 << 60), -(1i64 << 60)..(1i64 << 60)),
        size in (0i64..i64::MAX, 0i64..i64::MAX),
        bins in 2usize..40,
        wire_pitch in 0.1f64..4.0,
        boxes in prop::collection::vec(
            ((i64::MIN..i64::MAX, i64::MIN..i64::MAX, i64::MIN..i64::MAX, i64::MIN..i64::MAX), any::<bool>(), 0u8..4),
            1..8,
        ),
    ) {
        let side = |raw: i64, scale: u32| 1 + raw % (1i64 << scale);
        let die = Rect::from_size(
            corner.0 >> (60 - scale.0),
            corner.1 >> (60 - scale.1),
            side(size.0, scale.0),
            side(size.1, scale.1),
        );
        let grid = BinGrid::new(die, bins);
        let n = grid.bins();
        // free boxes, bin-snapped ones, and boxes flattened to zero height
        // or width
        let rects: Vec<Rect> = boxes
            .iter()
            .map(|&(raw, snap, flat)| {
                let r = rect_of(&grid, die, raw, snap);
                match flat {
                    0 => Rect::new(r.llx, r.lly, r.urx, r.lly),
                    1 => Rect::new(r.llx, r.lly, r.llx, r.ury),
                    _ => r,
                }
            })
            .collect();
        let mut oracle = vec![0.0f64; n * n];
        for bb in &rects {
            let area = bb.area();
            let density = (bb.width() + bb.height()) as f64 * wire_pitch / (area as f64).max(1.0);
            let floor = i128::from(area == 0);
            // bins outside the span meet no box of positive area (see
            // `column_times_row_overlap_equals_overlap_area`)
            let ((x0, x1), (y0, y1)) = grid.bin_span(bb);
            for bx in x0..=x1 {
                for by in y0..=y1 {
                    let overlap = grid.bin_rect(bx, by).overlap_area(bb);
                    oracle[bx * n + by] += density * overlap.max(floor) as f64;
                }
            }
        }
        let demand = grid.rudy_demand(rects.iter().copied(), wire_pitch);
        for (i, (d, o)) in demand.iter().zip(&oracle).enumerate() {
            prop_assert_eq!(
                d.to_bits(),
                o.to_bits(),
                "bin ({}, {}): {} against {} on {:?} with {} bins over {:?}", i / n, i % n, d, o, die, n, rects
            );
        }
    }

    /// Incremental deltas over a random move sequence stay bit-identical to
    /// a full recompute after every single move.
    #[test]
    fn incremental_hpwl_matches_full_recompute(
        design in arbitrary_design(),
        initial in prop::collection::vec((any::<bool>(), 0i64..DIE, 0i64..DIE), 12),
        moves in prop::collection::vec((0usize..12, 0i64..DIE, 0i64..DIE, any::<bool>()), 1..24),
    ) {
        // initial placement: some cells placed, some not
        let mut placement = CellPlacement::with_num_cells(design.num_cells());
        for (i, (placed, x, y)) in initial.iter().enumerate().take(design.num_cells()) {
            if *placed {
                placement.set_position(CellId(i as u32), Point::new(*x, *y));
            }
        }
        let mut inc = IncrementalHpwl::new(&design, &placement);
        prop_assert_eq!(inc.hpwl(), eval::total_hpwl(&design, &placement));

        for (cell, x, y, place) in moves {
            let cell = CellId((cell % design.num_cells()) as u32);
            let before = inc.hpwl().dbu;
            let delta = if place {
                let pos = Point::new(x, y);
                placement.set_position(cell, pos);
                inc.move_cell(cell, pos)
            } else {
                placement.positions.insert(cell, None);
                inc.unplace_cell(cell)
            };
            let full = eval::total_hpwl(&design, &placement);
            prop_assert_eq!(inc.hpwl(), full, "after moving {:?}", cell);
            prop_assert_eq!(before + delta, full.dbu, "delta of {:?}", cell);
            prop_assert_eq!(inc.position(cell), placement.position(cell));
        }
    }

    /// `placement_of` finds every macro of a hand-built vector, also one in
    /// reverse cell order, and the evaluator cannot tell the order apart.
    #[test]
    fn placement_of_finds_every_macro_of_a_hand_built_vector(
        entries in prop::collection::vec(
            (0i64..DIE / 2, 0i64..DIE / 2, any_orientation()),
            1..6,
        ),
        shuffle in any::<bool>(),
    ) {
        let mut b = DesignBuilder::new("prop");
        let macros: Vec<CellId> = (0..entries.len())
            .map(|i| b.add_macro(format!("m{i}"), "RAM", 100, 80, ""))
            .collect();
        for i in 1..macros.len() {
            let n = b.add_net(format!("n{i}"));
            b.connect_driver(n, macros[i - 1]);
            b.connect_sink(n, macros[i]);
        }
        b.set_die(Rect::new(0, 0, DIE, DIE));
        let design = b.build();

        let placed: Vec<PlacedMacro> = macros
            .iter()
            .zip(&entries)
            .map(|(&cell, &(x, y, orient))| PlacedMacro::new(cell, Point::new(x, y), orient))
            .collect();
        let sorted = MacroPlacement { macros: placed.clone(), top_blocks: Vec::new() };
        let mut hand_built = sorted.clone();
        if shuffle {
            // hand-built vectors need not be sorted by cell id
            hand_built.macros.reverse();
        }

        for want in &placed {
            prop_assert_eq!(hand_built.placement_of(want.cell), Some(want));
        }
        prop_assert_eq!(hand_built.placement_of(CellId(entries.len() as u32)), None);

        // the evaluator produces bit-identical metrics in either order
        let mut evaluator = Evaluator::standard();
        prop_assert_eq!(
            evaluator.evaluate(&design, &hand_built),
            evaluator.evaluate(&design, &sorted)
        );
    }
}
