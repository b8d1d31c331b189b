//! Property-based tests of the evaluation-session API:
//!
//! * [`eval::IncrementalHpwl`] deltas applied over random single-cell move
//!   sequences stay bit-identical to a full [`eval::total_hpwl`] recompute,
//! * `hidap::MacroPlacement` read through [`netlist::PlacementView`] agrees
//!   with its legacy `to_map()` interchange on every macro, and the
//!   [`eval::Evaluator`] produces bit-identical metrics through either.

use eval::{CellPlacement, Evaluator, IncrementalHpwl};
use geometry::{Orientation, Point, Rect};
use hidap::{MacroPlacement, PlacedMacro};
use netlist::design::{CellId, Design, DesignBuilder, PortDirection};
use netlist::PlacementView;
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

proptest! {
    #![proptest_config(ProptestConfig { cases: 24 })]

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

    /// `MacroPlacement` read as a `PlacementView` agrees with `to_map()` on
    /// every macro, and the evaluator cannot tell the two apart.
    #[test]
    fn macro_placement_view_agrees_with_to_map(
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

        let mut placement = MacroPlacement::default();
        for (&cell, &(x, y, orient)) in macros.iter().zip(&entries) {
            placement.macros.push(PlacedMacro {
                cell,
                location: Point::new(x, y),
                orientation: orient,
            });
        }
        if shuffle {
            // hand-built vectors need not be sorted by cell id
            placement.macros.reverse();
        }

        let map = placement.to_map();
        prop_assert_eq!(PlacementView::len(&placement), map.len());
        for (&cell, &(loc, orient)) in &map {
            prop_assert_eq!(placement.placement(cell), Some((loc, orient)));
            prop_assert_eq!(placement.position(cell), Some(loc));
            prop_assert_eq!(placement.orientation(cell), Some(orient));
        }
        let mut from_iter: Vec<_> = placement.iter_placed().collect();
        from_iter.sort_by_key(|&(c, _, _)| c);
        let mut from_map: Vec<_> = map.iter().map(|(&c, &(l, o))| (c, l, o)).collect();
        from_map.sort_by_key(|&(c, _, _)| c);
        prop_assert_eq!(from_iter, from_map);

        // the evaluator produces bit-identical metrics through either view
        let mut evaluator = Evaluator::standard();
        prop_assert_eq!(
            evaluator.evaluate(&design, &placement),
            evaluator.evaluate(&design, &map)
        );
    }
}
