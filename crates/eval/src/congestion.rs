//! RUDY-style global-routing congestion estimation.
//!
//! Each net spreads a routing demand of `(w + h) · wire_pitch` uniformly over
//! its bounding box (the RUDY model).  Demand is accumulated on a grid of
//! bins whose capacity is derived from the bin area and the number of routing
//! tracks per unit length; bins covered by macros lose most of their capacity.
//! The reported `GRC%` is the percentage of bins whose demand exceeds their
//! capacity, matching the "global routing overflow percentage" of Table III.

use crate::exact::area_f64;
use crate::grid::BinGrid;
use crate::placer::CellPlacement;
use geometry::{Point, Rect};
use netlist::design::Design;
use netlist::MacroPlacement;

/// Configuration of the congestion estimator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CongestionConfig {
    /// Number of bins per die edge.
    pub bins: usize,
    /// Routing supply per DBU of bin edge (tracks per DBU summed over layers).
    pub supply_per_dbu: f64,
    /// Wire pitch in DBU (demand contributed per DBU of wire).
    pub wire_pitch: f64,
    /// Fraction of routing capacity that survives over a macro (over-the-cell
    /// routing on upper layers).
    pub macro_capacity_fraction: f64,
}

impl Default for CongestionConfig {
    fn default() -> Self {
        // 0.55 tracks per DBU of bin edge, summed over layers, is a fixed
        // constant, not a calibration: `table3 --effort fast` reads GRC% of
        // 76.6–99.1 on every flow × circuit row. Capacity grows with the bin
        // edge while RUDY demand grows with the bin area; ROADMAP item 3
        // covers the capacity model and its calibration.
        Self { bins: 32, supply_per_dbu: 0.55, wire_pitch: 1.0, macro_capacity_fraction: 0.2 }
    }
}

/// The congestion map and its summary statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct CongestionMap {
    /// Bins per edge.
    pub bins: usize,
    /// Demand / capacity ratio per bin (row-major, `[x][y]` flattened as `x * bins + y`).
    pub utilization: Vec<f64>,
    /// Percentage of bins whose demand exceeds capacity.
    pub overflow_percent: f64,
    /// Peak demand / capacity ratio.
    pub peak_utilization: f64,
}

impl CongestionMap {
    /// Utilization of bin `(x, y)`.
    pub fn at(&self, x: usize, y: usize) -> f64 {
        self.utilization[x * self.bins + y]
    }
}

/// Estimates global-routing congestion for a placed design.
pub fn estimate_congestion(
    design: &Design,
    placement: &CellPlacement,
    macro_placement: &MacroPlacement,
    config: &CongestionConfig,
) -> CongestionMap {
    let port_pos: Vec<Option<Point>> = design.ports().map(|(_, p)| p.position).collect();
    estimate_congestion_with_ports(design, placement, macro_placement, config, &port_pos)
}

/// [`estimate_congestion`] with a caller-provided port-position buffer (the
/// `Evaluator` session reuses one across candidates).
pub(crate) fn estimate_congestion_with_ports(
    design: &Design,
    placement: &CellPlacement,
    macro_placement: &MacroPlacement,
    config: &CongestionConfig,
    port_pos: &[Option<Point>],
) -> CongestionMap {
    let grid = BinGrid::new(design.die(), config.bins);
    let bins = grid.bins();

    // capacity per bin
    let macro_rects: Vec<Rect> =
        design.macros().filter_map(|id| macro_placement.rect_of(id, design)).collect();
    let covered = grid.macro_coverage(&macro_rects);
    let mut capacity = vec![0.0f64; bins * bins];
    for bx in 0..bins {
        for by in 0..bins {
            let rect = grid.bin_rect(bx, by);
            let base = (rect.width() + rect.height()) as f64 * config.supply_per_dbu;
            let i = bx * bins + by;
            let bin_area = area_f64(rect.width(), rect.height()).max(1.0);
            let frac_covered = (covered[i] / bin_area).min(1.0);
            capacity[i] = base * (1.0 - frac_covered * (1.0 - config.macro_capacity_fraction));
        }
    }

    // demand per bin (RUDY), walking the flat CSR net→pin arrays
    let csr = design.connectivity();
    let boxes = design.net_ids().filter_map(|net| {
        crate::wirelength::net_bounding_box(csr, net, |c| placement.position(c), port_pos)
    });
    let demand = grid.rudy_demand(boxes, config.wire_pitch);

    let mut overflow = 0usize;
    let mut peak: f64 = 0.0;
    let mut utilization = vec![0.0f64; bins * bins];
    for i in 0..bins * bins {
        let u = if capacity[i] > 0.0 {
            demand[i] / capacity[i]
        } else if demand[i] > 0.0 {
            2.0
        } else {
            0.0
        };
        utilization[i] = u;
        if u > 1.0 {
            overflow += 1;
        }
        peak = peak.max(u);
    }
    CongestionMap {
        bins,
        utilization,
        overflow_percent: 100.0 * overflow as f64 / (bins * bins) as f64,
        peak_utilization: peak,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use geometry::Orientation;
    use netlist::design::{CellId, DesignBuilder};
    use netlist::PlacedMacro;

    fn no_macros() -> MacroPlacement {
        MacroPlacement::default()
    }

    fn chain_design(n: usize, die: Rect) -> Design {
        let mut b = DesignBuilder::new("t");
        let mut prev = b.add_comb("c0", "");
        for i in 1..n {
            let c = b.add_comb(format!("c{i}"), "");
            let net = b.add_net(format!("n{i}"));
            b.connect_driver(net, prev);
            b.connect_sink(net, c);
            prev = c;
        }
        b.set_die(die);
        b.build()
    }

    #[test]
    fn empty_placement_has_no_congestion() {
        let d = chain_design(4, Rect::new(0, 0, 1000, 1000));
        let placement = CellPlacement::default();
        let map = estimate_congestion(&d, &placement, &no_macros(), &CongestionConfig::default());
        assert_eq!(map.overflow_percent, 0.0);
        assert_eq!(map.peak_utilization, 0.0);
    }

    #[test]
    fn concentrated_nets_create_local_congestion() {
        // many cells in one corner connected pairwise produce demand there
        let mut b = DesignBuilder::new("t");
        let mut cells = Vec::new();
        for i in 0..40 {
            cells.push(b.add_comb(format!("c{i}"), ""));
        }
        for i in 0..39 {
            let n = b.add_net(format!("n{i}"));
            b.connect_driver(n, cells[i]);
            b.connect_sink(n, cells[i + 1]);
        }
        b.set_die(Rect::new(0, 0, 3200, 3200));
        let d = b.build();
        let mut placement = CellPlacement::default();
        for (i, &c) in cells.iter().enumerate() {
            placement
                .set_position(c, Point::new(10 + (i as i64 % 5) * 20, 10 + (i as i64 / 5) * 10));
        }
        let cfg = CongestionConfig { bins: 8, supply_per_dbu: 0.001, ..Default::default() };
        let map = estimate_congestion(&d, &placement, &no_macros(), &cfg);
        // the corner bin is the congested one
        assert!(map.at(0, 0) > map.at(7, 7));
        assert!(map.peak_utilization > 0.0);
    }

    #[test]
    fn spread_placement_less_congested_than_clustered() {
        let d = chain_design(50, Rect::new(0, 0, 3200, 3200));
        let ids: Vec<CellId> = d.cell_ids().collect();
        // clustered placement
        let mut clustered = CellPlacement::default();
        for (i, &c) in ids.iter().enumerate() {
            clustered
                .set_position(c, Point::new(50 + (i as i64 % 7) * 10, 50 + (i as i64 / 7) * 10));
        }
        // spread placement
        let mut spread = CellPlacement::default();
        for (i, &c) in ids.iter().enumerate() {
            spread.set_position(c, Point::new((i as i64 * 61) % 3200, (i as i64 * 97) % 3200));
        }
        let cfg = CongestionConfig { bins: 8, supply_per_dbu: 0.0005, ..Default::default() };
        let c_map = estimate_congestion(&d, &clustered, &no_macros(), &cfg);
        let s_map = estimate_congestion(&d, &spread, &no_macros(), &cfg);
        assert!(c_map.peak_utilization > s_map.peak_utilization);
    }

    #[test]
    fn demand_stays_inside_the_box_on_a_die_narrower_than_the_bin_count() {
        // a 16 × 16 DBU die under 32 bins of 1 DBU: the net's box spans
        // columns and rows 4..12, and only those 64 bins may carry demand
        let d = chain_design(2, Rect::new(0, 0, 16, 16));
        let mut placement = CellPlacement::default();
        placement.set_position(d.find_cell("c0").unwrap(), Point::new(4, 4));
        placement.set_position(d.find_cell("c1").unwrap(), Point::new(12, 12));
        let map = estimate_congestion(&d, &placement, &no_macros(), &CongestionConfig::default());
        for x in 0..32 {
            for y in 0..32 {
                let inside = (4..12).contains(&x) && (4..12).contains(&y);
                assert_eq!(map.at(x, y) > 0.0, inside, "bin ({x}, {y}): {}", map.at(x, y));
            }
        }
        // 16 units of wire over 64 bins of capacity (1 + 1) · 0.55 each
        assert_eq!(map.peak_utilization, 16.0 / 64.0 / 1.1);
    }

    #[test]
    fn macros_reduce_capacity_under_them() {
        let mut b = DesignBuilder::new("t");
        let m = b.add_macro("ram", "RAM", 1600, 1600, "");
        let a = b.add_comb("a", "");
        let c = b.add_comb("c", "");
        let n = b.add_net("n");
        b.connect_driver(n, a);
        b.connect_sink(n, c);
        b.set_die(Rect::new(0, 0, 3200, 3200));
        let d = b.build();
        let mut placement = CellPlacement::default();
        placement.set_position(a, Point::new(0, 0));
        placement.set_position(c, Point::new(3199, 3199));
        placement.set_position(m, Point::new(800, 800));
        let mp: MacroPlacement =
            [PlacedMacro::new(m, Point::new(0, 0), Orientation::N)].into_iter().collect();
        let cfg = CongestionConfig { bins: 8, supply_per_dbu: 0.0004, ..Default::default() };
        let with_macro = estimate_congestion(&d, &placement, &mp, &cfg);
        let without_macro = estimate_congestion(&d, &placement, &no_macros(), &cfg);
        // the same demand over reduced capacity gives higher utilization
        assert!(with_macro.peak_utilization >= without_macro.peak_utilization);
    }
}
