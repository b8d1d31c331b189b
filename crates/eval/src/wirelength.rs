//! Half-perimeter wirelength (HPWL): the one-shot [`total_hpwl`] and the
//! [`IncrementalHpwl`] session that maintains per-net bounding boxes under
//! single-cell moves for annealing-style loops (the IndEDA baseline's
//! refinement).

use crate::placer::CellPlacement;
use geometry::Point;
use netlist::design::{CellId, Design};
use netlist::{Connectivity, NetId};

/// Wirelength report.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Hpwl {
    /// Total half-perimeter wirelength in DBU.
    pub dbu: i128,
    /// Number of nets with at least two placed pins.
    pub routed_nets: usize,
}

impl Hpwl {
    /// Wirelength in meters for a given number of DBU per micron.
    pub fn meters(&self, dbu_per_micron: i64) -> f64 {
        self.dbu as f64 / dbu_per_micron as f64 * 1e-6
    }
}

/// The bounding box of a net's placed pins (cell centers from `cell_pos`,
/// port positions from the prefetched `port_pos` slice), accumulated
/// incrementally over the design's CSR [`netlist::Connectivity`] — no
/// per-net point buffer and no hash lookups.
///
/// Returns `None` for nets with fewer than two placed pins (they contribute
/// neither wirelength nor routing demand).
pub(crate) fn net_bounding_box(
    csr: &Connectivity,
    net: NetId,
    cell_pos: impl Fn(CellId) -> Option<Point>,
    port_pos: &[Option<Point>],
) -> Option<geometry::Rect> {
    let mut min_x = i64::MAX;
    let mut max_x = i64::MIN;
    let mut min_y = i64::MAX;
    let mut max_y = i64::MIN;
    let mut pins = 0usize;
    for &pin in csr.pins(net) {
        let p = if let Some(c) = pin.cell() {
            cell_pos(c)
        } else {
            pin.port().and_then(|p| port_pos[p.0 as usize])
        };
        let Some(p) = p else { continue };
        min_x = min_x.min(p.x);
        max_x = max_x.max(p.x);
        min_y = min_y.min(p.y);
        max_y = max_y.max(p.y);
        pins += 1;
    }
    (pins >= 2).then(|| geometry::Rect::new(min_x, min_y, max_x, max_y))
}

/// Computes the total HPWL of a design for a full cell placement.
///
/// Every net contributes the half perimeter of the bounding box of its pin
/// locations (cell centers and port positions). Nets with fewer than two
/// placed pins contribute nothing.
pub fn total_hpwl(design: &Design, placement: &CellPlacement) -> Hpwl {
    let port_pos: Vec<Option<Point>> = design.ports().map(|(_, p)| p.position).collect();
    total_hpwl_with_ports(design, |c| placement.position(c), &port_pos)
}

/// [`total_hpwl`] over the cell positions `cell_pos` looks up (a
/// [`CellPlacement`], or the standard-cell placer's working positions), with
/// a caller-provided port-position buffer (the `Evaluator` session reuses one
/// across candidates).
pub(crate) fn total_hpwl_with_ports(
    design: &Design,
    cell_pos: impl Fn(CellId) -> Option<Point>,
    port_pos: &[Option<Point>],
) -> Hpwl {
    let csr = design.connectivity();
    let mut total: i128 = 0;
    let mut routed = 0usize;
    for net in design.net_ids() {
        let Some(bb) = net_bounding_box(csr, net, &cell_pos, port_pos) else { continue };
        total += (bb.width() + bb.height()) as i128;
        routed += 1;
    }
    Hpwl { dbu: total, routed_nets: routed }
}

/// Per-net state of an [`IncrementalHpwl`] session: the bounding box of the
/// placed pins and the net's current half-perimeter contribution.
#[derive(Debug, Clone, Copy, Default)]
struct NetBox {
    /// Half-perimeter contribution (0 when fewer than two pins are placed).
    contrib: i128,
    /// Whether the net currently counts as routed (≥ 2 placed pins).
    routed: bool,
}

/// Incremental HPWL over the design's CSR connectivity: per-net bounding
/// boxes are maintained under single-cell moves, so an annealing-style loop
/// pays `O(Σ degree(nets of moved cell))` per move instead of recomputing
/// every net.
///
/// The running total is **bit-identical** to [`total_hpwl`] over the same
/// positions at every step (each touched net's box is recomputed exactly from
/// its pins — no floating-point accumulation, no shrink approximation).
///
/// # Example
///
/// ```
/// use eval::{total_hpwl, CellPlacement, IncrementalHpwl};
/// use geometry::Point;
/// use netlist::design::DesignBuilder;
///
/// let mut b = DesignBuilder::new("t");
/// let a = b.add_comb("a", "");
/// let c = b.add_comb("c", "");
/// let n = b.add_net("n");
/// b.connect_driver(n, a);
/// b.connect_sink(n, c);
/// let design = b.build();
/// let mut placement = CellPlacement::with_num_cells(design.num_cells());
/// placement.set_position(a, Point::new(0, 0));
/// placement.set_position(c, Point::new(30, 40));
///
/// let mut inc = IncrementalHpwl::new(&design, &placement);
/// assert_eq!(inc.hpwl().dbu, 70);
/// let delta = inc.move_cell(c, Point::new(10, 10));
/// assert_eq!(delta, -50);
/// placement.set_position(c, Point::new(10, 10));
/// assert_eq!(inc.hpwl(), total_hpwl(&design, &placement));
/// ```
#[derive(Debug, Clone)]
pub struct IncrementalHpwl<'d> {
    csr: &'d Connectivity,
    /// Current cell centers (the mutable side of the session).
    positions: Vec<Option<Point>>,
    /// Port positions, fixed for the session.
    port_pos: Vec<Option<Point>>,
    boxes: Vec<NetBox>,
    total_dbu: i128,
    routed_nets: usize,
}

impl<'d> IncrementalHpwl<'d> {
    /// Starts a session from a full cell placement.
    pub fn new(design: &'d Design, placement: &CellPlacement) -> Self {
        let csr = design.connectivity();
        let mut positions = vec![None; design.num_cells()];
        for (cell, pos) in placement.placed() {
            if let Some(slot) = positions.get_mut(cell.0 as usize) {
                *slot = Some(pos);
            }
        }
        let port_pos: Vec<Option<Point>> = design.ports().map(|(_, p)| p.position).collect();
        let mut session = Self {
            csr,
            positions,
            port_pos,
            boxes: vec![NetBox::default(); design.num_nets()],
            total_dbu: 0,
            routed_nets: 0,
        };
        for net in design.net_ids() {
            session.recompute_net(net);
        }
        session
    }

    /// The current total, matching [`total_hpwl`] bit for bit.
    pub fn hpwl(&self) -> Hpwl {
        Hpwl { dbu: self.total_dbu, routed_nets: self.routed_nets }
    }

    /// The current position of a cell.
    pub fn position(&self, cell: CellId) -> Option<Point> {
        self.positions.get(cell.0 as usize).copied().flatten()
    }

    /// Moves (or places) a cell and returns the signed HPWL delta in DBU.
    pub fn move_cell(&mut self, cell: CellId, position: Point) -> i128 {
        let before = self.total_dbu;
        self.positions[cell.0 as usize] = Some(position);
        self.update_nets_of(cell);
        self.total_dbu - before
    }

    /// Removes a cell's position and returns the signed HPWL delta in DBU.
    pub fn unplace_cell(&mut self, cell: CellId) -> i128 {
        let before = self.total_dbu;
        self.positions[cell.0 as usize] = None;
        self.update_nets_of(cell);
        self.total_dbu - before
    }

    fn update_nets_of(&mut self, cell: CellId) {
        // `csr` outlives `self`, so the net slice does not borrow `self`
        let csr = self.csr;
        for &net in csr.nets_of(cell) {
            self.recompute_net(net);
        }
    }

    /// Recomputes one net's bounding box from its pins, replacing its
    /// contribution in the running total.
    fn recompute_net(&mut self, net: NetId) {
        let old = self.boxes[net.0 as usize];
        self.total_dbu -= old.contrib;
        self.routed_nets -= usize::from(old.routed);

        let mut min_x = i64::MAX;
        let mut max_x = i64::MIN;
        let mut min_y = i64::MAX;
        let mut max_y = i64::MIN;
        let mut pins = 0usize;
        for &pin in self.csr.pins(net) {
            let p = match pin.cell() {
                Some(c) => self.positions[c.0 as usize],
                None => pin.port().and_then(|p| self.port_pos[p.0 as usize]),
            };
            let Some(p) = p else { continue };
            min_x = min_x.min(p.x);
            max_x = max_x.max(p.x);
            min_y = min_y.min(p.y);
            max_y = max_y.max(p.y);
            pins += 1;
        }
        let new = if pins >= 2 {
            NetBox { contrib: ((max_x - min_x) + (max_y - min_y)) as i128, routed: true }
        } else {
            NetBox::default()
        };
        self.total_dbu += new.contrib;
        self.routed_nets += usize::from(new.routed);
        self.boxes[net.0 as usize] = new;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netlist::design::{DesignBuilder, PortDirection};

    #[test]
    fn hpwl_of_two_pin_net() {
        let mut b = DesignBuilder::new("t");
        let a = b.add_comb("a", "");
        let c = b.add_comb("c", "");
        let n = b.add_net("n");
        b.connect_driver(n, a);
        b.connect_sink(n, c);
        let d = b.build();
        let mut placement = CellPlacement::default();
        placement.set_position(a, Point::new(0, 0));
        placement.set_position(c, Point::new(30, 40));
        let wl = total_hpwl(&d, &placement);
        assert_eq!(wl.dbu, 70);
        assert_eq!(wl.routed_nets, 1);
    }

    #[test]
    fn hpwl_includes_port_positions() {
        let mut b = DesignBuilder::new("t");
        let a = b.add_comb("a", "");
        let p = b.add_port("in", PortDirection::Input);
        b.place_port(p, Point::new(100, 0));
        let n = b.add_net("n");
        b.connect_port_driver(n, p);
        b.connect_sink(n, a);
        let d = b.build();
        let mut placement = CellPlacement::default();
        placement.set_position(a, Point::new(0, 50));
        let wl = total_hpwl(&d, &placement);
        assert_eq!(wl.dbu, 150);
    }

    #[test]
    fn multi_pin_net_uses_bounding_box() {
        let mut b = DesignBuilder::new("t");
        let a = b.add_comb("a", "");
        let c1 = b.add_comb("c1", "");
        let c2 = b.add_comb("c2", "");
        let n = b.add_net("n");
        b.connect_driver(n, a);
        b.connect_sink(n, c1);
        b.connect_sink(n, c2);
        let d = b.build();
        let mut placement = CellPlacement::default();
        placement.set_position(a, Point::new(0, 0));
        placement.set_position(c1, Point::new(10, 100));
        placement.set_position(c2, Point::new(50, 20));
        let wl = total_hpwl(&d, &placement);
        assert_eq!(wl.dbu, 50 + 100);
    }

    #[test]
    fn unplaced_pins_are_skipped() {
        let mut b = DesignBuilder::new("t");
        let a = b.add_comb("a", "");
        let c = b.add_comb("c", "");
        let n = b.add_net("n");
        b.connect_driver(n, a);
        b.connect_sink(n, c);
        let d = b.build();
        let placement = CellPlacement::default();
        let wl = total_hpwl(&d, &placement);
        assert_eq!(wl.dbu, 0);
        assert_eq!(wl.routed_nets, 0);
    }

    #[test]
    fn meters_conversion() {
        let wl = Hpwl { dbu: 2_000_000_000, routed_nets: 1 };
        // 2e9 DBU at 1000 DBU/µm = 2e6 µm = 2 m
        assert!((wl.meters(1000) - 2.0).abs() < 1e-9);
    }
}
