//! The wiring of a [`Design`](crate::design::Design), in flat CSR form.
//!
//! The hot loops of the flow — Gauss–Seidel placement sweeps, HPWL, RUDY
//! congestion, affinity construction — repeatedly walk cell↔net incidence.
//! [`Connectivity`] is the design's only copy of that incidence: flat arrays
//! in *compressed sparse row* form, with no pointer chase per cell or net:
//!
//! * `cell→net`: for every cell, its fanin nets followed by its fanout nets,
//!   all in one contiguous `Vec<NetId>` with an offsets array,
//! * `net→pin`: for every net, its pins in the canonical order
//!   *driver cell, sink cells, driver port, sink ports*, as packed
//!   [`PinRef`]s with an offsets array.
//!
//! [`crate::design::DesignBuilder::build`] packs it once from the builder's
//! connection log, and
//! [`Design::apply_edits`](crate::design::Design::apply_edits) rewrites it
//! in place (see [`crate::edit`]);
//! [`Design::connectivity`](crate::design::Design::connectivity) hands it
//! out.
//!
//! # Example
//!
//! ```
//! use netlist::design::DesignBuilder;
//!
//! let mut b = DesignBuilder::new("t");
//! let f = b.add_flop("f", "");
//! let g = b.add_comb("g", "");
//! let n = b.add_net("n");
//! b.connect_driver(n, f);
//! b.connect_sink(n, g);
//! let design = b.build();
//! let csr = design.connectivity();
//! assert_eq!(csr.fanout(f), &[n]);
//! assert_eq!(csr.fanin(g), &[n]);
//! let pins: Vec<_> = csr.pins(n).iter().map(|p| p.cell()).collect();
//! assert_eq!(pins, vec![Some(f), Some(g)]);
//! ```

use crate::design::{CellId, NetId, PortId};

/// A packed pin reference: a cell or a port, marked as driver or sink.
///
/// Layout: bits `0..30` hold the cell/port index, bit 30 distinguishes ports
/// from cells and bit 31 marks drivers — one word per pin so a net's pin list
/// is a cache-friendly `&[PinRef]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PinRef(u32);

impl PinRef {
    const PORT_BIT: u32 = 1 << 30;
    const DRIVER_BIT: u32 = 1 << 31;
    const INDEX_MASK: u32 = Self::PORT_BIT - 1;

    /// A driver-cell pin.
    pub fn driver_cell(cell: CellId) -> Self {
        debug_assert!(cell.0 & !Self::INDEX_MASK == 0, "cell id exceeds the 30-bit pin encoding");
        Self(cell.0 | Self::DRIVER_BIT)
    }

    /// A sink-cell pin.
    pub fn sink_cell(cell: CellId) -> Self {
        debug_assert!(cell.0 & !Self::INDEX_MASK == 0, "cell id exceeds the 30-bit pin encoding");
        Self(cell.0)
    }

    /// A driver-port pin (primary input).
    pub fn driver_port(port: PortId) -> Self {
        debug_assert!(port.0 & !Self::INDEX_MASK == 0, "port id exceeds the 30-bit pin encoding");
        Self(port.0 | Self::PORT_BIT | Self::DRIVER_BIT)
    }

    /// A sink-port pin (primary output).
    pub fn sink_port(port: PortId) -> Self {
        debug_assert!(port.0 & !Self::INDEX_MASK == 0, "port id exceeds the 30-bit pin encoding");
        Self(port.0 | Self::PORT_BIT)
    }

    /// Whether the pin drives the net.
    #[inline]
    pub fn is_driver(self) -> bool {
        self.0 & Self::DRIVER_BIT != 0
    }

    /// Whether the pin is a primary port.
    #[inline]
    pub fn is_port(self) -> bool {
        self.0 & Self::PORT_BIT != 0
    }

    /// The cell of the pin, when it is a cell pin.
    #[inline]
    pub fn cell(self) -> Option<CellId> {
        (!self.is_port()).then_some(CellId(self.0 & Self::INDEX_MASK))
    }

    /// The port of the pin, when it is a port pin.
    #[inline]
    pub fn port(self) -> Option<PortId> {
        self.is_port().then_some(PortId(self.0 & Self::INDEX_MASK))
    }
}

/// The CSR wiring: flat `cell→net` and `net→pin` incidence.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Connectivity {
    /// `cell_net_start[c]..cell_net_start[c + 1]` indexes `cell_nets`.
    cell_net_start: Vec<u32>,
    /// Where a cell's fanout begins inside its `cell_nets` range (the nets
    /// before it are the fanin).
    cell_fanout_start: Vec<u32>,
    /// Concatenated per-cell net lists: fanin first, then fanout.
    cell_nets: Vec<NetId>,
    /// `net_pin_start[n]..net_pin_start[n + 1]` indexes `net_pins`.
    net_pin_start: Vec<u32>,
    /// Concatenated per-net pin lists in canonical order (driver cell, sink
    /// cells, driver port, sink ports).
    net_pins: Vec<PinRef>,
    /// FNV-1a hash of the flat arrays, folded whenever they change — a cheap
    /// wiring identity for design-keyed caches (see
    /// [`Connectivity::fingerprint`]).
    fingerprint: u64,
}

impl Connectivity {
    /// Packs a builder's connection log (see
    /// [`crate::design::DesignBuilder`]): `drivers` holds each net's current
    /// driving cell and port, `log` every sink connection and driver change
    /// in call order. A sink connected twice to one net is kept at its first
    /// connection; every logged driver change stays in its cell's fanout.
    pub(crate) fn pack(
        num_cells: usize,
        num_ports: usize,
        drivers: &[(Option<CellId>, Option<PortId>)],
        log: &[(NetId, PinRef)],
    ) -> Self {
        let num_nets = drivers.len();
        // net → pin: each net's sinks in call order, cells before ports; a
        // sink is kept at its first connection (`seen_*` holds the last net
        // the cell or port was kept on)
        let (net_pin_start, net_pins) = {
            let (start, order) =
                bucket(num_nets, log, |n, p| (!p.is_driver()).then_some(n.0 as usize));
            let mut seen_cell = vec![u32::MAX; num_cells];
            let mut seen_port = vec![u32::MAX; num_ports];
            let mut net_pin_start = Vec::with_capacity(num_nets + 1);
            let mut net_pins = Vec::with_capacity(order.len() + 2 * num_nets);
            net_pin_start.push(0u32);
            for (n, &(cell, port)) in drivers.iter().enumerate() {
                let sinks = || {
                    order[start[n] as usize..start[n + 1] as usize]
                        .iter()
                        .map(|&i| log[i as usize].1)
                };
                net_pins.extend(cell.map(PinRef::driver_cell));
                for pin in sinks() {
                    let Some(c) = pin.cell() else { continue };
                    if std::mem::replace(&mut seen_cell[c.0 as usize], n as u32) != n as u32 {
                        net_pins.push(pin);
                    }
                }
                net_pins.extend(port.map(PinRef::driver_port));
                for pin in sinks() {
                    let Some(p) = pin.port() else { continue };
                    if std::mem::replace(&mut seen_port[p.0 as usize], n as u32) != n as u32 {
                        net_pins.push(pin);
                    }
                }
                net_pin_start.push(net_pins.len() as u32);
            }
            net_pins.shrink_to_fit();
            (net_pin_start, net_pins)
        };

        // cell → net: each cell's sink nets (once each), then its driver
        // changes, in call order
        let (cell_net_start, cell_fanout_start, cell_nets) = {
            let (start, order) = bucket(num_cells, log, |_, p| p.cell().map(|c| c.0 as usize));
            let mut seen_net = vec![u32::MAX; num_nets];
            let mut cell_net_start = Vec::with_capacity(num_cells + 1);
            let mut cell_fanout_start = Vec::with_capacity(num_cells);
            let mut cell_nets = Vec::with_capacity(order.len());
            cell_net_start.push(0u32);
            for c in 0..num_cells {
                let entries = || {
                    order[start[c] as usize..start[c + 1] as usize].iter().map(|&i| log[i as usize])
                };
                for (n, pin) in entries() {
                    if !pin.is_driver()
                        && std::mem::replace(&mut seen_net[n.0 as usize], c as u32) != c as u32
                    {
                        cell_nets.push(n);
                    }
                }
                cell_fanout_start.push(cell_nets.len() as u32);
                cell_nets.extend(entries().filter(|(_, pin)| pin.is_driver()).map(|(n, _)| n));
                cell_net_start.push(cell_nets.len() as u32);
            }
            cell_nets.shrink_to_fit();
            (cell_net_start, cell_fanout_start, cell_nets)
        };

        let mut view = Self {
            cell_net_start,
            cell_fanout_start,
            cell_nets,
            net_pin_start,
            net_pins,
            fingerprint: 0,
        };
        view.fingerprint = view.compute_fingerprint();
        view
    }

    /// Replaces the cell pins of `net` with `driver` and `sinks` (each sink
    /// kept once, in order); the net's port pins stay. The net leaves every
    /// occurrence in its old cell pins' lists (the old driver's fanout, the
    /// old sinks' fanin) and is then appended to its new pins' lists. One
    /// pass over both arrays, plus the fingerprint fold.
    pub(crate) fn rewire(&mut self, net: NetId, driver: Option<CellId>, sinks: &[CellId]) {
        let (lo, hi) = (
            self.net_pin_start[net.0 as usize] as usize,
            self.net_pin_start[net.0 as usize + 1] as usize,
        );
        let mut pins: Vec<PinRef> = driver.map(PinRef::driver_cell).into_iter().collect();
        for &s in sinks {
            let pin = PinRef::sink_cell(s);
            if !pins.contains(&pin) {
                pins.push(pin);
            }
        }
        pins.extend(self.net_pins[lo..hi].iter().filter(|p| p.is_port()));

        // the rows that change: bit 0/1 = drop the net from the fanin/fanout,
        // bit 2/3 = append it to the fanin/fanout
        let role = |pin: &PinRef, shift: u8| {
            pin.cell().map(|c| (c.0, (1 + u8::from(pin.is_driver())) << shift))
        };
        let mut rows: Vec<(u32, u8)> = self.net_pins[lo..hi]
            .iter()
            .filter_map(|p| role(p, 0))
            .chain(pins.iter().filter_map(|p| role(p, 2)))
            .collect();
        rows.sort_unstable();
        rows.dedup_by(|later, earlier| {
            let same = later.0 == earlier.0;
            if same {
                earlier.1 |= later.1;
            }
            same
        });

        let mut cell_nets = Vec::with_capacity(self.cell_nets.len() + pins.len());
        let mut rows = rows.into_iter().peekable();
        let mut row_lo = 0;
        for c in 0..self.num_cells() {
            let (mid, row_hi) =
                (self.cell_fanout_start[c] as usize, self.cell_net_start[c + 1] as usize);
            let flags = rows.next_if(|&(cell, _)| cell as usize == c).map_or(0, |(_, f)| f);
            let keep = |drop: u8| move |n: &&NetId| flags & drop == 0 || **n != net;
            cell_nets.extend(self.cell_nets[row_lo..mid].iter().filter(keep(1)));
            if flags & 4 != 0 {
                cell_nets.push(net);
            }
            self.cell_fanout_start[c] = cell_nets.len() as u32;
            cell_nets.extend(self.cell_nets[mid..row_hi].iter().filter(keep(2)));
            if flags & 8 != 0 {
                cell_nets.push(net);
            }
            self.cell_net_start[c + 1] = cell_nets.len() as u32;
            row_lo = row_hi;
        }
        cell_nets.shrink_to_fit();
        self.cell_nets = cell_nets;

        let mut net_pins = Vec::with_capacity(self.net_pins.len() - (hi - lo) + pins.len());
        net_pins.extend_from_slice(&self.net_pins[..lo]);
        net_pins.extend_from_slice(&pins);
        net_pins.extend_from_slice(&self.net_pins[hi..]);
        self.net_pins = net_pins;
        for start in &mut self.net_pin_start[net.0 as usize + 1..] {
            *start = (*start as usize + pins.len() - (hi - lo)) as u32;
        }
        self.fingerprint = self.compute_fingerprint();
    }

    /// FNV-1a over every flat array word, folded by `pack` and `rewire`.
    fn compute_fingerprint(&self) -> u64 {
        let mut h = crate::hash::Fnv1a::new();
        for &w in &self.cell_net_start {
            h.write_u32(w);
        }
        for &w in &self.cell_fanout_start {
            h.write_u32(w);
        }
        for &n in &self.cell_nets {
            h.write_u32(n.0);
        }
        for &w in &self.net_pin_start {
            h.write_u32(w);
        }
        for &p in &self.net_pins {
            h.write_u32(p.0);
        }
        h.finish()
    }

    /// A hash of the full cell↔net incidence: two designs with the same
    /// wiring share it, any re-wiring (even one swapped sink) changes it. Used by evaluation-session caches to key per-design state
    /// without holding a reference to the design.
    #[inline]
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// Number of cells the wiring covers.
    pub fn num_cells(&self) -> usize {
        self.cell_net_start.len().saturating_sub(1)
    }

    /// Number of nets the wiring covers.
    pub fn num_nets(&self) -> usize {
        self.net_pin_start.len().saturating_sub(1)
    }

    /// Total number of pins across all nets.
    pub fn num_pins(&self) -> usize {
        self.net_pins.len()
    }

    /// All nets attached to a cell: its [`Connectivity::fanin`] followed by
    /// its [`Connectivity::fanout`].
    #[inline]
    pub fn nets_of(&self, cell: CellId) -> &[NetId] {
        let lo = self.cell_net_start[cell.0 as usize] as usize;
        let hi = self.cell_net_start[cell.0 as usize + 1] as usize;
        &self.cell_nets[lo..hi]
    }

    /// The fanin nets of a cell (nets the cell reads).
    #[inline]
    pub fn fanin(&self, cell: CellId) -> &[NetId] {
        let lo = self.cell_net_start[cell.0 as usize] as usize;
        let mid = self.cell_fanout_start[cell.0 as usize] as usize;
        &self.cell_nets[lo..mid]
    }

    /// The fanout nets of a cell (nets the cell drives).
    #[inline]
    pub fn fanout(&self, cell: CellId) -> &[NetId] {
        let mid = self.cell_fanout_start[cell.0 as usize] as usize;
        let hi = self.cell_net_start[cell.0 as usize + 1] as usize;
        &self.cell_nets[mid..hi]
    }

    /// The pins of a net in canonical order (driver cell, sink cells, driver
    /// port, sink ports).
    #[inline]
    pub fn pins(&self, net: NetId) -> &[PinRef] {
        let lo = self.net_pin_start[net.0 as usize] as usize;
        let hi = self.net_pin_start[net.0 as usize + 1] as usize;
        &self.net_pins[lo..hi]
    }

    /// Number of pins on a net (driver + sinks).
    #[inline]
    pub fn degree(&self, net: NetId) -> usize {
        (self.net_pin_start[net.0 as usize + 1] - self.net_pin_start[net.0 as usize]) as usize
    }
}

/// Stable counting sort of the positions of the `log` entries that `key`
/// maps to one of `keys` buckets: the per-bucket offsets into the returned
/// positions, with call order kept inside each bucket.
fn bucket(
    keys: usize,
    log: &[(NetId, PinRef)],
    key: impl Fn(NetId, PinRef) -> Option<usize>,
) -> (Vec<u32>, Vec<u32>) {
    let mut start = vec![0u32; keys + 1];
    for &(n, p) in log {
        if let Some(k) = key(n, p) {
            start[k + 1] += 1;
        }
    }
    for k in 0..keys {
        start[k + 1] += start[k];
    }
    let mut next = start[..keys].to_vec();
    let mut order = vec![0u32; start[keys] as usize];
    for (i, &(n, p)) in log.iter().enumerate() {
        if let Some(k) = key(n, p) {
            order[next[k] as usize] = i as u32;
            next[k] += 1;
        }
    }
    (start, order)
}

impl crate::heap_size::HeapSize for Connectivity {
    fn heap_bytes(&self) -> usize {
        self.cell_net_start.heap_bytes()
            + self.cell_fanout_start.heap_bytes()
            + self.cell_nets.heap_bytes()
            + self.net_pin_start.heap_bytes()
            + self.net_pins.heap_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::design::{Design, DesignBuilder, PortDirection};

    fn sample() -> Design {
        let mut b = DesignBuilder::new("t");
        let m = b.add_macro("m", "RAM", 10, 10, "");
        let f = b.add_flop("f", "");
        let g = b.add_comb("g", "");
        let p_in = b.add_port("pi", PortDirection::Input);
        let p_out = b.add_port("po", PortDirection::Output);
        let n1 = b.add_net("n1");
        let n2 = b.add_net("n2");
        b.connect_port_driver(n1, p_in);
        b.connect_sink(n1, f);
        b.connect_driver(n2, f);
        b.connect_sink(n2, m);
        b.connect_sink(n2, g);
        b.connect_port_sink(n2, p_out);
        b.build()
    }

    #[test]
    fn csr_matches_per_cell_vecs() {
        let d = sample();
        let csr = d.connectivity();
        let net = |name| d.find_net(name).unwrap();
        // (cell, fanin, fanout) in the order the builder connected them
        let expected = [
            ("m", vec![net("n2")], vec![]),
            ("f", vec![net("n1")], vec![net("n2")]),
            ("g", vec![net("n2")], vec![]),
        ];
        for (name, fanin, fanout) in expected {
            let id = d.find_cell(name).unwrap();
            assert_eq!(csr.fanin(id), fanin.as_slice(), "{name}");
            assert_eq!(csr.fanout(id), fanout.as_slice(), "{name}");
            let chained: Vec<NetId> = fanin.iter().chain(&fanout).copied().collect();
            assert_eq!(csr.nets_of(id), chained.as_slice(), "{name}");
        }
    }

    #[test]
    fn pins_follow_canonical_order() {
        let d = sample();
        let csr = d.connectivity();
        let n2 = d.find_net("n2").unwrap();
        let pins = csr.pins(n2);
        assert_eq!(pins.len(), csr.degree(n2));
        assert_eq!(csr.degree(n2), 4);
        assert!(pins[0].is_driver() && !pins[0].is_port());
        assert_eq!(pins[0].cell(), d.find_cell("f"));
        assert_eq!(pins[1].cell(), d.find_cell("m"));
        assert_eq!(pins[2].cell(), d.find_cell("g"));
        assert!(pins[3].is_port() && !pins[3].is_driver());
        assert_eq!(pins[3].port(), d.find_port("po"));
    }

    #[test]
    fn driver_port_is_marked() {
        let d = sample();
        let csr = d.connectivity();
        let n1 = d.find_net("n1").unwrap();
        let pins = csr.pins(n1);
        assert_eq!(pins.len(), 2);
        // canonical order: sink cells come before the driver port
        assert_eq!(pins[0].cell(), d.find_cell("f"));
        assert_eq!(pins[0].port(), None);
        assert!(!pins[0].is_driver());
        assert!(pins[1].is_port() && pins[1].is_driver());
        assert_eq!(pins[1].port(), d.find_port("pi"));
        assert_eq!(pins[1].cell(), None);
    }

    #[test]
    fn fingerprint_distinguishes_rewired_designs_with_identical_counts() {
        // two designs with the same name, cell/net/port counts and pin count,
        // differing only in which cell a net sinks
        let build = |swap: bool| {
            let mut b = DesignBuilder::new("t");
            let f = b.add_flop("f", "");
            let g = b.add_comb("g", "");
            let h = b.add_comb("h", "");
            let n = b.add_net("n");
            b.connect_driver(n, f);
            b.connect_sink(n, if swap { h } else { g });
            b.build()
        };
        let a = build(false);
        let b = build(true);
        assert_ne!(a.connectivity().fingerprint(), b.connectivity().fingerprint());
        // identical wiring hashes identically
        assert_eq!(a.connectivity().fingerprint(), build(false).connectivity().fingerprint());
    }

    #[test]
    fn empty_design_is_empty_view() {
        let d = DesignBuilder::new("t").build();
        let csr = d.connectivity();
        assert_eq!(csr.num_cells(), 0);
        assert_eq!(csr.num_nets(), 0);
        assert_eq!(csr.num_pins(), 0);
    }
}
