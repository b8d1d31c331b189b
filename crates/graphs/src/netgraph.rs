//! `Gnet`: the bit-level netlist connectivity graph.
//!
//! A thin directed-graph view over a [`netlist::Design`]: one node per cell
//! and per primary port, one edge per (driver, sink) pair of every net.
//! This is the ~10⁷-node graph of Table I from which the sequential graph is
//! derived.

use netlist::design::{CellId, CellKind, Design, PortId};
use netlist::PinRef;

/// A node of the netlist graph: either a cell or a primary port.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NetGraphNode {
    /// A cell of the design.
    Cell(CellId),
    /// A primary port of the design.
    Port(PortId),
}

/// The bit-level netlist connectivity graph `Gnet`.
///
/// Node indices are dense: cells occupy `0..num_cells`, ports occupy
/// `num_cells..num_cells+num_ports`.
///
/// # Example
///
/// ```
/// use graphs::NetGraph;
/// use netlist::design::DesignBuilder;
///
/// let mut b = DesignBuilder::new("t");
/// let f = b.add_flop("f", "");
/// let g = b.add_comb("g", "");
/// let n = b.add_net("n");
/// b.connect_driver(n, f);
/// b.connect_sink(n, g);
/// let design = b.build();
/// let gnet = NetGraph::from_design(&design);
/// assert_eq!(gnet.num_nodes(), 2);
/// assert_eq!(gnet.successors(0), &[1]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct NetGraph {
    num_cells: usize,
    num_ports: usize,
    succ: Vec<Vec<usize>>,
    pred: Vec<Vec<usize>>,
}

impl NetGraph {
    /// Builds the graph from a design, walking the flat CSR
    /// [`netlist::Connectivity`] view (`net→pin` packed arrays) instead of
    /// the per-net `Vec`s, so construction shares the cache-friendly arrays
    /// the evaluation hot loops already use.
    pub fn from_design(design: &Design) -> Self {
        let num_cells = design.num_cells();
        let num_ports = design.num_ports();
        let n = num_cells + num_ports;
        let csr = design.connectivity();
        let mut succ = vec![Vec::new(); n];
        let mut pred = vec![Vec::new(); n];
        let mut drivers: Vec<usize> = Vec::new();
        let mut sinks: Vec<usize> = Vec::new();
        for net in design.net_ids() {
            drivers.clear();
            sinks.clear();
            for &pin in csr.pins(net) {
                let idx = match pin.cell() {
                    Some(c) => c.0 as usize,
                    None => num_cells + pin.port().expect("pin is a cell or a port").0 as usize,
                };
                if pin.is_driver() {
                    drivers.push(idx);
                } else {
                    sinks.push(idx);
                }
            }
            for &d in &drivers {
                for &s in &sinks {
                    if d != s {
                        succ[d].push(s);
                        pred[s].push(d);
                    }
                }
            }
        }
        for v in succ.iter_mut().chain(pred.iter_mut()) {
            v.sort_unstable();
            v.dedup();
        }
        Self { num_cells, num_ports, succ, pred }
    }

    /// The first construction, kept as the reference that
    /// `bench::reference::evaluate_placement_reference` builds on: fresh
    /// driver and sink lists per net instead of reused scratch buffers. It
    /// reads the same CSR pins as [`NetGraph::from_design`] and produces an
    /// identical graph (the sort + dedup canonicalizes edge order).
    pub fn from_design_reference(design: &Design) -> Self {
        let csr = design.connectivity();
        let num_cells = design.num_cells();
        let num_ports = design.num_ports();
        let n = num_cells + num_ports;
        let mut succ = vec![Vec::new(); n];
        let mut pred = vec![Vec::new(); n];
        let node = |pin: &PinRef| match pin.cell() {
            Some(c) => c.0 as usize,
            None => num_cells + pin.port().expect("pin is a cell or a port").0 as usize,
        };
        for net in design.net_ids() {
            let pins = csr.pins(net);
            let drivers: Vec<usize> = pins.iter().filter(|p| p.is_driver()).map(node).collect();
            let sinks: Vec<usize> = pins.iter().filter(|p| !p.is_driver()).map(node).collect();
            for &d in &drivers {
                for &s in &sinks {
                    if d != s {
                        succ[d].push(s);
                        pred[s].push(d);
                    }
                }
            }
        }
        for v in succ.iter_mut().chain(pred.iter_mut()) {
            v.sort_unstable();
            v.dedup();
        }
        Self { num_cells, num_ports, succ, pred }
    }

    /// Total number of nodes (cells + ports).
    pub fn num_nodes(&self) -> usize {
        self.num_cells + self.num_ports
    }

    /// Number of cell nodes.
    pub fn num_cells(&self) -> usize {
        self.num_cells
    }

    /// Number of port nodes.
    pub fn num_ports(&self) -> usize {
        self.num_ports
    }

    /// Dense node index of a cell.
    pub fn cell_node(&self, id: CellId) -> usize {
        id.0 as usize
    }

    /// Dense node index of a port.
    pub fn port_node(&self, id: PortId) -> usize {
        self.num_cells + id.0 as usize
    }

    /// What design object a dense node index refers to.
    pub fn node(&self, idx: usize) -> NetGraphNode {
        if idx < self.num_cells {
            NetGraphNode::Cell(CellId(idx as u32))
        } else {
            NetGraphNode::Port(PortId((idx - self.num_cells) as u32))
        }
    }

    /// Out-neighbors (fanout) of a node.
    pub fn successors(&self, idx: usize) -> &[usize] {
        &self.succ[idx]
    }

    /// In-neighbors (fanin) of a node.
    pub fn predecessors(&self, idx: usize) -> &[usize] {
        &self.pred[idx]
    }

    /// Total number of directed edges.
    pub fn num_edges(&self) -> usize {
        self.succ.iter().map(Vec::len).sum()
    }

    /// Returns `true` when the node is a sequential endpoint for dataflow
    /// purposes: a macro, a flop, or a primary port.
    pub fn is_sequential_endpoint(&self, idx: usize, design: &Design) -> bool {
        match self.node(idx) {
            NetGraphNode::Cell(c) => design.cell(c).kind != CellKind::Comb,
            NetGraphNode::Port(_) => true,
        }
    }

    /// Serializes the graph with the spill-tier codec ([`netlist::codec`]):
    /// the node counts followed by both adjacency tables, node indices as
    /// `u32` (they are bounded by the 30-bit design-id encoding).
    pub fn encode(&self, out: &mut Vec<u8>) {
        netlist::codec::put_u64(out, self.num_cells as u64);
        netlist::codec::put_u64(out, self.num_ports as u64);
        for table in [&self.succ, &self.pred] {
            netlist::codec::put_u64(out, table.len() as u64);
            for row in table {
                netlist::codec::put_u64(out, row.len() as u64);
                for &v in row {
                    netlist::codec::put_u32(out, v as u32);
                }
            }
        }
    }

    /// Decodes a graph encoded by [`NetGraph::encode`]. Returns `None` on
    /// truncation, trailing bytes, or adjacency tables whose shape does not
    /// match the node counts.
    pub fn decode(bytes: &[u8]) -> Option<Self> {
        let mut r = netlist::codec::Reader::new(bytes);
        let num_cells = r.take_u64()? as usize;
        let num_ports = r.take_u64()? as usize;
        let n = num_cells.checked_add(num_ports)?;
        let mut tables = Vec::with_capacity(2);
        for _ in 0..2 {
            let rows = r.take_u64()? as usize;
            // each row carries at least its 8-byte length prefix, so this
            // also rejects corrupt counts before they size an allocation
            if rows != n || r.remaining() / 8 < rows {
                return None;
            }
            let mut table = Vec::with_capacity(rows);
            for _ in 0..rows {
                let len = r.take_u64()? as usize;
                if r.remaining() / 4 < len {
                    return None;
                }
                let mut row = Vec::with_capacity(len);
                for _ in 0..len {
                    let v = r.take_u32()? as usize;
                    if v >= n {
                        return None;
                    }
                    row.push(v);
                }
                table.push(row);
            }
            tables.push(table);
        }
        if !r.is_exhausted() {
            return None;
        }
        let pred = tables.pop().expect("two tables decoded");
        let succ = tables.pop().expect("two tables decoded");
        Some(Self { num_cells, num_ports, succ, pred })
    }
}

impl netlist::HeapSize for NetGraph {
    fn heap_bytes(&self) -> usize {
        self.succ.heap_bytes() + self.pred.heap_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netlist::design::{DesignBuilder, PortDirection};

    fn design_with_port() -> Design {
        // port p -> comb g -> flop f -> macro m
        let mut b = DesignBuilder::new("t");
        let g = b.add_comb("g", "");
        let f = b.add_flop("f", "");
        let m = b.add_macro("m", "RAM", 10, 10, "");
        let p = b.add_port("p", PortDirection::Input);
        let n0 = b.add_net("n0");
        let n1 = b.add_net("n1");
        let n2 = b.add_net("n2");
        b.connect_port_driver(n0, p);
        b.connect_sink(n0, g);
        b.connect_driver(n1, g);
        b.connect_sink(n1, f);
        b.connect_driver(n2, f);
        b.connect_sink(n2, m);
        b.build()
    }

    #[test]
    fn edges_follow_driver_to_sink() {
        let d = design_with_port();
        let g = NetGraph::from_design(&d);
        assert_eq!(g.num_nodes(), 4);
        assert_eq!(g.num_edges(), 3);
        let pnode = g.port_node(d.find_port("p").unwrap());
        let gnode = g.cell_node(d.find_cell("g").unwrap());
        assert_eq!(g.successors(pnode), &[gnode]);
        assert_eq!(g.predecessors(gnode), &[pnode]);
    }

    #[test]
    fn node_mapping_roundtrip() {
        let d = design_with_port();
        let g = NetGraph::from_design(&d);
        let f = d.find_cell("f").unwrap();
        assert_eq!(g.node(g.cell_node(f)), NetGraphNode::Cell(f));
        let p = d.find_port("p").unwrap();
        assert_eq!(g.node(g.port_node(p)), NetGraphNode::Port(p));
    }

    #[test]
    fn sequential_endpoints() {
        let d = design_with_port();
        let g = NetGraph::from_design(&d);
        assert!(!g.is_sequential_endpoint(g.cell_node(d.find_cell("g").unwrap()), &d));
        assert!(g.is_sequential_endpoint(g.cell_node(d.find_cell("f").unwrap()), &d));
        assert!(g.is_sequential_endpoint(g.cell_node(d.find_cell("m").unwrap()), &d));
        assert!(g.is_sequential_endpoint(g.port_node(d.find_port("p").unwrap()), &d));
    }

    #[test]
    fn reference_construction_matches_csr_construction() {
        let d = design_with_port();
        assert_eq!(NetGraph::from_design(&d), NetGraph::from_design_reference(&d));
    }

    #[test]
    fn encode_decode_round_trips_bit_identically() {
        let d = design_with_port();
        let g = NetGraph::from_design(&d);
        let mut buf = Vec::new();
        g.encode(&mut buf);
        assert_eq!(NetGraph::decode(&buf).expect("decodes"), g);
        for cut in 0..buf.len() {
            assert!(NetGraph::decode(&buf[..cut]).is_none(), "cut at {cut}");
        }
        let mut padded = buf.clone();
        padded.push(0);
        assert!(NetGraph::decode(&padded).is_none());
    }

    #[test]
    fn multi_sink_net_fans_out() {
        let mut b = DesignBuilder::new("t");
        let f = b.add_flop("f", "");
        let a = b.add_comb("a", "");
        let c = b.add_comb("c", "");
        let n = b.add_net("n");
        b.connect_driver(n, f);
        b.connect_sink(n, a);
        b.connect_sink(n, c);
        let d = b.build();
        let g = NetGraph::from_design(&d);
        assert_eq!(g.successors(0).len(), 2);
    }
}
