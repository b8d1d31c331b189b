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
/// `num_cells..num_cells+num_ports`. Both directions are stored as CSR
/// rows, each sorted and free of duplicates.
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
    succ: Rows,
    pred: Rows,
}

/// One direction of a graph in CSR form: row `i` is
/// `targets[offsets[i]..offsets[i + 1]]`, sorted and free of duplicates.
/// A node costs one 4-byte offset and an edge one 4-byte target.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Rows {
    offsets: Vec<u32>,
    targets: Vec<u32>,
}

impl Rows {
    /// Row `i`.
    fn row(&self, i: usize) -> &[u32] {
        &self.targets[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    /// Packs rows that are already sorted and free of duplicates.
    fn from_rows<'r>(rows: impl ExactSizeIterator<Item = &'r [usize]>) -> Self {
        let mut offsets = Vec::with_capacity(rows.len() + 1);
        let mut targets = Vec::new();
        offsets.push(0);
        for row in rows {
            targets.extend(row.iter().map(|&v| v as u32));
            offsets.push(entry_offset(targets.len()));
        }
        Self { offsets, targets }
    }
}

/// Builds [`Rows`] in two passes over the same `(from, to)` pairs: the first
/// counts each row's length ([`RowPacker::count`]), the second fills the
/// rows in place ([`RowPacker::push`]); [`RowPacker::finish`] then sorts and
/// deduplicates every row and compacts the targets.
struct RowPacker {
    /// After counting: `offsets[i + 1]` is row `i`'s length; while
    /// filling: `offsets[i]` is row `i`'s write cursor.
    offsets: Vec<u32>,
    targets: Vec<u32>,
}

impl RowPacker {
    fn new(rows: usize) -> Self {
        Self { offsets: vec![0; rows + 1], targets: Vec::new() }
    }

    fn count(&mut self, from: usize) {
        let len = &mut self.offsets[from + 1];
        *len = len.checked_add(1).expect("a node's edges fit in u32");
    }

    /// Turns the counts into row starts and sizes the targets.
    fn start_filling(&mut self) {
        let mut total = 0u32;
        for slot in self.offsets.iter_mut() {
            total = total.checked_add(*slot).expect("a design's driver-sink pairs fit in u32");
            *slot = total;
        }
        // `offsets[i]` is now row `i`'s start, its first write cursor
        self.targets = vec![0; total as usize];
    }

    fn push(&mut self, from: usize, to: usize) {
        let cursor = &mut self.offsets[from];
        self.targets[*cursor as usize] = to as u32;
        *cursor += 1;
    }

    fn finish(mut self) -> Rows {
        // every cursor now sits at its row's end, which is where the next
        // row starts
        let n = self.offsets.len() - 1;
        let (mut start, mut write) = (0, 0);
        for i in 0..n {
            let end = self.offsets[i] as usize;
            self.offsets[i] = entry_offset(write);
            self.targets[start..end].sort_unstable();
            for k in start..end {
                let v = self.targets[k];
                if k == start || self.targets[write - 1] != v {
                    self.targets[write] = v;
                    write += 1;
                }
            }
            start = end;
        }
        self.offsets[n] = entry_offset(write);
        self.targets.truncate(write);
        self.targets.shrink_to_fit();
        Rows { offsets: self.offsets, targets: self.targets }
    }
}

/// A row offset: entry counts are bounded by the design's `u32` pin count.
fn entry_offset(entries: usize) -> u32 {
    u32::try_from(entries).expect("a graph's edges fit in u32")
}

/// The dense node index of a pin's cell or port.
fn pin_node(num_cells: usize, pin: PinRef) -> usize {
    match pin.cell() {
        Some(c) => c.0 as usize,
        None => num_cells + pin.port().expect("pin is a cell or a port").0 as usize,
    }
}

/// Calls `f(driver, sink)` for every driver and sink node pair of every net,
/// except a node paired with itself.
fn for_each_edge(design: &Design, mut f: impl FnMut(usize, usize)) {
    let num_cells = design.num_cells();
    let csr = design.connectivity();
    for net in design.net_ids() {
        let pins = csr.pins(net);
        for &d in pins.iter().filter(|p| p.is_driver()) {
            let d = pin_node(num_cells, d);
            for &s in pins.iter().filter(|p| !p.is_driver()) {
                let s = pin_node(num_cells, s);
                if d != s {
                    f(d, s);
                }
            }
        }
    }
}

impl NetGraph {
    /// Builds the graph from a design's CSR [`netlist::Connectivity`]: one
    /// pass over the nets counts every row's length, a second fills the
    /// rows in place, and each row is then sorted and deduplicated.
    pub fn from_design(design: &Design) -> Self {
        let num_cells = design.num_cells();
        let num_ports = design.num_ports();
        let n = num_cells + num_ports;
        let mut succ = RowPacker::new(n);
        let mut pred = RowPacker::new(n);
        for_each_edge(design, |d, s| {
            succ.count(d);
            pred.count(s);
        });
        succ.start_filling();
        pred.start_filling();
        for_each_edge(design, |d, s| {
            succ.push(d, s);
            pred.push(s, d);
        });
        Self { num_cells, num_ports, succ: succ.finish(), pred: pred.finish() }
    }

    /// The first construction, kept as the reference that
    /// `bench::reference::evaluate_placement_reference` builds on and that
    /// the tests compare [`NetGraph::from_design`] with: fresh driver and
    /// sink lists per net, one `Vec` per row, sorted and deduplicated, then
    /// concatenated.
    pub fn from_design_reference(design: &Design) -> Self {
        let csr = design.connectivity();
        let num_cells = design.num_cells();
        let num_ports = design.num_ports();
        let n = num_cells + num_ports;
        let mut succ = vec![Vec::new(); n];
        let mut pred = vec![Vec::new(); n];
        let node = |pin: &PinRef| pin_node(num_cells, *pin);
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
        Self {
            num_cells,
            num_ports,
            succ: Rows::from_rows(succ.iter().map(Vec::as_slice)),
            pred: Rows::from_rows(pred.iter().map(Vec::as_slice)),
        }
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

    /// Out-neighbors (fanout) of a node, sorted.
    pub fn successors(&self, idx: usize) -> &[u32] {
        self.succ.row(idx)
    }

    /// In-neighbors (fanin) of a node, sorted.
    pub fn predecessors(&self, idx: usize) -> &[u32] {
        self.pred.row(idx)
    }

    /// Total number of directed edges.
    pub fn num_edges(&self) -> usize {
        self.succ.targets.len()
    }

    /// Returns `true` when the node is a sequential endpoint for dataflow
    /// purposes: a macro, a flop, or a primary port.
    pub fn is_sequential_endpoint(&self, idx: usize, design: &Design) -> bool {
        match self.node(idx) {
            NetGraphNode::Cell(c) => design.cell(c).kind != CellKind::Comb,
            NetGraphNode::Port(_) => true,
        }
    }
}

impl netlist::HeapSize for Rows {
    fn heap_bytes(&self) -> usize {
        self.offsets.heap_bytes() + self.targets.heap_bytes()
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
        assert_eq!(g.successors(pnode), &[gnode as u32]);
        assert_eq!(g.predecessors(gnode), &[pnode as u32]);
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
