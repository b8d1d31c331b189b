//! The flattened circuit model with hierarchy annotations.
//!
//! A [`Design`] holds every cell of the circuit (macros, flops, combinational
//! gates), the primary ports, and the nets connecting them.  Each cell keeps
//! the hierarchical path of the module instance it belongs to, which is what
//! the [`crate::hierarchy::HierarchyTree`] is built from.
//!
//! Cells and nets carry no adjacency of their own: the wiring lives once, in
//! the design's CSR [`Connectivity`], which [`DesignBuilder::build`] packs
//! and [`Design::apply_edits`] rewrites in place.

use crate::connectivity::{Connectivity, PinRef};
use crate::names::NameTable;
use geometry::{Dbu, Point, Rect};
use std::sync::OnceLock;

/// Identifier of a cell inside a [`Design`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CellId(pub u32);

/// Identifier of a primary port inside a [`Design`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PortId(pub u32);

/// Identifier of a net inside a [`Design`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NetId(pub u32);

/// What kind of circuit element a cell is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CellKind {
    /// A hard macro (memory, analog block, ...), with fixed footprint.
    Macro,
    /// A sequential standard cell (flip-flop / register bit).
    Flop,
    /// A combinational standard cell.
    Comb,
}

/// Direction of a primary port.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PortDirection {
    /// Input port: drives logic inside the design.
    Input,
    /// Output port: driven by logic inside the design.
    Output,
    /// Bidirectional port.
    Inout,
}

/// A cell instance of the design.
#[derive(Debug, Clone, PartialEq)]
pub struct Cell {
    /// Full hierarchical instance name (e.g. `u_core/u_alu/add_42`).
    pub name: String,
    /// Library cell / macro name (e.g. `RAM256x32`, `DFFX1`, `NAND2X1`).
    pub lib_cell: String,
    /// Kind of the cell.
    pub kind: CellKind,
    /// Footprint width in DBU (0 for standard cells until a library is bound).
    pub width: Dbu,
    /// Footprint height in DBU.
    pub height: Dbu,
    /// Hierarchical module path the instance lives in (e.g. `u_core/u_alu`).
    /// The empty string denotes the top level.
    pub hier_path: String,
}

impl Cell {
    /// Cell footprint area in DBU².
    pub fn area(&self) -> i128 {
        self.width as i128 * self.height as i128
    }
}

/// A primary port of the design.
#[derive(Debug, Clone, PartialEq)]
pub struct Port {
    /// Port name (e.g. `axi_rdata[31]`).
    pub name: String,
    /// Direction.
    pub direction: PortDirection,
    /// Fixed location of the port on the die boundary, if known.
    pub position: Option<Point>,
    /// Net attached to the port.
    pub net: Option<NetId>,
}

/// A net of the design. Its pins (single driver, multiple sinks) are read
/// through [`Design::connectivity`].
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Net {
    /// Net name.
    pub name: String,
}

/// The circuit: cells, ports and nets, plus the die outline.
///
/// Construct one through [`DesignBuilder`] or one of the parsers
/// ([`crate::verilog`], [`crate::def`]).
#[derive(Debug, Clone, PartialEq)]
pub struct Design {
    name: String,
    cells: Vec<Cell>,
    ports: Vec<Port>,
    nets: Vec<Net>,
    die: Rect,
    connectivity: Connectivity,
    derived: DerivedCache,
}

/// Lazily-built derived state: the compact name→id indexes (seeded by the
/// builder, rebuilt on demand after mutation) and the two identity
/// fingerprints, which design-keyed stores recompute per fetch and would
/// otherwise walk every cell each time.  Compares equal to everything and
/// clones share nothing (the clone rebuilds on first use): derived state
/// never distinguishes designs.
#[derive(Debug, Default)]
struct DerivedCache {
    cell_names: OnceLock<NameTable>,
    port_names: OnceLock<NameTable>,
    net_names: OnceLock<NameTable>,
    seq_names: OnceLock<u64>,
    geometry: OnceLock<u64>,
}

impl Clone for DerivedCache {
    fn clone(&self) -> Self {
        Self::default()
    }
}

impl PartialEq for DerivedCache {
    fn eq(&self, _: &Self) -> bool {
        true
    }
}

impl Design {
    /// The design (top module) name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The die outline. Defaults to a zero rectangle until set.
    pub fn die(&self) -> Rect {
        self.die
    }

    /// Sets the die outline. Invalidates the cached geometry fingerprint.
    pub fn set_die(&mut self, die: Rect) {
        self.derived.geometry.take();
        self.die = die;
    }

    /// Number of cells (macros + flops + combinational).
    pub fn num_cells(&self) -> usize {
        self.cells.len()
    }

    /// Number of nets.
    pub fn num_nets(&self) -> usize {
        self.nets.len()
    }

    /// Number of primary ports.
    pub fn num_ports(&self) -> usize {
        self.ports.len()
    }

    /// Cell accessor.
    ///
    /// # Panics
    ///
    /// Panics if the id does not belong to this design.
    pub fn cell(&self, id: CellId) -> &Cell {
        &self.cells[id.0 as usize]
    }

    /// Mutable cell accessor. Invalidates the cell name index and the cached
    /// fingerprints.
    pub fn cell_mut(&mut self, id: CellId) -> &mut Cell {
        self.derived.cell_names.take();
        self.derived.seq_names.take();
        self.derived.geometry.take();
        &mut self.cells[id.0 as usize]
    }

    /// Port accessor.
    pub fn port(&self, id: PortId) -> &Port {
        &self.ports[id.0 as usize]
    }

    /// Mutable port accessor. Invalidates the port name index and the cached
    /// fingerprints.
    pub fn port_mut(&mut self, id: PortId) -> &mut Port {
        self.derived.port_names.take();
        self.derived.seq_names.take();
        self.derived.geometry.take();
        &mut self.ports[id.0 as usize]
    }

    /// Net accessor.
    pub fn net(&self, id: NetId) -> &Net {
        &self.nets[id.0 as usize]
    }

    /// Mutable net accessor. Invalidates the net name index.
    pub fn net_mut(&mut self, id: NetId) -> &mut Net {
        self.derived.net_names.take();
        &mut self.nets[id.0 as usize]
    }

    /// Places (or, with `None`, un-places) a port. Invalidates the cached
    /// geometry fingerprint only.
    pub fn set_port_position(&mut self, id: PortId, position: Option<Point>) {
        self.derived.geometry.take();
        self.ports[id.0 as usize].position = position;
    }

    /// Raw mutable cell accessor with **no** cache invalidation.  Reserved
    /// for [`crate::edit`], which invalidates exactly the derived state the
    /// edit kind can affect instead of the blanket invalidation of
    /// [`Design::cell_mut`].
    pub(crate) fn cell_raw_mut(&mut self, id: CellId) -> &mut Cell {
        &mut self.cells[id.0 as usize]
    }

    /// Drops the cached geometry fingerprint only.
    pub(crate) fn invalidate_geometry(&mut self) {
        self.derived.geometry.take();
    }

    /// The design's wiring: the flat CSR cell↔net incidence (see
    /// [`crate::connectivity`]). Packed by [`DesignBuilder::build`] and
    /// rewritten in place by [`Design::apply_edits`].
    #[must_use]
    pub fn connectivity(&self) -> &Connectivity {
        &self.connectivity
    }

    /// Mutable wiring, for the rewires of [`crate::edit`].
    pub(crate) fn connectivity_mut(&mut self) -> &mut Connectivity {
        &mut self.connectivity
    }

    /// Looks a cell up by its hierarchical instance name.
    pub fn find_cell(&self, name: &str) -> Option<CellId> {
        let table = self
            .derived
            .cell_names
            .get_or_init(|| NameTable::build(self.cells.iter().map(|c| c.name.as_str())));
        table
            .find(NameTable::hash_name(name), |id| self.cells[id as usize].name == name)
            .map(CellId)
    }

    /// Looks a port up by name.
    pub fn find_port(&self, name: &str) -> Option<PortId> {
        let table = self
            .derived
            .port_names
            .get_or_init(|| NameTable::build(self.ports.iter().map(|p| p.name.as_str())));
        table
            .find(NameTable::hash_name(name), |id| self.ports[id as usize].name == name)
            .map(PortId)
    }

    /// Looks a net up by name.
    pub fn find_net(&self, name: &str) -> Option<NetId> {
        let table = self
            .derived
            .net_names
            .get_or_init(|| NameTable::build(self.nets.iter().map(|n| n.name.as_str())));
        table.find(NameTable::hash_name(name), |id| self.nets[id as usize].name == name).map(NetId)
    }

    /// Iterates over all cell ids.
    pub fn cell_ids(&self) -> impl Iterator<Item = CellId> + '_ {
        (0..self.cells.len() as u32).map(CellId)
    }

    /// Iterates over all port ids.
    pub fn port_ids(&self) -> impl Iterator<Item = PortId> + '_ {
        (0..self.ports.len() as u32).map(PortId)
    }

    /// Iterates over all net ids.
    pub fn net_ids(&self) -> impl Iterator<Item = NetId> + '_ {
        (0..self.nets.len() as u32).map(NetId)
    }

    /// Iterates over `(id, cell)` pairs.
    pub fn cells(&self) -> impl Iterator<Item = (CellId, &Cell)> + '_ {
        self.cells.iter().enumerate().map(|(i, c)| (CellId(i as u32), c))
    }

    /// Iterates over `(id, port)` pairs.
    pub fn ports(&self) -> impl Iterator<Item = (PortId, &Port)> + '_ {
        self.ports.iter().enumerate().map(|(i, p)| (PortId(i as u32), p))
    }

    /// Iterates over `(id, net)` pairs.
    pub fn nets(&self) -> impl Iterator<Item = (NetId, &Net)> + '_ {
        self.nets.iter().enumerate().map(|(i, n)| (NetId(i as u32), n))
    }

    /// Iterates over the ids of all macro cells.
    pub fn macros(&self) -> impl Iterator<Item = CellId> + '_ {
        self.cells().filter(|(_, c)| c.kind == CellKind::Macro).map(|(id, _)| id)
    }

    /// Iterates over the ids of all sequential (flop) cells.
    pub fn flops(&self) -> impl Iterator<Item = CellId> + '_ {
        self.cells().filter(|(_, c)| c.kind == CellKind::Flop).map(|(id, _)| id)
    }

    /// Number of macro cells.
    pub fn num_macros(&self) -> usize {
        self.macros().count()
    }

    /// Sum of all cell areas (macros plus standard cells), in DBU².
    pub fn total_cell_area(&self) -> i128 {
        self.cells.iter().map(Cell::area).sum()
    }

    /// FNV-1a over the kind and name of every sequential (non-combinational)
    /// cell and every primary port — the name-based clustering inputs of
    /// sequential-graph construction. Combinational cells are collapsed by
    /// that construction, so their names cannot affect the graph.
    ///
    /// Together with [`crate::Connectivity::fingerprint`] (wiring identity)
    /// and the id-family counts, this is one of the fingerprint hooks
    /// design-keyed caches and stores use to identify a design without
    /// holding a reference to it.
    ///
    /// Computed on first use and cached (stores and artifact caches key every
    /// fetch by it, so the walk must not be O(cells) per fetch); mutable
    /// accessors touching cells or ports invalidate the cache.
    pub fn seq_name_fingerprint(&self) -> u64 {
        *self.derived.seq_names.get_or_init(|| {
            let mut h = crate::hash::Fnv1a::new();
            // a separator after every field so concatenations cannot collide
            let mut eat = |bytes: &[u8]| {
                h.write_bytes(bytes);
                h.write_sep();
            };
            for (_, cell) in self.cells() {
                if cell.kind != CellKind::Comb {
                    eat(&[cell.kind as u8]);
                    eat(cell.name.as_bytes());
                }
            }
            for (_, port) in self.ports() {
                eat(port.name.as_bytes());
            }
            h.finish()
        })
    }

    /// FNV-1a over everything geometric: the die rectangle, every cell's
    /// footprint, and every port position. Two designs that wire identically
    /// but differ in any physical input (LEF footprints, DEF die or port
    /// placement) get distinct geometry fingerprints — the hook design
    /// stores use so such designs never alias to one interned entry.
    ///
    /// Computed on first use and cached; [`Design::set_die`],
    /// [`Design::bind_library`] and the mutable cell/port accessors
    /// invalidate the cache.
    pub fn geometry_fingerprint(&self) -> u64 {
        *self.derived.geometry.get_or_init(|| {
            let mut h = crate::hash::Fnv1a::new();
            for edge in [self.die.llx, self.die.lly, self.die.urx, self.die.ury] {
                h.write_i64(edge);
            }
            for (_, cell) in self.cells() {
                h.write_i64(cell.width);
                h.write_i64(cell.height);
            }
            for (_, port) in self.ports() {
                match port.position {
                    Some(p) => {
                        h.write_i64(p.x);
                        h.write_i64(p.y);
                    }
                    None => h.write_sep(),
                }
            }
            h.finish()
        })
    }

    /// Binds footprints from a library: every cell whose `lib_cell` is found
    /// in the library gets its width/height (and macro kind) updated.
    /// Invalidates the cached fingerprints (footprints are geometry; a kind
    /// flip to `Macro` changes the sequential-name walk).
    pub fn bind_library(&mut self, library: &crate::library::Library) {
        self.derived.geometry.take();
        self.derived.seq_names.take();
        for cell in &mut self.cells {
            if let Some(m) = library.find_macro(&cell.lib_cell) {
                cell.width = m.width;
                cell.height = m.height;
                if m.is_block {
                    cell.kind = CellKind::Macro;
                }
            }
        }
    }

    /// Consistency check used by tests and debug builds: the two CSR
    /// directions agree. Every net in a cell's fanin (fanout) lists the cell
    /// as a sink (its driver), and every cell pin of a net lists the net
    /// back.
    pub fn validate(&self) -> Result<(), String> {
        let csr = &self.connectivity;
        if (csr.num_cells(), csr.num_nets()) != (self.cells.len(), self.nets.len()) {
            return Err("the wiring does not cover the design's cells and nets".into());
        }
        for (id, cell) in self.cells() {
            let roles = [
                ("sink", csr.fanin(id), PinRef::sink_cell(id)),
                ("driver", csr.fanout(id), PinRef::driver_cell(id)),
            ];
            for (role, nets, pin) in roles {
                for &n in nets {
                    let net = self
                        .nets
                        .get(n.0 as usize)
                        .ok_or_else(|| format!("cell {} {role} net dangling", cell.name))?;
                    if !csr.pins(n).contains(&pin) {
                        return Err(format!(
                            "net {} does not list {} as {role}",
                            net.name, cell.name
                        ));
                    }
                }
            }
        }
        for (id, net) in self.nets() {
            for pin in csr.pins(id) {
                let Some(c) = pin.cell() else { continue };
                let nets = if pin.is_driver() { csr.fanout(c) } else { csr.fanin(c) };
                if !nets.contains(&id) {
                    return Err(format!("a pin of net {} does not reference it", net.name));
                }
            }
        }
        Ok(())
    }
}

impl crate::heap_size::HeapSize for Cell {
    fn heap_bytes(&self) -> usize {
        self.name.heap_bytes() + self.lib_cell.heap_bytes() + self.hier_path.heap_bytes()
    }
}

impl crate::heap_size::HeapSize for Port {
    fn heap_bytes(&self) -> usize {
        self.name.heap_bytes()
    }
}

impl crate::heap_size::HeapSize for Net {
    fn heap_bytes(&self) -> usize {
        self.name.heap_bytes()
    }
}

/// A design's resident bytes cover the cell/port/net stores, the wiring and
/// the materialized name indexes, so an interned design is accounted with
/// everything that travels with it.
impl crate::heap_size::HeapSize for Design {
    fn heap_bytes(&self) -> usize {
        self.name.heap_bytes()
            + self.cells.heap_bytes()
            + self.ports.heap_bytes()
            + self.nets.heap_bytes()
            + self.derived.cell_names.get().map_or(0, |t| t.heap_bytes())
            + self.derived.port_names.get().map_or(0, |t| t.heap_bytes())
            + self.derived.net_names.get().map_or(0, |t| t.heap_bytes())
            + self.connectivity.heap_bytes()
    }
}

/// Incremental builder for a [`Design`].
///
/// The builder keeps name → id indexes so that parsers and generators can
/// attach connectivity in any order.  The indexes are the same compact
/// [`NameTable`]s the finished design uses (hash + id slots verified against
/// the cell/port/net stores — no duplicated name `String`s), and
/// [`DesignBuilder::build`] hands them to the design, so streaming parsers
/// never materialize an intermediate name `HashMap`.
///
/// Connections go into one flat log in call order, beside the current
/// drivers of each net; [`DesignBuilder::build`] packs the log into the
/// design's CSR [`Connectivity`]. The rules:
///
/// * a sink is kept once per net, and its first connection wins;
/// * a [`DesignBuilder::connect_driver`] naming a cell other than the net's
///   current driver replaces the driver and appends the net to the new
///   driver's fanout (the old driver keeps its fanout entry);
/// * [`DesignBuilder::connect_port_driver`] overwrites the net's driving
///   port, and port sinks are kept once.
#[derive(Debug, Clone, Default)]
// lint:allow(heap-size): builder is consumed by build(); only the Design it produces
// is ever interned and accounted
pub struct DesignBuilder {
    name: String,
    cells: Vec<Cell>,
    ports: Vec<Port>,
    nets: Vec<Net>,
    die: Rect,
    cell_index: NameTable,
    port_index: NameTable,
    net_index: NameTable,
    /// Every sink connection and every driver change, in call order.
    pins: Vec<(NetId, PinRef)>,
    /// Per net: its current driving cell and driving port.
    drivers: Vec<(Option<CellId>, Option<PortId>)>,
}

impl DesignBuilder {
    /// Creates an empty builder for a design called `name`.
    pub fn new(name: impl Into<String>) -> Self {
        Self { name: name.into(), ..Default::default() }
    }

    /// Sets the die outline.
    pub fn set_die(&mut self, die: Rect) -> &mut Self {
        self.die = die;
        self
    }

    /// Adds a macro cell and returns its id.
    pub fn add_macro(
        &mut self,
        name: impl Into<String>,
        lib_cell: impl Into<String>,
        width: Dbu,
        height: Dbu,
        hier_path: impl Into<String>,
    ) -> CellId {
        self.add_cell(name, lib_cell, CellKind::Macro, width, height, hier_path)
    }

    /// Adds a flip-flop cell (unit footprint until a library is bound).
    pub fn add_flop(&mut self, name: impl Into<String>, hier_path: impl Into<String>) -> CellId {
        self.add_cell(name, "DFF", CellKind::Flop, 1, 1, hier_path)
    }

    /// Adds a combinational cell (unit footprint until a library is bound).
    pub fn add_comb(&mut self, name: impl Into<String>, hier_path: impl Into<String>) -> CellId {
        self.add_cell(name, "COMB", CellKind::Comb, 1, 1, hier_path)
    }

    /// Adds a cell with explicit kind and footprint; returns its id.
    ///
    /// If a cell with the same name already exists its id is returned and the
    /// existing cell is left untouched.
    pub fn add_cell(
        &mut self,
        name: impl Into<String>,
        lib_cell: impl Into<String>,
        kind: CellKind,
        width: Dbu,
        height: Dbu,
        hier_path: impl Into<String>,
    ) -> CellId {
        let name = name.into();
        let hash = NameTable::hash_name(&name);
        if let Some(id) = self.cell_index.find(hash, |id| self.cells[id as usize].name == name) {
            return CellId(id);
        }
        let id = CellId(self.cells.len() as u32);
        self.cells.push(Cell {
            name,
            lib_cell: lib_cell.into(),
            kind,
            width,
            height,
            hier_path: hier_path.into(),
        });
        self.cell_index.insert(hash, id.0);
        id
    }

    /// Adds a primary port; returns its id.
    pub fn add_port(&mut self, name: impl Into<String>, direction: PortDirection) -> PortId {
        let name = name.into();
        let hash = NameTable::hash_name(&name);
        if let Some(id) = self.port_index.find(hash, |id| self.ports[id as usize].name == name) {
            return PortId(id);
        }
        let id = PortId(self.ports.len() as u32);
        self.ports.push(Port { name, direction, position: None, net: None });
        self.port_index.insert(hash, id.0);
        id
    }

    /// Fixes a port position on the die boundary.
    pub fn place_port(&mut self, port: PortId, position: Point) -> &mut Self {
        self.ports[port.0 as usize].position = Some(position);
        self
    }

    /// Adds (or finds) a net by name; returns its id.
    pub fn add_net(&mut self, name: impl Into<String>) -> NetId {
        let name = name.into();
        let hash = NameTable::hash_name(&name);
        self.lookup_net(hash, &name).unwrap_or_else(|| self.push_net(hash, name))
    }

    /// Like [`DesignBuilder::add_net`], but borrows the name: only a net not
    /// seen before allocates, at the name's exact length.
    pub(crate) fn intern_net(&mut self, name: &str) -> NetId {
        let hash = NameTable::hash_name(name);
        self.lookup_net(hash, name).unwrap_or_else(|| self.push_net(hash, name.to_owned()))
    }

    /// Looks a net up by name without adding it.
    pub fn find_net(&self, name: &str) -> Option<NetId> {
        self.lookup_net(NameTable::hash_name(name), name)
    }

    fn lookup_net(&self, hash: u64, name: &str) -> Option<NetId> {
        self.net_index.find(hash, |id| self.nets[id as usize].name == name).map(NetId)
    }

    fn push_net(&mut self, hash: u64, name: String) -> NetId {
        let id = NetId(self.nets.len() as u32);
        self.nets.push(Net { name });
        self.drivers.push((None, None));
        self.net_index.insert(hash, id.0);
        id
    }

    /// Marks `cell` as the driver of `net`.
    pub fn connect_driver(&mut self, net: NetId, cell: CellId) -> &mut Self {
        let driver = &mut self.drivers[net.0 as usize].0;
        if *driver != Some(cell) {
            *driver = Some(cell);
            self.pins.push((net, PinRef::driver_cell(cell)));
        }
        self
    }

    /// Marks `cell` as a sink of `net`.
    pub fn connect_sink(&mut self, net: NetId, cell: CellId) -> &mut Self {
        self.pins.push((net, PinRef::sink_cell(cell)));
        self
    }

    /// Connects a primary port as the driver of `net` (for input ports).
    pub fn connect_port_driver(&mut self, net: NetId, port: PortId) -> &mut Self {
        self.drivers[net.0 as usize].1 = Some(port);
        self.ports[port.0 as usize].net = Some(net);
        self
    }

    /// Connects a primary port as a sink of `net` (for output ports).
    pub fn connect_port_sink(&mut self, net: NetId, port: PortId) -> &mut Self {
        self.pins.push((net, PinRef::sink_port(port)));
        self.ports[port.0 as usize].net = Some(net);
        self
    }

    /// Number of cells added so far.
    pub fn num_cells(&self) -> usize {
        self.cells.len()
    }

    /// Iterates over the `(id, port)` pairs added so far.
    pub fn ports(&self) -> impl Iterator<Item = (PortId, &Port)> + '_ {
        self.ports.iter().enumerate().map(|(i, p)| (PortId(i as u32), p))
    }

    /// Finalizes the builder into an immutable [`Design`]: packs the
    /// connection log into the design's [`Connectivity`] and seeds the
    /// design's name indexes with the builder's (no rebuild on first
    /// `find_*`).
    pub fn build(self) -> Design {
        let connectivity =
            Connectivity::pack(self.cells.len(), self.ports.len(), &self.drivers, &self.pins);
        let derived = DerivedCache::default();
        let _ = derived.cell_names.set(self.cell_index);
        let _ = derived.port_names.set(self.port_index);
        let _ = derived.net_names.set(self.net_index);
        Design {
            name: self.name,
            cells: self.cells,
            ports: self.ports,
            nets: self.nets,
            die: self.die,
            connectivity,
            derived,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_design() -> Design {
        let mut b = DesignBuilder::new("top");
        let m = b.add_macro("u_mem/ram0", "RAM16", 200, 100, "u_mem");
        let f = b.add_flop("u_ctl/state_reg", "u_ctl");
        let g = b.add_comb("u_ctl/and_1", "u_ctl");
        let p = b.add_port("clk_en", PortDirection::Input);
        let n1 = b.add_net("u_ctl/state");
        let n2 = b.add_net("clk_en_net");
        b.connect_driver(n1, f);
        b.connect_sink(n1, m);
        b.connect_sink(n1, g);
        b.connect_port_driver(n2, p);
        b.connect_sink(n2, f);
        b.set_die(Rect::new(0, 0, 1000, 1000));
        b.build()
    }

    #[test]
    fn builder_constructs_consistent_design() {
        let d = small_design();
        assert_eq!(d.num_cells(), 3);
        assert_eq!(d.num_nets(), 2);
        assert_eq!(d.num_ports(), 1);
        assert_eq!(d.num_macros(), 1);
        d.validate().expect("consistent design");
    }

    #[test]
    fn lookup_by_name() {
        let d = small_design();
        let m = d.find_cell("u_mem/ram0").unwrap();
        assert_eq!(d.cell(m).kind, CellKind::Macro);
        assert_eq!(d.cell(m).area(), 20000);
        assert!(d.find_cell("missing").is_none());
        assert!(d.find_net("u_ctl/state").is_some());
        assert!(d.find_port("clk_en").is_some());
    }

    #[test]
    fn duplicate_names_return_same_id() {
        let mut b = DesignBuilder::new("t");
        let a = b.add_flop("f1", "");
        let a2 = b.add_flop("f1", "");
        assert_eq!(a, a2);
        let n = b.add_net("n");
        let n2 = b.add_net("n");
        assert_eq!(n, n2);
    }

    #[test]
    fn net_degree_counts_all_pins() {
        let d = small_design();
        let n = d.find_net("u_ctl/state").unwrap();
        assert_eq!(d.connectivity().degree(n), 3);
        let n2 = d.find_net("clk_en_net").unwrap();
        assert_eq!(d.connectivity().degree(n2), 2);
    }

    #[test]
    fn total_area_sums_cells() {
        let d = small_design();
        assert_eq!(d.total_cell_area(), 20000 + 1 + 1);
    }

    #[test]
    fn seq_name_fingerprint_tracks_sequential_names_only() {
        let d = small_design();
        assert_eq!(d.seq_name_fingerprint(), small_design().seq_name_fingerprint());
        // renaming a combinational cell leaves the fingerprint unchanged
        let mut comb_renamed = small_design();
        comb_renamed.cell_mut(d.find_cell("u_ctl/and_1").unwrap()).name = "u_ctl/and_X".into();
        assert_eq!(d.seq_name_fingerprint(), comb_renamed.seq_name_fingerprint());
        // renaming a flop changes it
        let mut flop_renamed = small_design();
        flop_renamed.cell_mut(d.find_cell("u_ctl/state_reg").unwrap()).name = "u_ctl/other".into();
        assert_ne!(d.seq_name_fingerprint(), flop_renamed.seq_name_fingerprint());
        // renaming a port changes it
        let mut port_renamed = small_design();
        port_renamed.port_mut(d.find_port("clk_en").unwrap()).name = "clk_dis".into();
        assert_ne!(d.seq_name_fingerprint(), port_renamed.seq_name_fingerprint());
    }

    #[test]
    fn name_lookup_tracks_renames() {
        let mut d = small_design();
        let m = d.find_cell("u_mem/ram0").unwrap();
        d.cell_mut(m).name = "u_mem/ram_renamed".into();
        assert_eq!(d.find_cell("u_mem/ram_renamed"), Some(m));
        assert!(d.find_cell("u_mem/ram0").is_none());
        let p = d.find_port("clk_en").unwrap();
        d.port_mut(p).name = "clk_en2".into();
        assert_eq!(d.find_port("clk_en2"), Some(p));
        let n = d.find_net("clk_en_net").unwrap();
        d.net_mut(n).name = "clk_net".into();
        assert_eq!(d.find_net("clk_net"), Some(n));
        assert!(d.find_net("clk_en_net").is_none());
    }

    #[test]
    fn cached_fingerprints_invalidate_on_mutation() {
        let mut d = small_design();
        let seq = d.seq_name_fingerprint();
        let geo = d.geometry_fingerprint();
        // cached: repeated calls agree
        assert_eq!(d.seq_name_fingerprint(), seq);
        assert_eq!(d.geometry_fingerprint(), geo);
        // die changes geometry only
        d.set_die(Rect::new(0, 0, 2000, 2000));
        assert_ne!(d.geometry_fingerprint(), geo);
        assert_eq!(d.seq_name_fingerprint(), seq);
        // resizing a cell through cell_mut changes geometry
        let geo2 = d.geometry_fingerprint();
        let m = d.find_cell("u_mem/ram0").unwrap();
        d.cell_mut(m).width += 10;
        assert_ne!(d.geometry_fingerprint(), geo2);
    }

    #[test]
    fn bind_library_invalidates_fingerprints() {
        use crate::library::{Library, MacroDef};
        let mut d = small_design();
        let seq = d.seq_name_fingerprint();
        let geo = d.geometry_fingerprint();
        let mut lib = Library::new();
        // binding flips the DFF cell to a block macro with a real footprint
        lib.add_macro(MacroDef {
            name: "DFF".into(),
            width: 50,
            height: 60,
            is_block: true,
            pins: Vec::new(),
        });
        d.bind_library(&lib);
        assert_ne!(d.geometry_fingerprint(), geo, "footprints changed");
        assert_ne!(d.seq_name_fingerprint(), seq, "a flop became a macro");
    }

    #[test]
    fn duplicate_connection_not_added_twice() {
        let mut b = DesignBuilder::new("t");
        let f = b.add_flop("f", "");
        let g = b.add_comb("g", "");
        let n = b.add_net("n");
        b.connect_driver(n, f);
        b.connect_sink(n, g);
        b.connect_sink(n, g);
        let d = b.build();
        assert_eq!(d.connectivity().degree(n), 2, "the driver and one sink");
        assert_eq!(d.connectivity().fanin(g), &[n]);
        d.validate().unwrap();
    }
}
