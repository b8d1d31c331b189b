//! The flattened circuit model with hierarchy annotations.
//!
//! A [`Design`] holds every cell of the circuit (macros, flops, combinational
//! gates), the primary ports, and the nets connecting them.  Each cell keeps
//! the hierarchical path of the module instance it belongs to, which is what
//! the [`crate::hierarchy::HierarchyTree`] is built from.

use crate::connectivity::Connectivity;
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
    /// Nets attached to this cell as a sink (inputs).
    pub fanin: Vec<NetId>,
    /// Nets driven by this cell (outputs).
    pub fanout: Vec<NetId>,
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

/// A net of the design (single driver, multiple sinks).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Net {
    /// Net name.
    pub name: String,
    /// Driving cell, if the net is driven by a cell.
    pub driver_cell: Option<CellId>,
    /// Driving port, if the net is driven by a primary input.
    pub driver_port: Option<PortId>,
    /// Cells reading this net.
    pub sink_cells: Vec<CellId>,
    /// Primary outputs reading this net.
    pub sink_ports: Vec<PortId>,
}

impl Net {
    /// Number of pins on the net (driver + sinks).
    pub fn degree(&self) -> usize {
        usize::from(self.driver_cell.is_some())
            + usize::from(self.driver_port.is_some())
            + self.sink_cells.len()
            + self.sink_ports.len()
    }
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
    connectivity: ConnectivityCache,
    derived: DerivedCache,
}

/// Lazily-built CSR cache. Compares equal to everything so a design that has
/// materialized its view still equals a pristine copy, and clones share
/// nothing (the clone rebuilds on first use).
#[derive(Debug, Default)]
struct ConnectivityCache(OnceLock<Connectivity>);

impl Clone for ConnectivityCache {
    fn clone(&self) -> Self {
        Self::default()
    }
}

impl PartialEq for ConnectivityCache {
    fn eq(&self, _: &Self) -> bool {
        true
    }
}

/// Lazily-built derived state: the compact name→id indexes (seeded by the
/// builder, rebuilt on demand after mutation) and the two identity
/// fingerprints, which design-keyed stores recompute per fetch and would
/// otherwise walk every cell each time.  Same equality/clone semantics as
/// [`ConnectivityCache`]: derived state never distinguishes designs.
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

    /// Mutable cell accessor. Invalidates the cached connectivity view, the
    /// cell name index and the cached fingerprints.
    pub fn cell_mut(&mut self, id: CellId) -> &mut Cell {
        self.connectivity.0.take();
        self.derived.cell_names.take();
        self.derived.seq_names.take();
        self.derived.geometry.take();
        &mut self.cells[id.0 as usize]
    }

    /// Port accessor.
    pub fn port(&self, id: PortId) -> &Port {
        &self.ports[id.0 as usize]
    }

    /// Mutable port accessor. Invalidates the cached connectivity view, the
    /// port name index and the cached fingerprints.
    pub fn port_mut(&mut self, id: PortId) -> &mut Port {
        self.connectivity.0.take();
        self.derived.port_names.take();
        self.derived.seq_names.take();
        self.derived.geometry.take();
        &mut self.ports[id.0 as usize]
    }

    /// Net accessor.
    pub fn net(&self, id: NetId) -> &Net {
        &self.nets[id.0 as usize]
    }

    /// Mutable net accessor. Invalidates the cached connectivity view and the
    /// net name index.
    pub fn net_mut(&mut self, id: NetId) -> &mut Net {
        self.connectivity.0.take();
        self.derived.net_names.take();
        &mut self.nets[id.0 as usize]
    }

    /// Raw mutable cell accessor with **no** cache invalidation.  Reserved
    /// for [`crate::edit`], which invalidates exactly the derived state the
    /// edit kind can affect instead of the blanket invalidation of
    /// [`Design::cell_mut`].
    pub(crate) fn cell_raw_mut(&mut self, id: CellId) -> &mut Cell {
        &mut self.cells[id.0 as usize]
    }

    /// Raw mutable port accessor with **no** cache invalidation (see
    /// [`Design::cell_raw_mut`]).
    pub(crate) fn port_raw_mut(&mut self, id: PortId) -> &mut Port {
        &mut self.ports[id.0 as usize]
    }

    /// Raw mutable net accessor with **no** cache invalidation (see
    /// [`Design::cell_raw_mut`]).
    pub(crate) fn net_raw_mut(&mut self, id: NetId) -> &mut Net {
        &mut self.nets[id.0 as usize]
    }

    /// Drops the cached geometry fingerprint only.
    pub(crate) fn invalidate_geometry(&mut self) {
        self.derived.geometry.take();
    }

    /// Drops the cached CSR connectivity view only.
    pub(crate) fn invalidate_wiring(&mut self) {
        self.connectivity.0.take();
    }

    /// The flat CSR connectivity view of the design (see
    /// [`crate::connectivity`]), built on first use and cached.
    ///
    /// Mutable accessors ([`Design::cell_mut`], [`Design::net_mut`],
    /// [`Design::port_mut`]) invalidate the cache, so the view always
    /// reflects the current incidence.
    pub fn connectivity(&self) -> &Connectivity {
        self.connectivity.0.get_or_init(|| Connectivity::build(self))
    }

    /// The cached CSR view, if one has been materialized — without building
    /// it. The spill tier uses this at eviction time: only an already-built
    /// view is worth writing to disk.
    pub fn cached_connectivity(&self) -> Option<&Connectivity> {
        self.connectivity.0.get()
    }

    /// Seeds the CSR cache with a pre-built view (e.g. one revived from the
    /// disk spill tier) instead of rebuilding it on first use. The view is
    /// verified against the design first — its fingerprint must equal the
    /// streamed [`Connectivity::fingerprint_of`] of the current wiring — so
    /// a stale or foreign view can never be installed. Returns whether the
    /// view was accepted (`false` when it fails verification or a view is
    /// already cached).
    pub fn install_connectivity(&self, view: Connectivity) -> bool {
        if view.fingerprint() != Connectivity::fingerprint_of(self) {
            return false;
        }
        self.connectivity.0.set(view).is_ok()
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

    /// Consistency check used by tests and debug builds: every net reference
    /// from a cell exists and points back, and vice versa.
    pub fn validate(&self) -> Result<(), String> {
        for (id, cell) in self.cells() {
            for &n in cell.fanout.iter() {
                let net = self
                    .nets
                    .get(n.0 as usize)
                    .ok_or_else(|| format!("cell {} fanout dangling", cell.name))?;
                if net.driver_cell != Some(id) {
                    return Err(format!("net {} does not list {} as driver", net.name, cell.name));
                }
            }
            for &n in cell.fanin.iter() {
                let net = self
                    .nets
                    .get(n.0 as usize)
                    .ok_or_else(|| format!("cell {} fanin dangling", cell.name))?;
                if !net.sink_cells.contains(&id) {
                    return Err(format!("net {} does not list {} as sink", net.name, cell.name));
                }
            }
        }
        for (id, net) in self.nets() {
            if let Some(c) = net.driver_cell {
                if !self.cell(c).fanout.contains(&id) {
                    return Err(format!("driver of net {} does not reference it", net.name));
                }
            }
            for &c in &net.sink_cells {
                if !self.cell(c).fanin.contains(&id) {
                    return Err(format!("sink of net {} does not reference it", net.name));
                }
            }
        }
        Ok(())
    }
}

impl crate::heap_size::HeapSize for Cell {
    fn heap_bytes(&self) -> usize {
        self.name.heap_bytes()
            + self.lib_cell.heap_bytes()
            + self.hier_path.heap_bytes()
            + self.fanin.heap_bytes()
            + self.fanout.heap_bytes()
    }
}

impl crate::heap_size::HeapSize for Port {
    fn heap_bytes(&self) -> usize {
        self.name.heap_bytes()
    }
}

impl crate::heap_size::HeapSize for Net {
    fn heap_bytes(&self) -> usize {
        self.name.heap_bytes() + self.sink_cells.heap_bytes() + self.sink_ports.heap_bytes()
    }
}

/// A design's resident bytes cover the cell/port/net stores, the
/// materialized name indexes, and — when it has been materialized — the
/// cached CSR connectivity view, so an interned design is accounted with
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
            + self.connectivity.0.get().map_or(0, |csr| csr.resident_bytes())
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
            fanin: Vec::new(),
            fanout: Vec::new(),
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
        self.find_net(hash, &name).unwrap_or_else(|| self.push_net(hash, name))
    }

    /// Like [`DesignBuilder::add_net`], but borrows the name: only a net not
    /// seen before allocates, at the name's exact length.
    pub(crate) fn intern_net(&mut self, name: &str) -> NetId {
        let hash = NameTable::hash_name(name);
        self.find_net(hash, name).unwrap_or_else(|| self.push_net(hash, name.to_owned()))
    }

    fn find_net(&self, hash: u64, name: &str) -> Option<NetId> {
        self.net_index.find(hash, |id| self.nets[id as usize].name == name).map(NetId)
    }

    fn push_net(&mut self, hash: u64, name: String) -> NetId {
        let id = NetId(self.nets.len() as u32);
        self.nets.push(Net { name, ..Default::default() });
        self.net_index.insert(hash, id.0);
        id
    }

    /// Marks `cell` as the driver of `net`.
    pub fn connect_driver(&mut self, net: NetId, cell: CellId) -> &mut Self {
        let n = &mut self.nets[net.0 as usize];
        if n.driver_cell != Some(cell) {
            n.driver_cell = Some(cell);
            self.cells[cell.0 as usize].fanout.push(net);
        }
        self
    }

    /// Marks `cell` as a sink of `net`.
    pub fn connect_sink(&mut self, net: NetId, cell: CellId) -> &mut Self {
        let n = &mut self.nets[net.0 as usize];
        if !n.sink_cells.contains(&cell) {
            n.sink_cells.push(cell);
            self.cells[cell.0 as usize].fanin.push(net);
        }
        self
    }

    /// Connects a primary port as the driver of `net` (for input ports).
    pub fn connect_port_driver(&mut self, net: NetId, port: PortId) -> &mut Self {
        self.nets[net.0 as usize].driver_port = Some(port);
        self.ports[port.0 as usize].net = Some(net);
        self
    }

    /// Connects a primary port as a sink of `net` (for output ports).
    pub fn connect_port_sink(&mut self, net: NetId, port: PortId) -> &mut Self {
        let n = &mut self.nets[net.0 as usize];
        if !n.sink_ports.contains(&port) {
            n.sink_ports.push(port);
        }
        self.ports[port.0 as usize].net = Some(net);
        self
    }

    /// Number of cells added so far.
    pub fn num_cells(&self) -> usize {
        self.cells.len()
    }

    /// Finalizes the builder into an immutable [`Design`], seeding the
    /// design's name indexes with the builder's (no rebuild on first
    /// `find_*`).
    pub fn build(self) -> Design {
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
            connectivity: ConnectivityCache::default(),
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
        assert_eq!(d.net(n).degree(), 3);
        let n2 = d.find_net("clk_en_net").unwrap();
        assert_eq!(d.net(n2).degree(), 2);
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
        assert_eq!(d.net(n).sink_cells.len(), 1);
        d.validate().unwrap();
    }
}
