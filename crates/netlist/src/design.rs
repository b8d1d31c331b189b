//! The flattened circuit model with hierarchy annotations.
//!
//! A [`Design`] holds every cell of the circuit (macros, flops, combinational
//! gates), the primary ports, and the nets connecting them.  Each cell keeps
//! the hierarchical path of the module instance it belongs to, which is what
//! the [`crate::hierarchy::HierarchyTree`] is built from.
//!
//! The design is stored as arrays. A [`Cell`] is 32 bytes of plain data: its
//! kind, footprint, and the ids of its library cell and hierarchy path, each
//! interned once per distinct value. Every name (cells, ports, nets, library
//! cells, hierarchy paths) lives in a packed [`Names`] store and is read by
//! id ([`Design::cell_name`], [`Design::lib_cell`], ...); names never change
//! after [`DesignBuilder::build`].
//!
//! Cells and nets carry no adjacency of their own: the wiring lives once, in
//! the design's CSR [`Connectivity`], which [`DesignBuilder::build`] packs
//! and [`Design::apply_edits`] rewrites in place.

use crate::connectivity::{Connectivity, PinRef};
use crate::names::{NameTable, Names};
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

/// Identifier of a distinct library cell name inside a [`Design`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LibCellId(pub u32);

/// Identifier of a distinct hierarchy path inside a [`Design`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct HierPathId(pub u32);

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

/// A cell instance of the design. Its name is [`Design::cell_name`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Cell {
    /// Kind of the cell.
    pub kind: CellKind,
    /// Footprint width in DBU (0 for standard cells until a library is bound).
    pub width: Dbu,
    /// Footprint height in DBU.
    pub height: Dbu,
    /// Library cell / macro name (e.g. `RAM256x32`, `DFFX1`, `NAND2X1`),
    /// read through [`Design::lib_cell`].
    pub lib_cell: LibCellId,
    /// Hierarchical module path the instance lives in (e.g. `u_core/u_alu`),
    /// read through [`Design::hier_path`]. The empty string denotes the top
    /// level.
    pub hier_path: HierPathId,
}

const _: () = assert!(std::mem::size_of::<Cell>() == 32);

impl Cell {
    /// Cell footprint area in DBU².
    pub fn area(&self) -> i128 {
        self.width as i128 * self.height as i128
    }
}

/// A primary port of the design. Its name is [`Design::port_name`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Port {
    /// Direction.
    pub direction: PortDirection,
    /// Fixed location of the port on the die boundary, if known.
    pub position: Option<Point>,
    /// Net attached to the port.
    pub net: Option<NetId>,
}

/// The circuit: cells, ports and nets, plus the die outline.
///
/// A net is only an id: its name is [`Design::net_name`] and its pins
/// (single driver, multiple sinks) are read through [`Design::connectivity`].
///
/// Construct one through [`DesignBuilder`] or one of the parsers
/// ([`crate::verilog`], [`crate::def`]).
#[derive(Debug, Clone, PartialEq)]
pub struct Design {
    name: String,
    cells: Vec<Cell>,
    ports: Vec<Port>,
    cell_names: Names,
    port_names: Names,
    net_names: Names,
    lib_cells: Names,
    hier_paths: Names,
    die: Rect,
    connectivity: Connectivity,
    derived: DerivedCache,
}

/// Lazily-built derived state: the compact name→id indexes (seeded by the
/// builder, rebuilt on demand in a clone) and the two identity
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

/// Looks `name` up in `names` through its lazily built index.
fn find_name(index: &OnceLock<NameTable>, names: &Names, name: &str) -> Option<u32> {
    index
        .get_or_init(|| NameTable::build(names.iter()))
        .find(NameTable::hash_name(name), |id| names.get(id) == name)
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
        self.net_names.len()
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

    /// Mutable cell accessor. Invalidates the cached fingerprints.
    pub fn cell_mut(&mut self, id: CellId) -> &mut Cell {
        self.derived.seq_names.take();
        self.derived.geometry.take();
        &mut self.cells[id.0 as usize]
    }

    /// The full hierarchical instance name of a cell (e.g.
    /// `u_core/u_alu/add_42`).
    pub fn cell_name(&self, id: CellId) -> &str {
        self.cell_names.get(id.0)
    }

    /// Port accessor.
    pub fn port(&self, id: PortId) -> &Port {
        &self.ports[id.0 as usize]
    }

    /// The name of a port (e.g. `axi_rdata[31]`).
    pub fn port_name(&self, id: PortId) -> &str {
        self.port_names.get(id.0)
    }

    /// The name of a net.
    pub fn net_name(&self, id: NetId) -> &str {
        self.net_names.get(id.0)
    }

    /// A library cell name, as interned by [`Cell::lib_cell`].
    pub fn lib_cell(&self, id: LibCellId) -> &str {
        self.lib_cells.get(id.0)
    }

    /// A hierarchy path, as interned by [`Cell::hier_path`].
    pub fn hier_path(&self, id: HierPathId) -> &str {
        self.hier_paths.get(id.0)
    }

    /// Iterates over the interned hierarchy paths, in the order they were
    /// first interned.
    pub fn hier_paths(&self) -> impl Iterator<Item = (HierPathId, &str)> + '_ {
        self.hier_paths.iter().enumerate().map(|(i, n)| (HierPathId(i as u32), n))
    }

    /// The id of library cell `name`, interning it if the design has none
    /// yet. A design holds few distinct library cells, so a scan suffices.
    pub(crate) fn intern_lib_cell(&mut self, name: &str) -> LibCellId {
        let found = self.lib_cells.iter().position(|n| n == name);
        LibCellId(found.map_or_else(|| self.lib_cells.push(name), |i| i as u32))
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
        find_name(&self.derived.cell_names, &self.cell_names, name).map(CellId)
    }

    /// Looks a port up by name.
    pub fn find_port(&self, name: &str) -> Option<PortId> {
        find_name(&self.derived.port_names, &self.port_names, name).map(PortId)
    }

    /// Looks a net up by name.
    pub fn find_net(&self, name: &str) -> Option<NetId> {
        find_name(&self.derived.net_names, &self.net_names, name).map(NetId)
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
        (0..self.net_names.len() as u32).map(NetId)
    }

    /// Iterates over `(id, cell)` pairs.
    pub fn cells(&self) -> impl Iterator<Item = (CellId, &Cell)> + '_ {
        self.cells.iter().enumerate().map(|(i, c)| (CellId(i as u32), c))
    }

    /// Iterates over `(id, port)` pairs.
    pub fn ports(&self) -> impl Iterator<Item = (PortId, &Port)> + '_ {
        self.ports.iter().enumerate().map(|(i, p)| (PortId(i as u32), p))
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
    /// fetch by it, so the walk must not be O(cells) per fetch); a kind
    /// change through [`Design::cell_mut`] or [`Design::bind_library`]
    /// invalidates the cache.
    pub fn seq_name_fingerprint(&self) -> u64 {
        *self.derived.seq_names.get_or_init(|| {
            let mut h = crate::hash::Fnv1a::new();
            // a separator after every field so concatenations cannot collide
            let mut eat = |bytes: &[u8]| {
                h.write_bytes(bytes);
                h.write_sep();
            };
            for (id, cell) in self.cells() {
                if cell.kind != CellKind::Comb {
                    eat(&[cell.kind as u8]);
                    eat(self.cell_name(id).as_bytes());
                }
            }
            for name in self.port_names.iter() {
                eat(name.as_bytes());
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

    /// Binds footprints from a library: every cell whose library cell is
    /// found in the library gets its width/height (and macro kind) updated.
    /// Each distinct library cell is looked up once. Invalidates the cached
    /// fingerprints (footprints are geometry; a kind flip to `Macro` changes
    /// the sequential-name walk).
    pub fn bind_library(&mut self, library: &crate::library::Library) {
        self.derived.geometry.take();
        self.derived.seq_names.take();
        let masters: Vec<_> = self.lib_cells.iter().map(|name| library.find_macro(name)).collect();
        for cell in &mut self.cells {
            if let Some(m) = masters[cell.lib_cell.0 as usize] {
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
        if (csr.num_cells(), csr.num_nets()) != (self.cells.len(), self.num_nets()) {
            return Err("the wiring does not cover the design's cells and nets".into());
        }
        for id in self.cell_ids() {
            let roles = [
                ("sink", csr.fanin(id), PinRef::sink_cell(id)),
                ("driver", csr.fanout(id), PinRef::driver_cell(id)),
            ];
            for (role, nets, pin) in roles {
                for &n in nets {
                    if n.0 as usize >= self.num_nets() {
                        return Err(format!("cell {} {role} net dangling", self.cell_name(id)));
                    }
                    if !csr.pins(n).contains(&pin) {
                        return Err(format!(
                            "net {} does not list {} as {role}",
                            self.net_name(n),
                            self.cell_name(id)
                        ));
                    }
                }
            }
        }
        for id in self.net_ids() {
            for pin in csr.pins(id) {
                let Some(c) = pin.cell() else { continue };
                let nets = if pin.is_driver() { csr.fanout(c) } else { csr.fanin(c) };
                if !nets.contains(&id) {
                    return Err(format!(
                        "a pin of net {} does not reference it",
                        self.net_name(id)
                    ));
                }
            }
        }
        Ok(())
    }
}

/// A design's resident bytes cover the cell and port stores, the name
/// stores, the wiring and the materialized name indexes, so an interned
/// design is accounted with everything that travels with it.
impl crate::heap_size::HeapSize for Design {
    fn heap_bytes(&self) -> usize {
        self.name.heap_bytes()
            + self.cells.heap_bytes()
            + self.ports.heap_bytes()
            + self.cell_names.heap_bytes()
            + self.port_names.heap_bytes()
            + self.net_names.heap_bytes()
            + self.lib_cells.heap_bytes()
            + self.hier_paths.heap_bytes()
            + self.derived.cell_names.get().map_or(0, |t| t.heap_bytes())
            + self.derived.port_names.get().map_or(0, |t| t.heap_bytes())
            + self.derived.net_names.get().map_or(0, |t| t.heap_bytes())
            + self.connectivity.heap_bytes()
    }
}

/// A [`Names`] store with the [`NameTable`] that finds its names: each
/// distinct name is stored once.
#[derive(Debug, Clone, Default)]
struct Interner {
    names: Names,
    index: NameTable,
}

impl Interner {
    fn find(&self, name: &str) -> Option<u32> {
        self.index.find(NameTable::hash_name(name), |id| self.names.get(id) == name)
    }

    /// The id of `name` and whether this call added it.
    fn intern(&mut self, name: &str) -> (u32, bool) {
        let hash = NameTable::hash_name(name);
        match self.index.find(hash, |id| self.names.get(id) == name) {
            Some(id) => (id, false),
            None => {
                let id = self.names.push(name);
                self.index.insert(hash, id);
                (id, true)
            }
        }
    }
}

/// Incremental builder for a [`Design`].
///
/// The builder keeps name → id indexes so that parsers and generators can
/// attach connectivity in any order.  The indexes are the same compact
/// [`NameTable`]s the finished design uses (hash + id slots verified against
/// the packed [`Names`] stores — no duplicated name `String`s), and
/// [`DesignBuilder::build`] hands them to the design, so streaming parsers
/// never materialize an intermediate name `HashMap`. Library cell names and
/// hierarchy paths are interned: a cell stores their ids.
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
    cell_names: Interner,
    port_names: Interner,
    net_names: Interner,
    lib_cells: Interner,
    hier_paths: Interner,
    die: Rect,
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
        name: impl AsRef<str>,
        lib_cell: impl AsRef<str>,
        width: Dbu,
        height: Dbu,
        hier_path: impl AsRef<str>,
    ) -> CellId {
        self.add_cell(name, lib_cell, CellKind::Macro, width, height, hier_path)
    }

    /// Adds a flip-flop cell (unit footprint until a library is bound).
    pub fn add_flop(&mut self, name: impl AsRef<str>, hier_path: impl AsRef<str>) -> CellId {
        self.add_cell(name, "DFF", CellKind::Flop, 1, 1, hier_path)
    }

    /// Adds a combinational cell (unit footprint until a library is bound).
    pub fn add_comb(&mut self, name: impl AsRef<str>, hier_path: impl AsRef<str>) -> CellId {
        self.add_cell(name, "COMB", CellKind::Comb, 1, 1, hier_path)
    }

    /// Adds a cell with explicit kind and footprint; returns its id.
    ///
    /// If a cell with the same name already exists its id is returned and the
    /// existing cell is left untouched.
    pub fn add_cell(
        &mut self,
        name: impl AsRef<str>,
        lib_cell: impl AsRef<str>,
        kind: CellKind,
        width: Dbu,
        height: Dbu,
        hier_path: impl AsRef<str>,
    ) -> CellId {
        let (lib_cell, hier_path) = (lib_cell.as_ref(), hier_path.as_ref());
        self.add_cell_with(name.as_ref(), |b| Cell {
            kind,
            width,
            height,
            lib_cell: b.intern_lib_cell(lib_cell),
            hier_path: b.intern_hier_path(hier_path),
        })
    }

    /// Adds a cell named `name` unless one exists, like
    /// [`DesignBuilder::add_cell`]; only a new cell calls `new_cell`, which
    /// interns its library cell and hierarchy path and returns it.
    pub(crate) fn add_cell_with(
        &mut self,
        name: &str,
        new_cell: impl FnOnce(&mut Self) -> Cell,
    ) -> CellId {
        let (id, added) = self.cell_names.intern(name);
        if added {
            let cell = new_cell(self);
            self.cells.push(cell);
        }
        CellId(id)
    }

    /// The id of library cell `name`, interned on first use.
    pub(crate) fn intern_lib_cell(&mut self, name: &str) -> LibCellId {
        LibCellId(self.lib_cells.intern(name).0)
    }

    /// The id of hierarchy path `path`, interned on first use.
    pub(crate) fn intern_hier_path(&mut self, path: &str) -> HierPathId {
        HierPathId(self.hier_paths.intern(path).0)
    }

    /// Whether a name of `len` bytes fits in every name store of the
    /// builder; elaboration checks before it adds a name of outside input.
    pub(crate) fn name_fits(&self, len: usize) -> bool {
        [&self.cell_names, &self.port_names, &self.net_names, &self.lib_cells, &self.hier_paths]
            .into_iter()
            .all(|store| store.names.fits(len))
    }

    /// Adds a primary port; returns its id.
    pub fn add_port(&mut self, name: impl AsRef<str>, direction: PortDirection) -> PortId {
        let (id, added) = self.port_names.intern(name.as_ref());
        if added {
            self.ports.push(Port { direction, position: None, net: None });
        }
        PortId(id)
    }

    /// Fixes a port position on the die boundary.
    pub fn place_port(&mut self, port: PortId, position: Point) -> &mut Self {
        self.ports[port.0 as usize].position = Some(position);
        self
    }

    /// Adds (or finds) a net by name; returns its id.
    pub fn add_net(&mut self, name: impl AsRef<str>) -> NetId {
        let (id, added) = self.net_names.intern(name.as_ref());
        if added {
            self.drivers.push((None, None));
        }
        NetId(id)
    }

    /// Looks a net up by name without adding it.
    pub fn find_net(&self, name: &str) -> Option<NetId> {
        self.net_names.find(name).map(NetId)
    }

    /// The cell currently driving `net`, if any.
    pub(crate) fn driver_cell(&self, net: NetId) -> Option<CellId> {
        self.drivers.get(net.0 as usize).and_then(|&(cell, _)| cell)
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

    /// The name of a port added so far.
    pub fn port_name(&self, id: PortId) -> &str {
        self.port_names.names.get(id.0)
    }

    /// The name of a net added so far.
    pub(crate) fn net_name(&self, id: NetId) -> &str {
        self.net_names.names.get(id.0)
    }

    /// The name of a cell added so far.
    pub(crate) fn cell_name(&self, id: CellId) -> &str {
        self.cell_names.names.get(id.0)
    }

    /// Finalizes the builder into an immutable [`Design`]: packs the
    /// connection log into the design's [`Connectivity`], sizes every store
    /// to its length and seeds the design's name indexes with the builder's
    /// (no rebuild on first `find_*`).
    pub fn build(self) -> Design {
        let Self {
            name,
            mut cells,
            mut ports,
            cell_names,
            port_names,
            net_names,
            lib_cells,
            hier_paths,
            die,
            pins,
            drivers,
        } = self;
        let connectivity = Connectivity::pack(cells.len(), ports.len(), &drivers, &pins);
        // the connection log goes before the stores are resized, so the
        // resizing never holds both
        drop((pins, drivers));
        cells.shrink_to_fit();
        ports.shrink_to_fit();
        let derived = DerivedCache::default();
        let _ = derived.cell_names.set(cell_names.index);
        let _ = derived.port_names.set(port_names.index);
        let _ = derived.net_names.set(net_names.index);
        let [mut cell_names, mut port_names, mut net_names, mut lib_cells, mut hier_paths] = [
            cell_names.names,
            port_names.names,
            net_names.names,
            lib_cells.names,
            hier_paths.names,
        ];
        for names in
            [&mut cell_names, &mut port_names, &mut net_names, &mut lib_cells, &mut hier_paths]
        {
            names.shrink_to_fit();
        }
        Design {
            name,
            cells,
            ports,
            cell_names,
            port_names,
            net_names,
            lib_cells,
            hier_paths,
            die,
            connectivity,
            derived,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_design() -> Design {
        named_design("u_ctl/state_reg", "u_ctl/and_1", "clk_en")
    }

    /// [`small_design`] with its flop, its combinational cell and its port
    /// named `flop`, `comb` and `port`.
    fn named_design(flop: &str, comb: &str, port: &str) -> Design {
        let mut b = DesignBuilder::new("top");
        let m = b.add_macro("u_mem/ram0", "RAM16", 200, 100, "u_mem");
        let f = b.add_flop(flop, "u_ctl");
        let g = b.add_comb(comb, "u_ctl");
        let p = b.add_port(port, PortDirection::Input);
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
        let comb_renamed = named_design("u_ctl/state_reg", "u_ctl/and_X", "clk_en");
        assert_eq!(d.seq_name_fingerprint(), comb_renamed.seq_name_fingerprint());
        // renaming a flop changes it
        let flop_renamed = named_design("u_ctl/other", "u_ctl/and_1", "clk_en");
        assert_ne!(d.seq_name_fingerprint(), flop_renamed.seq_name_fingerprint());
        // renaming a port changes it
        let port_renamed = named_design("u_ctl/state_reg", "u_ctl/and_1", "clk_dis");
        assert_ne!(d.seq_name_fingerprint(), port_renamed.seq_name_fingerprint());
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
    fn names_and_interned_values_read_back_by_id() {
        let d = small_design();
        let f = d.find_cell("u_ctl/state_reg").unwrap();
        assert_eq!(d.cell_name(f), "u_ctl/state_reg");
        assert_eq!(d.lib_cell(d.cell(f).lib_cell), "DFF");
        assert_eq!(d.hier_path(d.cell(f).hier_path), "u_ctl");
        assert_eq!(d.port_name(d.find_port("clk_en").unwrap()), "clk_en");
        assert_eq!(d.net_name(d.find_net("clk_en_net").unwrap()), "clk_en_net");
        // each distinct value once, in first-appearance order
        assert_eq!([0, 1, 2].map(|i| d.lib_cell(LibCellId(i))), ["RAM16", "DFF", "COMB"]);
        let paths: Vec<&str> = d.hier_paths().map(|(_, p)| p).collect();
        assert_eq!(paths, ["u_mem", "u_ctl"]);
        let g = d.find_cell("u_ctl/and_1").unwrap();
        assert_eq!(d.cell(g).hier_path, d.cell(f).hier_path);
    }

    #[test]
    fn built_design_holds_no_spare_capacity() {
        use crate::heap_size::HeapSize;
        use std::mem::size_of;
        let d = small_design();
        // every name store holds its bytes plus one u32 end offset per name
        let names = |names: &[&str]| names.iter().map(|n| n.len() + 4).sum::<usize>();
        let name_tables = d.derived.cell_names.get().unwrap().heap_bytes()
            + d.derived.port_names.get().unwrap().heap_bytes()
            + d.derived.net_names.get().unwrap().heap_bytes();
        let expected = "top".len()
            + 3 * size_of::<Cell>()
            + size_of::<Port>()
            + names(&["u_mem/ram0", "u_ctl/state_reg", "u_ctl/and_1"])
            + names(&["clk_en"])
            + names(&["u_ctl/state", "clk_en_net"])
            + names(&["RAM16", "DFF", "COMB"])
            + names(&["u_mem", "u_ctl"])
            + name_tables
            + d.connectivity().heap_bytes();
        assert_eq!(d.heap_bytes(), expected);
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
