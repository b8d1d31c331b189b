//! Hierarchical netlist data model and physical-design file parsers.
//!
//! The input to RTL-aware macro placement is a *hierarchical* gate-level
//! netlist `N` together with the geometry of the macro cells and the die.
//! This crate provides:
//!
//! * [`design::Design`] — the flattened-but-hierarchy-annotated circuit model:
//!   cells (macros, flops, combinational gates), ports, nets, and for every
//!   cell the hierarchical path it came from.
//! * [`hierarchy::HierarchyTree`] — the tree `HT` of the paper (Sect. II-C):
//!   one node per hierarchy level with per-subtree area and macro counts.
//! * [`library::Library`] — macro and standard-cell footprints (from LEF).
//! * [`verilog`] — a structural Verilog parser producing a `Design`.
//! * [`lef`] — a LEF parser producing a `Library`.
//! * [`def`] — a DEF reader/writer for die area, placements and orientations.
//! * [`arrays`] — name-based array/bus grouping (`data[3]`, `data_3` → `data`),
//!   the RTL array information the paper exploits for dataflow analysis.
//! * [`dense`] — typed dense maps keyed by the contiguous design ids, the
//!   per-cell/per-net stores of the hot paths.
//! * [`connectivity`] — the design's wiring: the flat CSR cell↔net
//!   incidence, packed by the builder and rewritten in place by edits
//!   (`Design::connectivity`).
//! * [`edit`] — the typed ECO mutation API ([`edit::DesignEdit`]) applied
//!   through `Design` with exact cache invalidation, producing the
//!   [`edit::EditLog`] fingerprint diff that drives selective artifact
//!   invalidation.
//! * [`heap_size`] — the [`HeapSize`] resident-byte accounting trait behind
//!   byte-budgeted artifact caches and design stores.
//! * [`names`] — the packed name stores behind `Design::cell_name`,
//!   `port_name`, `net_name`, `lib_cell` and `hier_path`, and the compact
//!   open-addressed name→id index behind `Design::find_cell`/`find_port`/
//!   `find_net` (12 bytes per slot instead of a duplicated `String` per
//!   entry).
//! * [`placement`] — [`MacroPlacement`], the one macro-placement type: the
//!   flows return it, the evaluation and the DEF writer read it and the DEF
//!   reader rebuilds it.
//!
//! # Example
//!
//! ```
//! use netlist::design::{CellKind, Design, DesignBuilder};
//!
//! let mut b = DesignBuilder::new("top");
//! let m = b.add_macro("u_mem/ram0", "RAM16", 200, 100, "u_mem");
//! let f = b.add_flop("u_ctl/state_reg[0]", "u_ctl");
//! let n = b.add_net("u_ctl/state[0]");
//! b.connect_driver(n, f);
//! b.connect_sink(n, m);
//! let design = b.build();
//! assert_eq!(design.macros().count(), 1);
//! assert_eq!(design.cell(m).kind, CellKind::Macro);
//! ```

#![forbid(unsafe_code)]
#![deny(clippy::print_stdout)]

pub mod arrays;
pub mod codec;
pub mod connectivity;
pub mod def;
pub mod dense;
pub mod design;
pub mod edit;
pub mod error;
pub mod hash;
pub mod heap_size;
pub mod hierarchy;
pub mod lef;
pub mod library;
pub mod names;
pub mod placement;
pub mod verilog;

pub use connectivity::{Connectivity, PinRef};
pub use dense::{DenseId, DenseMap};
pub use design::{
    CellId, CellKind, Design, DesignBuilder, HierPathId, LibCellId, NetId, PortDirection, PortId,
};
pub use edit::{DesignEdit, EditEffect, EditError, EditLog, FingerprintDiff};
pub use error::ParseError;
pub use hash::Fnv1a;
pub use heap_size::HeapSize;
pub use hierarchy::{HierarchyNodeId, HierarchyTree};
pub use library::{Library, MacroDef, PinDef};
pub use placement::{MacroPlacement, PlacedMacro};
