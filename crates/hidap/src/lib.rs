//! HiDaP: RTL-aware dataflow-driven hierarchical macro placement.
//!
//! This crate implements the DATE 2019 paper *"RTL-Aware Dataflow-Driven
//! Macro Placement"* (Vidal-Obiols, Cortadella, Petit, Galceran-Oms,
//! Martorell).  The placer exploits two pieces of RTL-stage information that
//! conventional floorplanners discard:
//!
//! * the **hierarchy tree** of the design, used as a pre-existing clustering
//!   that drives a multi-level, decluster-and-floorplan flow, and
//! * the **array structure** of registers and ports, used to infer the
//!   dataflow between blocks and derive an affinity metric combining
//!   information flow (bit widths) and latency (pipeline stages).
//!
//! The top entry point is [`flow::HidapFlow`], mirroring Algorithm 1 of the
//! paper:
//!
//! 1. build the hierarchy tree,
//! 2. generate shape curves for every hierarchy level ([`shape_curves`]),
//! 3. recursively floorplan blocks top-down ([`recursive`]), each level doing
//!    hierarchical declustering ([`decluster`]), target-area assignment
//!    ([`target_area`]), dataflow inference ([`dataflow`]) and slicing-tree
//!    layout generation by simulated annealing ([`layout`]),
//! 4. choose macro orientations ([`flipping`]).
//!
//! # Quick start
//!
//! [`HidapFlow`] implements the engine's `placer_core::Placer` trait, so the
//! recommended entry point is a `PlaceRequest` (design + seed + effort + λ)
//! through a `PlaceContext` (observer, shared artifact cache). The outcome
//! carries the placement plus per-stage timings:
//!
//! ```
//! use hidap::{HidapConfig, HidapFlow};
//! use netlist::design::DesignBuilder;
//! use placer_core::{PlaceContext, PlaceRequest, Placer};
//! use geometry::Rect;
//!
//! // Two RAMs exchanging data through a register file.
//! let mut b = DesignBuilder::new("mini");
//! let ram0 = b.add_macro("u_a/ram0", "RAM", 200, 150, "u_a");
//! let ram1 = b.add_macro("u_b/ram1", "RAM", 200, 150, "u_b");
//! for i in 0..8 {
//!     let f = b.add_flop(format!("u_x/pipe_reg[{i}]"), "u_x");
//!     let n0 = b.add_net(format!("n0_{i}"));
//!     let n1 = b.add_net(format!("n1_{i}"));
//!     b.connect_driver(n0, ram0);
//!     b.connect_sink(n0, f);
//!     b.connect_driver(n1, f);
//!     b.connect_sink(n1, ram1);
//! }
//! b.set_die(Rect::new(0, 0, 1000, 800));
//! let design = b.build();
//!
//! let placer = HidapFlow::new(HidapConfig::fast());
//! let request = PlaceRequest::new(&design).with_seed(1).with_lambda(0.5);
//! let outcome = placer.place(&request, &mut PlaceContext::new())?;
//! assert_eq!(outcome.placement.macros.len(), 2);
//! assert!(outcome.stage_seconds("floorplan").is_some());
//! # Ok::<(), placer_core::PlaceError>(())
//! ```
//!
//! Multi-seed / multi-λ exploration goes through `placer_core::BatchRunner`,
//! which fans the grid out across all cores and picks the winner
//! deterministically:
//!
//! ```
//! # use hidap::{HidapConfig, HidapFlow};
//! # use netlist::design::DesignBuilder;
//! # use geometry::Rect;
//! use placer_core::{BatchGrid, BatchRunner, PlaceContext, PlaceRequest};
//! # let mut b = DesignBuilder::new("mini");
//! # let ram0 = b.add_macro("u_a/ram0", "RAM", 200, 150, "u_a");
//! # let ram1 = b.add_macro("u_b/ram1", "RAM", 200, 150, "u_b");
//! # for i in 0..8 {
//! #     let f = b.add_flop(format!("u_x/pipe_reg[{i}]"), "u_x");
//! #     let n0 = b.add_net(format!("n0_{i}"));
//! #     let n1 = b.add_net(format!("n1_{i}"));
//! #     b.connect_driver(n0, ram0);
//! #     b.connect_sink(n0, f);
//! #     b.connect_driver(n1, f);
//! #     b.connect_sink(n1, ram1);
//! # }
//! # b.set_die(Rect::new(0, 0, 1000, 800));
//! # let design = b.build();
//! let placer = HidapFlow::new(HidapConfig::fast());
//! let grid = BatchGrid::new(vec![1, 2], vec![0.2, 0.8]);
//! let best = BatchRunner::new()
//!     .run(&placer, &PlaceRequest::new(&design), &grid, &mut PlaceContext::new())?;
//! assert!(best.winner.placement.is_legal(&design));
//! # Ok::<(), placer_core::PlaceError>(())
//! ```
//!
//! The lower-level [`HidapFlow::run`] / [`flow::HidapFlow::run_probed`]
//! entry points remain available for callers that want the raw placement,
//! custom stage probes, prebuilt circuit graphs or the ECO warm start.
//!
//! Every entry point returns a [`MacroPlacement`], re-exported from
//! `netlist::placement` so the evaluation and the DEF reader and writer,
//! which do not depend on this crate, share the one type.

#![forbid(unsafe_code)]
#![deny(clippy::print_stdout)]

pub mod block;
pub mod config;
pub mod dataflow;
pub mod decluster;
pub mod error;
pub mod flipping;
pub mod flow;
pub mod layout;
pub mod legalize;
pub mod recursive;
pub mod shape_curves;
pub mod target_area;

pub use block::{Block, BlockId, BlockKind};
pub use config::HidapConfig;
pub use error::HidapError;
pub use flow::{FlowProbe, FlowStage, HidapFlow};
pub use netlist::placement::{MacroPlacement, PlacedMacro};
