//! Umbrella crate for the HiDaP reproduction workspace.
//!
//! Re-exports the workspace crates so the top-level integration tests and
//! examples can depend on a single package. The interesting code lives in
//! `crates/`:
//!
//! * [`placer_core`] — the unified `Placer` engine API: trait-based flows,
//!   stage observability ([`placer_core::FlowObserver`]), the per-run
//!   context ([`placer_core::PlaceContext`]), and parallel seed×λ batch
//!   execution ([`placer_core::BatchRunner`]),
//! * [`hidap`] — the paper's RTL-aware dataflow-driven macro placer,
//! * [`baselines`] — the IndEDA-style flat placer and the handFP oracle,
//! * [`eval`] — the shared measurement pipeline,
//! * [`workload`] — synthetic hierarchical SoC generators.

#![forbid(unsafe_code)]

pub use baselines;
pub use cli;
pub use eval;
pub use geometry;
pub use graphs;
pub use hidap;
pub use netlist;
pub use placer_core;
pub use workload;
