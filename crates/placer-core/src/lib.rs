//! The unified macro-placement engine API.
//!
//! Every placement flow in this workspace — the paper's HiDaP flow, the
//! IndEDA-style flat baseline and the handFP oracle — plugs into one engine
//! interface instead of exposing its own ad-hoc entry point:
//!
//! * [`Placer`] — the flow trait: `place(&PlaceRequest, &mut PlaceContext)`,
//! * [`PlaceRequest`] / [`PlaceOutcome`] — what goes in (design, seed,
//!   effort, constraints) and what comes out (placement, per-stage timings,
//!   quality metrics),
//! * [`FlowObserver`] — typed stage events (hierarchy built, shape curves,
//!   per-level floorplans, flipping, legalization) for progress reporting,
//! * [`PlaceContext`] — the per-run observer and the artifact cache every
//!   flow and evaluation of a run shares,
//! * [`BatchRunner`] — parallel seed×λ grid execution with deterministic
//!   per-run RNG derivation, keeping the run with the lowest measured
//!   wirelength,
//! * [`FlowRegistry`] — string-keyed flow lookup so front ends resolve
//!   `--flow <name>` without hard-coding flow types,
//! * [`DesignStore`] / [`PlacementService`] — the multi-design service
//!   layer: designs interned behind cheap, refcounted [`DesignHandle`]s
//!   with their derived artifacts (`Gnet`, `Gseq`) owned
//!   centrally in a byte-budgeted [`eval::ArtifactCache`], and a queue of
//!   heterogeneous [`PlaceJob`]s (designs × flows × seed/λ grids) drained
//!   with per-job observers and deterministic winners.
//!
//! # Quick start
//!
//! ```
//! use hidap::{HidapConfig, HidapFlow};
//! use netlist::design::DesignBuilder;
//! use placer_core::{BatchGrid, BatchRunner, PlaceContext, PlaceRequest, Placer};
//!
//! // Two RAMs exchanging data through a register pipeline.
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
//! b.set_die(geometry::Rect::new(0, 0, 1000, 800));
//! let design = b.build();
//!
//! // One run through the Placer trait.
//! let placer = HidapFlow::new(HidapConfig::fast());
//! let request = PlaceRequest::new(&design).with_seed(7).with_lambda(0.5);
//! let outcome = placer.place(&request, &mut PlaceContext::new())?;
//! assert_eq!(outcome.placement.macros.len(), 2);
//! assert!(!outcome.stage_timings.is_empty());
//!
//! // A parallel seed×λ sweep picking the lowest-wirelength winner.
//! let grid = BatchGrid::new(vec![1, 2], vec![0.2, 0.8]);
//! let batch = BatchRunner::new().with_jobs(2);
//! let best = batch.run(&placer, &PlaceRequest::new(&design), &grid, &mut PlaceContext::new())?;
//! assert!(best.winner.placement.is_legal(&design));
//! # Ok::<(), placer_core::PlaceError>(())
//! ```

#![forbid(unsafe_code)]
#![deny(clippy::print_stdout)]
#![deny(clippy::unwrap_used)]

pub mod batch;
pub mod context;
pub mod error;
pub mod flows;
pub mod observer;
pub mod registry;
pub mod request;
pub mod seeds;
pub mod service;
pub mod store;

pub use batch::{BatchGrid, BatchOutcome, BatchRunner, RunSummary};
pub use context::PlaceContext;
pub use error::PlaceError;
pub use flows::builtin_registry;
pub use observer::{CollectingObserver, FlowObserver, StageEvent};
pub use registry::FlowRegistry;
pub use request::{EffortLevel, PlaceOutcome, PlaceRequest, Placer, StageTiming};
pub use seeds::{SeedRef, WarmSeed};
pub use service::{
    JobId, JobResult, JobState, PlaceJob, PlacementService, ReplaceSpec, ServiceStats,
};
pub use store::{DesignHandle, DesignStore, EvictionRecord};
