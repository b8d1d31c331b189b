//! Evaluation substrate for macro-placement flows.
//!
//! The paper measures every floorplan *after standard-cell placement with the
//! same commercial tool*, reporting wirelength, global-routing congestion and
//! timing (Table III).  This crate provides an equivalent, self-contained
//! measurement pipeline so that the three flows of the reproduction (HiDaP,
//! the IndEDA-style baseline and the handFP proxy) are compared under
//! identical conditions:
//!
//! * [`placer`] — a quadratic-style standard-cell placer with grid-based
//!   spreading that treats the placed macros as obstacles,
//! * [`wirelength`] — half-perimeter wirelength (HPWL) of the full netlist,
//! * [`congestion`] — a RUDY-style global-routing demand estimate with a
//!   per-bin capacity, reporting the overflow percentage (GRC%),
//! * [`timing`] — a lumped-RC static timing estimate on the sequential graph,
//!   reporting WNS (as a percentage of the clock period) and TNS,
//! * [`density`] — standard-cell density maps (the Fig. 9 visualization),
//! * [`visualize`] — SVG renderings of floorplans, density maps and dataflow
//!   graphs (the paper's interactive visualization tool, as static output),
//! * [`metrics`] — the [`Evaluator`] session driving all of the above,
//! * [`artifacts`] — the typed, byte-budgeted [`ArtifactCache`] of
//!   design-derived graphs (`Gnet`, `Gseq`) behind every session and store,
//!   evicting the least recently used artifact first; an evicted graph is
//!   rebuilt on its next fetch,
//! * [`spill`] — the framed, checksummed disk files of the placement
//!   service's warm-start seeds, the one service state a design cannot
//!   rebuild (see `docs/MEMORY.md`).
//!
//! Placements enter the pipeline as a [`netlist::MacroPlacement`], the type
//! every flow returns (`evaluator.evaluate(&design, &placement)`). Build one
//! [`Evaluator`] per sweep — it caches the sequential graph and its scratch
//! buffers across candidates.

#![forbid(unsafe_code)]
#![deny(clippy::print_stdout)]

pub mod artifacts;
pub mod congestion;
pub mod density;
mod exact;
mod grid;
pub mod metrics;
pub mod placer;
pub mod spill;
pub mod timing;
pub mod visualize;
pub mod wirelength;

pub use artifacts::{ArtifactCache, ArtifactCacheStats, ArtifactKind, KindStats};
pub use congestion::{CongestionConfig, CongestionMap};
pub use density::DensityMap;
pub use metrics::{DesignKey, EvalConfig, Evaluator, PlacementMetrics};
pub use placer::{place_standard_cells, place_standard_cells_warm, CellPlacement, PlacerConfig};
pub use spill::{SpillMiss, SpillTier};
pub use timing::{TimingConfig, TimingReport};
pub use wirelength::{total_hpwl, Hpwl, IncrementalHpwl};
