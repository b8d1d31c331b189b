//! Experiment harness for the HiDaP reproduction.
//!
//! This crate glues the workload generator, the three placement flows and the
//! evaluation pipeline together, and hosts the binaries that regenerate every
//! table and figure of the paper (see `DESIGN.md` for the experiment index):
//!
//! | binary | paper artifact |
//! |--------|----------------|
//! | `table2` | Table II — average WL / WNS / effort of the three flows |
//! | `table3` | Table III — per-circuit WL, congestion and timing |
//! | `fig1` | Fig. 1 — evolution of the multi-level block floorplan |
//! | `fig3` | Fig. 3 — block-flow vs macro-flow vs combined layouts |
//! | `fig9` | Fig. 9 — density maps of c3 under the three flows |
//! | `lambda_sweep` | the λ ∈ {0.2, 0.5, 0.8} exploration of Sect. V |
//! | `ablation_decluster` | sensitivity to `min_area` / `open_area` (Sect. IV-B) |
//! | `ablation_score_k` | sensitivity to the latency exponent k (Sect. IV-D) |
//!
//! Every binary accepts `--effort fast|default|high` (default `fast`;
//! `paper` is accepted as `high`, and an unknown value exits with status 2)
//! and, where applicable, `--circuits c1,c2,...`.

#![forbid(unsafe_code)]

pub mod experiments;
pub mod reference;
pub mod report;

pub use experiments::{compare_flows, CircuitComparison, FlowResult};
