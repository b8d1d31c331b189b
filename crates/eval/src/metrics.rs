//! The evaluation session: an [`Evaluator`] that places the standard cells,
//! then measures wirelength, congestion, timing and density — the columns of
//! Table III — for any number of candidate placements.

use crate::artifacts::ArtifactCache;
use crate::congestion::{estimate_congestion_with_ports, CongestionConfig, CongestionMap};
use crate::density::DensityMap;
use crate::placer::{place_standard_cells, CellPlacement, PlacerConfig};
use crate::timing::{estimate_timing, TimingConfig, TimingReport};
use crate::wirelength::{total_hpwl_with_ports, Hpwl};
use geometry::Point;
use graphs::SeqGraph;
use netlist::design::Design;
use netlist::MacroPlacement;
use std::sync::Arc;

/// Configuration of the whole evaluation pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct EvalConfig {
    /// Standard-cell placer settings.
    pub placer: PlacerConfig,
    /// Congestion estimator settings.
    pub congestion: CongestionConfig,
    /// Timing estimator settings.
    pub timing: TimingConfig,
    /// Density-map resolution (bins per edge).
    pub density_bins: usize,
    /// DBU per micron, used to report wirelength in meters.
    pub dbu_per_micron: i64,
}

impl EvalConfig {
    /// A sensible default (32-bin grids, 1000 DBU/µm).
    pub fn standard() -> Self {
        Self {
            placer: PlacerConfig::default(),
            congestion: CongestionConfig::default(),
            timing: TimingConfig::default(),
            density_bins: 32,
            dbu_per_micron: 1000,
        }
    }
}

/// The metrics of one placed flow — one row of Table III.
#[derive(Debug, Clone, PartialEq)]
pub struct PlacementMetrics {
    /// Half-perimeter wirelength.
    pub hpwl: Hpwl,
    /// Wirelength in meters.
    pub wirelength_m: f64,
    /// Global-routing congestion.
    pub congestion: CongestionMap,
    /// Timing report.
    pub timing: TimingReport,
    /// Standard-cell density map.
    pub density: DensityMap,
    /// The standard-cell placement used for the measurements.
    pub cell_placement: CellPlacement,
}

impl PlacementMetrics {
    /// Convenience accessor matching the Table III column "GRC%".
    pub fn grc_percent(&self) -> f64 {
        self.congestion.overflow_percent
    }

    /// Convenience accessor matching the Table III column "WNS%".
    pub fn wns_percent(&self) -> f64 {
        self.timing.wns_percent
    }

    /// Convenience accessor matching the Table III column "TNS" (in ns).
    pub fn tns_ns(&self) -> f64 {
        self.timing.tns_ps / 1000.0
    }
}

/// The identity of a design for the purposes of design-keyed caches and
/// stores: the name, every id-family size, a build-time hash of the full
/// connectivity, and a hash of everything else `Gseq` construction reads —
/// the kinds and names of the sequential elements (flop/macro/port names
/// drive the array clustering). Two designs differing in any of these get
/// distinct keys, so a shared session never reuses a stale graph.
///
/// Keys are cheap to compare and hash, and hold no reference to the design,
/// so multi-design services can use them to intern designs and to index
/// shared artifact caches (see [`ArtifactCache`]).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct DesignKey {
    name: String,
    num_cells: usize,
    num_nets: usize,
    num_ports: usize,
    num_macros: usize,
    /// Build-time hash of the full cell↔net incidence
    /// ([`netlist::Connectivity::fingerprint`]): designs that collide on
    /// name and counts but differ in wiring still get distinct keys.
    connectivity: u64,
    /// [`Design::seq_name_fingerprint`]: the kind and name of every
    /// sequential cell and every port — the inputs of `Gseq`'s name-based
    /// array clustering.
    seq_names: u64,
}

impl DesignKey {
    /// The identity key of a design.
    pub fn of(design: &Design) -> Self {
        Self {
            name: design.name().to_string(),
            num_cells: design.num_cells(),
            num_nets: design.num_nets(),
            num_ports: design.num_ports(),
            num_macros: design.num_macros(),
            connectivity: design.connectivity().fingerprint(),
            seq_names: design.seq_name_fingerprint(),
        }
    }

    /// The design (top module) name the key was taken from.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// A single `u64` folding every identity field — the identity half of
    /// the content address a warm-start seed files under in the spill tier
    /// ([`crate::spill`]; the placement service folds it with the design's
    /// geometry fingerprint). Two designs share it exactly when their keys
    /// are equal (modulo 64-bit hash collisions, which the seed path
    /// tolerates: a revived seed is checked against the resident design
    /// before use).
    pub fn fingerprint(&self) -> u64 {
        let mut h = netlist::Fnv1a::new();
        h.write_bytes(self.name.as_bytes());
        h.write_sep();
        h.write_u64(self.num_cells as u64);
        h.write_u64(self.num_nets as u64);
        h.write_u64(self.num_ports as u64);
        h.write_u64(self.num_macros as u64);
        h.write_u64(self.connectivity);
        h.write_u64(self.seq_names);
        h.finish()
    }
}

/// An evaluation session: owns the [`EvalConfig`], the cached sequential
/// graph and reusable scratch buffers, and measures any number of candidate
/// placements through [`Evaluator::evaluate`].
///
/// Build one per sweep and reuse it — every candidate after the first skips
/// the `Gseq` reconstruction that dominated the old per-call evaluation
/// path. Cloning an `Evaluator` shares the graph cache
/// (but not the scratch buffers), so per-worker clones in a parallel sweep
/// still build `Gseq` only once.
///
/// # Example
///
/// ```
/// use eval::{EvalConfig, Evaluator};
/// use geometry::{Orientation, Point, Rect};
/// use netlist::design::DesignBuilder;
/// use netlist::{MacroPlacement, PlacedMacro};
///
/// let mut b = DesignBuilder::new("t");
/// let m = b.add_macro("ram", "RAM", 50_000, 50_000, "");
/// for i in 0..8 {
///     let f = b.add_flop(format!("d_reg[{i}]"), "");
///     let n = b.add_net(format!("n{i}"));
///     b.connect_driver(n, f);
///     b.connect_sink(n, m);
/// }
/// b.set_die(Rect::new(0, 0, 400_000, 400_000));
/// let design = b.build();
///
/// // Build the session once, evaluate a whole sweep of candidates through
/// // it: the sequential graph is constructed on the first call only.
/// let mut evaluator = Evaluator::new(EvalConfig::standard());
/// let mut best: Option<(i128, Point)> = None;
/// for x in [10_000, 150_000, 300_000] {
///     let candidate: MacroPlacement =
///         [PlacedMacro::new(m, Point::new(x, 10_000), Orientation::N)].into_iter().collect();
///     let metrics = evaluator.evaluate(&design, &candidate);
///     if best.map(|(wl, _)| metrics.hpwl.dbu < wl).unwrap_or(true) {
///         best = Some((metrics.hpwl.dbu, Point::new(x, 10_000)));
///     }
/// }
/// assert!(best.is_some());
/// ```
#[derive(Debug)]
pub struct Evaluator {
    config: EvalConfig,
    cache: ArtifactCache,
    /// Scratch: port positions, refilled (not reallocated) per candidate.
    scratch_ports: Vec<Option<Point>>,
}

impl Clone for Evaluator {
    fn clone(&self) -> Self {
        Self { config: self.config, cache: self.cache.clone(), scratch_ports: Vec::new() }
    }
}

impl Evaluator {
    /// A session with the given configuration and a fresh artifact cache.
    pub fn new(config: EvalConfig) -> Self {
        Self { config, cache: ArtifactCache::new(), scratch_ports: Vec::new() }
    }

    /// A session with the standard configuration ([`EvalConfig::standard`]).
    pub fn standard() -> Self {
        Self::new(EvalConfig::standard())
    }

    /// A session sharing an existing artifact cache (used by sweep front
    /// ends so all workers of a batch reuse one `Gseq`, and by design stores
    /// so every session of a service fetches from one pool).
    pub fn with_cache(config: EvalConfig, cache: ArtifactCache) -> Self {
        Self { config, cache, scratch_ports: Vec::new() }
    }

    /// The session configuration.
    pub fn config(&self) -> &EvalConfig {
        &self.config
    }

    /// The session's shared artifact cache (clone it into sibling sessions).
    pub fn cache(&self) -> &ArtifactCache {
        &self.cache
    }

    /// The cached sequential graph of `design`, building it if needed.
    pub fn seq_graph(&self, design: &Design) -> Arc<SeqGraph> {
        self.cache.get_or_build(design)
    }

    /// Evaluates a macro placement: places the standard cells around it with
    /// the shared placer, then measures every Table III metric.
    pub fn evaluate(
        &mut self,
        design: &Design,
        macro_placement: &MacroPlacement,
    ) -> PlacementMetrics {
        let cell_placement = place_standard_cells(design, macro_placement, &self.config.placer);
        self.finish_evaluation(design, macro_placement, cell_placement)
    }

    /// Warm-start evaluation: like [`Evaluator::evaluate`] but the
    /// standard-cell placer seeds its Gauss–Seidel state from a previous
    /// [`CellPlacement`] (see [`crate::place_standard_cells_warm`]),
    /// converging in far fewer sweeps on small ECO edits. Returns the
    /// metrics and the number of sweeps the placer actually ran.
    pub fn evaluate_warm(
        &mut self,
        design: &Design,
        macro_placement: &MacroPlacement,
        warm: &CellPlacement,
    ) -> (PlacementMetrics, usize) {
        let (cell_placement, sweeps) = crate::placer::place_standard_cells_warm(
            design,
            macro_placement,
            &self.config.placer,
            warm,
        );
        (self.finish_evaluation(design, macro_placement, cell_placement), sweeps)
    }

    /// Measures every Table III metric over an already-computed cell
    /// placement (the shared tail of the cold and warm evaluation paths).
    fn finish_evaluation(
        &mut self,
        design: &Design,
        macro_placement: &MacroPlacement,
        cell_placement: CellPlacement,
    ) -> PlacementMetrics {
        let config = self.config;
        self.scratch_ports.clear();
        self.scratch_ports.extend(design.ports().map(|(_, p)| p.position));
        let hpwl =
            total_hpwl_with_ports(design, |c| cell_placement.position(c), &self.scratch_ports);
        let congestion = estimate_congestion_with_ports(
            design,
            &cell_placement,
            macro_placement,
            &config.congestion,
            &self.scratch_ports,
        );
        let gseq = self.seq_graph(design);
        let timing = estimate_timing(design, &gseq, &cell_placement, &config.timing);
        let density =
            DensityMap::compute(design, &cell_placement, macro_placement, config.density_bins);
        PlacementMetrics {
            wirelength_m: hpwl.meters(config.dbu_per_micron),
            hpwl,
            congestion,
            timing,
            density,
            cell_placement,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use geometry::{Orientation, Rect};
    use netlist::design::{CellId, DesignBuilder};
    use netlist::PlacedMacro;

    /// One unrotated macro with its lower-left corner at `(x, y)`.
    fn at(cell: CellId, x: i64, y: i64) -> MacroPlacement {
        [PlacedMacro::new(cell, Point::new(x, y), Orientation::N)].into_iter().collect()
    }

    /// A macro and a register bank talking to it, placed either near or far.
    fn design() -> (Design, CellId) {
        let mut b = DesignBuilder::new("t");
        let m = b.add_macro("ram", "RAM", 50_000, 50_000, "");
        for i in 0..32 {
            let f = b.add_flop(format!("data_reg[{i}]"), "");
            let n = b.add_net(format!("n{i}"));
            b.connect_driver(n, f);
            b.connect_sink(n, m);
        }
        b.set_die(Rect::new(0, 0, 400_000, 400_000));
        (b.build(), m)
    }

    #[test]
    fn pipeline_produces_all_metrics() {
        let (d, m) = design();
        let mp = at(m, 10_000, 10_000);
        let metrics = Evaluator::standard().evaluate(&d, &mp);
        assert!(metrics.hpwl.dbu > 0);
        assert!(metrics.wirelength_m > 0.0);
        assert!(metrics.grc_percent() >= 0.0);
        assert!(metrics.wns_percent() <= 0.0);
        assert!(metrics.density.peak() >= 0.0);
        assert_eq!(metrics.cell_placement.positions.len(), d.num_cells());
    }

    #[test]
    fn corner_macro_far_from_everything_hurts_wirelength() {
        let (d, m) = design();
        // ports pull nothing here; the registers gravitate to the macro, so
        // compare a centered macro against one pushed to the far corner with
        // registers anchored by an added port on the left edge.
        let mut b = DesignBuilder::new("t2");
        let m2 = b.add_macro("ram", "RAM", 50_000, 50_000, "");
        let p = b.add_port("io", netlist::design::PortDirection::Input);
        b.place_port(p, Point::new(0, 200_000));
        for i in 0..32 {
            let f = b.add_flop(format!("data_reg[{i}]"), "");
            let n = b.add_net(format!("n{i}"));
            let n2 = b.add_net(format!("p{i}"));
            b.connect_driver(n, f);
            b.connect_sink(n, m2);
            b.connect_port_driver(n2, p);
            b.connect_sink(n2, f);
        }
        b.set_die(Rect::new(0, 0, 400_000, 400_000));
        let d2 = b.build();

        let near = at(m2, 20_000, 175_000);
        let far = at(m2, 350_000, 0);
        // one session across two candidates of the same design
        let mut evaluator = Evaluator::standard();
        let near_m = evaluator.evaluate(&d2, &near);
        let far_m = evaluator.evaluate(&d2, &far);
        assert!(near_m.hpwl.dbu < far_m.hpwl.dbu, "macro near its port should give lower HPWL");
        let _ = (d, m);
    }

    #[test]
    fn metrics_are_deterministic_across_sessions() {
        let (d, m) = design();
        let mp = at(m, 10_000, 10_000);
        let mut evaluator = Evaluator::standard();
        let a = evaluator.evaluate(&d, &mp);
        let b = evaluator.evaluate(&d, &mp);
        assert_eq!(a.hpwl, b.hpwl);
        assert_eq!(a.timing, b.timing);
        // a throwaway one-shot session produces bit-identical metrics
        let one_shot = Evaluator::new(EvalConfig::standard()).evaluate(&d, &mp);
        assert_eq!(one_shot, a);
    }

    #[test]
    fn session_cache_is_invalidated_across_designs() {
        let (d, m) = design();
        // a different design with the same name but different shape: the
        // macro feeds two distinct register arrays → two stage edges
        let mut b = DesignBuilder::new("t");
        let m2 = b.add_macro("ram2", "RAM", 50_000, 50_000, "");
        let f = b.add_flop("q_reg[0]", "");
        let g = b.add_flop("r_reg[0]", "");
        let n = b.add_net("n");
        let n2 = b.add_net("n2");
        b.connect_driver(n, m2);
        b.connect_sink(n, f);
        b.connect_driver(n2, m2);
        b.connect_sink(n2, g);
        b.set_die(Rect::new(0, 0, 400_000, 400_000));
        let d2 = b.build();

        let mut evaluator = Evaluator::standard();
        let mp = at(m, 10_000, 10_000);
        let first = evaluator.evaluate(&d, &mp);
        let mp2 = at(m2, 10_000, 10_000);
        let second = evaluator.evaluate(&d2, &mp2);
        // a stale cached graph would report the first design's edge count
        assert_eq!(first.timing.analyzed_edges, 1); // data_reg → ram
        assert_eq!(second.timing.analyzed_edges, 2); // ram2 → {q_reg, r_reg}
                                                     // and a fresh session on d2 agrees with the shared-session result
        assert_eq!(Evaluator::standard().evaluate(&d2, &mp2), second);
    }

    #[test]
    fn session_cache_rebuilds_for_rewired_design_with_identical_counts() {
        // same name, same cell/net/port/pin counts — only the wiring differs:
        // the macro's output either stays inside one array or fans out to two
        let build = |split: bool| {
            let mut b = DesignBuilder::new("t");
            let m = b.add_macro("ram", "RAM", 50_000, 50_000, "");
            let f = b.add_flop("q_reg[0]", "");
            let g = b.add_flop(if split { "r_reg[0]" } else { "q_reg[1]" }, "");
            let n = b.add_net("n");
            let n2 = b.add_net("n2");
            b.connect_driver(n, m);
            b.connect_sink(n, f);
            b.connect_driver(n2, m);
            b.connect_sink(n2, g);
            b.set_die(Rect::new(0, 0, 400_000, 400_000));
            (b.build(), m)
        };
        let (one_array, m1) = build(false);
        let (two_arrays, m2) = build(true);
        let mp = at(m1, 10_000, 10_000);
        let mut evaluator = Evaluator::standard();
        let first = evaluator.evaluate(&one_array, &mp);
        let mp2 = at(m2, 10_000, 10_000);
        let second = evaluator.evaluate(&two_arrays, &mp2);
        // a stale cached graph would leave the edge count at 1
        assert_eq!(first.timing.analyzed_edges, 1); // ram → q_reg (2 bits)
        assert_eq!(second.timing.analyzed_edges, 2); // ram → {q_reg, r_reg}
    }

    #[test]
    fn cloned_sessions_share_the_graph_cache() {
        let (d, m) = design();
        let evaluator = Evaluator::standard();
        let gseq = evaluator.seq_graph(&d);
        let clone = evaluator.clone();
        assert!(Arc::ptr_eq(&gseq, &clone.seq_graph(&d)));
        let mp = at(m, 10_000, 10_000);
        let mut a = evaluator;
        let mut b = clone;
        assert_eq!(a.evaluate(&d, &mp), b.evaluate(&d, &mp));
    }
}
