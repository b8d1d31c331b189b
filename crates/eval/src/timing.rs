//! Static timing estimation on the sequential graph.
//!
//! Every edge of [`graphs::SeqGraph`] represents a single-cycle path between
//! two sequential elements (register array, macro or port).  Its delay is
//! modeled as a fixed logic delay plus a wire delay proportional to the
//! Manhattan distance between the placed positions of its endpoints — a
//! lumped-RC, buffered-wire approximation.  The slack of the edge is
//! `clock_period − delay`; the report aggregates:
//!
//! * **WNS%** — the worst negative slack as a percentage of the clock period
//!   (0 when all paths meet timing, negative otherwise, as in Table III),
//! * **TNS** — the sum of negative endpoint slacks (in picoseconds).

use crate::placer::CellPlacement;
use geometry::Point;
use graphs::{SeqGraph, SeqNodeId};
use netlist::dense::DenseMap;
use netlist::design::Design;

/// Configuration of the timing estimate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimingConfig {
    /// Clock period in picoseconds.
    pub clock_period_ps: f64,
    /// Fixed logic delay charged to every register-to-register stage, in ps.
    pub stage_delay_ps: f64,
    /// Wire delay per DBU of Manhattan distance, in ps (buffered-wire slope).
    pub wire_delay_ps_per_dbu: f64,
}

impl Default for TimingConfig {
    fn default() -> Self {
        Self { clock_period_ps: 1000.0, stage_delay_ps: 350.0, wire_delay_ps_per_dbu: 0.002 }
    }
}

/// The timing report of a placed design.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct TimingReport {
    /// Worst slack in picoseconds (positive when timing is met).
    pub worst_slack_ps: f64,
    /// Worst negative slack as a percentage of the clock period (≤ 0).
    pub wns_percent: f64,
    /// Total negative slack in picoseconds (≤ 0), summed over endpoints.
    pub tns_ps: f64,
    /// Number of timing endpoints with negative slack.
    pub failing_endpoints: usize,
    /// Number of stage edges analyzed.
    pub analyzed_edges: usize,
}

/// Runs the timing estimate for a placed design.
///
/// Node positions come from the standard-cell placement (the centroid of a
/// register array's bits) and fall back to the die center when unknown.
pub fn estimate_timing(
    design: &Design,
    gseq: &SeqGraph,
    placement: &CellPlacement,
    config: &TimingConfig,
) -> TimingReport {
    let die_center = design.die().center();
    let positions: DenseMap<SeqNodeId, Point> = DenseMap::from_fn(gseq.num_nodes(), |id| {
        node_position(design, gseq, id, placement).unwrap_or(die_center)
    });

    let mut worst_slack = f64::INFINITY;
    let mut analyzed = 0usize;
    // worst slack per endpoint (target node) for the TNS aggregation
    let mut endpoint_slack: Vec<f64> = vec![f64::INFINITY; gseq.num_nodes()];
    for src in 0..gseq.num_nodes() {
        for &(dst, _bits) in gseq.successors(SeqNodeId(src as u32)) {
            let dist = positions[SeqNodeId(src as u32)]
                .manhattan_distance(positions[SeqNodeId(dst as u32)]) as f64;
            let delay = config.stage_delay_ps + config.wire_delay_ps_per_dbu * dist;
            let slack = config.clock_period_ps - delay;
            worst_slack = worst_slack.min(slack);
            endpoint_slack[dst] = endpoint_slack[dst].min(slack);
            analyzed += 1;
        }
    }
    if analyzed == 0 {
        return TimingReport { worst_slack_ps: config.clock_period_ps, ..Default::default() };
    }
    let mut tns = 0.0;
    let mut failing = 0usize;
    for &s in &endpoint_slack {
        if s.is_finite() && s < 0.0 {
            tns += s;
            failing += 1;
        }
    }
    TimingReport {
        worst_slack_ps: worst_slack,
        wns_percent: (worst_slack.min(0.0) / config.clock_period_ps) * 100.0,
        tns_ps: tns,
        failing_endpoints: failing,
        analyzed_edges: analyzed,
    }
}

/// The placed position of a sequential node: mean of its member cell
/// positions (or port positions).
fn node_position(
    design: &Design,
    gseq: &SeqGraph,
    id: SeqNodeId,
    placement: &CellPlacement,
) -> Option<Point> {
    let node = gseq.node(id);
    let mut sum = (0i128, 0i128);
    let mut count = 0i128;
    for &c in &node.cells {
        if let Some(p) = placement.position(c) {
            sum.0 += p.x as i128;
            sum.1 += p.y as i128;
            count += 1;
        }
    }
    for &p in &node.ports {
        if let Some(pos) = design.port(p).position {
            sum.0 += pos.x as i128;
            sum.1 += pos.y as i128;
            count += 1;
        }
    }
    (count > 0).then(|| Point::new((sum.0 / count) as i64, (sum.1 / count) as i64))
}

#[cfg(test)]
mod tests {
    use super::*;
    use geometry::Rect;
    use graphs::seqgraph::SeqGraphConfig;
    use netlist::design::{CellId, Design, DesignBuilder};

    /// Two registers connected through one combinational stage.
    fn reg_to_reg(die: i64) -> (Design, CellId, CellId) {
        let mut b = DesignBuilder::new("t");
        let r0 = b.add_flop("r0_reg[0]", "");
        let r1 = b.add_flop("r1_reg[0]", "");
        let n = b.add_net("n");
        b.connect_driver(n, r0);
        b.connect_sink(n, r1);
        b.set_die(Rect::new(0, 0, die, die));
        (b.build(), r0, r1)
    }

    fn placement(pairs: &[(CellId, Point)]) -> CellPlacement {
        let mut p = CellPlacement::default();
        for &(c, pos) in pairs {
            p.set_position(c, pos);
        }
        p
    }

    #[test]
    fn short_path_meets_timing() {
        let (d, r0, r1) = reg_to_reg(1000);
        let gseq = SeqGraph::from_design(&d, &SeqGraphConfig::default());
        let p = placement(&[(r0, Point::new(0, 0)), (r1, Point::new(100, 0))]);
        let report = estimate_timing(&d, &gseq, &p, &TimingConfig::default());
        assert!(report.worst_slack_ps > 0.0);
        assert_eq!(report.wns_percent, 0.0);
        assert_eq!(report.tns_ps, 0.0);
        assert_eq!(report.failing_endpoints, 0);
    }

    #[test]
    fn long_path_violates_timing() {
        let (d, r0, r1) = reg_to_reg(1_000_000);
        let gseq = SeqGraph::from_design(&d, &SeqGraphConfig::default());
        let p = placement(&[(r0, Point::new(0, 0)), (r1, Point::new(900_000, 900_000))]);
        let report = estimate_timing(&d, &gseq, &p, &TimingConfig::default());
        assert!(report.worst_slack_ps < 0.0);
        assert!(report.wns_percent < 0.0);
        assert!(report.tns_ps < 0.0);
        assert_eq!(report.failing_endpoints, 1);
    }

    #[test]
    fn closer_placement_improves_slack() {
        let (d, r0, r1) = reg_to_reg(1_000_000);
        let gseq = SeqGraph::from_design(&d, &SeqGraphConfig::default());
        let far = placement(&[(r0, Point::new(0, 0)), (r1, Point::new(800_000, 800_000))]);
        let near = placement(&[(r0, Point::new(0, 0)), (r1, Point::new(100_000, 0))]);
        let cfg = TimingConfig::default();
        let far_r = estimate_timing(&d, &gseq, &far, &cfg);
        let near_r = estimate_timing(&d, &gseq, &near, &cfg);
        assert!(near_r.worst_slack_ps > far_r.worst_slack_ps);
    }

    #[test]
    fn empty_design_reports_clean_timing() {
        let d = DesignBuilder::new("t").build();
        let gseq = SeqGraph::from_design(&d, &SeqGraphConfig::default());
        let report =
            estimate_timing(&d, &gseq, &CellPlacement::default(), &TimingConfig::default());
        assert_eq!(report.analyzed_edges, 0);
        assert_eq!(report.wns_percent, 0.0);
    }

    #[test]
    fn tns_accumulates_multiple_failing_endpoints() {
        let mut b = DesignBuilder::new("t");
        let src = b.add_flop("src_reg[0]", "");
        let d1 = b.add_flop("far1_reg[0]", "");
        let d2 = b.add_flop("far2_reg[0]", "");
        let n1 = b.add_net("n1");
        let n2 = b.add_net("n2");
        b.connect_driver(n1, src);
        b.connect_sink(n1, d1);
        b.connect_driver(n2, src);
        b.connect_sink(n2, d2);
        b.set_die(Rect::new(0, 0, 2_000_000, 2_000_000));
        let d = b.build();
        let gseq = SeqGraph::from_design(&d, &SeqGraphConfig::default());
        let p = placement(&[
            (src, Point::new(0, 0)),
            (d1, Point::new(1_500_000, 0)),
            (d2, Point::new(0, 1_500_000)),
        ]);
        let report = estimate_timing(&d, &gseq, &p, &TimingConfig::default());
        assert_eq!(report.failing_endpoints, 2);
        assert!(report.tns_ps < report.worst_slack_ps, "TNS accumulates both endpoints");
    }
}
