//! Golden fingerprints of warm ECO evaluation.
//!
//! Each session cold-places a preset through `PlacementService`, then chains
//! replace jobs, each applying one edit from `workload::random_edits` to the
//! interned design and warm-starting from the previous job. Per job the
//! fingerprint hashes the bits of every evaluation metric (HPWL, every
//! congestion and density bin, WNS/TNS) and every position of the warm
//! `CellPlacement`. Each replace job is also re-evaluated through
//! `Evaluator::evaluate_warm` from the base job's cells: the result must
//! equal the service's metrics, and the number of Gauss–Seidel sweeps it
//! reports is hashed too, as a work counter that does not depend on the
//! clock. A speedup of the warm placer or of the congestion and density
//! grids must leave every value below untouched.
//!
//! The `c1` session runs by default. The larger session (the
//! `large_soc_config(0.25)` design of the benchmark's `eco_session`) is
//! ignored; run it with
//!
//! ```sh
//! cargo test --release --test golden_eco -- --ignored
//! ```

use eval::{CellPlacement, EvalConfig, Evaluator, PlacementMetrics};
use netlist::design::Design;
use placer_core::{DesignHandle, EffortLevel, JobId, JobResult, PlaceJob, PlacementService};
use workload::presets::{generate_circuit, large_soc_config};
use workload::{random_edits, SocGenerator};

/// What one session pins: the fingerprint over every job, the summed sweep
/// count of the warm re-evaluations, and how many replace jobs were pure
/// geometry and how many rewired nets.
#[derive(Debug, PartialEq, Eq)]
struct Golden {
    fingerprint: u64,
    sweeps: usize,
    pure_geometry: usize,
    rewires: usize,
}

/// FNV-1a over a canonical byte encoding.
struct Fnv(u64);

impl Fnv {
    fn feed(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn f64(&mut self, v: f64) {
        self.feed(&v.to_bits().to_le_bytes());
    }

    fn metrics(&mut self, m: &PlacementMetrics) {
        self.feed(&m.hpwl.dbu.to_le_bytes());
        self.feed(&m.hpwl.routed_nets.to_le_bytes());
        self.f64(m.wirelength_m);
        self.f64(m.congestion.overflow_percent);
        self.f64(m.congestion.peak_utilization);
        m.congestion.utilization.iter().for_each(|&u| self.f64(u));
        m.density.density.iter().for_each(|&d| self.f64(d));
        self.f64(m.timing.worst_slack_ps);
        self.f64(m.timing.wns_percent);
        self.f64(m.timing.tns_ps);
        self.feed(&m.timing.failing_endpoints.to_le_bytes());
        for (cell, p) in m.cell_placement.placed() {
            self.feed(&cell.0.to_le_bytes());
            self.feed(&p.x.to_le_bytes());
            self.feed(&p.y.to_le_bytes());
        }
    }
}

fn job(design: DesignHandle) -> PlaceJob {
    PlaceJob::new(design, "hidap")
        .with_effort(EffortLevel::Fast)
        .with_evaluation(EvalConfig::standard())
}

fn take(service: &mut PlacementService, id: JobId) -> JobResult {
    service.take_result(id).expect("job ran").expect("job succeeded")
}

/// Cold-places `design`, then chains `jobs` single-edit replace jobs drawn
/// with seeds `seed`, `seed + 1`, … against the interned design as it stands.
///
/// Results are take-once and a replace needs its base held, so a job's
/// result is taken once the next replace has run. The design it placed is
/// snapshotted right after it ran, for its re-evaluation.
fn session(design: Design, seed: u64, jobs: usize) -> Golden {
    let mut service = PlacementService::new(baselines::default_registry()).with_jobs(1);
    let handle = service.intern(design);
    let mut base = service.submit(job(handle));
    service.run_all();

    let mut hash = Fnv(0xcbf2_9ce4_8422_2325);
    let mut golden = Golden { fingerprint: 0, sweeps: 0, pure_geometry: 0, rewires: 0 };
    let mut evaluator = Evaluator::new(EvalConfig::standard());
    // the design the held base placed and the cells its replace warmed from
    let mut pending: Option<(Design, CellPlacement)> = None;
    let mut record = |result: JobResult, pending: Option<(Design, CellPlacement)>| {
        let metrics = result.outcome.metrics.expect("every job evaluates");
        hash.metrics(&metrics);
        if let Some((design, warm)) = pending {
            if result.edit_log.expect("one edit applied").diff.is_pure_geometry() {
                golden.pure_geometry += 1;
            } else {
                golden.rewires += 1;
            }
            let (direct, sweeps) =
                evaluator.evaluate_warm(&design, &result.outcome.placement, &warm);
            assert_eq!(direct, metrics, "the service evaluates through evaluate_warm");
            hash.feed(&sweeps.to_le_bytes());
            golden.sweeps += sweeps;
        }
        metrics.cell_placement
    };
    for i in 0..jobs as u64 {
        let current = service.store().get_design(handle).expect("design stays resident");
        let edits = random_edits(current, seed + i, 1);
        let replace = service.submit(job(handle).with_replace(base, edits));
        service.run_all();
        let cells = record(take(&mut service, base), pending.take());
        let placed = service.store().get_design(handle).expect("design stays resident");
        pending = Some((placed.clone(), cells));
        base = replace;
    }
    record(take(&mut service, base), pending);
    golden.fingerprint = hash.0;
    golden
}

#[test]
fn c1_warm_eco_session_matches_its_golden_fingerprint() {
    let got = session(generate_circuit("c1").design, 3, 6);
    let want =
        Golden { fingerprint: 0xdd24_e488_de6f_4b52, sweeps: 49, pure_geometry: 5, rewires: 1 };
    assert_eq!(got, want, "warm ECO evaluation moved");
}

#[test]
#[ignore = "chains 40 replace jobs on a 25k-cell design; run in release"]
fn eco_session_design_matches_its_golden_fingerprint() {
    let mut config = large_soc_config(0.25);
    config.seed = 1;
    let got = session(SocGenerator::new(config).generate().design, 1, 40);
    let want =
        Golden { fingerprint: 0x83e4_df8b_389e_0f05, sweeps: 447, pure_geometry: 33, rewires: 7 };
    assert_eq!(got, want, "warm ECO evaluation moved");
}
