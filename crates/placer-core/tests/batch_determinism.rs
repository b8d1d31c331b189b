//! The BatchRunner determinism guarantee: the same grid and base seed
//! produce the identical winner regardless of `jobs` / thread count.

use hidap::{HidapConfig, HidapFlow};
use placer_core::{BatchGrid, BatchOutcome, BatchRunner, PlaceContext, PlaceRequest};
use workload::presets::fig1_design;
use workload::{SocConfig, SocGenerator, SubsystemConfig};

fn run_with_jobs(design: &netlist::design::Design, grid: &BatchGrid, jobs: usize) -> BatchOutcome {
    let placer = HidapFlow::new(HidapConfig::fast());
    BatchRunner::new()
        .with_jobs(jobs)
        .run(&placer, &PlaceRequest::new(design), grid, &mut PlaceContext::new())
        .expect("batch succeeds")
}

#[test]
fn same_grid_same_winner_for_any_job_count() {
    let generated = fig1_design();
    let design = &generated.design;
    let grid = BatchGrid::new(vec![1, 2, 3], vec![0.2, 0.8]);

    let serial = run_with_jobs(design, &grid, 1);
    for jobs in [2, 4, 8] {
        let parallel = run_with_jobs(design, &grid, jobs);
        assert_eq!(serial.winner_index, parallel.winner_index, "jobs={jobs}");
        assert_eq!(serial.winner_score, parallel.winner_score, "jobs={jobs}");
        assert_eq!(serial.winner.placement, parallel.winner.placement, "jobs={jobs}");
        assert_eq!(serial.winner.seed, parallel.winner.seed, "jobs={jobs}");
        assert_eq!(serial.winner.lambda, parallel.winner.lambda, "jobs={jobs}");
        // every per-cell score matches, not just the winner
        let scores = |b: &BatchOutcome| b.runs.iter().map(|r| r.score).collect::<Vec<_>>();
        assert_eq!(scores(&serial), scores(&parallel), "jobs={jobs}");
    }
}

#[test]
fn derived_grids_give_identical_batches_across_thread_counts() {
    let generated = fig1_design();
    let design = &generated.design;
    // seeds derived from a base seed — the sweep mode the CLI uses
    let grid = BatchGrid::derived(99, 3, vec![0.2, 0.5]);
    assert_eq!(grid, BatchGrid::derived(99, 3, vec![0.2, 0.5]));

    let a = run_with_jobs(design, &grid, 1);
    let b = run_with_jobs(design, &grid, 6);
    assert_eq!(a.winner_index, b.winner_index);
    assert_eq!(a.winner.placement, b.winner.placement);
}

#[test]
fn repeated_batches_are_bit_identical() {
    let config = SocConfig {
        name: "det".into(),
        subsystems: vec![
            SubsystemConfig::balanced("u_a", 3, 8),
            SubsystemConfig::balanced("u_b", 3, 8),
        ],
        channels: vec![(0, 1)],
        io_subsystems: vec![0],
        io_bits: 8,
        utilization: 0.5,
        aspect_ratio: 1.0,
        seed: 17,
    };
    let generated = SocGenerator::new(config).generate();
    let grid = BatchGrid::new(vec![5, 6], vec![0.5]);
    let a = run_with_jobs(&generated.design, &grid, 4);
    let b = run_with_jobs(&generated.design, &grid, 4);
    assert_eq!(a.winner.placement, b.winner.placement);
    assert_eq!(
        a.runs.iter().map(|r| r.score).collect::<Vec<_>>(),
        b.runs.iter().map(|r| r.score).collect::<Vec<_>>()
    );
}
