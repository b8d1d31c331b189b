//! Wall-clock evidence for the parallel batch engine: a multi-seed sweep on
//! a multi-core machine must be several times faster than the serial
//! equivalent (the seed's `HandFp`/best-of-λ loops ran every candidate one
//! after another).
//!
//! Ignored by default (it is a timing measurement, not a correctness test);
//! run it with:
//!
//! ```text
//! cargo test --release -p placer-core --test batch_speedup -- --ignored --nocapture
//! ```

use hidap::{HidapConfig, HidapFlow};
use placer_core::{BatchGrid, BatchRunner, PlaceContext, PlaceRequest};
use std::time::Instant;
use workload::presets::generate_circuit;

#[test]
#[ignore = "timing demonstration; run explicitly with --ignored --nocapture"]
fn parallel_sweep_beats_serial_sweep() {
    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let generated = generate_circuit("c3");
    let design = &generated.design;
    // 8 seeds × 2 λ = 16 candidates, the shape of a handFP-style sweep
    let grid = BatchGrid::new((1..=8).collect(), vec![0.2, 0.8]);
    let placer = HidapFlow::new(HidapConfig::fast());
    let runner = |jobs: usize| BatchRunner::new().with_jobs(jobs);

    // warm-up so allocator/page-cache effects don't skew the serial baseline
    runner(1)
        .run(
            &placer,
            &PlaceRequest::new(design),
            &BatchGrid::new(vec![1], vec![0.5]),
            &mut PlaceContext::new(),
        )
        .expect("warm-up");

    let t = Instant::now();
    let serial = runner(1)
        .run(&placer, &PlaceRequest::new(design), &grid, &mut PlaceContext::new())
        .expect("serial sweep");
    let serial_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let parallel = runner(0)
        .run(&placer, &PlaceRequest::new(design), &grid, &mut PlaceContext::new())
        .expect("parallel sweep");
    let parallel_s = t.elapsed().as_secs_f64();

    let speedup = serial_s / parallel_s.max(1e-9);
    println!(
        "batch sweep on {} candidates, {cores} cores: serial {serial_s:.2} s, parallel {parallel_s:.2} s, speedup {speedup:.2}x",
        grid.len(),
    );

    // determinism holds no matter the worker count
    assert_eq!(serial.winner_index, parallel.winner_index);
    assert_eq!(serial.winner.placement, parallel.winner.placement);

    if cores >= 8 {
        assert!(
            speedup >= 3.0,
            "expected >= 3x speedup on {cores} cores, measured {speedup:.2}x (serial {serial_s:.2} s, parallel {parallel_s:.2} s)"
        );
    } else if cores >= 2 {
        assert!(speedup >= 1.3, "expected parallel win on {cores} cores, measured {speedup:.2}x");
    }
}
