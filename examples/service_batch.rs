//! Multi-design batch placement through one `PlacementService`.
//!
//! Interns two workload presets into a shared `DesignStore`, submits a
//! heterogeneous pair of jobs (different designs × flows), drains the queue
//! and prints each job's metrics plus the store's artifact-cache statistics.
//! Submitting a design a second time reuses its interned handle and its
//! cached sequential graph — the service call shape for batch endpoints
//! placing several netlists through one engine.
//!
//! ```text
//! cargo run --release --example service_batch
//! ```

use eval::EvalConfig;
use placer_core::{EffortLevel, PlaceJob, PlacementService};
use workload::presets::{fig1_design, fig3_design};

fn main() {
    let mut service = PlacementService::new(baselines::default_registry());

    // Intern both presets: each design gets a cheap copyable handle, and its
    // derived graphs (Gnet, Gseq) will live in the store's byte-budgeted
    // artifact cache shared by every job.
    let fig1 = service.intern(fig1_design().design);
    let fig3 = service.intern(fig3_design());

    // Heterogeneous jobs through one queue: the paper's flow on one design,
    // the flat baseline on the other, plus a λ sweep revisiting the first
    // design (its cached artifacts are reused, its winner stays
    // deterministic regardless of queue order).
    let jobs = [
        service.submit(
            PlaceJob::new(fig1, "hidap")
                .with_effort(EffortLevel::Fast)
                .with_evaluation(EvalConfig::standard()),
        ),
        service.submit(
            PlaceJob::new(fig3, "indeda")
                .with_effort(EffortLevel::Fast)
                .with_evaluation(EvalConfig::standard()),
        ),
        service.submit(
            PlaceJob::new(fig1, "hidap")
                .with_effort(EffortLevel::Fast)
                .with_seeds(vec![1, 2])
                .with_lambdas(vec![0.2, 0.8])
                .with_evaluation(EvalConfig::standard()),
        ),
    ];

    let ran = service.run_all();
    println!("service drained {ran} jobs\n");

    for job in jobs {
        let result = service.take_result(job).expect("job ran").expect("job succeeded");
        let design = service.store().design(result.design);
        let outcome = &result.outcome;
        println!(
            "job {:>2}  {:<6} {:<6} seed {} ({} run{})",
            result.job.0,
            design.name(),
            outcome.flow,
            outcome.seed,
            result.runs.len(),
            if result.runs.len() == 1 { "" } else { "s" },
        );
        println!(
            "         {} macros, legal: {}",
            outcome.placement.macros.len(),
            outcome.placement.is_legal(design),
        );
        if let Some(metrics) = &outcome.metrics {
            println!(
                "         wirelength {:.4} m, GRC {:.2}%, WNS {:.2}%",
                metrics.wirelength_m,
                metrics.grc_percent(),
                metrics.wns_percent(),
            );
        }
    }

    let store = service.store();
    let stats = store.artifacts().stats();
    println!(
        "\nstore: {} designs interned; Gseq {} built, {} reused; Gnet {} built, {} reused; \
         {:.1} MiB resident",
        store.len(),
        stats.seq.misses,
        stats.seq.hits,
        stats.net.misses,
        stats.net.hits,
        store.resident_bytes() as f64 / (1u64 << 20) as f64,
    );
}
