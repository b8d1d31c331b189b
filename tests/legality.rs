//! Property-based integration tests: for randomly parameterized synthetic
//! SoCs, every flow must produce a legal placement (no overlaps, everything
//! inside the die) and the evaluation metrics must stay in range.

use hidap::{HidapConfig, HidapFlow};
use proptest::prelude::*;
use workload::{SocConfig, SocGenerator, SubsystemConfig};

fn arbitrary_soc() -> impl Strategy<Value = SocConfig> {
    (
        2usize..4, // number of subsystems
        1usize..5, // macros per subsystem
        prop::sample::select(vec![4usize, 8, 16]),
        0.3f64..0.65, // utilization
        1u64..1000,   // seed
    )
        .prop_map(|(subs, macros, bits, utilization, seed)| SocConfig {
            name: "prop_soc".into(),
            subsystems: (0..subs)
                .map(|i| {
                    // Macro footprints are kept well below the die dimensions
                    // (as in real SoCs) so that dies are always several macros
                    // wide; single-macro-wide dies are a packing corner case
                    // outside the placer's contract.
                    let mut sub = SubsystemConfig::balanced(format!("u_s{i}"), macros, bits);
                    sub.macro_size = (24_000, 16_000);
                    sub
                })
                .collect(),
            channels: (0..subs).map(|i| (i, (i + 1) % subs)).collect(),
            io_subsystems: vec![0],
            io_bits: bits,
            utilization,
            aspect_ratio: 1.2,
            seed,
        })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 8 })]

    #[test]
    fn hidap_always_produces_legal_placements(config in arbitrary_soc()) {
        let generated = SocGenerator::new(config).generate();
        let design = &generated.design;
        prop_assert!(design.validate().is_ok());
        let placement = HidapFlow::new(HidapConfig::fast()).run(design).expect("flow");
        prop_assert_eq!(placement.macros.len(), design.num_macros());
        prop_assert!(placement.is_legal(design), "overlap area {}", placement.total_overlap(design));
    }

    #[test]
    fn baseline_always_produces_legal_placements(config in arbitrary_soc()) {
        let generated = SocGenerator::new(config).generate();
        let design = &generated.design;
        let placement = baselines::IndEda::new(baselines::IndEdaConfig::fast())
            .run(design)
            .expect("baseline flow");
        prop_assert!(placement.is_legal(design));
    }

    #[test]
    fn metrics_stay_in_range(config in arbitrary_soc()) {
        let generated = SocGenerator::new(config).generate();
        let design = &generated.design;
        let placement = HidapFlow::new(HidapConfig::fast()).run(design).expect("flow");
        let metrics = eval::Evaluator::standard().evaluate(design, &placement);
        prop_assert!(metrics.wirelength_m >= 0.0);
        prop_assert!((0.0..=100.0).contains(&metrics.grc_percent()));
        prop_assert!(metrics.wns_percent() <= 0.0);
        prop_assert!(metrics.tns_ns() <= 0.0);
        prop_assert!(metrics.density.peak() >= 0.0);
    }
}
