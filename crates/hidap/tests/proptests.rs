//! Property-based tests of the placer's internal invariants.

use geometry::{CutDirection, NodeValues, Point, PolishExpression, Rect, ShapeCurve, SpanCache};
use hidap::layout::{
    budget_areas, evaluate_rects, wirelength_proxy, LayoutBlock, LayoutEvaluator, LayoutProblem,
};
use hidap::legalize::{legalize_macros, MacroFootprint, MacroFootprints};
use hidap::shape_curves::{compose_expression, macro_packing_curve};
use hidap::HidapConfig;
use netlist::design::DesignBuilder;
use proptest::prelude::*;
use rand::{ChaCha8Rng, Rng, SeedableRng};

fn soft_blocks(areas: &[i128]) -> Vec<LayoutBlock> {
    areas
        .iter()
        .map(|&a| LayoutBlock { shape: ShapeCurve::unconstrained(), min_area: a, target_area: a })
        .collect()
}

/// Macro packing as the annealer composes it: leaf curves, pruned cuts.
struct Packing<'a> {
    leaves: &'a [ShapeCurve],
    limit: usize,
}

impl NodeValues for Packing<'_> {
    type Value = ShapeCurve;
    fn leaf(&self, block: usize, out: &mut ShapeCurve) {
        out.clone_from(&self.leaves[block]);
    }
    fn cut(&self, cut: CutDirection, left: &ShapeCurve, right: &ShapeCurve, out: &mut ShapeCurve) {
        out.set_to_cut(cut, left, right, self.limit);
    }
}

/// A level with soft and hard blocks, affinities that include zero and
/// negative entries, and fixed nodes with and without a position.
fn random_problem(n: usize, fixed: usize, seed: u64) -> LayoutProblem {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let blocks = (0..n)
        .map(|_| {
            let target = rng.gen_range(500i128..40_000);
            if rng.gen_range(0..3) == 0 {
                let (w, h) = (rng.gen_range(10i64..120), rng.gen_range(10i64..120));
                let area = (w * h) as i128;
                LayoutBlock {
                    shape: ShapeCurve::from_macro(w, h, rng.gen_range(0..2) == 0),
                    min_area: area,
                    target_area: target.max(area),
                }
            } else {
                LayoutBlock {
                    shape: ShapeCurve::unconstrained(),
                    min_area: target,
                    target_area: target,
                }
            }
        })
        .collect();
    let total = n + fixed;
    let mut affinity = graphs::AffinityMatrix::zeros(total);
    for i in 0..total {
        for j in 0..total {
            if i != j && rng.gen_range(0..3) == 0 {
                affinity.set(i, j, rng.gen_range(-2.0..10.0));
            }
        }
    }
    let fixed_positions = (0..total)
        .map(|i| {
            (i >= n && rng.gen_range(0..4) != 0)
                .then(|| Point::new(rng.gen_range(-100i64..900), rng.gen_range(-100i64..900)))
        })
        .collect();
    LayoutProblem {
        region: Rect::new(0, 0, rng.gen_range(200i64..800), rng.gen_range(200i64..800)),
        blocks,
        affinity,
        fixed_positions,
    }
}

proptest! {
    #[test]
    fn packing_cache_matches_compose_expression_under_accept_and_reject(
        sizes in prop::collection::vec((1i64..40, 1i64..40), 2..14),
        seed in 0u64..1000,
        moves in 1usize..60,
        limit in 1usize..30,
    ) {
        let leaves: Vec<ShapeCurve> =
            sizes.iter().map(|&(w, h)| ShapeCurve::from_macro(w, h, w % 2 == 0)).collect();
        let packing = Packing { leaves: &leaves, limit };
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut expr = PolishExpression::chain(leaves.len(), CutDirection::Vertical);
        let mut cache = SpanCache::new();
        cache.rebuild(&expr, &packing);
        for _ in 0..moves {
            let before = expr.clone();
            let mv = expr.random_move(&mut rng);
            cache.update(&expr, mv, &packing);
            prop_assert_eq!(cache.root(), &compose_expression(&expr, &leaves, limit));
            if rng.gen_range(0..2) == 0 {
                cache.commit();
            } else {
                expr.undo(mv);
                prop_assert_eq!(&expr, &before);
                cache.discard();
                prop_assert_eq!(cache.root(), &compose_expression(&expr, &leaves, limit));
            }
        }
    }

    #[test]
    fn layout_evaluator_matches_budget_areas_and_evaluate_rects(
        n in 2usize..10,
        fixed in 0usize..4,
        seed in 0u64..1000,
        moves in 1usize..50,
    ) {
        let problem = random_problem(n, fixed, seed);
        let config = HidapConfig::fast();
        let mut evaluator = LayoutEvaluator::new(&problem, &config);
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x1a7);
        let mut expr = PolishExpression::chain(n, CutDirection::Vertical);
        let cost = evaluator.rebuild(&expr);
        prop_assert_eq!(evaluator.rects(), &budget_areas(&problem, &expr, &config)[..]);
        prop_assert_eq!(cost.to_bits(), evaluate_rects(&problem, evaluator.rects(), &config).0.to_bits());
        for _ in 0..moves {
            let before = expr.clone();
            let mv = expr.random_move(&mut rng);
            let cost = evaluator.try_move(&expr, mv);
            let rects = budget_areas(&problem, &expr, &config);
            prop_assert_eq!(evaluator.rects(), &rects[..]);
            let (want, penalty, wirelength) = evaluate_rects(&problem, &rects, &config);
            prop_assert_eq!(cost.to_bits(), want.to_bits());
            let scored = evaluator.score(&rects);
            prop_assert_eq!(
                (scored.0.to_bits(), scored.1.to_bits(), scored.2.to_bits()),
                (want.to_bits(), penalty.to_bits(), wirelength.to_bits())
            );
            if rng.gen_range(0..2) == 0 {
                evaluator.accept();
            } else {
                expr.undo(mv);
                prop_assert_eq!(&expr, &before);
                evaluator.reject();
            }
        }
    }

    #[test]
    fn sparse_wirelength_equals_the_dense_row_major_scan(
        n in 1usize..10,
        fixed in 0usize..5,
        seed in 0u64..1000,
    ) {
        let problem = random_problem(n, fixed, seed);
        let rects = budget_areas(&problem, &PolishExpression::chain(n, CutDirection::Horizontal), &HidapConfig::fast());
        let center = |j: usize| {
            if j < n {
                rects[j].center()
            } else {
                problem.fixed_positions[j].unwrap_or_else(|| problem.region.center())
            }
        };
        let mut dense = 0.0;
        for i in 0..n {
            for j in (i + 1)..problem.affinity.len() {
                let a = problem.affinity.get(i, j);
                if a > 0.0 {
                    dense += a * center(i).manhattan_distance(center(j)) as f64;
                }
            }
        }
        prop_assert_eq!(wirelength_proxy(&problem, &rects).to_bits(), dense.to_bits());
    }

    #[test]
    fn area_budgeting_partitions_the_region_exactly(
        areas in prop::collection::vec(100i128..50_000, 2..10),
        region_w in 100i64..2000,
        region_h in 100i64..2000,
        seed in 0u64..100,
    ) {
        let n = areas.len();
        let problem = LayoutProblem {
            region: Rect::new(0, 0, region_w, region_h),
            blocks: soft_blocks(&areas),
            affinity: graphs::AffinityMatrix::zeros(n),
            fixed_positions: vec![None; n],
        };
        // random but valid slicing expression
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut expr = PolishExpression::chain(n, CutDirection::Vertical);
        for _ in 0..20 {
            expr.random_move(&mut rng);
        }
        let rects = budget_areas(&problem, &expr, &HidapConfig::fast());
        prop_assert_eq!(rects.len(), n);
        // the region is exactly partitioned: total area matches and no overlaps
        let total: i128 = rects.iter().map(Rect::area).sum();
        prop_assert_eq!(total, problem.region.area());
        for i in 0..n {
            prop_assert!(problem.region.contains_rect(&rects[i]));
            for j in (i + 1)..n {
                prop_assert!(!rects[i].overlaps(&rects[j]), "blocks {i} and {j} overlap");
            }
        }
    }

    #[test]
    fn packing_curve_never_beats_total_area_and_always_fits_some_box(
        sizes in prop::collection::vec((5i64..60, 5i64..60), 1..6),
        seed in 0u64..50,
    ) {
        let leaves: Vec<ShapeCurve> = sizes.iter().map(|&(w, h)| ShapeCurve::from_macro(w, h, true)).collect();
        let total: i128 = sizes.iter().map(|&(w, h)| w as i128 * h as i128).sum();
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let curve = macro_packing_curve(&leaves, &HidapConfig::fast(), &mut rng);
        prop_assert!(curve.min_area() >= total);
        // the sum of all widths times the max height is always feasible (a row)
        let row_w: i64 = sizes.iter().map(|&(w, h)| w.max(h)).sum();
        let row_h: i64 = sizes.iter().map(|&(w, h)| w.max(h)).max().unwrap();
        prop_assert!(curve.fits(row_w, row_h) || curve.min_area() <= (row_w as i128 * row_h as i128));
    }

    #[test]
    fn legalization_always_produces_overlap_free_layouts(
        macros in prop::collection::vec((10i64..150, 10i64..150, 0i64..800, 0i64..800), 1..12),
    ) {
        let mut b = DesignBuilder::new("prop");
        let mut footprints = MacroFootprints::default();
        for (i, &(w, h, x, y)) in macros.iter().enumerate() {
            let id = b.add_macro(format!("m{i}"), "RAM", w, h, "");
            footprints.insert(id, MacroFootprint { location: Point::new(x, y), rotated: false });
        }
        b.set_die(Rect::new(0, 0, 1000, 1000));
        let design = b.build();
        legalize_macros(&design, design.die(), &mut footprints);
        let rects: Vec<Rect> = footprints.iter().map(|(c, fp)| fp.rect(&design, c)).collect();
        for (i, r) in rects.iter().enumerate() {
            prop_assert!(design.die().contains_rect(r), "macro {i} outside die: {r}");
            for (j, other) in rects.iter().enumerate().skip(i + 1) {
                prop_assert!(!r.overlaps(other), "macros {i} and {j} overlap");
            }
        }
    }
}
