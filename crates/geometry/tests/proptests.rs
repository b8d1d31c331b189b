//! Property-based tests of the geometric primitives.

use geometry::{
    CutDirection, Move, NodeValues, Orientation, Point, PolishExpression, PolishToken, Rect,
    ShapeCurve, SpanCache,
};
use proptest::prelude::*;
use proptest::test_runner::ProptestConfig;
use rand::{ChaCha8Rng, Rng, SeedableRng};

/// The composition as a definition: every pair of points combined, reduced
/// to its Pareto set. `ShapeCurve` composes with a linear merge instead; this
/// all-pairs product is the oracle it must equal.
fn all_pairs(a: &ShapeCurve, b: &ShapeCurve, side_by_side: bool) -> ShapeCurve {
    if a.is_unconstrained() {
        return b.clone();
    }
    if b.is_unconstrained() {
        return a.clone();
    }
    ShapeCurve::from_points(a.points().iter().flat_map(|&(w1, h1)| {
        b.points().iter().map(move |&(w2, h2)| {
            if side_by_side {
                (w1 + w2, h1.max(h2))
            } else {
                (w1.max(w2), h1 + h2)
            }
        })
    }))
}

/// Curves over a narrow coordinate range (equal widths and heights are
/// common) with up to `max_points` candidate points; zero points give the
/// unconstrained curve.
fn arb_curve(coord: i64, max_points: usize) -> impl Strategy<Value = ShapeCurve> {
    prop::collection::vec((1i64..coord, 1i64..coord), 0..max_points)
        .prop_map(ShapeCurve::from_points)
}

/// Leaf curves for the span-cache tests: rotatable and fixed macros.
fn leaf_curves(n: usize, seed: u64) -> Vec<ShapeCurve> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let (w, h) = (rng.gen_range(1i64..9), rng.gen_range(1i64..9));
            ShapeCurve::from_macro(w, h, rng.gen_range(0..2) == 0)
        })
        .collect()
}

/// Shape-curve packing as a [`NodeValues`]: leaves are the given curves,
/// cuts compose and prune.
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

/// The root curve of `expr`, evaluated on a stack in postfix order with the
/// all-pairs oracle.
fn oracle_root(expr: &PolishExpression, leaves: &[ShapeCurve], limit: usize) -> ShapeCurve {
    let mut stack: Vec<ShapeCurve> = Vec::new();
    for &token in expr.tokens() {
        let curve = match token {
            PolishToken::Operand(block) => leaves[block].clone(),
            PolishToken::Operator(cut) => {
                let right = stack.pop().expect("valid expression");
                let left = stack.pop().expect("valid expression");
                all_pairs(&left, &right, cut == CutDirection::Vertical).pruned(limit)
            }
        };
        stack.push(curve);
    }
    stack.pop().expect("valid expression")
}

/// FNV-1a over the tokens of every expression a move sequence visits.
/// Every `reject_every`-th move (0: none) is undone after it is hashed.
fn move_sequence_hash(n: usize, seed: u64, moves: usize, reject_every: usize) -> u64 {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut expr = PolishExpression::chain(n, CutDirection::Vertical);
    let mut hash = 0xcbf2_9ce4_8422_2325_u64;
    for step in 0..moves {
        let mv = expr.random_move(&mut rng);
        for t in expr.tokens() {
            let code = match *t {
                PolishToken::Operand(i) => i as u64,
                PolishToken::Operator(CutDirection::Vertical) => u64::MAX - 1,
                PolishToken::Operator(CutDirection::Horizontal) => u64::MAX,
            };
            for b in code.to_le_bytes() {
                hash ^= u64::from(b);
                hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        if reject_every > 0 && step % reject_every == 0 {
            expr.undo(mv);
        }
    }
    hash
}

/// The move sequences are pinned to the values the clone-and-restore
/// annealer produced, so in-place moves and `undo` draw exactly the same
/// random numbers over exactly the same ranges.
#[test]
fn random_move_sequences_are_pinned() {
    let cases = [(2, 1), (3, 2), (8, 3), (40, 4), (200, 5)];
    let pinned: [(usize, [u64; 5]); 3] = [
        (
            0,
            [
                0x6882_373a_26fa_5e24,
                0x5f2a_3da1_7f20_3225,
                0x4263_0adf_ad7c_c4e4,
                0xa65a_5eb1_8728_abc4,
                0xfc0b_0c27_9545_0355,
            ],
        ),
        (
            2,
            [
                0x13c0_b246_46b5_eea5,
                0x1000_921e_8049_4105,
                0x1170_6062_14c5_46e4,
                0x1364_a09b_f298_d114,
                0xf279_4383_65f3_8a15,
            ],
        ),
        (
            3,
            [
                0x6306_2be3_c835_cfa4,
                0x1b4d_764b_5c85_ba64,
                0x426c_18e3_aaa9_66a5,
                0x6fdc_1d20_eeff_8564,
                0xeb91_c5d1_7d6d_3404,
            ],
        ),
    ];
    for (reject_every, want) in pinned {
        let got = cases.map(|(n, seed)| move_sequence_hash(n, seed, 300, reject_every));
        assert_eq!(got, want, "move sequence moved (reject_every = {reject_every})");
    }
}

fn arb_rect() -> impl Strategy<Value = Rect> {
    (0i64..1000, 0i64..1000, 1i64..500, 1i64..500)
        .prop_map(|(x, y, w, h)| Rect::from_size(x, y, w, h))
}

proptest! {
    #[test]
    fn rect_intersection_is_contained_in_both(a in arb_rect(), b in arb_rect()) {
        if let Some(i) = a.intersection(&b) {
            prop_assert!(a.contains_rect(&i));
            prop_assert!(b.contains_rect(&i));
            prop_assert_eq!(i.area(), a.overlap_area(&b));
        } else {
            prop_assert_eq!(a.overlap_area(&b), 0);
        }
    }

    #[test]
    fn overlap_is_symmetric(a in arb_rect(), b in arb_rect()) {
        prop_assert_eq!(a.overlaps(&b), b.overlaps(&a));
        prop_assert_eq!(a.overlap_area(&b), b.overlap_area(&a));
    }

    #[test]
    fn splits_partition_area(r in arb_rect(), frac in 0.0f64..1.0) {
        let x = r.llx + ((r.width() as f64) * frac) as i64;
        let (l, rr) = r.split_vertical(x);
        prop_assert_eq!(l.area() + rr.area(), r.area());
        let y = r.lly + ((r.height() as f64) * frac) as i64;
        let (b, t) = r.split_horizontal(y);
        prop_assert_eq!(b.area() + t.area(), r.area());
    }

    #[test]
    fn manhattan_distance_satisfies_triangle_inequality(
        ax in -1000i64..1000, ay in -1000i64..1000,
        bx in -1000i64..1000, by in -1000i64..1000,
        cx in -1000i64..1000, cy in -1000i64..1000,
    ) {
        let a = Point::new(ax, ay);
        let b = Point::new(bx, by);
        let c = Point::new(cx, cy);
        prop_assert!(a.manhattan_distance(c) <= a.manhattan_distance(b) + b.manhattan_distance(c));
    }

    #[test]
    fn orientation_transform_preserves_footprint_membership(
        w in 1i64..200, h in 1i64..200, px in 0i64..200, py in 0i64..200,
    ) {
        let pin = Point::new(px.min(w), py.min(h));
        for o in Orientation::ALL {
            let (tw, th) = o.transformed_size(w, h);
            let p = o.transform_pin(pin, w, h);
            prop_assert!(p.x >= 0 && p.x <= tw);
            prop_assert!(p.y >= 0 && p.y <= th);
            // transformed footprint preserves area
            prop_assert_eq!(tw * th, w * h);
        }
    }

    #[test]
    fn shape_curve_points_are_pareto_minimal(
        points in prop::collection::vec((1i64..500, 1i64..500), 1..20)
    ) {
        let curve = ShapeCurve::from_points(points.clone());
        let pts = curve.points();
        // strictly increasing width, strictly decreasing height
        for pair in pts.windows(2) {
            prop_assert!(pair[0].0 < pair[1].0);
            prop_assert!(pair[0].1 > pair[1].1);
        }
        // every original point is dominated by (or equal to) some curve point
        for (w, h) in points {
            prop_assert!(curve.fits(w, h));
        }
    }

    #[test]
    fn shape_curve_composition_min_area_at_least_sum(
        a_pts in prop::collection::vec((1i64..100, 1i64..100), 1..6),
        b_pts in prop::collection::vec((1i64..100, 1i64..100), 1..6),
    ) {
        let a = ShapeCurve::from_points(a_pts);
        let b = ShapeCurve::from_points(b_pts);
        let h = a.compose_horizontal(&b);
        let v = a.compose_vertical(&b);
        // a packing of both can never use less area than the two smallest members
        prop_assert!(h.min_area() >= a.min_area() + b.min_area());
        prop_assert!(v.min_area() >= a.min_area() + b.min_area());
    }

    #[test]
    fn shape_curve_fits_is_monotone(
        pts in prop::collection::vec((1i64..300, 1i64..300), 1..10),
        w in 1i64..400, h in 1i64..400,
    ) {
        let curve = ShapeCurve::from_points(pts);
        if curve.fits(w, h) {
            prop_assert!(curve.fits(w + 10, h));
            prop_assert!(curve.fits(w, h + 10));
        }
    }

    #[test]
    fn polish_moves_preserve_validity_and_leaf_set(n in 2usize..12, seed in 0u64..500, moves in 1usize..60) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut expr = PolishExpression::chain(n, CutDirection::Vertical);
        for _ in 0..moves {
            expr.random_move(&mut rng);
            prop_assert!(expr.is_valid());
        }
        let mut leaves: Vec<usize> = expr
            .tokens()
            .iter()
            .filter_map(|t| match *t {
                PolishToken::Operand(block) => Some(block),
                PolishToken::Operator(_) => None,
            })
            .collect();
        leaves.sort_unstable();
        prop_assert_eq!(leaves, (0..n).collect::<Vec<_>>());
    }

    #[test]
    fn span_cache_tracks_moves_with_random_accept_and_reject(
        n in 2usize..14,
        seed in 0u64..1000,
        moves in 1usize..80,
        limit in 1usize..8,
    ) {
        let leaves = leaf_curves(n, seed);
        let packing = Packing { leaves: &leaves, limit };
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xace);
        let mut expr = PolishExpression::chain(n, CutDirection::Vertical);
        let mut cache = SpanCache::new();
        cache.rebuild(&expr, &packing);
        for _ in 0..moves {
            let before = expr.clone();
            let mv: Move = expr.random_move(&mut rng);
            prop_assert!(expr.is_valid());
            cache.update(&expr, mv, &packing);
            let mut fresh = SpanCache::new();
            fresh.rebuild(&expr, &packing);
            prop_assert_eq!(cache.root(), fresh.root());
            prop_assert_eq!(cache.root(), &oracle_root(&expr, &leaves, limit));
            for k in 0..expr.tokens().len() {
                prop_assert_eq!(cache.start(k), fresh.start(k), "start of token {}", k);
            }
            if rng.gen_range(0..2) == 0 {
                cache.commit();
            } else {
                expr.undo(mv);
                prop_assert_eq!(&expr, &before);
                cache.discard();
                fresh.rebuild(&expr, &packing);
                prop_assert_eq!(cache.root(), fresh.root());
            }
        }
    }

    #[test]
    fn local_operand_operator_check_agrees_with_is_valid(
        n in 2usize..12,
        seed in 0u64..1000,
        moves in 0usize..40,
    ) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut expr = PolishExpression::chain(n, CutDirection::Horizontal);
        for _ in 0..moves {
            expr.random_move(&mut rng);
        }
        let tokens = expr.tokens().to_vec();
        for i in 0..tokens.len() - 1 {
            if tokens[i].is_operand() == tokens[i + 1].is_operand() {
                continue;
            }
            let mut swapped = tokens.clone();
            swapped.swap(i, i + 1);
            prop_assert_eq!(
                expr.can_swap_operand_operator(i),
                PolishExpression::from_tokens(swapped).is_some(),
                "pair at {} of {:?}", i, tokens
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 4000 })]

    #[test]
    fn linear_merge_equals_the_all_pairs_product(
        a in arb_curve(12, 10),
        b in arb_curve(12, 10),
    ) {
        for side_by_side in [true, false] {
            let merged = if side_by_side { a.compose_horizontal(&b) } else { a.compose_vertical(&b) };
            let oracle = all_pairs(&a, &b, side_by_side);
            prop_assert_eq!(&merged, &oracle);
            prop_assert_eq!(merged.pruned(24), oracle.pruned(24));
        }
    }

    #[test]
    fn linear_merge_equals_the_all_pairs_product_on_long_curves(
        a in arb_curve(120, 60),
        b in arb_curve(120, 60),
        limit in 1usize..40,
    ) {
        for side_by_side in [true, false] {
            let merged = if side_by_side { a.compose_horizontal(&b) } else { a.compose_vertical(&b) };
            let oracle = all_pairs(&a, &b, side_by_side);
            prop_assert_eq!(&merged, &oracle);
            prop_assert_eq!(merged.clone().pruned(24), oracle.clone().pruned(24));
            prop_assert_eq!(merged.pruned(limit), oracle.pruned(limit));
        }
    }

    #[test]
    fn curve_queries_match_a_linear_scan(
        c in arb_curve(40, 30),
        w in 0i64..45,
        h in 0i64..45,
        limit in 0usize..30,
    ) {
        let pts = c.points();
        // pruning keeps `limit` evenly spread points, extremes included
        let kept: Vec<(i64, i64)> = if pts.len() <= limit || limit == 0 {
            pts.to_vec()
        } else {
            let mut kept: Vec<(i64, i64)> = (0..limit)
                .map(|i| pts[i * (pts.len() - 1) / (limit - 1).max(1)])
                .collect();
            kept.dedup();
            kept
        };
        let pruned = c.clone().pruned(limit);
        prop_assert_eq!(pruned.points(), &kept[..]);
        let fits = pts.is_empty() || pts.iter().any(|&(pw, ph)| pw <= w && ph <= h);
        prop_assert_eq!(c.fits(w, h), fits);
        let height = if pts.is_empty() {
            Some(0)
        } else {
            pts.iter().filter(|&&(pw, _)| pw <= w).map(|&(_, ph)| ph).min()
        };
        prop_assert_eq!(c.min_height_for_width(w), height);
        let width = if pts.is_empty() {
            Some(0)
        } else {
            pts.iter().filter(|&&(_, ph)| ph <= h).map(|&(pw, _)| pw).min()
        };
        prop_assert_eq!(c.min_width_for_height(h), width);
    }
}
