//! Layout generation (Sect. IV-E): slicing-tree simulated annealing with
//! top-down area budgeting.
//!
//! The layout of one floorplanning level is represented by a normalized
//! Polish expression over the level's blocks.  Because block shapes are not
//! fixed a priori, the assigned region is treated as a *budget*: every cut
//! splits its rectangle proportionally to the target areas of the two
//! subtrees, so the layout always uses exactly the area it was given.  When a
//! subtree's macros do not fit in their allotted rectangle, area is moved
//! from the sibling and a penalty is charged depending on the severity of the
//! violation (target area < minimum area < macro area).
//!
//! The annealer minimizes `penalty · Σ affinity(i,j) · distance(i,j)` where
//! distance is measured between block centers (and to the fixed positions of
//! ports and already-placed context blocks).

use crate::config::HidapConfig;
use geometry::{
    CutDirection, Move, NodeValues, Point, PolishExpression, PolishToken, Rect, ShapeCurve,
    SpanCache,
};
use graphs::AffinityMatrix;
use rand::Rng;

/// A block as seen by layout generation: the ⟨Γ, am, at⟩ triple.
#[derive(Debug, Clone, PartialEq)]
pub struct LayoutBlock {
    /// Shape curve of the block's macros.
    pub shape: ShapeCurve,
    /// Minimum area `am` in DBU².
    pub min_area: i128,
    /// Target area `at` in DBU².
    pub target_area: i128,
}

/// The input of layout generation for one level.
#[derive(Debug, Clone, PartialEq)]
pub struct LayoutProblem {
    /// The rectangle the blocks must fill.
    pub region: Rect,
    /// The movable blocks. Their indices are dataflow nodes `0..blocks.len()`.
    pub blocks: Vec<LayoutBlock>,
    /// Symmetric affinity matrix over movable blocks followed by fixed nodes
    /// (flat row-major storage).
    pub affinity: AffinityMatrix,
    /// Position of each fixed node (entries `blocks.len()..affinity.len()`);
    /// entries for movable blocks are ignored.
    pub fixed_positions: Vec<Option<Point>>,
}

/// The result of layout generation.
#[derive(Debug, Clone, PartialEq)]
pub struct LayoutResult {
    /// One rectangle per movable block, filling the region exactly.
    pub rects: Vec<Rect>,
    /// Final value of the (penalized) cost function.
    pub cost: f64,
    /// Final penalty multiplier (1.0 for a fully legal layout).
    pub penalty: f64,
    /// The wirelength proxy Σ affinity · distance without the penalty.
    pub wirelength: f64,
}

/// Violation totals collected while budgeting areas top-down.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
struct Violations {
    /// Area by which blocks fell short of their target area.
    target_area: f64,
    /// Area by which blocks fell short of their minimum area.
    min_area: f64,
    /// Area by which macro shape curves do not fit their rectangles.
    macro_area: f64,
}

/// Generates the layout of a set of blocks by simulated annealing.
///
/// For zero blocks the result is empty; for a single block the region is
/// assigned to it directly.
pub fn generate_layout<R: Rng + ?Sized>(
    problem: &LayoutProblem,
    config: &HidapConfig,
    rng: &mut R,
) -> LayoutResult {
    let n = problem.blocks.len();
    if n == 0 {
        return LayoutResult { rects: Vec::new(), cost: 0.0, penalty: 1.0, wirelength: 0.0 };
    }
    if n == 1 {
        let rects = vec![problem.region];
        let (cost, penalty, wl) = evaluate_rects(problem, &rects, config);
        return LayoutResult { rects, cost, penalty, wirelength: wl };
    }

    let mut expr = PolishExpression::chain(n, CutDirection::Vertical);
    let mut evaluator = LayoutEvaluator::new(problem, config);
    let mut current_cost = evaluator.rebuild(&expr);
    let mut best_cost = current_cost;
    let mut best_rects = evaluator.rects().to_vec();

    // Calibrate the initial temperature from the magnitude of random move
    // deltas along a walk that keeps every move.
    let mut deltas = Vec::new();
    let mut probe = expr.clone();
    for _ in 0..(4 * n).max(16) {
        let mv = probe.random_move(rng);
        let c = evaluator.try_move(&probe, mv);
        evaluator.accept();
        deltas.push((c - current_cost).abs());
    }
    // the walk left the evaluator on `probe`; the annealing starts from `expr`
    evaluator.rebuild(&expr);
    let avg_delta = deltas.iter().sum::<f64>() / deltas.len() as f64;
    let mut temperature =
        if avg_delta > 0.0 { -avg_delta / config.sa_initial_acceptance.ln() } else { 1.0 };

    let moves_per_step = config.sa_moves_per_block * n;
    for _ in 0..config.sa_temperature_steps {
        for _ in 0..moves_per_step {
            let mv = expr.random_move(rng);
            let cost = evaluator.try_move(&expr, mv);
            let delta = cost - current_cost;
            if delta <= 0.0 || rng.gen::<f64>() < (-delta / temperature.max(1e-9)).exp() {
                evaluator.accept();
                current_cost = cost;
                if current_cost < best_cost {
                    best_cost = current_cost;
                    best_rects.copy_from_slice(evaluator.rects());
                }
            } else {
                expr.undo(mv);
                evaluator.reject();
            }
        }
        temperature *= config.sa_cooling;
    }

    let (cost, penalty, wl) = evaluator.score(&best_rects);
    debug_assert!((cost - best_cost).abs() < 1e-6 || best_cost <= cost);
    LayoutResult { rects: best_rects, cost, penalty, wirelength: wl }
}

/// Incremental evaluation of one level's layout candidates.
///
/// The bottom-up budget of every slicing node (summed target area and
/// composed shape curve) lives in a [`SpanCache`], so a move recomposes only
/// the nodes around the tokens it touched. The top-down area budgeting and
/// the cost then run over reused buffers. The nonzero affinities are listed
/// once, in the row-major order of the dense matrix, so the wirelength adds
/// exactly the terms a scan of the matrix adds, in the same order, and the
/// cost equals [`budget_areas`] followed by [`evaluate_rects`] bit for bit.
pub struct LayoutEvaluator<'a> {
    problem: &'a LayoutProblem,
    config: &'a HidapConfig,
    budgets: SpanCache<Budget>,
    /// Nonzero affinities `(i, j, a)` with movable `i < j`, row-major.
    edges: Vec<(usize, usize, f64)>,
    /// Block centers followed by the positions of the fixed nodes.
    centers: Vec<Point>,
    rects: Vec<Rect>,
}

impl<'a> LayoutEvaluator<'a> {
    /// An evaluator for `problem`; [`LayoutEvaluator::rebuild`] sets its
    /// first expression.
    pub fn new(problem: &'a LayoutProblem, config: &'a HidapConfig) -> Self {
        let rects = vec![problem.region; problem.blocks.len()];
        Self {
            problem,
            config,
            budgets: SpanCache::new(),
            edges: affinity_edges(problem),
            centers: node_centers(problem, &rects),
            rects,
        }
    }

    /// Evaluates `expr` from scratch and makes it the current expression.
    /// Returns its cost.
    pub fn rebuild(&mut self, expr: &PolishExpression) -> f64 {
        self.budgets.rebuild(expr, &self.budgeting());
        self.evaluate(expr)
    }

    /// Evaluates `expr`, the current expression with `mv` applied, and
    /// returns its cost. Settle the move with [`LayoutEvaluator::accept`] or
    /// [`LayoutEvaluator::reject`].
    pub fn try_move(&mut self, expr: &PolishExpression, mv: Move) -> f64 {
        self.budgets.update(expr, mv, &self.budgeting());
        self.evaluate(expr)
    }

    /// Makes the last evaluated move part of the current expression.
    pub fn accept(&mut self) {
        self.budgets.commit();
    }

    /// Forgets the last evaluated move (the caller undoes it on the expression).
    pub fn reject(&mut self) {
        self.budgets.discard();
    }

    /// The block rectangles of the last evaluated expression.
    pub fn rects(&self) -> &[Rect] {
        &self.rects
    }

    /// `(cost, penalty, wirelength)` of a set of block rectangles, as
    /// [`evaluate_rects`] computes it.
    pub fn score(&mut self, rects: &[Rect]) -> (f64, f64, f64) {
        set_block_centers(&mut self.centers, rects);
        score(self.problem, self.config, rects, &self.edges, &self.centers)
    }

    fn budgeting(&self) -> Budgeting<'a> {
        Budgeting { blocks: &self.problem.blocks, limit: self.config.shape_curve_limit }
    }

    fn evaluate(&mut self, expr: &PolishExpression) -> f64 {
        assign_rects(self.problem.region, expr, &self.budgets, &mut self.rects);
        set_block_centers(&mut self.centers, &self.rects);
        score(self.problem, self.config, &self.rects, &self.edges, &self.centers).0
    }
}

/// Computes the block rectangles implied by a Polish expression via top-down
/// area budgeting.
pub fn budget_areas(
    problem: &LayoutProblem,
    expr: &PolishExpression,
    config: &HidapConfig,
) -> Vec<Rect> {
    let mut budgets = SpanCache::new();
    budgets.rebuild(expr, &Budgeting { blocks: &problem.blocks, limit: config.shape_curve_limit });
    let mut rects = vec![problem.region; problem.blocks.len()];
    assign_rects(problem.region, expr, &budgets, &mut rects);
    rects
}

/// Bottom-up characterization of a slicing subtree: its summed target area
/// and the shape curve of its macros.
#[derive(Debug, Default)]
struct Budget {
    target: f64,
    shape: ShapeCurve,
}

/// Computes [`Budget`]s from the level's blocks, pruning curves to `limit`.
struct Budgeting<'a> {
    blocks: &'a [LayoutBlock],
    limit: usize,
}

impl NodeValues for Budgeting<'_> {
    type Value = Budget;

    fn leaf(&self, block: usize, out: &mut Budget) {
        let block = &self.blocks[block];
        out.target = block.target_area.max(1) as f64;
        out.shape.clone_from(&block.shape);
    }

    fn cut(&self, cut: CutDirection, left: &Budget, right: &Budget, out: &mut Budget) {
        out.target = left.target + right.target;
        out.shape.set_to_cut(cut, &left.shape, &right.shape, self.limit);
    }
}

/// Splits `region` top-down over the slicing tree of `expr`, writing one
/// rectangle per block into `rects`.
fn assign_rects(
    region: Rect,
    expr: &PolishExpression,
    budgets: &SpanCache<Budget>,
    rects: &mut [Rect],
) {
    // The region is a budget: scale target areas so they fill it exactly.
    let region_area = region.area() as f64;
    let total_target: f64 = budgets.root().target.max(1.0);
    let scale = region_area / total_target;
    assign(expr.tokens(), budgets, expr.tokens().len() - 1, region, scale, rects);
}

fn assign(
    tokens: &[PolishToken],
    budgets: &SpanCache<Budget>,
    k: usize,
    rect: Rect,
    scale: f64,
    rects: &mut [Rect],
) {
    let cut = match tokens[k] {
        PolishToken::Operand(block) => {
            rects[block] = rect;
            return;
        }
        PolishToken::Operator(cut) => cut,
    };
    let (left, right) = (budgets.start(k - 1) - 1, k - 1);
    let (l, r) = (budgets.value(left), budgets.value(right));
    let t_left = l.target * scale;
    let t_right = r.target * scale;
    let total = (t_left + t_right).max(1.0);
    match cut {
        CutDirection::Vertical => {
            let width = rect.width();
            let mut w_left = ((width as f64) * t_left / total).round() as i64;
            // Shape-curve driven adjustment: move area between the two
            // children if a child's macros cannot fit in its share.
            let h = rect.height();
            let need_left = l.shape.min_width_for_height(h).unwrap_or(width);
            let need_right = r.shape.min_width_for_height(h).unwrap_or(width);
            if w_left < need_left {
                w_left = need_left.min(width - need_right).max(w_left);
            }
            if width - w_left < need_right {
                let w_right = need_right.min(width - need_left).max(width - w_left);
                w_left = width - w_right;
            }
            let w_left = w_left.clamp(0, width);
            let x = rect.llx + w_left;
            let (lr, rr) = rect.split_vertical(x);
            assign(tokens, budgets, left, lr, scale, rects);
            assign(tokens, budgets, right, rr, scale, rects);
        }
        CutDirection::Horizontal => {
            let height = rect.height();
            let mut h_bottom = ((height as f64) * t_left / total).round() as i64;
            let w = rect.width();
            let need_bottom = l.shape.min_height_for_width(w).unwrap_or(height);
            let need_top = r.shape.min_height_for_width(w).unwrap_or(height);
            if h_bottom < need_bottom {
                h_bottom = need_bottom.min(height - need_top).max(h_bottom);
            }
            if height - h_bottom < need_top {
                let h_top = need_top.min(height - need_bottom).max(height - h_bottom);
                h_bottom = height - h_top;
            }
            let h_bottom = h_bottom.clamp(0, height);
            let y = rect.lly + h_bottom;
            let (b, t) = rect.split_horizontal(y);
            assign(tokens, budgets, left, b, scale, rects);
            assign(tokens, budgets, right, t, scale, rects);
        }
    }
}

/// Evaluates a set of block rectangles: returns `(cost, penalty, wirelength)`.
pub fn evaluate_rects(
    problem: &LayoutProblem,
    rects: &[Rect],
    config: &HidapConfig,
) -> (f64, f64, f64) {
    score(problem, config, rects, &affinity_edges(problem), &node_centers(problem, rects))
}

fn score(
    problem: &LayoutProblem,
    config: &HidapConfig,
    rects: &[Rect],
    edges: &[(usize, usize, f64)],
    centers: &[Point],
) -> (f64, f64, f64) {
    let violations = collect_violations(problem, rects);
    let region_area = (problem.region.area() as f64).max(1.0);
    let penalty = 1.0
        + config.penalty_target_area * violations.target_area / region_area
        + config.penalty_min_area * violations.min_area / region_area
        + config.penalty_macro * violations.macro_area / region_area;
    let wirelength = sum_wirelength(edges, centers);
    (wirelength * penalty, penalty, wirelength)
}

fn collect_violations(problem: &LayoutProblem, rects: &[Rect]) -> Violations {
    let mut v = Violations::default();
    for (block, rect) in problem.blocks.iter().zip(rects) {
        let area = rect.area() as f64;
        let target = block.target_area as f64;
        let min = block.min_area as f64;
        if area < target {
            v.target_area += target - area;
        }
        if area < min {
            v.min_area += min - area;
        }
        if !block.shape.fits(rect.width(), rect.height()) {
            // severity: how much macro area does not fit
            let macro_area = block.shape.min_area() as f64;
            let deficit = (macro_area - area).max(macro_area * 0.25);
            v.macro_area += deficit;
        }
    }
    v
}

/// The Σ affinity · distance objective over block centers and fixed nodes.
pub fn wirelength_proxy(problem: &LayoutProblem, rects: &[Rect]) -> f64 {
    sum_wirelength(&affinity_edges(problem), &node_centers(problem, rects))
}

/// The nonzero affinities `(i, j, a)` between a movable block `i` and any
/// later node `j`, in the row-major order of the dense matrix.
fn affinity_edges(problem: &LayoutProblem) -> Vec<(usize, usize, f64)> {
    let total_nodes = problem.affinity.len();
    let mut edges = Vec::new();
    for i in 0..problem.blocks.len() {
        let row = problem.affinity.row(i);
        for (j, &a) in row.iter().enumerate().take(total_nodes).skip(i + 1) {
            if a > 0.0 {
                edges.push((i, j, a));
            }
        }
    }
    edges
}

/// The center of every block rectangle, followed by the position of every
/// fixed node (the region center for fixed nodes without one).
fn node_centers(problem: &LayoutProblem, rects: &[Rect]) -> Vec<Point> {
    let mut centers: Vec<Point> = rects.iter().map(Rect::center).collect();
    for idx in problem.blocks.len()..problem.affinity.len() {
        centers.push(
            problem
                .fixed_positions
                .get(idx)
                .copied()
                .flatten()
                .unwrap_or_else(|| problem.region.center()),
        );
    }
    centers
}

/// Overwrites the block prefix of `centers` with the centers of `rects`.
fn set_block_centers(centers: &mut [Point], rects: &[Rect]) {
    for (center, rect) in centers.iter_mut().zip(rects) {
        *center = rect.center();
    }
}

fn sum_wirelength(edges: &[(usize, usize, f64)], centers: &[Point]) -> f64 {
    let mut wl = 0.0;
    for &(i, j, a) in edges {
        wl += a * centers[i].manhattan_distance(centers[j]) as f64;
    }
    wl
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{ChaCha8Rng, SeedableRng};

    fn soft_block(target: i128) -> LayoutBlock {
        LayoutBlock { shape: ShapeCurve::unconstrained(), min_area: target, target_area: target }
    }

    fn hard_block(w: i64, h: i64) -> LayoutBlock {
        LayoutBlock {
            shape: ShapeCurve::from_macro(w, h, true),
            min_area: (w * h) as i128,
            target_area: (w * h) as i128,
        }
    }

    fn no_affinity(n: usize) -> (AffinityMatrix, Vec<Option<Point>>) {
        (AffinityMatrix::zeros(n), vec![None; n])
    }

    #[test]
    fn empty_and_single_block() {
        let (aff, fixed) = no_affinity(0);
        let p = LayoutProblem {
            region: Rect::new(0, 0, 100, 100),
            blocks: vec![],
            affinity: aff,
            fixed_positions: fixed,
        };
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        assert!(generate_layout(&p, &HidapConfig::fast(), &mut rng).rects.is_empty());

        let (aff, fixed) = no_affinity(1);
        let p = LayoutProblem {
            region: Rect::new(0, 0, 100, 100),
            blocks: vec![soft_block(5000)],
            affinity: aff,
            fixed_positions: fixed,
        };
        let r = generate_layout(&p, &HidapConfig::fast(), &mut rng);
        assert_eq!(r.rects, vec![Rect::new(0, 0, 100, 100)]);
    }

    #[test]
    fn rects_partition_the_region() {
        let (aff, fixed) = no_affinity(4);
        let p = LayoutProblem {
            region: Rect::new(0, 0, 120, 90),
            blocks: vec![soft_block(2700), soft_block(2700), soft_block(2700), soft_block(2700)],
            affinity: aff,
            fixed_positions: fixed,
        };
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let r = generate_layout(&p, &HidapConfig::fast(), &mut rng);
        let total: i128 = r.rects.iter().map(Rect::area).sum();
        assert_eq!(total, 120 * 90, "area budget fully used");
        // no two rects overlap
        for i in 0..4 {
            for j in (i + 1)..4 {
                assert!(!r.rects[i].overlaps(&r.rects[j]));
            }
        }
        // rects stay inside the region
        for rect in &r.rects {
            assert!(p.region.contains_rect(rect));
        }
    }

    #[test]
    fn proportional_budgeting_without_macros() {
        let (aff, fixed) = no_affinity(2);
        let p = LayoutProblem {
            region: Rect::new(0, 0, 100, 100),
            blocks: vec![soft_block(7500), soft_block(2500)],
            affinity: aff,
            fixed_positions: fixed,
        };
        let expr = PolishExpression::chain(2, CutDirection::Vertical);
        let rects = budget_areas(&p, &expr, &HidapConfig::fast());
        assert_eq!(rects[0].area(), 7500);
        assert_eq!(rects[1].area(), 2500);
    }

    #[test]
    fn macro_block_gets_enough_space() {
        // one block holds an 80x30 macro, the other is soft; naive
        // proportional split of a 100x50 region would give the macro block
        // only half the width, the shape-curve adjustment must widen it.
        let (aff, fixed) = no_affinity(2);
        let p = LayoutProblem {
            region: Rect::new(0, 0, 100, 50),
            blocks: vec![hard_block(80, 30), soft_block(2400)],
            affinity: aff,
            fixed_positions: fixed,
        };
        let expr = PolishExpression::chain(2, CutDirection::Vertical);
        let rects = budget_areas(&p, &expr, &HidapConfig::fast());
        assert!(
            p.blocks[0].shape.fits(rects[0].width(), rects[0].height()),
            "macro must fit its rect {:?}",
            rects[0]
        );
    }

    #[test]
    fn affinity_pulls_connected_blocks_together() {
        // 4 equal blocks; blocks 0 and 3 are strongly connected, the rest not.
        let n = 4;
        let mut aff = AffinityMatrix::zeros(n);
        aff.set(0, 3, 100.0);
        aff.set(3, 0, 100.0);
        let p = LayoutProblem {
            region: Rect::new(0, 0, 200, 200),
            blocks: (0..n).map(|_| soft_block(10_000)).collect(),
            affinity: aff,
            fixed_positions: vec![None; n],
        };
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let r = generate_layout(&p, &HidapConfig::fast(), &mut rng);
        let d03 = r.rects[0].center_distance(&r.rects[3]);
        let d01 = r.rects[0].center_distance(&r.rects[1]);
        let d02 = r.rects[0].center_distance(&r.rects[2]);
        assert!(
            d03 <= d01.max(d02),
            "connected blocks should end up adjacent: d03={d03} d01={d01} d02={d02}"
        );
    }

    #[test]
    fn fixed_node_attracts_block() {
        // two blocks, block 0 strongly tied to a fixed node at the left edge
        let total = 3;
        let mut aff = AffinityMatrix::zeros(total);
        aff.set(0, 2, 50.0);
        aff.set(2, 0, 50.0);
        let p = LayoutProblem {
            region: Rect::new(0, 0, 300, 100),
            blocks: vec![soft_block(15_000), soft_block(15_000)],
            affinity: aff,
            fixed_positions: vec![None, None, Some(Point::new(0, 50))],
        };
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let r = generate_layout(&p, &HidapConfig::fast(), &mut rng);
        assert!(
            r.rects[0].center().x <= r.rects[1].center().x,
            "block 0 should sit on the side of its fixed attractor"
        );
    }

    #[test]
    fn penalty_reported_for_infeasible_macros() {
        // a macro that simply cannot fit the region at all
        let (aff, fixed) = no_affinity(2);
        let p = LayoutProblem {
            region: Rect::new(0, 0, 100, 40),
            blocks: vec![hard_block(90, 39), hard_block(90, 39)],
            affinity: aff,
            fixed_positions: fixed,
        };
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let r = generate_layout(&p, &HidapConfig::fast(), &mut rng);
        assert!(r.penalty > 1.0, "impossible layouts must carry a penalty");
    }

    #[test]
    fn wirelength_zero_without_affinity() {
        let (aff, fixed) = no_affinity(3);
        let p = LayoutProblem {
            region: Rect::new(0, 0, 100, 100),
            blocks: vec![soft_block(3000); 3],
            affinity: aff,
            fixed_positions: fixed,
        };
        let mut rng = ChaCha8Rng::seed_from_u64(6);
        let r = generate_layout(&p, &HidapConfig::fast(), &mut rng);
        assert_eq!(r.wirelength, 0.0);
        assert_eq!(r.cost, 0.0);
    }
}
