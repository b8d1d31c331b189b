//! Shape curves: Pareto sets of feasible bounding boxes.
//!
//! A shape curve Γ (paper Sect. II-D) describes, for a block containing hard
//! macros, the set of minimal bounding boxes `(width, height)` such that a
//! legal (non-overlapping) placement of the macros exists inside the box.
//! Only the Pareto-minimal points are stored: a box `(w, h)` is feasible iff
//! there is a curve point `(w', h')` with `w' <= w` and `h' <= h`.

use crate::{CutDirection, Dbu};

/// A Pareto-minimal set of feasible `(width, height)` bounding boxes.
///
/// Points are kept sorted by increasing width (and therefore strictly
/// decreasing height). The empty curve means "no constraint": every box,
/// including a degenerate one, is feasible — this is the curve of a block
/// with no macros (soft block).
///
/// # Example
///
/// ```
/// use geometry::ShapeCurve;
///
/// let a = ShapeCurve::from_macro(4, 2, true); // rotatable 4x2 macro
/// let b = ShapeCurve::from_macro(2, 2, false);
/// let stacked = a.compose_vertical(&b);
/// assert!(stacked.fits(4, 4));   // 4x2 under 2x2
/// assert!(stacked.fits(2, 6));   // rotated 2x4 under 2x2
/// assert!(!stacked.fits(3, 3));
/// ```
#[derive(Debug, PartialEq, Eq, Default)]
pub struct ShapeCurve {
    points: Vec<(Dbu, Dbu)>,
}

impl Clone for ShapeCurve {
    fn clone(&self) -> Self {
        Self { points: self.points.clone() }
    }

    // reuses the destination's buffer, unlike the derived `clone_from`
    fn clone_from(&mut self, source: &Self) {
        self.points.clone_from(&source.points);
    }
}

impl ShapeCurve {
    /// The unconstrained curve (a block with no macros): every box is feasible.
    pub fn unconstrained() -> Self {
        Self { points: Vec::new() }
    }

    /// Builds a curve from an arbitrary set of feasible boxes, keeping only
    /// the Pareto-minimal ones.
    pub fn from_points<I: IntoIterator<Item = (Dbu, Dbu)>>(points: I) -> Self {
        let mut pts: Vec<(Dbu, Dbu)> =
            points.into_iter().filter(|&(w, h)| w >= 0 && h >= 0).collect();
        pts.sort_unstable();
        let mut pareto: Vec<(Dbu, Dbu)> = Vec::with_capacity(pts.len());
        for (w, h) in pts {
            // Points are visited by increasing width; keep one only if it has
            // strictly smaller height than everything kept so far.
            match pareto.last() {
                Some(&(lw, lh)) => {
                    if lw == w {
                        // same width, previous (smaller or equal height) dominates
                        debug_assert!(lh <= h);
                    } else if h < lh {
                        pareto.push((w, h));
                    }
                }
                None => pareto.push((w, h)),
            }
        }
        Self { points: pareto }
    }

    /// Curve for a single hard macro of size `width x height`.
    ///
    /// When `rotatable` is true the 90°-rotated footprint is also feasible.
    pub fn from_macro(width: Dbu, height: Dbu, rotatable: bool) -> Self {
        if rotatable && width != height {
            Self::from_points([(width, height), (height, width)])
        } else {
            Self::from_points([(width, height)])
        }
    }

    /// The Pareto points of the curve, sorted by increasing width.
    pub fn points(&self) -> &[(Dbu, Dbu)] {
        &self.points
    }

    /// Returns `true` when the curve imposes no constraint.
    pub fn is_unconstrained(&self) -> bool {
        self.points.is_empty()
    }

    /// Returns `true` if a `width x height` box can hold the block's macros.
    pub fn fits(&self, width: Dbu, height: Dbu) -> bool {
        self.points.is_empty() || self.min_height_for_width(width).is_some_and(|h| h <= height)
    }

    /// The minimum area over all Pareto points (0 for an unconstrained curve).
    pub fn min_area(&self) -> i128 {
        self.points.iter().map(|&(w, h)| w as i128 * h as i128).min().unwrap_or(0)
    }

    /// For a given width budget, the minimum height needed (``None`` if no
    /// feasible point has width ≤ `width`; `Some(0)` for unconstrained curves).
    pub fn min_height_for_width(&self, width: Dbu) -> Option<Dbu> {
        if self.points.is_empty() {
            return Some(0);
        }
        // Heights strictly decrease with width, so the widest point within
        // the budget is the lowest one.
        let idx = self.points.partition_point(|&(w, _)| w <= width);
        idx.checked_sub(1).map(|i| self.points[i].1)
    }

    /// For a given height budget, the minimum width needed (``None`` if no
    /// feasible point has height ≤ `height`; `Some(0)` for unconstrained curves).
    pub fn min_width_for_height(&self, height: Dbu) -> Option<Dbu> {
        if self.points.is_empty() {
            return Some(0);
        }
        // The points within the budget form a suffix; its first is the narrowest.
        let idx = self.points.partition_point(|&(_, h)| h > height);
        self.points.get(idx).map(|&(w, _)| w)
    }

    /// Composes two curves side by side (widths add, heights max).
    pub fn compose_horizontal(&self, other: &ShapeCurve) -> ShapeCurve {
        let mut out = ShapeCurve::unconstrained();
        out.compose_from(self, other, true);
        out
    }

    /// Composes two curves stacked vertically (heights add, widths max).
    pub fn compose_vertical(&self, other: &ShapeCurve) -> ShapeCurve {
        let mut out = ShapeCurve::unconstrained();
        out.compose_from(self, other, false);
        out
    }

    /// Overwrites `self` with the curve of a slicing node that cuts in
    /// direction `cut` over the children `left` and `right`, pruned to
    /// `limit` points: the children sit side by side under a vertical cut
    /// and stacked under a horizontal one. Reuses `self`'s buffer, so an
    /// annealer can recompose nodes without allocating.
    pub fn set_to_cut(
        &mut self,
        cut: CutDirection,
        left: &ShapeCurve,
        right: &ShapeCurve,
        limit: usize,
    ) {
        self.compose_from(left, right, cut == CutDirection::Vertical);
        self.prune(limit);
    }

    /// Stockmeyer's linear merge of two Pareto staircases (O(p + q) instead
    /// of the p·q product of every point pair).
    ///
    /// Side by side, a pair's height is the taller of its two points, and
    /// only the taller side can lower it: stepping that side to its next,
    /// lower point is the only step that reaches a new Pareto point, and on
    /// a tie both sides step. Each step strictly grows the
    /// summed width and strictly lowers the height, so the walk emits the
    /// Pareto set in order with nothing to sort or filter, and it ends when
    /// the taller side has no lower point. Stacking is the same walk with
    /// the axes swapped, run from the widest points and reversed at the end.
    fn compose_from(&mut self, a: &ShapeCurve, b: &ShapeCurve, side_by_side: bool) {
        if a.points.is_empty() {
            self.points.clone_from(&b.points);
            return;
        }
        if b.points.is_empty() {
            self.points.clone_from(&a.points);
            return;
        }
        // The k-th point of a curve as (summed, maxed) coordinates, in the
        // order that walks the maxed coordinate downwards.
        let key = |c: &[(Dbu, Dbu)], k: usize| {
            if side_by_side {
                c[k]
            } else {
                let (w, h) = c[c.len() - 1 - k];
                (h, w)
            }
        };
        let out = &mut self.points;
        out.clear();
        let (mut i, mut j) = (0, 0);
        loop {
            let (sa, ma) = key(&a.points, i);
            let (sb, mb) = key(&b.points, j);
            let (summed, maxed) = (sa + sb, ma.max(mb));
            out.push(if side_by_side { (summed, maxed) } else { (maxed, summed) });
            let (step_a, step_b) = (ma >= mb, mb >= ma);
            if (step_a && i + 1 == a.points.len()) || (step_b && j + 1 == b.points.len()) {
                break;
            }
            i += usize::from(step_a);
            j += usize::from(step_b);
        }
        if !side_by_side {
            out.reverse();
        }
    }

    /// Keeps at most `limit` points, preserving the extremes and an evenly
    /// spread selection in between. Used to bound curve growth during
    /// bottom-up composition.
    pub fn pruned(mut self, limit: usize) -> ShapeCurve {
        self.prune(limit);
        self
    }

    fn prune(&mut self, limit: usize) {
        let n = self.points.len();
        if n <= limit || limit == 0 {
            return;
        }
        // The kept indices strictly increase and never fall behind their
        // slot, so the selection compacts in place and keeps distinct points.
        for i in 0..limit {
            let idx = i * (n - 1) / (limit - 1).max(1);
            self.points[i] = self.points[idx];
        }
        self.points.truncate(limit);
    }

    /// Number of Pareto points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Returns `true` if the curve has no explicit points (unconstrained).
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }
}

impl FromIterator<(Dbu, Dbu)> for ShapeCurve {
    fn from_iter<I: IntoIterator<Item = (Dbu, Dbu)>>(iter: I) -> Self {
        ShapeCurve::from_points(iter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pareto_filtering_removes_dominated_points() {
        let c = ShapeCurve::from_points([(4, 2), (2, 4), (4, 4), (3, 3), (5, 1)]);
        // (4,4) dominated by (4,2)/(3,3); others are pareto.
        assert_eq!(c.points(), &[(2, 4), (3, 3), (4, 2), (5, 1)]);
    }

    #[test]
    fn fits_uses_dominance() {
        let c = ShapeCurve::from_macro(4, 2, true);
        assert!(c.fits(4, 2));
        assert!(c.fits(10, 2));
        assert!(c.fits(2, 4));
        assert!(c.fits(4, 4));
        assert!(!c.fits(3, 3));
        assert!(!c.fits(1, 100));
    }

    #[test]
    fn unconstrained_accepts_everything() {
        let c = ShapeCurve::unconstrained();
        assert!(c.fits(0, 0));
        assert!(c.fits(1000, 1));
        assert_eq!(c.min_area(), 0);
        assert_eq!(c.min_height_for_width(5), Some(0));
    }

    #[test]
    fn horizontal_composition_adds_width() {
        let a = ShapeCurve::from_macro(4, 2, false);
        let b = ShapeCurve::from_macro(3, 5, false);
        let c = a.compose_horizontal(&b);
        assert_eq!(c.points(), &[(7, 5)]);
    }

    #[test]
    fn vertical_composition_adds_height() {
        let a = ShapeCurve::from_macro(4, 2, false);
        let b = ShapeCurve::from_macro(3, 5, false);
        let c = a.compose_vertical(&b);
        assert_eq!(c.points(), &[(4, 7)]);
    }

    #[test]
    fn composition_with_unconstrained_is_identity() {
        let a = ShapeCurve::from_macro(4, 2, true);
        let u = ShapeCurve::unconstrained();
        assert_eq!(a.compose_horizontal(&u), a);
        assert_eq!(u.compose_vertical(&a), a);
    }

    #[test]
    fn min_height_for_width_respects_budget() {
        let c = ShapeCurve::from_points([(2, 6), (4, 3), (8, 1)]);
        assert_eq!(c.min_height_for_width(1), None);
        assert_eq!(c.min_height_for_width(2), Some(6));
        assert_eq!(c.min_height_for_width(5), Some(3));
        assert_eq!(c.min_height_for_width(100), Some(1));
        assert_eq!(c.min_width_for_height(2), Some(8));
        assert_eq!(c.min_width_for_height(0), None);
    }

    #[test]
    fn pruning_keeps_extremes() {
        let c = ShapeCurve::from_points((1..=20).map(|i| (i, 21 - i)));
        let p = c.clone().pruned(5);
        assert_eq!(p.len(), 5);
        assert_eq!(p.points().first(), c.points().first());
        assert_eq!(p.points().last(), c.points().last());
    }

    #[test]
    fn square_macro_not_duplicated_when_rotatable() {
        let c = ShapeCurve::from_macro(3, 3, true);
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn min_area_of_composition_at_least_sum_of_macro_areas() {
        let a = ShapeCurve::from_macro(4, 2, true);
        let b = ShapeCurve::from_macro(3, 5, true);
        let c = a.compose_horizontal(&b);
        assert!(c.min_area() >= 8 + 15);
    }
}
