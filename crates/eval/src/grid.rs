//! The bin grid shared by spreading, congestion and density: the bin edges
//! computed once, the point-to-bin lookup, per-bin macro coverage and the
//! per-column and per-row overlaps of a box.
//!
//! A box's overlap with a bin is at most the bin's width times its height,
//! so no RUDY overlap product exceeds the grid's width times its height:
//! when that extent fits in `i64` the products are formed in `i64`, else in
//! `i128` ([`crate::exact`]). Either way they are exact.

use crate::exact::{area_f64, fits_i64, Acc};
use geometry::{Point, Rect};

/// A `bins × bins` grid over the die. Bin width is
/// `max(die width / bins, 1.0)` and column `b` spans
/// `[llx + (b · bin_w) as i64, llx + ((b + 1) · bin_w) as i64]`; rows
/// likewise. On a die narrower (or shorter) than `bins` DBU the last columns
/// (rows) lie past the die edge, and every user agrees on where they are.
///
/// Per-bin arrays are flattened as `bx * bins + by`.
#[derive(Debug)]
pub(crate) struct BinGrid {
    bins: usize,
    bin_w: f64,
    bin_h: f64,
    /// The `bins + 1` column edges, absolute; `xs[0]` is the die's left edge.
    xs: Vec<i64>,
    /// The `bins + 1` row edges, absolute; `ys[0]` is the die's bottom edge.
    ys: Vec<i64>,
}

impl BinGrid {
    /// The grid of `bins` (at least 2) bins per edge over `die`.
    pub(crate) fn new(die: Rect, bins: usize) -> Self {
        let bins = bins.max(2);
        let bin_w = (die.width() as f64 / bins as f64).max(1.0);
        let bin_h = (die.height() as f64 / bins as f64).max(1.0);
        let edges = |lo: i64, size: f64| -> Vec<i64> {
            (0..=bins).map(|b| lo + (b as f64 * size) as i64).collect()
        };
        Self { bins, bin_w, bin_h, xs: edges(die.llx, bin_w), ys: edges(die.lly, bin_h) }
    }

    /// Bins per edge.
    pub(crate) fn bins(&self) -> usize {
        self.bins
    }

    /// Nominal bin area, `bin_w · bin_h` (before edge truncation).
    pub(crate) fn bin_area(&self) -> f64 {
        self.bin_w * self.bin_h
    }

    /// The rectangle of bin `(bx, by)`.
    pub(crate) fn bin_rect(&self, bx: usize, by: usize) -> Rect {
        Rect::new(self.xs[bx], self.ys[by], self.xs[bx + 1], self.ys[by + 1])
    }

    /// The nominal center of bin `(bx, by)`.
    pub(crate) fn bin_center(&self, bx: usize, by: usize) -> Point {
        Point::new(
            self.xs[0] + ((bx as f64 + 0.5) * self.bin_w) as i64,
            self.ys[0] + ((by as f64 + 0.5) * self.bin_h) as i64,
        )
    }

    /// The bin holding `p`; points outside the grid clamp to the border bins.
    pub(crate) fn bin_of(&self, p: Point) -> (usize, usize) {
        (
            axis_bin(p.x - self.xs[0], self.bin_w, self.bins),
            axis_bin(p.y - self.ys[0], self.bin_h, self.bins),
        )
    }

    /// Total macro area over each bin: for every bin, the sum in macro order
    /// of `macro.overlap_area(bin) as f64`.
    ///
    /// Each macro visits only the bins it overlaps. The skipped terms are all
    /// `+0.0` and every term is non-negative, so the sums equal the all-pairs
    /// `fold(0.0, ..)` bit for bit.
    pub(crate) fn macro_coverage(&self, macros: &[Rect]) -> Vec<f64> {
        let mut covered = vec![0.0f64; self.bins * self.bins];
        for m in macros {
            let (x0, x1) = span(&self.xs, m.llx, m.urx);
            let (y0, y1) = span(&self.ys, m.lly, m.ury);
            for bx in x0..x1 {
                let ox = overlap(self.xs[bx], self.xs[bx + 1], m.llx, m.urx);
                for by in y0..y1 {
                    let area = area_f64(ox, overlap(self.ys[by], self.ys[by + 1], m.lly, m.ury));
                    if area > 0.0 {
                        covered[bx * self.bins + by] += area;
                    }
                }
            }
        }
        covered
    }

    /// RUDY demand per bin: each box in turn spreads `(w + h) · wire_pitch`
    /// uniformly over its area, onto the bins from `bin_of` of its lower-left
    /// corner to `bin_of` of its upper-right one. A box of zero area puts its
    /// demand into every bin it touches.
    ///
    /// A box's overlap with bin `(bx, by)` is its overlap with column `bx`
    /// times its overlap with row `by` ([`BinGrid::column_overlaps`]), equal
    /// to `Rect::overlap_area`, so each column and row is measured once per
    /// box. Each bin's additions run in box order.
    pub(crate) fn rudy_demand(
        &self,
        boxes: impl IntoIterator<Item = Rect>,
        wire_pitch: f64,
    ) -> Vec<f64> {
        let width = self.xs[self.bins].abs_diff(self.xs[0]);
        let height = self.ys[self.bins].abs_diff(self.ys[0]);
        if fits_i64(width as u128 * height as u128) {
            self.rudy_demand_in::<i64>(boxes, wire_pitch)
        } else {
            self.rudy_demand_in::<i128>(boxes, wire_pitch)
        }
    }

    fn rudy_demand_in<T: Acc>(
        &self,
        boxes: impl IntoIterator<Item = Rect>,
        wire_pitch: f64,
    ) -> Vec<f64> {
        let mut demand = vec![0.0f64; self.bins * self.bins];
        let (mut cols, mut rows) = (Vec::new(), Vec::new());
        for bb in boxes {
            let (w, h) = (bb.width(), bb.height());
            let wire = (w + h) as f64 * wire_pitch;
            let density = wire / area_f64(w, h).max(1.0); // demand per unit area
            let floor = T::from(i64::from(w == 0 || h == 0));
            let (x, y) = self.bin_span(&bb);
            self.column_overlaps(&bb, x, &mut cols);
            self.row_overlaps(&bb, y, &mut rows);
            for (bx, &ox) in (x.0..=x.1).zip(&cols) {
                let column = &mut demand[bx * self.bins + y.0..=bx * self.bins + y.1];
                for (d, &oy) in column.iter_mut().zip(&rows) {
                    *d += density * (T::from(ox) * T::from(oy)).max(floor).to_f64();
                }
            }
        }
        demand
    }

    /// The bins a box touches, as inclusive column and row ranges: `bin_of`
    /// of its lower-left and of its upper-right corner.
    pub(crate) fn bin_span(&self, r: &Rect) -> ((usize, usize), (usize, usize)) {
        let (x0, y0) = self.bin_of(Point::new(r.llx, r.lly));
        let (x1, y1) = self.bin_of(Point::new(r.urx, r.ury));
        ((x0, x1), (y0, y1))
    }

    /// The x-overlap of `r` with each column of the inclusive range `cols`,
    /// clamped at 0, written to `out`. With [`BinGrid::row_overlaps`], the
    /// overlap of `r` with bin `(bx, by)` is `cols[bx] · rows[by]`, equal to
    /// `bin_rect(bx, by).overlap_area(r)`.
    pub(crate) fn column_overlaps(&self, r: &Rect, cols: (usize, usize), out: &mut Vec<i64>) {
        out.clear();
        out.extend((cols.0..=cols.1).map(|b| overlap(self.xs[b], self.xs[b + 1], r.llx, r.urx)));
    }

    /// The y-overlap of `r` with each row of the inclusive range `rows`; see
    /// [`BinGrid::column_overlaps`].
    pub(crate) fn row_overlaps(&self, r: &Rect, rows: (usize, usize), out: &mut Vec<i64>) {
        out.clear();
        out.extend((rows.0..=rows.1).map(|b| overlap(self.ys[b], self.ys[b + 1], r.lly, r.ury)));
    }
}

/// The bin index of an offset along one axis, clamped to the grid.
fn axis_bin(offset: i64, bin_size: f64, bins: usize) -> usize {
    ((offset as f64 / bin_size) as usize).min(bins - 1)
}

/// The length of `[a0, a1] ∩ [b0, b1]`, 0 when the interiors are disjoint;
/// at most `a1 - a0`, so it is exact in `i64`.
fn overlap(a0: i64, a1: i64, b0: i64, b1: i64) -> i64 {
    let (lo, hi) = (a0.max(b0), a1.min(b1));
    if hi > lo {
        hi - lo
    } else {
        0
    }
}

/// The half-open range of intervals `[edges[b], edges[b + 1]]` whose
/// interiors meet `(lo, hi)`; the edges are non-decreasing.
fn span(edges: &[i64], lo: i64, hi: i64) -> (usize, usize) {
    let bins = edges.len() - 1;
    let first = edges[1..].partition_point(|&e| e <= lo);
    let last = edges[..bins].partition_point(|&e| e < hi);
    (first, last.max(first))
}
