//! Axis-aligned rectangles.

use crate::{Dbu, Point};

/// An axis-aligned rectangle defined by its lower-left and upper-right corners.
///
/// The rectangle is half-open conceptually but all operations treat it as a
/// closed region of the plane; a rectangle with `llx == urx` or `lly == ury`
/// is degenerate (zero area) but still valid.
///
/// # Example
///
/// ```
/// use geometry::Rect;
///
/// let die = Rect::new(0, 0, 100, 50);
/// let macro_box = Rect::from_size(10, 10, 30, 20);
/// assert!(die.contains_rect(&macro_box));
/// assert_eq!(macro_box.area(), 600);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Rect {
    /// Lower-left x coordinate.
    pub llx: Dbu,
    /// Lower-left y coordinate.
    pub lly: Dbu,
    /// Upper-right x coordinate.
    pub urx: Dbu,
    /// Upper-right y coordinate.
    pub ury: Dbu,
}

impl Rect {
    /// Creates a rectangle from corner coordinates.
    ///
    /// # Panics
    ///
    /// Panics if `urx < llx` or `ury < lly`.
    pub fn new(llx: Dbu, lly: Dbu, urx: Dbu, ury: Dbu) -> Self {
        assert!(urx >= llx && ury >= lly, "malformed rectangle corners");
        Self { llx, lly, urx, ury }
    }

    /// Creates a rectangle from its lower-left corner and a size.
    ///
    /// # Panics
    ///
    /// Panics if `width` or `height` is negative.
    pub fn from_size(llx: Dbu, lly: Dbu, width: Dbu, height: Dbu) -> Self {
        assert!(width >= 0 && height >= 0, "negative rectangle size");
        Self::new(llx, lly, llx + width, lly + height)
    }

    /// Width of the rectangle.
    pub fn width(&self) -> Dbu {
        self.urx - self.llx
    }

    /// Height of the rectangle.
    pub fn height(&self) -> Dbu {
        self.ury - self.lly
    }

    /// Area of the rectangle.
    pub fn area(&self) -> i128 {
        self.width() as i128 * self.height() as i128
    }

    /// Center point (rounded down to integer coordinates).
    pub fn center(&self) -> Point {
        Point::new((self.llx + self.urx) / 2, (self.lly + self.ury) / 2)
    }

    /// Lower-left corner.
    pub fn lower_left(&self) -> Point {
        Point::new(self.llx, self.lly)
    }

    /// Returns `true` if `p` lies inside or on the boundary.
    pub fn contains(&self, p: Point) -> bool {
        p.x >= self.llx && p.x <= self.urx && p.y >= self.lly && p.y <= self.ury
    }

    /// Returns `true` if `other` lies entirely inside (or on the boundary of) `self`.
    pub fn contains_rect(&self, other: &Rect) -> bool {
        other.llx >= self.llx
            && other.urx <= self.urx
            && other.lly >= self.lly
            && other.ury <= self.ury
    }

    /// Returns `true` if the interiors of the two rectangles overlap.
    ///
    /// Rectangles that only touch at an edge or a corner do *not* overlap.
    pub fn overlaps(&self, other: &Rect) -> bool {
        self.llx < other.urx && other.llx < self.urx && self.lly < other.ury && other.lly < self.ury
    }

    /// Intersection of the two rectangles, if non-degenerate overlap region exists.
    pub fn intersection(&self, other: &Rect) -> Option<Rect> {
        let llx = self.llx.max(other.llx);
        let lly = self.lly.max(other.lly);
        let urx = self.urx.min(other.urx);
        let ury = self.ury.min(other.ury);
        if llx < urx && lly < ury {
            Some(Rect::new(llx, lly, urx, ury))
        } else {
            None
        }
    }

    /// Area of overlap with `other` (zero if disjoint).
    pub fn overlap_area(&self, other: &Rect) -> i128 {
        self.intersection(other).map(|r| r.area()).unwrap_or(0)
    }

    /// Bounding box of a set of points. Returns `None` for an empty iterator.
    pub fn bounding_box<I: IntoIterator<Item = Point>>(points: I) -> Option<Rect> {
        let mut it = points.into_iter();
        let first = it.next()?;
        let mut r = Rect::new(first.x, first.y, first.x, first.y);
        for p in it {
            r.llx = r.llx.min(p.x);
            r.lly = r.lly.min(p.y);
            r.urx = r.urx.max(p.x);
            r.ury = r.ury.max(p.y);
        }
        Some(r)
    }

    /// Rectangle translated by `(dx, dy)`.
    pub fn translated(&self, dx: Dbu, dy: Dbu) -> Rect {
        Rect::new(self.llx + dx, self.lly + dy, self.urx + dx, self.ury + dy)
    }

    /// Rectangle with the same lower-left corner but a new size.
    pub fn resized(&self, width: Dbu, height: Dbu) -> Rect {
        Rect::from_size(self.llx, self.lly, width, height)
    }

    /// Manhattan distance between the centers of two rectangles.
    pub fn center_distance(&self, other: &Rect) -> Dbu {
        self.center().manhattan_distance(other.center())
    }

    /// Clamps a point to lie within the rectangle.
    pub fn clamp_point(&self, p: Point) -> Point {
        Point::new(p.x.clamp(self.llx, self.urx), p.y.clamp(self.lly, self.ury))
    }

    /// Splits the rectangle vertically (left | right) at `x` (absolute coordinate).
    ///
    /// # Panics
    ///
    /// Panics if `x` is outside `[llx, urx]`.
    pub fn split_vertical(&self, x: Dbu) -> (Rect, Rect) {
        assert!(x >= self.llx && x <= self.urx, "split outside rectangle");
        (Rect::new(self.llx, self.lly, x, self.ury), Rect::new(x, self.lly, self.urx, self.ury))
    }

    /// Splits the rectangle horizontally (bottom / top) at `y` (absolute coordinate).
    ///
    /// # Panics
    ///
    /// Panics if `y` is outside `[lly, ury]`.
    pub fn split_horizontal(&self, y: Dbu) -> (Rect, Rect) {
        assert!(y >= self.lly && y <= self.ury, "split outside rectangle");
        (Rect::new(self.llx, self.lly, self.urx, y), Rect::new(self.llx, y, self.urx, self.ury))
    }

    /// Aspect ratio (width / height); `f64::INFINITY` for zero height.
    pub fn aspect_ratio(&self) -> f64 {
        if self.height() == 0 {
            f64::INFINITY
        } else {
            self.width() as f64 / self.height() as f64
        }
    }
}

impl std::fmt::Display for Rect {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{} {} {} {}]", self.llx, self.lly, self.urx, self.ury)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn area_and_size() {
        let r = Rect::from_size(5, 5, 10, 4);
        assert_eq!(r.width(), 10);
        assert_eq!(r.height(), 4);
        assert_eq!(r.area(), 40);
        assert_eq!(r.center(), Point::new(10, 7));
    }

    #[test]
    fn overlap_touching_edges_is_not_overlap() {
        let a = Rect::new(0, 0, 10, 10);
        let b = Rect::new(10, 0, 20, 10);
        assert!(!a.overlaps(&b));
        assert_eq!(a.overlap_area(&b), 0);
    }

    #[test]
    fn overlap_area_of_intersecting_rects() {
        let a = Rect::new(0, 0, 10, 10);
        let b = Rect::new(5, 5, 15, 15);
        assert!(a.overlaps(&b));
        assert_eq!(a.overlap_area(&b), 25);
        assert_eq!(a.intersection(&b).unwrap(), Rect::new(5, 5, 10, 10));
    }

    #[test]
    fn containment() {
        let die = Rect::new(0, 0, 100, 100);
        assert!(die.contains_rect(&Rect::new(0, 0, 100, 100)));
        assert!(die.contains_rect(&Rect::new(10, 10, 20, 20)));
        assert!(!die.contains_rect(&Rect::new(90, 90, 110, 95)));
        assert!(die.contains(Point::new(100, 100)));
        assert!(!die.contains(Point::new(101, 50)));
    }

    #[test]
    fn splits_partition_area() {
        let r = Rect::new(0, 0, 10, 6);
        let (l, right) = r.split_vertical(4);
        assert_eq!(l.area() + right.area(), r.area());
        let (b, t) = r.split_horizontal(2);
        assert_eq!(b.area() + t.area(), r.area());
    }

    #[test]
    fn bounding_box_of_points() {
        let bb =
            Rect::bounding_box([Point::new(3, 4), Point::new(-1, 9), Point::new(5, 0)]).unwrap();
        assert_eq!(bb, Rect::new(-1, 0, 5, 9));
        assert!(Rect::bounding_box(std::iter::empty()).is_none());
    }

    #[test]
    fn clamp_point_projects_inside() {
        let r = Rect::new(0, 0, 10, 10);
        assert_eq!(r.clamp_point(Point::new(-5, 20)), Point::new(0, 10));
        assert_eq!(r.clamp_point(Point::new(5, 5)), Point::new(5, 5));
    }

    #[test]
    #[should_panic]
    fn malformed_rect_panics() {
        let _ = Rect::new(10, 0, 0, 10);
    }
}
