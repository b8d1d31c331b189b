//! 2-D integer points.

use crate::Dbu;

/// A point in the plane, in database units.
///
/// # Example
///
/// ```
/// use geometry::Point;
///
/// let a = Point::new(10, 20);
/// let b = Point::new(13, 16);
/// assert_eq!(a.manhattan_distance(b), 7);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, PartialOrd, Ord)]
pub struct Point {
    /// Horizontal coordinate.
    pub x: Dbu,
    /// Vertical coordinate.
    pub y: Dbu,
}

impl Point {
    /// Creates a point at `(x, y)`.
    pub const fn new(x: Dbu, y: Dbu) -> Self {
        Self { x, y }
    }

    /// The origin `(0, 0)`.
    pub const fn origin() -> Self {
        Self { x: 0, y: 0 }
    }

    /// Manhattan (L1) distance to `other`.
    pub fn manhattan_distance(self, other: Point) -> Dbu {
        (self.x - other.x).abs() + (self.y - other.y).abs()
    }

    /// Component-wise translation.
    pub fn translated(self, dx: Dbu, dy: Dbu) -> Point {
        Point::new(self.x + dx, self.y + dy)
    }
}

impl std::ops::Add for Point {
    type Output = Point;
    fn add(self, rhs: Point) -> Point {
        Point::new(self.x + rhs.x, self.y + rhs.y)
    }
}

impl std::ops::Sub for Point {
    type Output = Point;
    fn sub(self, rhs: Point) -> Point {
        Point::new(self.x - rhs.x, self.y - rhs.y)
    }
}

impl std::fmt::Display for Point {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "({}, {})", self.x, self.y)
    }
}

impl From<(Dbu, Dbu)> for Point {
    fn from((x, y): (Dbu, Dbu)) -> Self {
        Point::new(x, y)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manhattan_distance_is_symmetric() {
        let a = Point::new(3, -4);
        let b = Point::new(-1, 9);
        assert_eq!(a.manhattan_distance(b), b.manhattan_distance(a));
        assert_eq!(a.manhattan_distance(b), 4 + 13);
    }

    #[test]
    fn add_sub_roundtrip() {
        let a = Point::new(5, 7);
        let b = Point::new(2, -3);
        assert_eq!((a + b) - b, a);
    }

    #[test]
    fn translated_moves_both_axes() {
        assert_eq!(Point::new(1, 1).translated(2, -4), Point::new(3, -3));
    }

    #[test]
    fn display_is_readable() {
        assert_eq!(Point::new(1, 2).to_string(), "(1, 2)");
    }
}
