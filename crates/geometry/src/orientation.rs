//! Macro orientations following the LEF/DEF convention.

use crate::{Dbu, Point};

/// One of the eight orientations a macro can take in a DEF placement.
///
/// The names follow the DEF standard: `N` is the reference orientation,
/// `S`/`W`/`E` are rotations by 180°, 90° and 270° counter-clockwise, and the
/// `F*` variants are the same rotations preceded by a mirror about the y axis.
///
/// # Example
///
/// ```
/// use geometry::Orientation;
///
/// // A 30x10 macro rotated by 90 degrees occupies 10x30.
/// let (w, h) = Orientation::W.transformed_size(30, 10);
/// assert_eq!((w, h), (10, 30));
/// assert!(Orientation::W.swaps_axes());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Orientation {
    /// North: no rotation (R0).
    #[default]
    N,
    /// South: rotated 180° (R180).
    S,
    /// West: rotated 90° counter-clockwise (R90).
    W,
    /// East: rotated 270° counter-clockwise (R270).
    E,
    /// Flipped North: mirrored about the y axis (MY).
    FN,
    /// Flipped South: mirrored about the x axis (MX).
    FS,
    /// Flipped West: mirrored then rotated 90° (MX90).
    FW,
    /// Flipped East: mirrored then rotated 270° (MY90).
    FE,
}

impl Orientation {
    /// All eight orientations.
    pub const ALL: [Orientation; 8] = [
        Orientation::N,
        Orientation::S,
        Orientation::W,
        Orientation::E,
        Orientation::FN,
        Orientation::FS,
        Orientation::FW,
        Orientation::FE,
    ];

    /// The four orientations that keep the footprint axis-aligned without
    /// swapping width and height.
    pub const NON_ROTATING: [Orientation; 4] =
        [Orientation::N, Orientation::S, Orientation::FN, Orientation::FS];

    /// Returns `true` when the orientation exchanges the width and height of
    /// the footprint (90° / 270° family).
    pub fn swaps_axes(self) -> bool {
        matches!(self, Orientation::W | Orientation::E | Orientation::FW | Orientation::FE)
    }

    /// Footprint size after applying the orientation to a `width x height` macro.
    pub fn transformed_size(self, width: Dbu, height: Dbu) -> (Dbu, Dbu) {
        if self.swaps_axes() {
            (height, width)
        } else {
            (width, height)
        }
    }

    /// Transforms a pin offset given in the macro's local frame (origin at the
    /// macro lower-left corner, reference orientation `N`) into the offset in
    /// the placed frame, for a macro of size `width x height`.
    ///
    /// The returned offset is again relative to the placed macro's lower-left
    /// corner, so the absolute pin location is `placement_ll + offset`.
    pub fn transform_pin(self, pin: Point, width: Dbu, height: Dbu) -> Point {
        let (x, y) = (pin.x, pin.y);
        match self {
            Orientation::N => Point::new(x, y),
            Orientation::S => Point::new(width - x, height - y),
            Orientation::W => Point::new(height - y, x),
            Orientation::E => Point::new(y, width - x),
            Orientation::FN => Point::new(width - x, y),
            Orientation::FS => Point::new(x, height - y),
            Orientation::FW => Point::new(y, x),
            Orientation::FE => Point::new(height - y, width - x),
        }
    }

    /// The DEF keyword for the orientation.
    pub fn def_name(self) -> &'static str {
        match self {
            Orientation::N => "N",
            Orientation::S => "S",
            Orientation::W => "W",
            Orientation::E => "E",
            Orientation::FN => "FN",
            Orientation::FS => "FS",
            Orientation::FW => "FW",
            Orientation::FE => "FE",
        }
    }

    /// Parses a DEF orientation keyword.
    pub fn from_def_name(s: &str) -> Option<Orientation> {
        Some(match s {
            "N" => Orientation::N,
            "S" => Orientation::S,
            "W" => Orientation::W,
            "E" => Orientation::E,
            "FN" => Orientation::FN,
            "FS" => Orientation::FS,
            "FW" => Orientation::FW,
            "FE" => Orientation::FE,
            _ => return None,
        })
    }
}

impl std::fmt::Display for Orientation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.def_name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn axis_swapping_orientations() {
        assert!(!Orientation::N.swaps_axes());
        assert!(!Orientation::FS.swaps_axes());
        assert!(Orientation::W.swaps_axes());
        assert!(Orientation::FE.swaps_axes());
    }

    #[test]
    fn transformed_size_swaps_for_rotations() {
        assert_eq!(Orientation::N.transformed_size(30, 10), (30, 10));
        assert_eq!(Orientation::E.transformed_size(30, 10), (10, 30));
    }

    #[test]
    fn def_name_roundtrip() {
        for o in Orientation::ALL {
            assert_eq!(Orientation::from_def_name(o.def_name()), Some(o));
        }
        assert_eq!(Orientation::from_def_name("X"), None);
    }

    #[test]
    fn pin_transform_stays_in_footprint() {
        let (w, h) = (20, 8);
        let pin = Point::new(3, 2);
        for o in Orientation::ALL {
            let (tw, th) = o.transformed_size(w, h);
            let p = o.transform_pin(pin, w, h);
            assert!(p.x >= 0 && p.x <= tw, "{o}: {p}");
            assert!(p.y >= 0 && p.y <= th, "{o}: {p}");
        }
    }

    #[test]
    fn pin_transform_identity_and_180() {
        let pin = Point::new(1, 2);
        assert_eq!(Orientation::N.transform_pin(pin, 10, 6), Point::new(1, 2));
        assert_eq!(Orientation::S.transform_pin(pin, 10, 6), Point::new(9, 4));
        assert_eq!(Orientation::FN.transform_pin(pin, 10, 6), Point::new(9, 2));
        assert_eq!(Orientation::FS.transform_pin(pin, 10, 6), Point::new(1, 4));
    }

    #[test]
    fn pin_transform_rotations() {
        let pin = Point::new(1, 2);
        // W: (x,y) -> (h-y, x)
        assert_eq!(Orientation::W.transform_pin(pin, 10, 6), Point::new(4, 1));
        // E: (x,y) -> (y, w-x)
        assert_eq!(Orientation::E.transform_pin(pin, 10, 6), Point::new(2, 9));
    }
}
