//! Geometric primitives for floorplanning and macro placement.
//!
//! This crate provides the low-level geometric machinery used by the HiDaP
//! macro placer:
//!
//! * [`Point`], [`Rect`] — coordinates and axis-aligned rectangles with the
//!   usual area / intersection / containment operations.
//! * [`Orientation`] — the eight macro orientations of the LEF/DEF standard
//!   (`N`, `S`, `W`, `E`, `FN`, `FS`, `FW`, `FE`) and how they transform
//!   a macro footprint and its pins.
//! * [`ShapeCurve`] — the Pareto set of bounding boxes that can hold a
//!   placement of a set of hard blocks, plus horizontal/vertical composition
//!   by a linear merge (the "shape curve" Γ of the paper, Sect. II-D / IV-A).
//! * [`PolishExpression`] — the slicing-tree layout representation used
//!   during layout generation (Sect. IV-E), together with the three Wong–Liu
//!   simulated-annealing moves, applied in place and undoable.
//! * [`SpanCache`] — per-node values of a slicing tree (shape curves, area
//!   budgets) that a move recomposes only around the tokens it touched.
//!
//! All dimensions are in integer database units (DBU); a typical convention
//! is 1 DBU = 1 nm, but nothing in this crate depends on the physical unit.
//!
//! # Example
//!
//! ```
//! use geometry::{Rect, ShapeCurve};
//!
//! // A 4x2 macro can also be placed rotated as 2x4.
//! let curve = ShapeCurve::from_macro(4, 2, true);
//! assert!(curve.fits(4, 2));
//! assert!(curve.fits(2, 4));
//! assert!(!curve.fits(3, 2));
//!
//! // Two such macros side by side.
//! let pair = curve.compose_horizontal(&curve);
//! assert!(pair.fits(8, 2));
//! ```

#![forbid(unsafe_code)]
#![deny(clippy::print_stdout)]

pub mod orientation;
pub mod point;
pub mod rect;
pub mod shape_curve;
pub mod slicing;

pub use orientation::Orientation;
pub use point::Point;
pub use rect::Rect;
pub use shape_curve::ShapeCurve;
pub use slicing::{
    CutDirection, Move, MoveKind, NodeValues, PolishExpression, PolishToken, SpanCache,
};

/// Integer database unit used for all coordinates in the workspace.
pub type Dbu = i64;
