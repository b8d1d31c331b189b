//! The macro placement: one location and orientation per macro, the result
//! of a macro-placement flow (HiDaP's Algorithm 1 and the baselines).
//!
//! [`MacroPlacement`] is the one shape every stage passes around: the flows
//! return it, the evaluation pipeline and the SVG renderer read it, the DEF
//! writer emits it ([`crate::def::placement_entries_from_view`]) and the DEF
//! reader rebuilds it ([`crate::def::DefFile::apply_to`]).
//!
//! A macro's `location` is the **lower-left corner** of its oriented
//! footprint, the same convention as the DEF `PLACED` location, not the
//! footprint center.

use crate::design::{CellId, Design};
use crate::heap_size::HeapSize;
use geometry::{Orientation, Point, Rect};
use std::collections::HashMap;

/// Placement of a single macro.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlacedMacro {
    /// The macro cell.
    pub cell: CellId,
    /// Lower-left corner of the (oriented) footprint.
    pub location: Point,
    /// Orientation of the macro.
    pub orientation: Orientation,
}

impl PlacedMacro {
    /// A macro placed with its lower-left corner at `location`.
    pub fn new(cell: CellId, location: Point, orientation: Orientation) -> Self {
        Self { cell, location, orientation }
    }

    /// The placed footprint rectangle: the macro's size, rotated by its
    /// orientation, from its lower-left corner.
    pub fn footprint(&self, design: &Design) -> Rect {
        let c = design.cell(self.cell);
        let (w, h) = self.orientation.transformed_size(c.width, c.height);
        Rect::from_size(self.location.x, self.location.y, w, h)
    }
}

/// The result of a macro-placement flow: one entry per macro of the design.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MacroPlacement {
    /// Placed macros, sorted by cell id when they come out of a flow or a
    /// DEF file.
    pub macros: Vec<PlacedMacro>,
    /// Block rectangles decided at the top hierarchy level, for visualization
    /// of the block-level floorplan (Fig. 1a / Fig. 9d of the paper).
    pub top_blocks: Vec<(String, Rect)>,
}

impl MacroPlacement {
    /// Looks up the placement of a macro cell.
    ///
    /// `macros` is sorted by cell id whenever it comes out of a flow, so the
    /// lookup is a binary search; hand-built unsorted vectors fall back to a
    /// linear scan (a successful binary probe is always correct — only a miss
    /// can be a false negative on unsorted data).
    pub fn placement_of(&self, cell: CellId) -> Option<&PlacedMacro> {
        if let Ok(i) = self.macros.binary_search_by_key(&cell, |m| m.cell) {
            return Some(&self.macros[i]);
        }
        self.macros.iter().find(|m| m.cell == cell)
    }

    /// The placed footprint rectangle of a macro.
    pub fn rect_of(&self, cell: CellId, design: &Design) -> Option<Rect> {
        self.placement_of(cell).map(|p| p.footprint(design))
    }

    /// Converts to a map keyed by cell id, the shape
    /// `workload::emit::emit_def` takes.
    pub fn to_map(&self) -> HashMap<CellId, (Point, Orientation)> {
        self.macros.iter().map(|m| (m.cell, (m.location, m.orientation))).collect()
    }

    /// All placed footprint rectangles, in `macros` order (no per-macro
    /// lookup: one pass over the vector).
    pub fn rects(&self, design: &Design) -> Vec<Rect> {
        self.macros.iter().map(|m| m.footprint(design)).collect()
    }

    /// Returns `true` when no two macro footprints overlap and every macro is
    /// inside the die.
    ///
    /// Runs a sweep over x-sorted rectangles instead of the naive all-pairs
    /// check: each rectangle is only compared against rectangles whose left
    /// edge starts before its right edge, so legal placements check in
    /// near-linear time after the sort.
    pub fn is_legal(&self, design: &Design) -> bool {
        let mut rects = self.rects(design);
        let die = design.die();
        // early exit: every rect must sit inside the die before any pairwise work
        if rects.iter().any(|r| !die.contains_rect(r)) {
            return false;
        }
        rects.sort_by_key(|r| (r.llx, r.lly));
        for i in 0..rects.len() {
            let r = rects[i];
            for other in &rects[i + 1..] {
                if other.llx >= r.urx {
                    break;
                }
                if r.overlaps(other) {
                    return false;
                }
            }
        }
        true
    }

    /// Total overlap area between macro footprints (0 for a legal placement),
    /// computed with the same x-sweep as [`MacroPlacement::is_legal`].
    pub fn total_overlap(&self, design: &Design) -> i128 {
        let mut rects = self.rects(design);
        rects.sort_by_key(|r| (r.llx, r.lly));
        let mut total = 0;
        for i in 0..rects.len() {
            let r = rects[i];
            for other in &rects[i + 1..] {
                if other.llx >= r.urx {
                    break;
                }
                total += r.overlap_area(other);
            }
        }
        total
    }
}

/// Collects placed macros into a placement sorted by cell (a stable sort:
/// repeats of one cell keep their order), with no top-level blocks.
impl FromIterator<PlacedMacro> for MacroPlacement {
    fn from_iter<I: IntoIterator<Item = PlacedMacro>>(iter: I) -> Self {
        let mut macros: Vec<PlacedMacro> = iter.into_iter().collect();
        macros.sort_by_key(|m| m.cell);
        Self { macros, top_blocks: Vec::new() }
    }
}

impl HeapSize for MacroPlacement {
    fn heap_bytes(&self) -> usize {
        self.macros.heap_bytes() + self.top_blocks.heap_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::design::DesignBuilder;

    fn two_macro_design() -> (Design, CellId, CellId) {
        let mut b = DesignBuilder::new("t");
        let a = b.add_macro("a", "RAM", 100, 50, "");
        let c = b.add_macro("c", "RAM", 100, 50, "");
        b.set_die(Rect::new(0, 0, 1000, 1000));
        (b.build(), a, c)
    }

    #[test]
    fn legality_detects_overlap() {
        let (d, a, c) = two_macro_design();
        let mut p = MacroPlacement::default();
        p.macros.push(PlacedMacro {
            cell: a,
            location: Point::new(0, 0),
            orientation: Orientation::N,
        });
        p.macros.push(PlacedMacro {
            cell: c,
            location: Point::new(50, 10),
            orientation: Orientation::N,
        });
        assert!(!p.is_legal(&d));
        assert!(p.total_overlap(&d) > 0);
        p.macros[1].location = Point::new(200, 0);
        assert!(p.is_legal(&d));
        assert_eq!(p.total_overlap(&d), 0);
    }

    #[test]
    fn legality_detects_out_of_die() {
        let (d, a, _) = two_macro_design();
        let mut p = MacroPlacement::default();
        p.macros.push(PlacedMacro {
            cell: a,
            location: Point::new(950, 0),
            orientation: Orientation::N,
        });
        assert!(!p.is_legal(&d));
    }

    #[test]
    fn rect_respects_orientation() {
        let (d, a, _) = two_macro_design();
        let mut p = MacroPlacement::default();
        p.macros.push(PlacedMacro {
            cell: a,
            location: Point::new(0, 0),
            orientation: Orientation::W,
        });
        let r = p.rect_of(a, &d).unwrap();
        assert_eq!((r.width(), r.height()), (50, 100));
    }

    #[test]
    fn lookup_missing_macro() {
        let (_, _, c) = two_macro_design();
        let p = MacroPlacement::default();
        assert!(p.placement_of(c).is_none());
    }

    #[test]
    fn lookup_works_on_unsorted_macros() {
        let (_, a, c) = two_macro_design();
        let mut p = MacroPlacement::default();
        // insert in reverse id order so binary search alone would miss
        p.macros.push(PlacedMacro {
            cell: c,
            location: Point::new(300, 0),
            orientation: Orientation::FN,
        });
        p.macros.push(PlacedMacro {
            cell: a,
            location: Point::new(0, 0),
            orientation: Orientation::N,
        });
        assert_eq!(p.placement_of(a).unwrap().location, Point::new(0, 0));
        assert_eq!(p.placement_of(c).unwrap().orientation, Orientation::FN);
    }

    #[test]
    fn to_map_and_def_agree_with_indexed_lookups() {
        let (d, a, c) = two_macro_design();
        let mut p = MacroPlacement::default();
        p.macros.push(PlacedMacro {
            cell: a,
            location: Point::new(10, 20),
            orientation: Orientation::N,
        });
        p.macros.push(PlacedMacro {
            cell: c,
            location: Point::new(400, 500),
            orientation: Orientation::FN,
        });
        // to_map agrees with placement_of for every macro
        let map = p.to_map();
        assert_eq!(map.len(), p.macros.len());
        for (&cell, &(loc, orient)) in &map {
            let found = p.placement_of(cell).expect("indexed lookup finds every mapped macro");
            assert_eq!(found.location, loc);
            assert_eq!(found.orientation, orient);
        }
        // the DEF entries carry the same locations and orientations
        let entries = crate::def::placement_entries_from_view(&d, &p, true);
        assert_eq!(entries.len(), p.macros.len());
        for entry in &entries {
            let cell = d.find_cell(&entry.name).expect("entry names a design cell");
            let found = p.placement_of(cell).expect("indexed lookup finds every DEF entry");
            assert_eq!(entry.location, found.location);
            assert_eq!(entry.orientation, found.orientation);
        }
    }

    #[test]
    fn heap_bytes_count_both_vectors() {
        let (_, a, _) = two_macro_design();
        let mut p = MacroPlacement::default();
        assert_eq!(p.heap_bytes(), 0);
        p.macros.push(PlacedMacro {
            cell: a,
            location: Point::new(0, 0),
            orientation: Orientation::N,
        });
        p.top_blocks.push(("u_core".to_string(), Rect::new(0, 0, 10, 10)));
        let want = p.macros.capacity() * std::mem::size_of::<PlacedMacro>()
            + p.top_blocks.capacity() * std::mem::size_of::<(String, Rect)>()
            + p.top_blocks[0].0.capacity();
        assert_eq!(p.heap_bytes(), want);
    }
}
