//! Standard-cell density maps (the Fig. 9 visualization).

use crate::exact::area_f64;
use crate::grid::BinGrid;
use crate::placer::CellPlacement;
use geometry::Rect;
use netlist::design::{CellKind, Design};
use netlist::MacroPlacement;

/// A grid of standard-cell density (cell area per bin area).
#[derive(Debug, Clone, PartialEq)]
pub struct DensityMap {
    /// Bins per die edge.
    pub bins: usize,
    /// Density per bin, row-major (`[x][y]` flattened as `x * bins + y`).
    pub density: Vec<f64>,
}

impl DensityMap {
    /// Computes the density map for a placed design. Bins covered by macros
    /// have their free area reduced accordingly, so a bin fully covered by a
    /// macro with cells squeezed next to it shows up as a density peak.
    pub fn compute(
        design: &Design,
        placement: &CellPlacement,
        macro_placement: &MacroPlacement,
        bins: usize,
    ) -> Self {
        let grid = BinGrid::new(design.die(), bins);
        let bins = grid.bins();
        let bin_area = grid.bin_area();

        let macro_rects: Vec<Rect> =
            design.macros().filter_map(|id| macro_placement.rect_of(id, design)).collect();

        let mut cell_area = vec![0.0f64; bins * bins];
        for (id, cell) in design.cells() {
            if cell.kind == CellKind::Macro {
                continue;
            }
            let Some(p) = placement.position(id) else { continue };
            let (bx, by) = grid.bin_of(p);
            cell_area[bx * bins + by] += area_f64(cell.width, cell.height);
        }

        let covered = grid.macro_coverage(&macro_rects);
        let density = cell_area
            .iter()
            .zip(&covered)
            .map(|(&area, &macro_overlap)| area / (bin_area - macro_overlap).max(bin_area * 0.01))
            .collect();
        Self { bins, density }
    }

    /// Density at bin `(x, y)`.
    pub fn at(&self, x: usize, y: usize) -> f64 {
        self.density[x * self.bins + y]
    }

    /// The maximum bin density (the "peak cell density" the paper discusses
    /// around Fig. 9).
    pub fn peak(&self) -> f64 {
        self.density.iter().copied().fold(0.0, f64::max)
    }

    /// The mean bin density.
    pub fn mean(&self) -> f64 {
        self.density.iter().sum::<f64>() / self.density.len() as f64
    }

    /// Renders the map as a compact ASCII heatmap (one character per bin),
    /// useful for the figure-reproduction binaries.
    pub fn to_ascii(&self) -> String {
        const SHADES: &[u8] = b" .:-=+*#%@";
        let peak = self.peak().max(1e-12);
        let mut out = String::new();
        for y in (0..self.bins).rev() {
            for x in 0..self.bins {
                let v = (self.at(x, y) / peak * (SHADES.len() - 1) as f64).round() as usize;
                out.push(SHADES[v.min(SHADES.len() - 1)] as char);
            }
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use geometry::{Orientation, Point};
    use netlist::design::DesignBuilder;
    use netlist::PlacedMacro;

    fn no_macros() -> MacroPlacement {
        MacroPlacement::default()
    }

    #[test]
    fn density_concentrates_where_cells_are() {
        let mut b = DesignBuilder::new("t");
        let mut cells = Vec::new();
        for i in 0..100 {
            cells.push(b.add_comb(format!("c{i}"), ""));
        }
        b.set_die(Rect::new(0, 0, 800, 800));
        let d = b.build();
        let mut placement = CellPlacement::default();
        for &c in &cells {
            placement.set_position(c, Point::new(50, 50));
        }
        let map = DensityMap::compute(&d, &placement, &no_macros(), 8);
        assert!(map.at(0, 0) > 0.0);
        assert_eq!(map.at(7, 7), 0.0);
        assert_eq!(map.peak(), map.at(0, 0));
        assert!(map.mean() < map.peak());
    }

    #[test]
    fn macro_coverage_raises_density_of_squeezed_cells() {
        let mut b = DesignBuilder::new("t");
        let m = b.add_macro("ram", "RAM", 90, 90, "");
        let c = b.add_comb("c", "");
        b.set_die(Rect::new(0, 0, 800, 800));
        let d = b.build();
        let mut placement = CellPlacement::default();
        placement.set_position(c, Point::new(50, 50));
        placement.set_position(m, Point::new(45, 45));
        let mp: MacroPlacement =
            [PlacedMacro::new(m, Point::new(0, 0), Orientation::N)].into_iter().collect();
        let with_macro = DensityMap::compute(&d, &placement, &mp, 8);
        let without = DensityMap::compute(&d, &placement, &no_macros(), 8);
        assert!(with_macro.at(0, 0) > without.at(0, 0));
    }

    #[test]
    fn ascii_rendering_has_one_row_per_bin() {
        let mut b = DesignBuilder::new("t");
        b.add_comb("c", "");
        b.set_die(Rect::new(0, 0, 100, 100));
        let d = b.build();
        let map = DensityMap::compute(&d, &CellPlacement::default(), &no_macros(), 4);
        let art = map.to_ascii();
        assert_eq!(art.lines().count(), 4);
        assert!(art.lines().all(|l| l.chars().count() == 4));
    }
}
