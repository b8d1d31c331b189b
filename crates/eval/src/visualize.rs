//! SVG visualization of floorplans, density maps and dataflow graphs.
//!
//! The paper mentions an interactive graphic tool used to show back-end
//! engineers the block-level dataflow of a design (Fig. 9d).  This module
//! provides a static equivalent: self-contained SVG renderings of
//!
//! * a macro placement on the die ([`floorplan_svg`]),
//! * a standard-cell density heat map ([`density_svg`]),
//! * a block-level floorplan with dataflow affinity edges ([`dataflow_svg`]).
//!
//! The output is plain SVG text; no external dependencies are needed and the
//! files open in any browser.

use crate::density::DensityMap;
use geometry::{Point, Rect};
use netlist::design::Design;
use netlist::MacroPlacement;
use std::fmt::Write as _;

/// Canvas width of the generated SVGs in pixels (height follows the die
/// aspect ratio).
const CANVAS_WIDTH: f64 = 800.0;

struct Canvas {
    die: Rect,
    width: f64,
    height: f64,
    body: String,
}

impl Canvas {
    fn new(die: Rect) -> Self {
        let aspect = die.height() as f64 / die.width().max(1) as f64;
        Self { die, width: CANVAS_WIDTH, height: CANVAS_WIDTH * aspect, body: String::new() }
    }

    fn x(&self, x: i64) -> f64 {
        (x - self.die.llx) as f64 / self.die.width().max(1) as f64 * self.width
    }

    /// SVG y axis points down; flip so the die's lower-left is bottom-left.
    fn y(&self, y: i64) -> f64 {
        self.height - (y - self.die.lly) as f64 / self.die.height().max(1) as f64 * self.height
    }

    fn rect(&mut self, r: Rect, fill: &str, stroke: &str, label: Option<&str>) {
        let x = self.x(r.llx);
        let y = self.y(r.ury);
        let w = self.x(r.urx) - x;
        let h = self.y(r.lly) - y;
        let _ = writeln!(
            self.body,
            r#"  <rect x="{x:.1}" y="{y:.1}" width="{w:.1}" height="{h:.1}" fill="{fill}" stroke="{stroke}" stroke-width="1"/>"#
        );
        if let Some(text) = label {
            let cx = x + w / 2.0;
            let cy = y + h / 2.0;
            let size = (w.min(h) / 6.0).clamp(6.0, 16.0);
            let _ = writeln!(
                self.body,
                r##"  <text x="{cx:.1}" y="{cy:.1}" font-size="{size:.0}" text-anchor="middle" dominant-baseline="middle" fill="#202020">{}</text>"##,
                xml_escape(text)
            );
        }
    }

    fn line(&mut self, a: Point, b: Point, width: f64, color: &str) {
        let _ = writeln!(
            self.body,
            r#"  <line x1="{:.1}" y1="{:.1}" x2="{:.1}" y2="{:.1}" stroke="{color}" stroke-width="{width:.1}" stroke-linecap="round" opacity="0.7"/>"#,
            self.x(a.x),
            self.y(a.y),
            self.x(b.x),
            self.y(b.y),
        );
    }

    fn finish(self, title: &str) -> String {
        format!(
            concat!(
                r#"<svg xmlns="http://www.w3.org/2000/svg" width="{w:.0}" height="{h:.0}" viewBox="0 0 {w:.0} {h:.0}">"#,
                "\n  <title>{title}</title>\n",
                r##"  <rect x="0" y="0" width="{w:.0}" height="{h:.0}" fill="#fafafa" stroke="#404040" stroke-width="2"/>"##,
                "\n{body}</svg>\n"
            ),
            w = self.width,
            h = self.height,
            title = xml_escape(title),
            body = self.body,
        )
    }
}

fn xml_escape(s: &str) -> String {
    s.replace('&', "&amp;").replace('<', "&lt;").replace('>', "&gt;")
}

/// Renders a macro placement as SVG: macros as dark rectangles with their
/// instance names, ports as small circles on the boundary.
pub fn floorplan_svg(design: &Design, macro_placement: &MacroPlacement, title: &str) -> String {
    let mut canvas = Canvas::new(design.die());
    for m in &macro_placement.macros {
        let name = design.cell_name(m.cell);
        let short = name.rsplit('/').next().unwrap_or(name);
        canvas.rect(m.footprint(design), "#7a8ba8", "#2c3d57", Some(short));
    }
    for (_, port) in design.ports() {
        if let Some(pos) = port.position {
            let x = canvas.x(pos.x);
            let y = canvas.y(pos.y);
            let _ = writeln!(
                canvas.body,
                r##"  <circle cx="{x:.1}" cy="{y:.1}" r="3" fill="#c0392b"/>"##
            );
        }
    }
    canvas.finish(title)
}

/// Renders a density map as an SVG heat map (white → red).
pub fn density_svg(die: Rect, density: &DensityMap, title: &str) -> String {
    let mut canvas = Canvas::new(die);
    let bins = density.bins;
    let peak = density.peak().max(1e-12);
    let bin_w = die.width() as f64 / bins as f64;
    let bin_h = die.height() as f64 / bins as f64;
    for bx in 0..bins {
        for by in 0..bins {
            let v = (density.at(bx, by) / peak).clamp(0.0, 1.0);
            let red = 255;
            let other = (255.0 * (1.0 - v)) as u8;
            let rect = Rect::new(
                die.llx + (bx as f64 * bin_w) as i64,
                die.lly + (by as f64 * bin_h) as i64,
                die.llx + ((bx + 1) as f64 * bin_w) as i64,
                die.lly + ((by + 1) as f64 * bin_h) as i64,
            );
            let fill = format!("#{red:02x}{other:02x}{other:02x}");
            canvas.rect(rect, &fill, "none", None);
        }
    }
    canvas.finish(title)
}

/// Renders a block-level floorplan with dataflow affinity edges between block
/// centers — the equivalent of the paper's Fig. 9d. `affinity[i][j]` controls
/// the edge thickness; edges below `min_affinity` are omitted.
pub fn dataflow_svg(
    die: Rect,
    blocks: &[(String, Rect)],
    affinity: &[Vec<f64>],
    min_affinity: f64,
    title: &str,
) -> String {
    let mut canvas = Canvas::new(die);
    let palette =
        ["#8dd3c7", "#ffffb3", "#bebada", "#fb8072", "#80b1d3", "#fdb462", "#b3de69", "#fccde5"];
    for (i, (name, rect)) in blocks.iter().enumerate() {
        canvas.rect(*rect, palette[i % palette.len()], "#404040", Some(name));
    }
    // affinity edges, thickness proportional to the affinity
    let max_aff = affinity.iter().flatten().copied().fold(0.0_f64, f64::max).max(1e-12);
    for i in 0..blocks.len().min(affinity.len()) {
        for j in (i + 1)..blocks.len().min(affinity.len()) {
            let a = affinity[i][j];
            if a < min_affinity {
                continue;
            }
            let width = 1.0 + 7.0 * (a / max_aff);
            canvas.line(blocks[i].1.center(), blocks[j].1.center(), width, "#d35400");
        }
    }
    canvas.finish(title)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::placer::CellPlacement;
    use geometry::Orientation;
    use netlist::design::{CellId, DesignBuilder, PortDirection};
    use netlist::PlacedMacro;

    fn design() -> (Design, CellId) {
        let mut b = DesignBuilder::new("t");
        let m = b.add_macro("u_mem/ram0", "RAM", 200, 100, "u_mem");
        let p = b.add_port("clk", PortDirection::Input);
        b.place_port(p, Point::new(0, 500));
        b.set_die(Rect::new(0, 0, 1000, 1000));
        (b.build(), m)
    }

    #[test]
    fn floorplan_svg_contains_macro_and_port() {
        let (d, m) = design();
        let mp: MacroPlacement =
            [PlacedMacro::new(m, Point::new(100, 100), Orientation::N)].into_iter().collect();
        let svg = floorplan_svg(&d, &mp, "test floorplan");
        assert!(svg.starts_with("<svg"));
        assert!(svg.contains("ram0"));
        assert!(svg.contains("circle"));
        assert!(svg.contains("</svg>"));
    }

    #[test]
    fn density_svg_has_one_cell_per_bin() {
        let (d, _) = design();
        let density =
            DensityMap::compute(&d, &CellPlacement::default(), &MacroPlacement::default(), 4);
        let svg = density_svg(d.die(), &density, "density");
        assert_eq!(svg.matches("<rect").count(), 1 + 16); // background + bins
    }

    #[test]
    fn dataflow_svg_draws_edges_above_threshold() {
        let die = Rect::new(0, 0, 1000, 1000);
        let blocks = vec![
            ("A".to_string(), Rect::new(0, 0, 400, 400)),
            ("B".to_string(), Rect::new(600, 600, 1000, 1000)),
            ("X".to_string(), Rect::new(0, 600, 400, 1000)),
        ];
        let affinity = vec![vec![0.0, 50.0, 0.1], vec![50.0, 0.0, 0.0], vec![0.1, 0.0, 0.0]];
        let svg = dataflow_svg(die, &blocks, &affinity, 1.0, "gdf");
        assert_eq!(svg.matches("<line").count(), 1, "only the A-B edge is above threshold");
        assert!(svg.contains(">A<"));
    }

    #[test]
    fn xml_escaping() {
        assert_eq!(xml_escape("a<b>&c"), "a&lt;b&gt;&amp;c");
    }
}
