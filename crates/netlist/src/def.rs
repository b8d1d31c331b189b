//! DEF (Design Exchange Format) reader and writer.
//!
//! The supported subset covers what a macro-placement flow needs:
//!
//! * `DESIGN`, `UNITS DISTANCE MICRONS`, `DIEAREA`,
//! * `COMPONENTS ... END COMPONENTS` with `PLACED` / `FIXED` / `UNPLACED`
//!   locations and orientations,
//! * `PINS ... END PINS` with `PLACED` locations.
//!
//! The writer emits the same subset, which is enough to hand a macro
//! placement to a downstream standard-cell placement tool (or to re-read it
//! with this crate; see the round-trip tests).
//!
//! The reader is *streaming*: words are borrowed slices of the source text
//! produced by a cursor with a small bounded lookahead buffer, never a
//! materialized vector of owned `String` tokens.

use crate::design::Design;
use crate::error::ParseError;
use crate::placement::{MacroPlacement, PlacedMacro};
use geometry::{Dbu, Orientation, Point, Rect};
use std::collections::VecDeque;

/// Placement status of a DEF component.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlaceStatus {
    /// Placed but movable.
    Placed,
    /// Placed and fixed.
    Fixed,
    /// Not placed.
    Unplaced,
}

/// One component (cell instance) entry of a DEF file.
#[derive(Debug, Clone, PartialEq)]
// lint:allow(heap-size): parser AST transient; consumed by apply_to and dropped
pub struct DefComponent {
    /// Instance name.
    pub name: String,
    /// Library cell name.
    pub cell: String,
    /// Placement status.
    pub status: PlaceStatus,
    /// Lower-left placement location (valid unless `Unplaced`).
    pub location: Point,
    /// Orientation.
    pub orientation: Orientation,
}

/// One pin (primary port) entry of a DEF file.
#[derive(Debug, Clone, PartialEq)]
// lint:allow(heap-size): parser AST transient; consumed by apply_to and dropped
pub struct DefPin {
    /// Pin name.
    pub name: String,
    /// Location, if placed.
    pub location: Option<Point>,
}

/// Parsed contents of a DEF file.
#[derive(Debug, Clone, PartialEq, Default)]
// lint:allow(heap-size): parser AST transient; consumed by apply_to and dropped
pub struct DefFile {
    /// Design name.
    pub design: String,
    /// Database units per micron.
    pub dbu_per_micron: i64,
    /// Die area.
    pub die: Rect,
    /// Component placements.
    pub components: Vec<DefComponent>,
    /// Pin placements.
    pub pins: Vec<DefPin>,
}

impl DefFile {
    /// Looks up a component by instance name.
    pub fn find_component(&self, name: &str) -> Option<&DefComponent> {
        self.components.iter().find(|c| c.name == name)
    }

    /// Applies the placements in this DEF to a design: sets the die area,
    /// places the pins and returns the placed components that name a design
    /// cell, one entry per cell, sorted by cell. A cell placed on more than
    /// one line takes the last line's location and orientation.
    pub fn apply_to(&self, design: &mut Design) -> MacroPlacement {
        design.set_die(self.die);
        // collecting sorts by cell and keeps a cell's lines in file order, so
        // the dedup folds each later line into the entry it keeps
        let mut placement: MacroPlacement = self
            .components
            .iter()
            .filter(|comp| comp.status != PlaceStatus::Unplaced)
            .filter_map(|comp| {
                let cell = design.find_cell(&comp.name)?;
                Some(PlacedMacro::new(cell, comp.location, comp.orientation))
            })
            .collect();
        placement.macros.dedup_by(|later, kept| {
            let repeat = later.cell == kept.cell;
            if repeat {
                *kept = *later;
            }
            repeat
        });
        for pin in &self.pins {
            if let (Some(pos), Some(pid)) = (pin.location, design.find_port(&pin.name)) {
                design.set_port_position(pid, Some(pos));
            }
        }
        placement
    }
}

/// Streaming word lexer with bounded lookahead: whitespace-separated words
/// with `#` comments stripped and trailing `;` split into its own token.
struct Lexer<'a> {
    /// The text not yet lexed.
    rest: &'a str,
    line: usize,
    pending_semi: Option<usize>,
    buf: VecDeque<(usize, &'a str)>,
}

impl<'a> Lexer<'a> {
    fn new(text: &'a str) -> Self {
        Self { rest: text, line: 1, pending_semi: None, buf: VecDeque::new() }
    }

    fn next_raw(&mut self) -> Option<(usize, &'a str)> {
        if let Some(line) = self.pending_semi.take() {
            return Some((line, ";"));
        }
        loop {
            let mut chars = self.rest.chars();
            let c = chars.next()?;
            match c {
                '\n' => {
                    self.line += 1;
                    self.rest = chars.as_str();
                }
                c if c.is_whitespace() => self.rest = chars.as_str(),
                // the comment runs up to (not through) its newline
                '#' => {
                    self.rest = self.rest.find('\n').and_then(|n| self.rest.get(n..)).unwrap_or("")
                }
                _ => {
                    let end = self
                        .rest
                        .find(|c2: char| c2.is_whitespace() || c2 == '#')
                        .unwrap_or(self.rest.len());
                    let (word, rest) = self.rest.split_at_checked(end)?;
                    self.rest = rest;
                    let line = self.line;
                    if word != ";" && word.ends_with(';') {
                        self.pending_semi = Some(line);
                        return Some((line, word.trim_end_matches(';')));
                    }
                    return Some((line, word));
                }
            }
        }
    }

    /// Peeks the token `k` positions ahead (0 = the next token).
    fn peek_at(&mut self, k: usize) -> Option<(usize, &'a str)> {
        while self.buf.len() <= k {
            let t = self.next_raw()?;
            self.buf.push_back(t);
        }
        self.buf.get(k).copied()
    }

    fn peek(&mut self) -> Option<(usize, &'a str)> {
        self.peek_at(0)
    }

    fn next(&mut self) -> Option<(usize, &'a str)> {
        if let Some(t) = self.buf.pop_front() {
            return Some(t);
        }
        self.next_raw()
    }
}

/// Reads a number as DBU, rounded. A number that is not finite or does not
/// fit an `i64` is an error.
fn parse_int_tok(line: usize, t: &str) -> Result<i64, ParseError> {
    t.parse::<f64>()
        .ok()
        .filter(|v| v.is_finite() && v.abs() < i64::MAX as f64)
        .map(|v| v.round() as i64)
        .ok_or_else(|| ParseError::at_line(line, format!("invalid number '{t}'")))
}

/// Collects the next `N` numeric tokens (skipping parentheses, stopping at
/// `;`) by peeking from `offset` without consuming anything.
fn peek_numbers<const N: usize>(lx: &mut Lexer<'_>, offset: usize) -> Result<[Dbu; N], ParseError> {
    let mut nums = [0; N];
    let mut k = offset;
    for num in &mut nums {
        loop {
            match lx.peek_at(k) {
                Some((_, "(" | ")")) => k += 1,
                Some((line, t)) if t != ";" => {
                    *num = parse_int_tok(line, t)?;
                    k += 1;
                    break;
                }
                _ => return Err(ParseError::new("not enough numeric fields")),
            }
        }
    }
    Ok(nums)
}

/// Consumes tokens until `N` numbers have been read, skipping parentheses
/// and stopping (without consuming) at `;`.
fn take_numbers<const N: usize>(lx: &mut Lexer<'_>) -> Result<[Dbu; N], ParseError> {
    let mut nums = [0; N];
    for num in &mut nums {
        loop {
            match lx.peek() {
                Some((_, "(" | ")")) => {
                    lx.next();
                }
                Some((line, t)) if t != ";" => {
                    *num = parse_int_tok(line, t)?;
                    lx.next();
                    break;
                }
                _ => return Err(ParseError::new("not enough numeric fields")),
            }
        }
    }
    Ok(nums)
}

/// Parses DEF text.
///
/// # Errors
///
/// Returns [`ParseError`] when required numeric fields are malformed or
/// sections are not terminated.
pub fn parse_def(text: &str) -> Result<DefFile, ParseError> {
    let mut def = DefFile { dbu_per_micron: 1000, ..Default::default() };
    let mut lx = Lexer::new(text);
    while let Some((line, tok)) = lx.peek() {
        match tok {
            "DESIGN" => {
                lx.next();
                if let Some((_, t)) = lx.peek() {
                    def.design = t.to_string();
                    lx.next();
                }
            }
            "UNITS" => {
                // UNITS DISTANCE MICRONS n ;
                let found = (1..6).find(|&k| matches!(lx.peek_at(k), Some((_, "MICRONS"))));
                match found {
                    Some(k) => {
                        let (line, t) = lx
                            .peek_at(k + 1)
                            .ok_or_else(|| ParseError::new("unexpected end of DEF"))?;
                        def.dbu_per_micron = parse_int_tok(line, t)?;
                        if def.dbu_per_micron <= 0 {
                            return Err(ParseError::at_line(
                                line,
                                format!("invalid DISTANCE MICRONS value '{t}' (must be positive)"),
                            ));
                        }
                        for _ in 0..=(k + 1) {
                            lx.next();
                        }
                    }
                    None => {
                        lx.next();
                    }
                }
            }
            "DIEAREA" => {
                // DIEAREA ( x1 y1 ) ( x2 y2 ) ;
                let [llx, lly, urx, ury] = peek_numbers(&mut lx, 1)?;
                if urx < llx || ury < lly {
                    return Err(ParseError::at_line(
                        line,
                        format!(
                            "DIEAREA ( {llx} {lly} ) ( {urx} {ury} ): the second corner must be \
                             the upper right"
                        ),
                    ));
                }
                def.die = Rect::new(llx, lly, urx, ury);
                lx.next();
            }
            "COMPONENTS" => {
                lx.next();
                def.components = parse_components(&mut lx)?;
            }
            "PINS" => {
                lx.next();
                def.pins = parse_pins(&mut lx)?;
            }
            _ => {
                lx.next();
            }
        }
    }
    Ok(def)
}

fn parse_components(lx: &mut Lexer<'_>) -> Result<Vec<DefComponent>, ParseError> {
    let mut components = Vec::new();
    // optional count then ';'
    while let Some((_, t)) = lx.peek() {
        if t == ";" {
            break;
        }
        lx.next();
    }
    lx.next();
    loop {
        let Some((line, tok)) = lx.peek() else {
            return Err(ParseError::new("unterminated COMPONENTS section"));
        };
        if tok == "END" && lx.peek_at(1).map(|(_, t)| t) == Some("COMPONENTS") {
            lx.next();
            lx.next();
            return Ok(components);
        }
        if tok == "-" {
            lx.next();
            let name = lx
                .next()
                .ok_or_else(|| ParseError::at_line(line, "component without a name"))?
                .1
                .to_string();
            let cell = lx
                .next()
                .ok_or_else(|| ParseError::at_line(line, "component without a cell"))?
                .1
                .to_string();
            let mut comp = DefComponent {
                name,
                cell,
                status: PlaceStatus::Unplaced,
                location: Point::origin(),
                orientation: Orientation::N,
            };
            while let Some((_, t)) = lx.peek() {
                if t == ";" {
                    break;
                }
                match t {
                    "+" => {
                        lx.next();
                    }
                    "PLACED" | "FIXED" => {
                        comp.status =
                            if t == "FIXED" { PlaceStatus::Fixed } else { PlaceStatus::Placed };
                        lx.next();
                        let [x, y] = take_numbers(lx)?;
                        comp.location = Point::new(x, y);
                        // orientation is the token following the closing paren
                        while matches!(lx.peek(), Some((_, "(" | ")"))) {
                            lx.next();
                        }
                        if let Some(o) =
                            lx.peek().and_then(|(_, t2)| Orientation::from_def_name(t2))
                        {
                            comp.orientation = o;
                            lx.next();
                        }
                    }
                    "UNPLACED" => {
                        comp.status = PlaceStatus::Unplaced;
                        lx.next();
                    }
                    _ => {
                        lx.next();
                    }
                }
            }
            components.push(comp);
            lx.next(); // skip ';'
        } else {
            lx.next();
        }
    }
}

fn parse_pins(lx: &mut Lexer<'_>) -> Result<Vec<DefPin>, ParseError> {
    let mut pins = Vec::new();
    while let Some((_, t)) = lx.peek() {
        if t == ";" {
            break;
        }
        lx.next();
    }
    lx.next();
    loop {
        let Some((line, tok)) = lx.peek() else {
            return Err(ParseError::new("unterminated PINS section"));
        };
        if tok == "END" && lx.peek_at(1).map(|(_, t)| t) == Some("PINS") {
            lx.next();
            lx.next();
            return Ok(pins);
        }
        if tok == "-" {
            lx.next();
            let name = lx
                .next()
                .ok_or_else(|| ParseError::at_line(line, "pin without a name"))?
                .1
                .to_string();
            let mut pin = DefPin { name, location: None };
            while let Some((_, t)) = lx.peek() {
                if t == ";" {
                    break;
                }
                if t == "PLACED" || t == "FIXED" {
                    lx.next();
                    let [x, y] = take_numbers(lx)?;
                    pin.location = Some(Point::new(x, y));
                } else {
                    lx.next();
                }
            }
            pins.push(pin);
            lx.next();
        } else {
            lx.next();
        }
    }
}

/// A macro placement to be written out as DEF.
#[derive(Debug, Clone, PartialEq)]
// lint:allow(heap-size): DEF-emit transient; built, written out, dropped
pub struct PlacementEntry {
    /// Instance name.
    pub name: String,
    /// Library cell name.
    pub cell: String,
    /// Lower-left corner.
    pub location: Point,
    /// Orientation.
    pub orientation: Orientation,
    /// Emit as FIXED (true) or PLACED (false).
    pub fixed: bool,
}

/// Streams a DEF file — die area, macro placements and port locations — to
/// any [`std::io::Write`] sink.
///
/// This is the primary emit path: writing a `large_soc`-scale DEF through a
/// `BufWriter` never materializes the multi-megabyte text. [`write_def`] is
/// a thin wrapper for callers that do want the `String`, byte-identical to
/// this stream.
pub fn write_def_to<W: std::io::Write>(
    out: &mut W,
    design_name: &str,
    dbu_per_micron: i64,
    die: Rect,
    entries: &[PlacementEntry],
    pins: &[(String, Point)],
) -> std::io::Result<()> {
    out.write_all(b"VERSION 5.8 ;\n")?;
    writeln!(out, "DESIGN {design_name} ;")?;
    writeln!(out, "UNITS DISTANCE MICRONS {dbu_per_micron} ;")?;
    writeln!(out, "DIEAREA ( {} {} ) ( {} {} ) ;", die.llx, die.lly, die.urx, die.ury)?;
    writeln!(out, "COMPONENTS {} ;", entries.len())?;
    for p in entries {
        let status = if p.fixed { "FIXED" } else { "PLACED" };
        writeln!(
            out,
            "- {} {} + {} ( {} {} ) {} ;",
            p.name, p.cell, status, p.location.x, p.location.y, p.orientation
        )?;
    }
    out.write_all(b"END COMPONENTS\n")?;
    writeln!(out, "PINS {} ;", pins.len())?;
    for (name, pos) in pins {
        writeln!(out, "- {name} + NET {name} + PLACED ( {} {} ) N ;", pos.x, pos.y)?;
    }
    out.write_all(b"END PINS\n")?;
    out.write_all(b"END DESIGN\n")?;
    Ok(())
}

/// Writes a DEF file with the die area, macro placements and port locations
/// of a design, as one `String` (see [`write_def_to`] for the streaming
/// form this wraps).
pub fn write_def(
    design_name: &str,
    dbu_per_micron: i64,
    die: Rect,
    entries: &[PlacementEntry],
    pins: &[(String, Point)],
) -> String {
    let mut buf = Vec::new();
    write_def_to(&mut buf, design_name, dbu_per_micron, die, entries, pins)
        // lint:allow(daemon-panic): `io::Write` for `Vec<u8>` never returns an error
        .expect("writing to a Vec cannot fail");
    // lint:allow(daemon-panic): every write above formats `&str`s and integers, all UTF-8
    String::from_utf8(buf).expect("the DEF emitter writes UTF-8 only")
}

/// Builds the [`PlacementEntry`] list of a macro placement, sorted by
/// instance name.
pub fn placement_entries_from_view(
    design: &Design,
    placement: &MacroPlacement,
    fixed: bool,
) -> Vec<PlacementEntry> {
    let mut entries: Vec<PlacementEntry> = placement
        .macros
        .iter()
        .map(|m| PlacementEntry {
            name: design.cell_name(m.cell).to_owned(),
            cell: design.lib_cell(design.cell(m.cell).lib_cell).to_owned(),
            location: m.location,
            orientation: m.orientation,
            fixed,
        })
        .collect();
    entries.sort_by(|a, b| a.name.cmp(&b.name));
    entries
}

/// Convenience: collects the placed primary ports of a design as `(name, position)`.
pub fn port_entries(design: &Design) -> Vec<(String, Point)> {
    design
        .ports()
        .filter_map(|(id, p)| p.position.map(|pos| (design.port_name(id).to_owned(), pos)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    const DEF: &str = r#"
VERSION 5.8 ;
DESIGN chip_top ;
UNITS DISTANCE MICRONS 2000 ;
DIEAREA ( 0 0 ) ( 400000 300000 ) ;
COMPONENTS 3 ;
- u_mem/ram0 RAM256x32 + PLACED ( 1000 2000 ) N ;
- u_mem/ram1 RAM256x32 + FIXED ( 50000 2000 ) FN ;
- u_ctl/misc BUFX2 + UNPLACED ;
END COMPONENTS
PINS 2 ;
- clk + NET clk + DIRECTION INPUT + PLACED ( 0 150000 ) N ;
- rst_n + NET rst_n ;
END PINS
END DESIGN
"#;

    #[test]
    fn parses_header_and_die() {
        let d = parse_def(DEF).unwrap();
        assert_eq!(d.design, "chip_top");
        assert_eq!(d.dbu_per_micron, 2000);
        assert_eq!(d.die, Rect::new(0, 0, 400000, 300000));
    }

    #[test]
    fn parses_components_with_status_and_orientation() {
        let d = parse_def(DEF).unwrap();
        assert_eq!(d.components.len(), 3);
        let r0 = d.find_component("u_mem/ram0").unwrap();
        assert_eq!(r0.status, PlaceStatus::Placed);
        assert_eq!(r0.location, Point::new(1000, 2000));
        assert_eq!(r0.orientation, Orientation::N);
        let r1 = d.find_component("u_mem/ram1").unwrap();
        assert_eq!(r1.status, PlaceStatus::Fixed);
        assert_eq!(r1.orientation, Orientation::FN);
        let misc = d.find_component("u_ctl/misc").unwrap();
        assert_eq!(misc.status, PlaceStatus::Unplaced);
    }

    #[test]
    fn parses_pins() {
        let d = parse_def(DEF).unwrap();
        assert_eq!(d.pins.len(), 2);
        assert_eq!(d.pins[0].location, Some(Point::new(0, 150000)));
        assert_eq!(d.pins[1].location, None);
    }

    #[test]
    fn write_then_parse_roundtrip() {
        let placements = vec![
            PlacementEntry {
                name: "a/ram0".into(),
                cell: "RAM".into(),
                location: Point::new(10, 20),
                orientation: Orientation::FS,
                fixed: true,
            },
            PlacementEntry {
                name: "b/ram1".into(),
                cell: "RAM".into(),
                location: Point::new(500, 600),
                orientation: Orientation::W,
                fixed: false,
            },
        ];
        let pins = vec![("clk".to_string(), Point::new(0, 5))];
        let text = write_def("t", 1000, Rect::new(0, 0, 1000, 1000), &placements, &pins);
        let parsed = parse_def(&text).unwrap();
        assert_eq!(parsed.design, "t");
        assert_eq!(parsed.components.len(), 2);
        let a = parsed.find_component("a/ram0").unwrap();
        assert_eq!(a.status, PlaceStatus::Fixed);
        assert_eq!(a.location, Point::new(10, 20));
        assert_eq!(a.orientation, Orientation::FS);
        let b = parsed.find_component("b/ram1").unwrap();
        assert_eq!(b.status, PlaceStatus::Placed);
        assert_eq!(b.orientation, Orientation::W);
        assert_eq!(parsed.pins.len(), 1);
        assert_eq!(parsed.pins[0].location, Some(Point::new(0, 5)));
    }

    #[test]
    fn unterminated_components_is_error() {
        let text = "COMPONENTS 1 ;\n- a CELL + PLACED ( 0 0 ) N ;\n";
        assert!(parse_def(text).is_err());
    }

    #[test]
    fn swapped_diearea_corners_are_an_error_with_their_line() {
        let text = "DESIGN t ;\nDIEAREA ( 1023363 852803 ) ( 0 0 ) ;\n";
        let err = parse_def(text).unwrap_err();
        assert_eq!(err.line, Some(2), "{err}");
        assert!(err.message.contains("DIEAREA"), "{err}");
        assert!(parse_def("DIEAREA ( 0 10 ) ( 10 0 ) ;\n").is_err());
    }

    #[test]
    fn non_finite_and_non_positive_values_are_errors_with_their_line() {
        for text in [
            "DIEAREA ( 0 0 ) ( inf 10 ) ;\n",
            "DIEAREA ( 0 NaN ) ( 10 10 ) ;\n",
            "COMPONENTS 1 ;\n- a CELL + PLACED ( 1e300 0 ) N ;\nEND COMPONENTS\n",
            "PINS 1 ;\n- p + PLACED ( 0 -inf ) N ;\nEND PINS\n",
            "UNITS DISTANCE MICRONS 0 ;\n",
            "UNITS DISTANCE MICRONS -2000 ;\n",
        ] {
            let err = parse_def(text).unwrap_err();
            assert!(err.line.is_some(), "{text}: {err}");
        }
    }

    #[test]
    fn apply_to_design_sets_positions() {
        use crate::design::{DesignBuilder, PortDirection};
        let mut b = DesignBuilder::new("chip_top");
        b.add_macro("u_mem/ram0", "RAM256x32", 100, 100, "u_mem");
        b.add_port("clk", PortDirection::Input);
        let mut design = b.build();
        let def = parse_def(DEF).unwrap();
        let placements = def.apply_to(&mut design);
        assert_eq!(placements.macros.len(), 2 - 1); // ram1 not in design, misc unplaced
        assert_eq!(design.die().width(), 400000);
        let clk = design.find_port("clk").unwrap();
        assert_eq!(design.port(clk).position, Some(Point::new(0, 150000)));
    }

    #[test]
    fn apply_to_sorts_by_cell_and_the_last_line_wins() {
        use crate::design::DesignBuilder;
        let mut b = DesignBuilder::new("top");
        let m0 = b.add_macro("m0", "RAM", 100, 100, "");
        let m1 = b.add_macro("m1", "RAM", 100, 100, "");
        let m2 = b.add_macro("m2", "RAM", 100, 100, "");
        let mut design = b.build();
        let def = parse_def(
            "DIEAREA ( 0 0 ) ( 1000 1000 ) ;\nCOMPONENTS 5 ;\n\
             - m2 RAM + PLACED ( 30 30 ) N ;\n\
             - m0 RAM + PLACED ( 10 10 ) FN ;\n\
             - m2 RAM + FIXED ( 40 40 ) S ;\n\
             - m1 RAM + UNPLACED ;\n\
             - ghost RAM + PLACED ( 0 0 ) N ;\n\
             END COMPONENTS\n",
        )
        .unwrap();
        let placement = def.apply_to(&mut design);
        let at = |cell, x, y, orientation| PlacedMacro::new(cell, Point::new(x, y), orientation);
        assert_eq!(
            placement.macros,
            vec![at(m0, 10, 10, Orientation::FN), at(m2, 40, 40, Orientation::S)],
            "one entry per placed design cell, in cell order, the later m2 line kept"
        );
        assert!(placement.placement_of(m1).is_none(), "an UNPLACED component is left out");
        assert!(placement.top_blocks.is_empty());
    }
}
