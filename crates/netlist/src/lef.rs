//! LEF (Library Exchange Format) parser.
//!
//! A pragmatic subset sufficient for macro placement:
//!
//! * `UNITS DATABASE MICRONS <n>` — the DBU scale,
//! * `MACRO <name> ... END <name>` blocks with
//!   * `CLASS BLOCK | CORE | PAD ...`,
//!   * `SIZE <w> BY <h>`,
//!   * `PIN <name> ... PORT ... RECT x1 y1 x2 y2 ... END <name>`.
//!
//! Everything else (layers, sites, obstruction geometry) is skipped.
//!
//! The lexer is *streaming*: it yields `(line, &str)` words borrowed from the
//! source text one at a time instead of materializing a token vector of owned
//! `String`s (which dominates peak memory on large libraries).

use crate::error::ParseError;
use crate::library::{Library, MacroDef, PinDef};
use geometry::{Dbu, Point};

/// Result of parsing a LEF file.
#[derive(Debug, Clone, PartialEq)]
pub struct LefFile {
    /// Database units per micron (defaults to 1000 when not specified).
    pub dbu_per_micron: i64,
    /// The parsed library.
    pub library: Library,
}

/// Streaming word lexer: whitespace-separated words with `#` comments
/// stripped and a trailing `;` split into its own token.
struct Lexer<'a> {
    /// The text not yet lexed.
    rest: &'a str,
    line: usize,
    pending_semi: Option<usize>,
    peeked: Option<(usize, &'a str)>,
}

impl<'a> Lexer<'a> {
    fn new(text: &'a str) -> Self {
        Self { rest: text, line: 1, pending_semi: None, peeked: None }
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
                    if word == ";" {
                        return Some((line, ";"));
                    }
                    if let Some(stripped) = word.strip_suffix(';') {
                        self.pending_semi = Some(line);
                        if !stripped.is_empty() {
                            return Some((line, stripped));
                        }
                        return Some((line, ";"));
                    }
                    return Some((line, word));
                }
            }
        }
    }

    fn peek(&mut self) -> Option<(usize, &'a str)> {
        if self.peeked.is_none() {
            self.peeked = self.next_raw();
        }
        self.peeked
    }

    fn next(&mut self) -> Option<(usize, &'a str)> {
        self.peek();
        self.peeked.take()
    }
}

/// Parses LEF text.
///
/// # Errors
///
/// Returns [`ParseError`] on structurally malformed input (unterminated macro
/// blocks, malformed numbers in `SIZE` statements, ...). Unknown statements
/// are skipped, matching how LEF readers typically behave.
pub fn parse_lef(text: &str) -> Result<LefFile, ParseError> {
    let mut dbu_per_micron: i64 = 1000;
    let mut library = Library::new();
    let mut lx = Lexer::new(text);
    while let Some((line, tok)) = lx.next() {
        match tok {
            "UNITS" => {
                // UNITS DATABASE MICRONS <n> ; ... END UNITS
                while let Some((_, t)) = lx.peek() {
                    if t == "END" {
                        break;
                    }
                    lx.next();
                    if t == "MICRONS" {
                        if let Some((vline, v)) = lx.peek() {
                            dbu_per_micron = v
                                .parse::<f64>()
                                .ok()
                                .filter(|v| v.is_finite())
                                .map(|v| v as i64)
                                .filter(|&dbu| dbu > 0)
                                .ok_or_else(|| {
                                    ParseError::at_line(
                                        vline,
                                        format!("invalid DATABASE MICRONS value '{v}' (must be a positive number)"),
                                    )
                                })?;
                        }
                    }
                }
                // skip "END UNITS"
                if lx.peek().is_some() {
                    lx.next();
                    if lx.peek().map(|(_, t)| t) == Some("UNITS") {
                        lx.next();
                    }
                }
            }
            "MACRO" => {
                let def = parse_macro(&mut lx, line, dbu_per_micron)?;
                library.add_macro(def);
            }
            _ => {}
        }
    }
    Ok(LefFile { dbu_per_micron, library })
}

fn parse_macro(lx: &mut Lexer<'_>, start_line: usize, dbu: i64) -> Result<MacroDef, ParseError> {
    let name = lx
        .next()
        .ok_or_else(|| ParseError::at_line(start_line, "MACRO without a name"))?
        .1
        .to_string();
    let mut def =
        MacroDef { name: name.clone(), width: 0, height: 0, is_block: false, pins: Vec::new() };
    while let Some((line, tok)) = lx.next() {
        match tok {
            "CLASS" => {
                if let Some((_, t)) = lx.next() {
                    def.is_block = t == "BLOCK" || t == "RING";
                }
            }
            "SIZE" => {
                // SIZE w BY h ;
                let w = next_micron(lx, dbu)?;
                if lx.next().map(|(_, t)| t) != Some("BY") {
                    return Err(ParseError::at_line(line, "SIZE missing BY keyword"));
                }
                let h = next_micron(lx, dbu)?;
                if w < 0 || h < 0 {
                    return Err(ParseError::at_line(
                        line,
                        format!("negative SIZE of MACRO {name}"),
                    ));
                }
                def.width = w;
                def.height = h;
            }
            "PIN" => {
                def.pins.push(parse_pin(lx, line, dbu)?);
            }
            // END <name> terminates the macro; a bare END belongs to a nested block we skipped.
            "END" if lx.peek().map(|(_, t)| t) == Some(name.as_str()) => {
                lx.next();
                return Ok(def);
            }
            _ => {}
        }
    }
    Err(ParseError::at_line(start_line, format!("unterminated MACRO {name}")))
}

fn parse_pin(lx: &mut Lexer<'_>, start_line: usize, dbu: i64) -> Result<PinDef, ParseError> {
    let name = lx
        .next()
        .ok_or_else(|| ParseError::at_line(start_line, "PIN without a name"))?
        .1
        .to_string();
    let mut offset = Point::origin();
    let mut have_rect = false;
    while let Some((_, tok)) = lx.next() {
        match tok {
            "RECT" => {
                let x1 = next_micron(lx, dbu)?;
                let y1 = next_micron(lx, dbu)?;
                let x2 = next_micron(lx, dbu)?;
                let y2 = next_micron(lx, dbu)?;
                if !have_rect {
                    offset = Point::new(midpoint(x1, x2), midpoint(y1, y2));
                    have_rect = true;
                }
            }
            "END" if lx.peek().map(|(_, t)| t) == Some(name.as_str()) => {
                lx.next();
                return Ok(PinDef { name, offset });
            }
            _ => {}
        }
    }
    Err(ParseError::at_line(start_line, format!("unterminated PIN {name}")))
}

/// Reads a length in microns as DBU. A number that is not finite or whose
/// DBU value does not fit an `i64` is an error.
fn next_micron(lx: &mut Lexer<'_>, dbu: i64) -> Result<Dbu, ParseError> {
    let (line, t) =
        lx.next().ok_or_else(|| ParseError::new("unexpected end of file in numeric field"))?;
    t.parse::<f64>()
        .ok()
        .map(|v| v * dbu as f64)
        .filter(|v| v.is_finite() && v.abs() < i64::MAX as f64)
        .map(|v| v.round() as Dbu)
        .ok_or_else(|| ParseError::at_line(line, format!("invalid number '{t}'")))
}

/// `(a + b) / 2` without overflowing.
fn midpoint(a: Dbu, b: Dbu) -> Dbu {
    ((i128::from(a) + i128::from(b)) / 2) as Dbu
}

#[cfg(test)]
mod tests {
    use super::*;

    const LEF: &str = r#"
VERSION 5.8 ;
UNITS
  DATABASE MICRONS 2000 ;
END UNITS

MACRO RAM256x32
  CLASS BLOCK ;
  SIZE 120.5 BY 80 ;
  PIN D[0]
    DIRECTION INPUT ;
    PORT
      LAYER M4 ;
      RECT 0.0 1.0 0.2 1.2 ;
    END
  END D[0]
  PIN Q[0]
    DIRECTION OUTPUT ;
    PORT
      RECT 120.3 1.0 120.5 1.2 ;
    END
  END Q[0]
END RAM256x32

MACRO DFFX1
  CLASS CORE ;
  SIZE 1.2 BY 0.8 ;
END DFFX1
"#;

    #[test]
    fn parses_units_and_macros() {
        let lef = parse_lef(LEF).unwrap();
        assert_eq!(lef.dbu_per_micron, 2000);
        assert_eq!(lef.library.len(), 2);
        let ram = lef.library.find_macro("RAM256x32").unwrap();
        assert!(ram.is_block);
        assert_eq!(ram.width, 241_000);
        assert_eq!(ram.height, 160_000);
        assert_eq!(ram.pins.len(), 2);
        let dff = lef.library.find_macro("DFFX1").unwrap();
        assert!(!dff.is_block);
        assert_eq!(dff.width, 2400);
    }

    #[test]
    fn pin_offset_is_rect_center() {
        let lef = parse_lef(LEF).unwrap();
        let ram = lef.library.find_macro("RAM256x32").unwrap();
        let d0 = ram.find_pin("D[0]").unwrap();
        assert_eq!(d0.offset, Point::new(200, 2200));
    }

    #[test]
    fn comments_are_ignored() {
        let lef = parse_lef("# just a comment\nMACRO M\n SIZE 1 BY 1 ;\nEND M\n").unwrap();
        assert_eq!(lef.library.len(), 1);
    }

    #[test]
    fn unterminated_macro_is_error() {
        assert!(parse_lef("MACRO M\n SIZE 1 BY 1 ;\n").is_err());
    }

    #[test]
    fn malformed_size_is_error() {
        assert!(parse_lef("MACRO M\n SIZE x BY 1 ;\nEND M\n").is_err());
        assert!(parse_lef("MACRO M\n SIZE 1 1 ;\nEND M\n").is_err());
    }

    #[test]
    fn negative_size_is_an_error_with_its_line() {
        let err = parse_lef("MACRO M\n CLASS BLOCK ;\n SIZE -60 BY 40 ;\nEND M\n").unwrap_err();
        assert_eq!(err.line, Some(3), "{err}");
        assert!(err.message.contains("negative SIZE"), "{err}");
        assert!(parse_lef("MACRO M\n SIZE 60 BY -0.5 ;\nEND M\n").is_err());
    }

    #[test]
    fn non_finite_numbers_are_errors_with_their_line() {
        for text in [
            "MACRO M\n SIZE inf BY 1 ;\nEND M\n",
            "MACRO M\n SIZE 1 BY NaN ;\nEND M\n",
            "MACRO M\n SIZE 1e300 BY 1 ;\nEND M\n",
            "MACRO M\n SIZE 1 BY 1 ;\n PIN A\n  PORT\n   RECT 0 0 -inf 1 ;\n  END\n END A\nEND M\n",
        ] {
            let err = parse_lef(text).unwrap_err();
            assert!(err.line.is_some() && err.message.contains("invalid number"), "{text}: {err}");
        }
    }

    #[test]
    fn non_positive_database_microns_is_an_error_with_its_line() {
        for units in ["0", "-1000", "0.5", "nan", "inf"] {
            let text = format!("UNITS\n  DATABASE MICRONS {units} ;\nEND UNITS\n");
            let err = parse_lef(&text).unwrap_err();
            assert_eq!(err.line, Some(2), "{units}: {err}");
            assert!(err.message.contains("DATABASE MICRONS"), "{units}: {err}");
        }
    }

    #[test]
    fn pin_offset_of_a_huge_rect_does_not_overflow() {
        let text = "MACRO M\n SIZE 1 BY 1 ;\n PIN A\n  PORT\n   RECT 9e15 9e15 9e15 9e15 ;\n  END\n END A\nEND M\n";
        let lef = parse_lef(text).unwrap();
        let offset = lef.library.find_macro("M").unwrap().find_pin("A").unwrap().offset;
        assert_eq!(offset, Point::new(9_000_000_000_000_000_000, 9_000_000_000_000_000_000));
    }

    #[test]
    fn default_dbu_is_1000() {
        let lef = parse_lef("MACRO M\n SIZE 2 BY 3 ;\nEND M\n").unwrap();
        assert_eq!(lef.dbu_per_micron, 1000);
        assert_eq!(lef.library.find_macro("M").unwrap().width, 2000);
    }

    #[test]
    fn inline_comment_terminates_a_word() {
        let lef = parse_lef("MACRO M# trailing\n SIZE 1 BY 1 ;\nEND M\n").unwrap();
        assert!(lef.library.find_macro("M").is_some());
    }
}
