//! Cell library: macro and standard-cell footprints with pin locations.
//!
//! Populated either programmatically (by the workload generator) or by the
//! [`crate::lef`] parser.

use geometry::{Dbu, Point};
use std::collections::HashMap;

/// A pin of a library macro, with its location in the macro's local frame.
#[derive(Debug, Clone, PartialEq)]
pub struct PinDef {
    /// Pin name (e.g. `D[12]`, `Q`, `CLK`).
    pub name: String,
    /// Location of the pin relative to the macro's lower-left corner.
    pub offset: Point,
}

/// A library cell definition (macro or standard cell).
#[derive(Debug, Clone, PartialEq)]
pub struct MacroDef {
    /// Library cell name (e.g. `RAM256x32`).
    pub name: String,
    /// Footprint width in DBU.
    pub width: Dbu,
    /// Footprint height in DBU.
    pub height: Dbu,
    /// `true` for hard macros (LEF `CLASS BLOCK`), `false` for standard cells.
    pub is_block: bool,
    /// Pins of the cell.
    pub pins: Vec<PinDef>,
}

impl MacroDef {
    /// Footprint area in DBU².
    pub fn area(&self) -> i128 {
        self.width as i128 * self.height as i128
    }

    /// Finds a pin by name.
    pub fn find_pin(&self, name: &str) -> Option<&PinDef> {
        self.pins.iter().find(|p| p.name == name)
    }
}

/// A collection of library cells indexed by name.
///
/// # Example
///
/// ```
/// use netlist::library::{Library, MacroDef};
///
/// let mut lib = Library::new();
/// lib.add_macro(MacroDef {
///     name: "RAM64x32".into(),
///     width: 120_000,
///     height: 80_000,
///     is_block: true,
///     pins: Vec::new(),
/// });
/// assert!(lib.find_macro("RAM64x32").is_some());
/// assert_eq!(lib.blocks().count(), 1);
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Library {
    macros: Vec<MacroDef>,
    index: HashMap<String, usize>,
}

impl Library {
    /// Creates an empty library.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds (or replaces) a cell definition.
    pub fn add_macro(&mut self, def: MacroDef) {
        if let Some(&i) = self.index.get(&def.name) {
            self.macros[i] = def;
        } else {
            self.index.insert(def.name.clone(), self.macros.len());
            self.macros.push(def);
        }
    }

    /// Looks a cell definition up by name.
    pub fn find_macro(&self, name: &str) -> Option<&MacroDef> {
        self.index.get(name).map(|&i| &self.macros[i])
    }

    /// Iterates over every cell definition.
    pub fn iter(&self) -> impl Iterator<Item = &MacroDef> + '_ {
        self.macros.iter()
    }

    /// Iterates over hard-macro definitions only.
    pub fn blocks(&self) -> impl Iterator<Item = &MacroDef> + '_ {
        self.macros.iter().filter(|m| m.is_block)
    }

    /// Number of cell definitions.
    pub fn len(&self) -> usize {
        self.macros.len()
    }

    /// Returns `true` when the library has no cells.
    pub fn is_empty(&self) -> bool {
        self.macros.is_empty()
    }
}

impl Extend<MacroDef> for Library {
    fn extend<T: IntoIterator<Item = MacroDef>>(&mut self, iter: T) {
        for def in iter {
            self.add_macro(def);
        }
    }
}

impl FromIterator<MacroDef> for Library {
    fn from_iter<T: IntoIterator<Item = MacroDef>>(iter: T) -> Self {
        let mut lib = Library::new();
        lib.extend(iter);
        lib
    }
}

impl crate::heap_size::HeapSize for PinDef {
    fn heap_bytes(&self) -> usize {
        self.name.heap_bytes()
    }
}

impl crate::heap_size::HeapSize for MacroDef {
    fn heap_bytes(&self) -> usize {
        self.name.heap_bytes() + self.pins.heap_bytes()
    }
}

impl crate::heap_size::HeapSize for Library {
    fn heap_bytes(&self) -> usize {
        self.macros.heap_bytes() + self.index.heap_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ram() -> MacroDef {
        MacroDef {
            name: "RAM".into(),
            width: 100,
            height: 60,
            is_block: true,
            pins: vec![PinDef { name: "Q[0]".into(), offset: Point::new(0, 10) }],
        }
    }

    #[test]
    fn add_and_find() {
        let mut lib = Library::new();
        lib.add_macro(ram());
        assert_eq!(lib.len(), 1);
        let m = lib.find_macro("RAM").unwrap();
        assert_eq!(m.area(), 6000);
        assert!(m.find_pin("Q[0]").is_some());
        assert!(m.find_pin("Q[1]").is_none());
        assert!(lib.find_macro("ROM").is_none());
    }

    #[test]
    fn replace_keeps_single_entry() {
        let mut lib = Library::new();
        lib.add_macro(ram());
        let mut r2 = ram();
        r2.width = 200;
        lib.add_macro(r2);
        assert_eq!(lib.len(), 1);
        assert_eq!(lib.find_macro("RAM").unwrap().width, 200);
    }

    #[test]
    fn blocks_filters_standard_cells() {
        let mut lib = Library::new();
        lib.add_macro(ram());
        lib.add_macro(MacroDef {
            name: "DFF".into(),
            width: 2,
            height: 1,
            is_block: false,
            pins: vec![],
        });
        assert_eq!(lib.blocks().count(), 1);
        assert_eq!(lib.iter().count(), 2);
    }

    #[test]
    fn from_iterator_collects() {
        let lib: Library = vec![ram()].into_iter().collect();
        assert_eq!(lib.len(), 1);
    }
}
