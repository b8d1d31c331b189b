//! Structural (gate-level) Verilog parser.
//!
//! The parser supports the subset of Verilog that gate-level hierarchical
//! netlists use in practice:
//!
//! * `module` / `endmodule` with a port list,
//! * `input` / `output` / `inout` declarations, scalar or vectored (`[7:0]`),
//! * `wire` declarations, scalar or vectored,
//! * module / cell instantiations with named port connections
//!   (`CELL inst (.A(n1), .B(bus[3]), ...);`),
//! * `// line` and `/* block */` comments.
//!
//! Behavioural constructs (`always`, `assign` with expressions, parameters)
//! are *not* supported — the input is expected to be a synthesized netlist.
//!
//! The design is produced by flattening the module hierarchy starting at a
//! chosen top module; the instance path of every cell is recorded so the
//! hierarchy tree can be rebuilt (this is exactly the RTL-stage hierarchy
//! information the paper exploits).
//!
//! The parser is *streaming* and *borrowing*: a byte-level cursor produces
//! one token at a time as a span of the source text — never a materialized
//! token vector, which costs gigabytes at a million cells. Each module keeps
//! three local tables, filled in first-appearance order: the cell types its
//! instances name, the pin names they connect (`base[index][bit]`, with the
//! output flag decided once) and the net names they connect to (`n`,
//! `bus[3]`, `__const_1'b0`). Names are interned by how they are written, so
//! `\bus[3] ` and `bus[3]` are one net, and stored as spans of the source. A
//! connection is then two local ids, 8 bytes.
//!
//! Flattening gives each module instance an array from local net to design
//! net. An entry is filled at the net's first leaf connection in that
//! instance: through the instance's port binding to its parent's entry, else
//! by prefixing the instance path, and then the design's net table. So each
//! net name is written and looked up once per module instance, not once per
//! pin, and nets keep the ids of their first reference. A module's cell
//! types resolve to a child module or a library cell once per definition;
//! library cells and hierarchy paths are interned at first use, in flatten
//! order. The module table is dropped before the builder packs the wiring.
//!
//! Elaboration is total: a source over `u32::MAX` bytes, a recursive
//! instantiation, a hierarchy deeper than 256 levels (module nesting or `/`
//! segments of an instance path) or a vector wider than 2^20 bits is a
//! [`ParseError`] with a line, and nothing recurses on nesting depth that
//! the input controls without a bound.

use crate::design::{
    Cell, CellKind, Design, DesignBuilder, HierPathId, LibCellId, NetId, PortDirection, PortId,
};
use crate::error::ParseError;
use crate::hash::Fnv1a;
use crate::library::Library;
use crate::names::NameTable;
use geometry::Dbu;
use std::fmt::Write as _;

/// The widest vector, in bits, that a declaration or part-select may span.
/// Elaboration creates one name per bit, so wider ranges are rejected where
/// they are read. IEEE 1364 lets tools cap vector length at no less than
/// 2^16 bits; the emitted presets use at most 256.
const MAX_VECTOR_BITS: u64 = 1 << 20;

/// The deepest module hierarchy, in levels counting the top module, that
/// elaboration descends, and the most `/`-separated segments an instance
/// path may have (the hierarchy tree makes each one a level). Flattening,
/// and the floorplanner over the tree, recurse once per level, so the bound
/// keeps them well inside a 2 MiB thread stack; real hierarchies are tens
/// of levels deep.
const MAX_HIERARCHY_DEPTH: usize = 256;

/// The prefix that names the anonymous tie net of a constant.
const CONST_PREFIX: &str = "__const_";

/// Where a name is spelled in the source text. The source is at most
/// `u32::MAX` bytes, so an offset and a length fit in 32 bits each.
#[derive(Clone, Copy)]
struct Span {
    start: u32,
    len: u32,
}

impl Span {
    /// The spelling of this span in `text`, the source it was cut from.
    fn of(self, text: &str) -> &str {
        let start = self.start as usize;
        text.get(start..start + self.len as usize).unwrap_or_default()
    }
}

/// `[i]` selects written out as text, at most three of them.
struct Suffix {
    bytes: [u8; 66],
    len: usize,
}

impl Suffix {
    fn new(selects: &[i64]) -> Self {
        let mut suffix = Self { bytes: [0; 66], len: 0 };
        for i in selects {
            // at most 3 × 22 bytes: the buffer never runs out
            let _ = write!(suffix, "[{i}]");
        }
        suffix
    }

    fn as_bytes(&self) -> &[u8] {
        self.bytes.get(..self.len).unwrap_or_default()
    }
}

impl std::fmt::Write for Suffix {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        let end = self.len + s.len();
        let slot = self.bytes.get_mut(self.len..end).ok_or(std::fmt::Error)?;
        slot.copy_from_slice(s.as_bytes());
        self.len = end;
        Ok(())
    }
}

/// A name as written: an optional `__const_` prefix, a span of the source
/// and up to three `[i]` selects. Two spellings name the same thing when
/// their written bytes are equal, however they were split: `\bus[3] ` is
/// the root `bus[3]`, `bus[3]` the root `bus` and the select 3.
#[derive(Clone, Copy)]
struct Spelling {
    konst: bool,
    count: u8,
    root: Span,
    selects: [i64; 3],
}

impl Spelling {
    fn new(root: Span) -> Self {
        Self { konst: false, count: 0, root, selects: [0; 3] }
    }

    fn constant(value: Span) -> Self {
        Self { konst: true, ..Self::new(value) }
    }

    /// This spelling with `[i]` appended; a fourth select is dropped, which
    /// no caller asks for.
    fn select(mut self, i: i64) -> Self {
        if let Some(slot) = self.selects.get_mut(self.count as usize) {
            *slot = i;
            self.count += 1;
        }
        self
    }

    fn selects(&self) -> &[i64] {
        self.selects.get(..self.count as usize).unwrap_or_default()
    }

    fn prefix(&self) -> &'static str {
        if self.konst {
            CONST_PREFIX
        } else {
            ""
        }
    }

    /// The FNV-1a hash of the written bytes.
    fn hash(&self, text: &str) -> u64 {
        let mut h = Fnv1a::new();
        h.write_bytes(self.prefix().as_bytes());
        h.write_bytes(self.root.of(text).as_bytes());
        if self.count > 0 {
            h.write_bytes(Suffix::new(self.selects()).as_bytes());
        }
        h.finish()
    }

    /// Whether `self` and `other` write the same bytes.
    fn same(&self, other: &Spelling, text: &str) -> bool {
        if self.konst == other.konst && self.selects() == other.selects() {
            return self.root.of(text) == other.root.of(text);
        }
        let (a, b) = (Suffix::new(self.selects()), Suffix::new(other.selects()));
        let written = |s: &Spelling, suffix: &Suffix| -> Vec<u8> {
            [s.prefix().as_bytes(), s.root.of(text).as_bytes(), suffix.as_bytes()].concat()
        };
        // only spellings split differently get here, such as an escaped
        // name holding `[` or a plain name starting `__const_`
        written(self, &a) == written(other, &b)
    }

    fn write_to(&self, text: &str, out: &mut String) {
        out.push_str(self.prefix());
        out.push_str(self.root.of(text));
        for i in self.selects() {
            let _ = write!(out, "[{i}]");
        }
    }

    /// Whether the written name holds a `[`.
    fn has_bracket(&self, text: &str) -> bool {
        self.count > 0 || self.root.of(text).contains('[')
    }
}

/// An entry of a [`Local`] table.
trait Spelled: Copy {
    /// How the entry is written; `text` is the source.
    fn spelling(&self, text: &str) -> Spelling;
}

impl Spelled for Span {
    fn spelling(&self, _: &str) -> Spelling {
        Spelling::new(*self)
    }
}

/// An open-addressed index from a name's hash to a dense id: like
/// [`NameTable`], it keeps no names and `find` verifies candidates through a
/// closure, but a slot is 8 bytes, the low 32 bits of the hash above the id.
#[derive(Default)]
struct Index {
    slots: Vec<u64>,
    len: usize,
}

const EMPTY_SLOT: u64 = u64::MAX;

impl Index {
    fn find(&self, hash: u64, mut verify: impl FnMut(u32) -> bool) -> Option<u32> {
        let mask = self.slots.len().checked_sub(1)?;
        let tag = hash as u32;
        let mut at = tag as usize & mask;
        loop {
            let slot = *self.slots.get(at)?;
            if slot == EMPTY_SLOT {
                return None;
            }
            if (slot >> 32) as u32 == tag && verify(slot as u32) {
                return Some(slot as u32);
            }
            at = (at + 1) & mask;
        }
    }

    /// Adds `id`, which no entry holds yet, under `hash`.
    fn insert(&mut self, hash: u64, id: u32) {
        if (self.len + 1) * 4 > self.slots.len() * 3 {
            let mut grown = vec![EMPTY_SLOT; (self.slots.len() * 2).max(8)];
            for &slot in self.slots.iter().filter(|&&s| s != EMPTY_SLOT) {
                Self::place(&mut grown, slot);
            }
            self.slots = grown;
        }
        Self::place(&mut self.slots, u64::from(hash as u32) << 32 | u64::from(id));
        self.len += 1;
    }

    /// Puts `slot` in the first free place from its hash on.
    fn place(slots: &mut [u64], slot: u64) {
        let mask = slots.len() - 1;
        let mut at = (slot >> 32) as usize & mask;
        while let Some(free) = slots.get_mut(at) {
            if *free == EMPTY_SLOT {
                *free = slot;
                return;
            }
            at = (at + 1) & mask;
        }
    }
}

/// A module-local name table: each distinct written name once, in
/// first-appearance order, found through a hash of its written bytes.
struct Local<T> {
    entries: Vec<T>,
    index: Index,
}

impl<T> Default for Local<T> {
    fn default() -> Self {
        Self { entries: Vec::new(), index: Index::default() }
    }
}

impl<T: Spelled> Local<T> {
    fn len(&self) -> usize {
        self.entries.len()
    }

    fn get(&self, id: u32) -> Option<&T> {
        self.entries.get(id as usize)
    }

    fn find_hashed(&self, text: &str, key: &Spelling, hash: u64) -> Option<u32> {
        self.index.find(hash, |id| self.get(id).is_some_and(|e| e.spelling(text).same(key, text)))
    }

    fn find(&self, text: &str, key: &Spelling) -> Option<u32> {
        self.find_hashed(text, key, key.hash(text))
    }

    /// The id of the name `key` writes, with the entry `make` returns added
    /// at its first appearance. Callers keep the table under `u32::MAX`
    /// entries.
    fn intern_with(&mut self, text: &str, key: &Spelling, make: impl FnOnce() -> T) -> u32 {
        let hash = key.hash(text);
        if let Some(id) = self.find_hashed(text, key, hash) {
            return id;
        }
        let id = self.entries.len() as u32;
        self.index.insert(hash, id);
        self.entries.push(make());
        id
    }

    fn intern(&mut self, text: &str, entry: T) -> u32 {
        self.intern_with(text, &entry.spelling(text), || entry)
    }

    #[cfg(test)]
    fn heap_bytes(&self) -> usize {
        self.entries.capacity() * std::mem::size_of::<T>() + self.index.slots.capacity() * 8
    }
}

/// A port declaration: name, direction, optional (msb, lsb) range.
type PortDecl = (Span, PortDirection, Option<(i64, i64)>);

/// A parsed (unflattened) Verilog module. Names are spans of the source;
/// instances and connections refer to the module's local tables by id.
struct Module {
    name: Span,
    /// Every port declaration, in source order.
    ports: Vec<PortDecl>,
    /// The first of [`Module::ports`] that declares each name, which gives
    /// its range.
    port_index: Index,
    /// The cell types the instances name.
    types: Local<Span>,
    /// The pin names the instances connect.
    pins: Local<Pin>,
    /// The net names the instances connect to.
    nets: Local<NetName>,
    instances: Vec<Instance>,
    /// The connections of every instance, in source order.
    connections: Vec<Connection>,
}

impl Module {
    /// The connections of instance `k`.
    fn connections_of(&self, k: usize) -> &[Connection] {
        let first = |k: usize| self.instances.get(k).map(|i| i.connections as usize);
        let (start, end) = (first(k).unwrap_or(0), first(k + 1).unwrap_or(self.connections.len()));
        self.connections.get(start..end).unwrap_or_default()
    }

    /// The first declaration of port `name`, whose hash is `hash`.
    fn find_port(&self, text: &str, name: &Spelling, hash: u64) -> Option<&PortDecl> {
        let port = |id: u32| self.ports.get(id as usize);
        let same = |id: u32| port(id).is_some_and(|p| Spelling::new(p.0).same(name, text));
        port(self.port_index.find(hash, same)?)
    }

    /// The range of port `name`, as its first declaration gives it.
    fn port_range(&self, text: &str, name: &Spelling) -> Option<(i64, i64)> {
        self.find_port(text, name, name.hash(text)).and_then(|&(_, _, range)| range)
    }

    /// Indexes the ports and frees the spare room of every table once the
    /// module is parsed.
    fn finish(&mut self, text: &str) {
        for (id, &(name, _, _)) in self.ports.iter().enumerate() {
            let name = Spelling::new(name);
            let hash = name.hash(text);
            if self.find_port(text, &name, hash).is_none() {
                // ids fit: each port takes bytes of the source
                self.port_index.insert(hash, id as u32);
            }
        }
        self.ports.shrink_to_fit();
        self.types.entries.shrink_to_fit();
        self.pins.entries.shrink_to_fit();
        self.nets.entries.shrink_to_fit();
        self.instances.shrink_to_fit();
        self.connections.shrink_to_fit();
    }
}

/// An instantiation: the instance of a cell type with its connections.
#[derive(Clone, Copy)]
struct Instance {
    /// Id of the cell type in [`Module::types`].
    cell: u32,
    name: Span,
    /// Line of the instantiation, for elaboration errors.
    line: u32,
    /// The first of this instance's [`Module::connections`]; the next
    /// instance's first ends them.
    connections: u32,
}

/// One connected pin bit: ids in [`Module::pins`] and [`Module::nets`].
/// Unconnected pins (`.X()`, or an escaped name of zero length) are not
/// recorded: flattening would skip them anyway.
#[derive(Clone, Copy)]
struct Connection {
    pin: u32,
    net: u32,
}

const _: () = assert!(std::mem::size_of::<Instance>() <= 20);
const _: () = assert!(std::mem::size_of::<Connection>() <= 8);
const _: () = assert!(std::mem::size_of::<NetName>() <= 16);

/// A pin name: `base`, then the `[index]` of a `.D[3](...)` connection (not
/// legal Verilog but seen in some netlists), then the `[bit]` of a
/// multi-bit connection.
#[derive(Clone, Copy)]
struct Pin {
    base: Span,
    /// The `[index]`, or [`NO_SELECT`].
    index: i64,
    /// The `[bit]`, or `u32::MAX`: a connection has fewer bits than that.
    bit: u32,
    /// Whether the pin drives its net, decided once per distinct name.
    output: bool,
}

impl Spelled for Pin {
    fn spelling(&self, _: &str) -> Spelling {
        let mut s = Spelling::new(self.base);
        if self.index != NO_SELECT {
            s = s.select(self.index);
        }
        if self.bit != u32::MAX {
            s = s.select(self.bit.into());
        }
        s
    }
}

/// A select that is not there. No select reaches it: an integer is read as
/// at most `i64::MAX` in magnitude.
const NO_SELECT: i64 = i64::MIN;

/// One bit of a net expression, as a net name: `name`, `name[select]`, or
/// a constant like `1'b0`, which names the anonymous tie net `__const_1'b0`
/// (and `__const_1'b0[select]` bit by bit when it is bound to a vectored
/// port).
#[derive(Clone, Copy)]
struct NetName {
    root: Span,
    /// The `[select]`, or [`NO_SELECT`].
    select: i64,
}

impl NetName {
    fn name(root: Span) -> Self {
        Self { root, select: NO_SELECT }
    }

    /// Bit `i` of this bare name, for a binding to a vectored port.
    fn bit(self, i: i64) -> Self {
        Self { select: i, ..self }
    }
}

impl Spelled for NetName {
    /// A root that starts with a digit is a constant unless it is an
    /// escaped name: only a number token starts with a digit without a `\`
    /// right before it.
    fn spelling(&self, text: &str) -> Spelling {
        let start = self.root.start as usize;
        let bytes = text.as_bytes();
        let digit = self.root.len > 0 && bytes.get(start).is_some_and(u8::is_ascii_digit);
        let escaped = start.checked_sub(1).and_then(|b| bytes.get(b)) == Some(&b'\\');
        let spelling = if digit && !escaped {
            Spelling::constant(self.root)
        } else {
            Spelling::new(self.root)
        };
        if self.select == NO_SELECT {
            spelling
        } else {
            spelling.select(self.select)
        }
    }
}

/// The kind of a [`Lexeme`]: one of these, or the ASCII byte of a symbol.
const EOF: u8 = 0;
const IDENT: u8 = 1;
const NUMBER: u8 = 2;

/// A token: its kind, where its text is, and the line it is on. A token
/// takes at least one byte of a source of at most `u32::MAX` bytes, so its
/// line fits in 32 bits.
#[derive(Clone, Copy)]
struct Lexeme {
    kind: u8,
    start: u32,
    len: u32,
    line: u32,
}

impl Lexeme {
    fn span(self) -> Span {
        Span { start: self.start, len: self.len }
    }
}

/// What an ASCII byte starts or continues.
const NEWLINE: u8 = 1;
const SPACE: u8 = 2;
const SLASH: u8 = 3;
const BACKSLASH: u8 = 4;
const LETTER: u8 = 5;
const DIGIT: u8 = 6;
const SYMBOL: u8 = 7;
const DOLLAR: u8 = 8;
const QUOTE: u8 = 9;
const OTHER: u8 = 10;
const NON_ASCII: u8 = 11;

/// The class of every byte. The whitespace is exactly the ASCII part of
/// `char::is_whitespace`, vertical tab and form feed included.
const CLASSES: [u8; 256] = {
    let mut classes = [OTHER; 256];
    let mut b = 0;
    while b < 256 {
        // lint:allow(daemon-panic): evaluated at compile time, and `b` < 256
        classes[b] = match b as u8 {
            b'\n' => NEWLINE,
            b' ' | b'\t' | b'\r' | 0x0b | 0x0c => SPACE,
            b'/' => SLASH,
            b'\\' => BACKSLASH,
            b'a'..=b'z' | b'A'..=b'Z' | b'_' => LETTER,
            b'0'..=b'9' => DIGIT,
            b'(' | b')' | b'[' | b']' | b'{' | b'}' | b',' | b';' | b':' | b'.' | b'=' | b'-'
            | b'+' => SYMBOL,
            b'$' => DOLLAR,
            b'\'' => QUOTE,
            0x80..=0xff => NON_ASCII,
            _ => OTHER,
        };
        b += 1;
    }
    classes
};

/// The class of byte `b`.
fn class(b: u8) -> u8 {
    CLASSES.get(b as usize).copied().unwrap_or(OTHER)
}

/// Streaming tokenizer: a cursor over the source bytes producing one token
/// per call. ASCII bytes are classified by table; a non-ASCII byte is
/// decoded as a `char`, so Unicode letters and whitespace count as they did
/// for `char::is_alphabetic` and `char::is_whitespace`.
struct Lexer<'a> {
    text: &'a str,
    pos: usize,
    line: usize,
}

impl<'a> Lexer<'a> {
    fn new(text: &'a str) -> Self {
        Self { text, pos: 0, line: 1 }
    }

    fn byte(&self, at: usize) -> Option<u8> {
        self.text.as_bytes().get(at).copied()
    }

    /// The char starting at byte `at`, a char boundary.
    fn char_at(&self, at: usize) -> Option<char> {
        self.text.get(at..).and_then(|s| s.chars().next())
    }

    /// The end of the run from `at` of bytes of class `ascii`, or of
    /// non-ASCII chars that `unicode` accepts.
    #[inline]
    fn scan(&self, mut at: usize, ascii: impl Fn(u8) -> bool, unicode: fn(char) -> bool) -> usize {
        while let Some(b) = self.byte(at) {
            if b < 0x80 {
                if !ascii(class(b)) {
                    break;
                }
                at += 1;
            } else {
                match self.char_at(at) {
                    Some(c) if unicode(c) => at += c.len_utf8(),
                    _ => break,
                }
            }
        }
        at
    }

    /// A token of `kind` from `start` to `end`; the cursor moves past it.
    #[inline]
    fn token(&mut self, kind: u8, start: usize, end: usize) -> Lexeme {
        self.pos = end;
        // all fit: the source is at most `u32::MAX` bytes (only the end of
        // the file can be on a later line)
        let line = u32::try_from(self.line).unwrap_or(u32::MAX);
        Lexeme { kind, start: start as u32, len: (end - start) as u32, line }
    }

    /// The end of the escaped identifier whose name starts at byte `at`: the
    /// first whitespace char, as `char::is_whitespace` decides.
    #[inline]
    fn escaped_end(&self, mut at: usize) -> usize {
        let bytes = self.text.as_bytes();
        loop {
            // every byte above the space is a name byte, unless it is not ASCII
            let run = bytes.get(at..).unwrap_or_default();
            at += run.iter().position(|&b| b <= b' ' || b >= 0x80).unwrap_or(run.len());
            match self.byte(at) {
                None => return at,
                Some(b) if b < 0x80 => match class(b) {
                    NEWLINE | SPACE => return at,
                    _ => at += 1,
                },
                Some(_) => match self.char_at(at) {
                    Some(c) if !c.is_whitespace() => at += c.len_utf8(),
                    _ => return at,
                },
            }
        }
    }

    #[inline]
    fn next_token(&mut self) -> Result<Lexeme, ParseError> {
        loop {
            let pos = self.pos;
            let Some(b) = self.byte(pos) else {
                return Ok(self.token(EOF, pos, pos));
            };
            match class(b) {
                NEWLINE => {
                    self.line += 1;
                    self.pos += 1;
                }
                SPACE => self.pos += 1,
                SLASH if self.byte(pos + 1) == Some(b'/') => {
                    let rest = self.text.as_bytes().get(pos + 2..).unwrap_or_default();
                    match rest.iter().position(|&b| b == b'\n') {
                        Some(n) => {
                            self.line += 1;
                            self.pos = pos + 2 + n + 1;
                        }
                        None => self.pos = self.text.len(),
                    }
                }
                SLASH if self.byte(pos + 1) == Some(b'*') => {
                    let body = self.text.get(pos + 2..).unwrap_or_default();
                    let newlines = |s: &str| s.bytes().filter(|&b| b == b'\n').count();
                    match body.find("*/") {
                        Some(n) => {
                            self.line += newlines(body.get(..n).unwrap_or_default());
                            self.pos = pos + 2 + n + 2;
                        }
                        None => {
                            self.line += newlines(body);
                            self.pos = self.text.len();
                        }
                    }
                }
                SLASH | SYMBOL => return Ok(self.token(b, pos, pos + 1)),
                BACKSLASH => {
                    // escaped identifier: `\name with specials ` ended by whitespace
                    let end = self.escaped_end(pos + 1);
                    return Ok(self.token(IDENT, pos + 1, end));
                }
                LETTER => return Ok(self.ident(pos)),
                DIGIT => {
                    let end = self.scan(
                        pos,
                        |class| matches!(class, LETTER | DIGIT | QUOTE),
                        char::is_alphanumeric,
                    );
                    return Ok(self.token(NUMBER, pos, end));
                }
                NON_ASCII => match self.char_at(pos) {
                    Some(c) if c.is_whitespace() => self.pos += c.len_utf8(),
                    Some(c) if c.is_alphabetic() => return Ok(self.ident(pos)),
                    other => return Err(self.unexpected(other)),
                },
                _ => return Err(self.unexpected(char::from_u32(b.into()))),
            }
        }
    }

    fn ident(&mut self, start: usize) -> Lexeme {
        let end = self.scan(
            start,
            |class| matches!(class, LETTER | DIGIT | DOLLAR),
            char::is_alphanumeric,
        );
        self.token(IDENT, start, end)
    }

    fn unexpected(&self, c: Option<char>) -> ParseError {
        let c = c.unwrap_or(char::REPLACEMENT_CHARACTER);
        ParseError::at_line(self.line, format!("unexpected character '{c}'"))
    }
}

struct Parser<'a> {
    lexer: Lexer<'a>,
    peeked: Option<Lexeme>,
    /// Line of the last token taken.
    line: usize,
}

impl<'a> Parser<'a> {
    fn new(text: &'a str) -> Self {
        Self { lexer: Lexer::new(text), peeked: None, line: 1 }
    }

    fn text(&self, l: Lexeme) -> &'a str {
        l.span().of(self.lexer.text)
    }

    /// The token `l` as error messages print it: `Some(Ident("a"))`,
    /// `Some(Number("1'b0"))`, `Some(Symbol(';'))`, or `None` at the end.
    fn found(&self, l: Lexeme) -> String {
        let text = self.text(l);
        match l.kind {
            EOF => "None".to_string(),
            IDENT => format!("Some(Ident({text:?}))"),
            NUMBER => format!("Some(Number({text:?}))"),
            symbol => format!("Some(Symbol({:?}))", char::from(symbol)),
        }
    }

    /// Whether `l` is the identifier `word`.
    fn is(&self, l: Lexeme, word: &str) -> bool {
        l.kind == IDENT && self.text(l) == word
    }

    #[inline]
    fn peek(&mut self) -> Result<Lexeme, ParseError> {
        match self.peeked {
            Some(l) => Ok(l),
            None => {
                let l = self.lexer.next_token()?;
                self.peeked = Some(l);
                Ok(l)
            }
        }
    }

    fn line(&self) -> usize {
        match self.peeked {
            Some(l) if l.kind != EOF => l.line as usize,
            _ => self.line,
        }
    }

    #[inline]
    fn next(&mut self) -> Result<Lexeme, ParseError> {
        let l = self.peek()?;
        if l.kind != EOF {
            self.peeked = None;
            self.line = l.line as usize;
        }
        Ok(l)
    }

    #[inline]
    fn expect_symbol(&mut self, c: u8) -> Result<(), ParseError> {
        let l = self.next()?;
        if l.kind == c {
            return Ok(());
        }
        let message = format!("expected '{}', found {}", char::from(c), self.found(l));
        Err(ParseError::at_line(self.line(), message))
    }

    #[inline]
    fn expect_ident(&mut self) -> Result<Span, ParseError> {
        let l = self.next()?;
        if l.kind == IDENT {
            return Ok(l.span());
        }
        let message = format!("expected identifier, found {}", self.found(l));
        Err(ParseError::at_line(self.line(), message))
    }

    #[inline]
    fn eat_symbol(&mut self, c: u8) -> Result<bool, ParseError> {
        if self.peek()?.kind == c {
            self.next()?;
            Ok(true)
        } else {
            Ok(false)
        }
    }

    /// Parses `[msb:lsb]` if present.
    fn parse_range(&mut self) -> Result<Option<(i64, i64)>, ParseError> {
        if !self.eat_symbol(b'[')? {
            return Ok(None);
        }
        let msb = self.parse_int()?;
        self.expect_symbol(b':')?;
        let lsb = self.parse_int()?;
        self.expect_symbol(b']')?;
        self.check_width(msb, lsb)?;
        Ok(Some((msb, lsb)))
    }

    /// Rejects a `[a:b]` range wider than [`MAX_VECTOR_BITS`].
    fn check_width(&self, a: i64, b: i64) -> Result<(), ParseError> {
        if a.abs_diff(b) < MAX_VECTOR_BITS {
            Ok(())
        } else {
            Err(ParseError::at_line(
                self.line(),
                format!("vector [{a}:{b}] is wider than {MAX_VECTOR_BITS} bits"),
            ))
        }
    }

    fn parse_int(&mut self) -> Result<i64, ParseError> {
        let negative = self.eat_symbol(b'-')?;
        let l = self.next()?;
        if l.kind != NUMBER {
            let message = format!("expected integer, found {}", self.found(l));
            return Err(ParseError::at_line(self.line(), message));
        }
        let n = self.text(l);
        let v: i64 = n
            .parse()
            .map_err(|_| ParseError::at_line(self.line(), format!("invalid integer '{n}'")))?;
        Ok(if negative { -v } else { v })
    }

    /// Parses a net expression — `name`, `name[3]`, `name[7:4]`, a constant,
    /// or a concatenation `{a, b[3], ...}` — and appends its bits to `bits`
    /// in source order. Concatenations are parsed without recursion: nesting
    /// only groups bits, so a depth counter is all the state it needs.
    fn parse_net_expr(&mut self, bits: &mut Vec<NetName>) -> Result<(), ParseError> {
        let mut depth = 0usize;
        loop {
            while self.eat_symbol(b'{')? {
                depth += 1;
            }
            self.parse_net_term(bits)?;
            loop {
                if depth == 0 {
                    return Ok(());
                }
                if self.eat_symbol(b',')? {
                    break;
                }
                self.expect_symbol(b'}')?;
                depth -= 1;
            }
        }
    }

    /// Parses one operand of a net expression (no braces).
    fn parse_net_term(&mut self, bits: &mut Vec<NetName>) -> Result<(), ParseError> {
        let l = self.next()?;
        match l.kind {
            IDENT => {
                let base = l.span();
                if self.eat_symbol(b'[')? {
                    let a = self.parse_int()?;
                    if self.eat_symbol(b':')? {
                        let b = self.parse_int()?;
                        self.expect_symbol(b']')?;
                        self.check_width(a, b)?;
                        // bits are listed in source order, i.e. from `a` to `b`
                        if a >= b {
                            bits.extend((b..=a).rev().map(|i| NetName { root: base, select: i }));
                        } else {
                            bits.extend((a..=b).map(|i| NetName { root: base, select: i }));
                        }
                    } else {
                        self.expect_symbol(b']')?;
                        bits.push(NetName { root: base, select: a });
                    }
                } else {
                    bits.push(NetName::name(base));
                }
                Ok(())
            }
            NUMBER => {
                // a number token, so the name is a constant's
                bits.push(NetName::name(l.span()));
                Ok(())
            }
            _ => {
                let message = format!("expected net expression, found {}", self.found(l));
                Err(ParseError::at_line(self.line(), message))
            }
        }
    }
}

/// The module table: definition-ordered modules with a compact name index,
/// and the source text their spans point into.
struct ModuleTable<'a> {
    text: &'a str,
    modules: Vec<Module>,
    index: NameTable,
}

impl<'a> ModuleTable<'a> {
    /// The id (definition position) and definition of module `name`.
    fn find(&self, name: &str) -> Option<(usize, &Module)> {
        let id = self.index.find(NameTable::hash_name(name), |id| {
            self.modules.get(id as usize).is_some_and(|m| m.name.of(self.text) == name)
        })? as usize;
        self.modules.get(id).map(|m| (id, m))
    }

    fn insert(&mut self, m: Module) {
        let name = m.name.of(self.text);
        match self.find(name) {
            // a redefinition overwrites the earlier one, like map insertion did
            Some((id, _)) => {
                if let Some(slot) = self.modules.get_mut(id) {
                    *slot = m;
                }
            }
            None => {
                self.index.insert(NameTable::hash_name(name), self.modules.len() as u32);
                self.modules.push(m);
            }
        }
    }

    /// The table's heap bytes: instances, connections and local tables.
    #[cfg(test)]
    fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        self.modules
            .iter()
            .map(|m| {
                m.instances.capacity() * size_of::<Instance>()
                    + m.connections.capacity() * size_of::<Connection>()
                    + m.port_index.slots.capacity() * 8
                    + m.types.heap_bytes()
                    + m.pins.heap_bytes()
                    + m.nets.heap_bytes()
            })
            .sum()
    }
}

/// Rejects a source too long for the module table's `u32` spans.
fn check_source_len(len: usize) -> Result<(), ParseError> {
    if u32::try_from(len).is_ok() {
        Ok(())
    } else {
        Err(ParseError::new(format!(
            "the Verilog source is {len} bytes, over the {} bytes a netlist may span",
            u32::MAX
        )))
    }
}

/// Parses Verilog source text into the module table.
fn parse_modules(text: &str) -> Result<ModuleTable<'_>, ParseError> {
    check_source_len(text.len())?;
    let mut p = Parser::new(text);
    let mut table = ModuleTable { text, modules: Vec::new(), index: NameTable::default() };
    let mut bits = Vec::new();
    while p.peek()?.kind != EOF {
        let tok = p.next()?;
        if p.is(tok, "module") {
            table.insert(parse_module(&mut p, &mut bits)?);
        }
    }
    Ok(table)
}

/// `n` as a `u32`, or an error at `line` saying which count overflowed.
fn to_u32(n: usize, line: usize, what: &str) -> Result<u32, ParseError> {
    u32::try_from(n)
        .map_err(|_| ParseError::at_line(line, format!("{what} {n} exceeds {}", u32::MAX)))
}

/// Parses one module after its `module` keyword. `bits` is scratch space for
/// the bits of one net expression.
fn parse_module(p: &mut Parser<'_>, bits: &mut Vec<NetName>) -> Result<Module, ParseError> {
    let text = p.lexer.text;
    let name = p.expect_ident()?;
    let mut module = Module {
        name,
        ports: Vec::new(),
        port_index: Index::default(),
        types: Local::default(),
        pins: Local::default(),
        nets: Local::default(),
        instances: Vec::new(),
        connections: Vec::new(),
    };
    // Header port list. ANSI-style declarations (`input [1:0] a, output y`)
    // are recorded directly; non-ANSI headers only list names and the
    // directions come from declarations in the body.
    if p.eat_symbol(b'(')? {
        let mut dir: Option<PortDirection> = None;
        let mut range: Option<(i64, i64)> = None;
        loop {
            if p.eat_symbol(b')')? {
                break;
            }
            let tok = p.peek()?;
            if tok.kind == EOF {
                // a header cut off by the end of the file
                return Err(ParseError::new("unexpected end of file in module"));
            }
            let word = if tok.kind == IDENT { p.text(tok) } else { "" };
            if matches!(word, "input" | "output" | "inout") {
                p.next()?;
                dir = Some(direction(word));
                let next = p.peek()?;
                if p.is(next, "wire") || p.is(next, "reg") {
                    p.next()?;
                }
                range = p.parse_range()?;
            } else if tok.kind == IDENT {
                p.next()?;
                if let Some(d) = dir {
                    module.ports.push((tok.span(), d, range));
                }
            } else {
                p.next()?;
            }
        }
    }
    p.expect_symbol(b';')?;

    loop {
        let tok = p.peek()?;
        if tok.kind == EOF {
            return Err(ParseError::new("unexpected end of file in module"));
        }
        if tok.kind != IDENT {
            p.next()?;
            continue;
        }
        let word = p.text(tok);
        match word {
            "endmodule" => {
                p.next()?;
                break;
            }
            "input" | "output" | "inout" => {
                p.next()?;
                let dir = direction(word);
                // optional `wire` keyword
                let next = p.peek()?;
                if p.is(next, "wire") {
                    p.next()?;
                }
                let range = p.parse_range()?;
                loop {
                    let pname = p.expect_ident()?;
                    module.ports.push((pname, dir, range));
                    if !p.eat_symbol(b',')? {
                        break;
                    }
                }
                p.expect_symbol(b';')?;
            }
            "wire" | "tri" => {
                p.next()?;
                let _range = p.parse_range()?;
                loop {
                    p.expect_ident()?;
                    if !p.eat_symbol(b',')? {
                        break;
                    }
                }
                p.expect_symbol(b';')?;
            }
            "assign" | "parameter" | "supply0" | "supply1" => {
                // skip to semicolon
                p.next()?;
                loop {
                    let t = p.next()?;
                    if t.kind == EOF || t.kind == b';' {
                        break;
                    }
                }
            }
            _ => parse_instance(p, &mut module, text, bits)?,
        }
    }
    module.finish(text);
    Ok(module)
}

/// Parses one instantiation, its cell type `p` peeked, into `module`.
fn parse_instance(
    p: &mut Parser<'_>,
    module: &mut Module,
    text: &str,
    bits: &mut Vec<NetName>,
) -> Result<(), ParseError> {
    let cell = p.next()?.span();
    let line = p.line();
    let name = p.expect_ident()?;
    p.expect_symbol(b'(')?;
    let start = module.connections.len();
    if !p.eat_symbol(b')')? {
        loop {
            p.expect_symbol(b'.')?;
            let base = p.expect_ident()?;
            let index = if p.eat_symbol(b'[')? {
                let i = p.parse_int()?;
                p.expect_symbol(b']')?;
                i
            } else {
                NO_SELECT
            };
            p.expect_symbol(b'(')?;
            bits.clear();
            if p.peek()?.kind != b')' {
                p.parse_net_expr(bits)?;
            }
            p.expect_symbol(b')')?;
            // a multi-bit connection becomes one pin per bit, msb first
            let width = to_u32(bits.len(), p.line(), "the connection's bit count")?;
            let multi = width > 1;
            for (msb_first, &net) in (0..width).rev().zip(bits.iter()) {
                if net.root.len > 0 || net.select != NO_SELECT {
                    let bit = if multi { msb_first } else { u32::MAX };
                    let pin = Pin { base, index, bit, output: false };
                    let pin = module.pins.intern_with(text, &pin.spelling(text), || Pin {
                        output: is_output_pin(base.of(text)),
                        ..pin
                    });
                    let net = module.nets.intern(text, net);
                    module.connections.push(Connection { pin, net });
                }
            }
            if !p.eat_symbol(b',')? {
                break;
            }
        }
        p.expect_symbol(b')')?;
    }
    p.expect_symbol(b';')?;
    to_u32(module.connections.len(), line, "the module's connection count")?;
    let cell = module.types.intern(text, cell);
    // `start` is at most the checked count, and a line at most the source
    // length, so both fit in `u32`
    module.instances.push(Instance { cell, name, line: line as u32, connections: start as u32 });
    Ok(())
}

fn direction(keyword: &str) -> PortDirection {
    match keyword {
        "input" => PortDirection::Input,
        "output" => PortDirection::Output,
        _ => PortDirection::Inout,
    }
}

/// Options controlling how cells are classified during elaboration.
#[derive(Debug, Clone)]
// lint:allow(heap-size): parser configuration, not a cached artifact
pub struct ElaborateOptions {
    /// Library-cell name prefixes classified as sequential cells.
    pub flop_prefixes: Vec<String>,
    /// Library used to resolve macro footprints; leaf instances whose cell is
    /// a `BLOCK` entry become macros.
    pub library: Library,
}

impl Default for ElaborateOptions {
    fn default() -> Self {
        Self {
            flop_prefixes: vec!["DFF".into(), "SDFF".into(), "FD".into(), "dff".into()],
            library: Library::new(),
        }
    }
}

/// Parses structural Verilog text and flattens it into a [`Design`].
///
/// `top` selects the top module; pass `None` to use the unique module that is
/// never instantiated by another one.
///
/// # Errors
///
/// Returns a [`ParseError`] on malformed input, unknown top module, or if the
/// top module cannot be inferred.
pub fn parse_verilog(
    text: &str,
    top: Option<&str>,
    opts: &ElaborateOptions,
) -> Result<Design, ParseError> {
    let (mut builder, _) = elaborate(text, top, opts)?;
    connect_top_ports(&mut builder);
    Ok(builder.build())
}

/// Parses `text` and flattens the top module into a builder; also returns
/// the number of design-net resolutions flattening made. The module table is
/// dropped on return, so it is gone before the builder packs the wiring.
fn elaborate(
    text: &str,
    top: Option<&str>,
    opts: &ElaborateOptions,
) -> Result<(DesignBuilder, usize), ParseError> {
    let modules = parse_modules(text)?;
    if modules.modules.is_empty() {
        return Err(ParseError::new("no modules found"));
    }
    let top_name = match top {
        Some(t) => t,
        None => infer_top(&modules)?,
    };
    let (top_id, top_module) = modules
        .find(top_name)
        .ok_or_else(|| ParseError::new(format!("top module '{top_name}' not found")))?;
    let mut ctx = Flattener {
        modules: &modules,
        opts,
        builder: DesignBuilder::new(top_name),
        prepared: std::iter::repeat_with(|| None).take(modules.modules.len()).collect(),
        frames: Vec::new(),
        slots: Vec::new(),
        path: String::new(),
        segments: 0,
        path_id: None,
        classes: Vec::new(),
        global: String::new(),
        resolutions: 0,
    };
    // top-level ports
    let mut port = String::new();
    for &(pname, dir, range) in &top_module.ports {
        let pname = pname.of(text);
        match range {
            Some((msb, lsb)) => {
                for i in msb.min(lsb)..=msb.max(lsb) {
                    port.clear();
                    let _ = write!(port, "{pname}[{i}]");
                    check_room(&ctx.builder, &port, None)?;
                    ctx.builder.add_port(port.as_str(), dir);
                }
            }
            None => {
                check_room(&ctx.builder, pname, None)?;
                ctx.builder.add_port(pname, dir);
            }
        }
    }
    ctx.enter(top_id);
    ctx.flatten(top_id)?;
    Ok((ctx.builder, ctx.resolutions))
}

/// After flattening, nets named exactly like a top-level port are attached
/// to it: an input port drives its net, any other port is a sink of it.
fn connect_top_ports(builder: &mut DesignBuilder) {
    let pairs: Vec<(PortId, NetId, PortDirection)> = builder
        .ports()
        .filter_map(|(pid, port)| {
            builder.find_net(builder.port_name(pid)).map(|nid| (pid, nid, port.direction))
        })
        .collect();
    for (pid, nid, dir) in pairs {
        match dir {
            PortDirection::Input => builder.connect_port_driver(nid, pid),
            _ => builder.connect_port_sink(nid, pid),
        };
    }
}

fn infer_top<'a>(modules: &ModuleTable<'a>) -> Result<&'a str, ParseError> {
    let text = modules.text;
    let mut instantiated: Vec<&str> =
        modules.modules.iter().flat_map(|m| m.types.entries.iter().map(|t| t.of(text))).collect();
    instantiated.sort_unstable();
    instantiated.dedup();
    let candidates: Vec<&'a str> = modules
        .modules
        .iter()
        .map(|m| m.name.of(text))
        .filter(|k| instantiated.binary_search(k).is_err())
        .collect();
    match candidates.as_slice() {
        [top] => Ok(*top),
        [] => Err(ParseError::new("could not infer top module (cyclic instantiation?)")),
        _ => Err(ParseError::new(format!(
            "multiple top candidates: {}; pass one explicitly",
            candidates.join(", ")
        ))),
    }
}

/// Appends instance `name` to the hierarchical `path`.
fn push_path(path: &mut String, name: &str) {
    if !path.is_empty() {
        path.push('/');
    }
    path.push_str(name);
}

/// A leaf cell's kind and footprint, decided once per library cell.
type CellClass = (CellKind, Dbu, Dbu);

/// What a module's cell type elaborates to.
#[derive(Clone, Copy)]
enum CellType {
    /// An instance of the module with this id.
    Module(usize),
    /// A leaf cell: its library cell, once a new cell of it was added.
    Leaf(Option<LibCellId>),
}

/// What flattening works out once per module definition, at its first
/// instance.
struct Prepared {
    /// What each of [`Module::types`] is.
    types: Vec<CellType>,
    /// The bits `n[i]` of each bare name `n` bound to a vectored child port
    /// that the module does not spell itself. Their local ids follow
    /// [`Module::nets`].
    bits: Local<NetName>,
}

/// One module instance on the active instantiation path.
struct Frame {
    module: usize,
    /// Where the instance's net slots start in [`Flattener::slots`].
    slots: usize,
    /// The length of the instance's path in [`Flattener::path`].
    path: usize,
}

/// The design net of one local net of one module instance.
#[derive(Clone, Copy)]
enum Slot {
    /// Not used by a leaf yet, and bound to no parent net.
    Unresolved,
    /// Bound by the instance's port connection to this local net of the
    /// parent instance, not used by a leaf yet.
    Bound(u32),
    /// Resolved.
    Net(NetId),
}

struct Flattener<'t, 'a> {
    modules: &'t ModuleTable<'a>,
    opts: &'t ElaborateOptions,
    builder: DesignBuilder,
    /// Per module id, once it has been instantiated.
    prepared: Vec<Option<Prepared>>,
    /// The module instances on the active instantiation path, top first.
    frames: Vec<Frame>,
    /// The net slots of every frame, end to end.
    slots: Vec<Slot>,
    /// Instance path of the module being flattened (`u_core/u_alu`).
    path: String,
    /// Number of `/`-separated segments of `path` (0 at the top).
    segments: usize,
    /// `path` interned as a hierarchy path, once a leaf cell lives under it.
    path_id: Option<HierPathId>,
    /// The class of each library cell the builder has interned, by id.
    classes: Vec<CellClass>,
    /// Reused buffer for a design net name.
    global: String,
    /// Design-net resolutions so far: one per module instance and local net
    /// that a leaf uses and no port binding resolved.
    resolutions: usize,
}

impl<'t, 'a> Flattener<'t, 'a> {
    fn prepared(&self, id: usize) -> Option<&Prepared> {
        self.prepared.get(id).and_then(Option::as_ref)
    }

    /// Resolves module `id`'s cell types and collects the bits it binds to
    /// vectored ports, unless an earlier instance did.
    fn prepare(&mut self, id: usize) {
        if self.prepared(id).is_some() {
            return;
        }
        let (modules, text) = (self.modules, self.modules.text);
        let Some(module) = modules.modules.get(id) else { return };
        let types: Vec<CellType> = module
            .types
            .entries
            .iter()
            .map(|t| match modules.find(t.of(text)) {
                Some((child, _)) => CellType::Module(child),
                None => CellType::Leaf(None),
            })
            .collect();
        let mut bits = Local::default();
        for (k, inst) in module.instances.iter().enumerate() {
            let Some(&CellType::Module(child)) = types.get(inst.cell as usize) else { continue };
            let Some(child) = modules.modules.get(child) else { continue };
            for conn in module.connections_of(k) {
                let (Some(pin), Some(&net)) =
                    (module.pins.get(conn.pin), module.nets.get(conn.net))
                else {
                    continue;
                };
                let Some((msb, lsb)) = child.port_range(text, &pin.spelling(text)) else {
                    continue;
                };
                if net.spelling(text).has_bracket(text) {
                    continue;
                }
                for i in msb.min(lsb)..=msb.max(lsb) {
                    let bit = net.bit(i);
                    if module.nets.find(text, &bit.spelling(text)).is_none() {
                        bits.intern(text, bit);
                    }
                }
            }
        }
        if let Some(slot) = self.prepared.get_mut(id) {
            *slot = Some(Prepared { types, bits });
        }
    }

    /// The local id of net `name` in module `id`, counting its bound bits.
    fn find_net(&self, id: usize, name: &Spelling) -> Option<u32> {
        let (text, module) = (self.modules.text, self.modules.modules.get(id)?);
        let hash = name.hash(text);
        module.nets.find_hashed(text, name, hash).or_else(|| {
            let bits = &self.prepared(id)?.bits;
            let bit = bits.find_hashed(text, name, hash)?;
            Some(module.nets.len() as u32 + bit)
        })
    }

    /// How local net `local` of module `id` is written: one of its nets, or
    /// one of the bits it binds.
    fn net_spelling(&self, id: usize, local: u32) -> Option<Spelling> {
        let nets = &self.modules.modules.get(id)?.nets;
        let net = match local.checked_sub(nets.len() as u32) {
            None => nets.get(local),
            Some(bit) => self.prepared(id)?.bits.get(bit),
        };
        net.map(|n| n.spelling(self.modules.text))
    }

    /// Pushes a frame for an instance of module `id` at the current path,
    /// every net slot unresolved; returns where its slots start.
    fn enter(&mut self, id: usize) -> usize {
        self.prepare(id);
        let locals = self.modules.modules.get(id).map_or(0, |m| m.nets.len())
            + self.prepared(id).map_or(0, |p| p.bits.len());
        let start = self.slots.len();
        self.slots.resize(start + locals, Slot::Unresolved);
        self.frames.push(Frame { module: id, slots: start, path: self.path.len() });
        start
    }

    /// Instantiates the cells of module `id`, whose frame is on top.
    fn flatten(&mut self, id: usize) -> Result<(), ParseError> {
        let Some(module) = self.modules.modules.get(id) else { return Ok(()) };
        for (k, inst) in module.instances.iter().enumerate() {
            let connections = module.connections_of(k);
            let cell_type = self.prepared(id).and_then(|p| p.types.get(inst.cell as usize));
            match cell_type.copied() {
                Some(CellType::Module(child)) => {
                    self.flatten_child(id, inst, child, connections)?
                }
                _ => self.add_leaf(id, inst, connections)?,
            }
        }
        Ok(())
    }

    /// Flattens hierarchical instance `inst` of module `child` inside module
    /// `parent`: binds the child's nets to the parent's, then descends one
    /// level.
    fn flatten_child(
        &mut self,
        parent: usize,
        inst: &Instance,
        child: usize,
        connections: &[Connection],
    ) -> Result<(), ParseError> {
        let text = self.modules.text;
        let child_name = self.modules.modules.get(child).map_or("", |m| m.name.of(text));
        let (name, line) = (inst.name.of(text), inst.line as usize);
        if self.frames.iter().any(|f| f.module == child) {
            return Err(ParseError::at_line(
                line,
                format!("instance '{name}' instantiates module '{child_name}' inside itself"),
            ));
        }
        if self.frames.len() >= MAX_HIERARCHY_DEPTH {
            return Err(ParseError::at_line(
                line,
                format!(
                    "instance '{name}' of module '{child_name}' is nested deeper than {MAX_HIERARCHY_DEPTH} levels"
                ),
            ));
        }
        let segments = self.segments + 1 + name.matches('/').count();
        if segments > MAX_HIERARCHY_DEPTH {
            // the name itself may be the long part, so it is not repeated
            return Err(ParseError::at_line(
                line,
                format!(
                    "an instance of module '{child_name}' has a hierarchy path of {segments} levels, \
                     more than {MAX_HIERARCHY_DEPTH}"
                ),
            ));
        }
        let (outer, outer_segments, outer_id) = (self.path.len(), self.segments, self.path_id);
        push_path(&mut self.path, name);
        let start = self.enter(child);
        self.bind(parent, child, start, connections);
        self.segments = segments;
        self.path_id = None;
        let result = self.flatten(child);
        self.frames.pop();
        self.slots.truncate(start);
        self.path.truncate(outer);
        self.segments = outer_segments;
        self.path_id = outer_id;
        result
    }

    /// Binds the child's nets named by `connections` (of an instance in
    /// `parent`) to the parent's nets, in the child's frame at `start`. A
    /// pin names the child net spelled like it; a bare name bound to a
    /// vectored port binds bit by bit; the last binding of a pin wins.
    fn bind(&mut self, parent: usize, child: usize, start: usize, connections: &[Connection]) {
        let (modules, text) = (self.modules, self.modules.text);
        let (Some(pm), Some(cm)) = (modules.modules.get(parent), modules.modules.get(child)) else {
            return;
        };
        for conn in connections {
            let (Some(pin), Some(&net)) = (pm.pins.get(conn.pin), pm.nets.get(conn.net)) else {
                continue;
            };
            let pin = pin.spelling(text);
            match cm.port_range(text, &pin) {
                Some((msb, lsb)) if !net.spelling(text).has_bracket(text) => {
                    for i in msb.min(lsb)..=msb.max(lsb) {
                        let bound = self.find_net(child, &pin.select(i));
                        let from = self.find_net(parent, &net.bit(i).spelling(text));
                        if let (Some(local), Some(from)) = (bound, from) {
                            self.set(start + local as usize, Slot::Bound(from));
                        }
                    }
                }
                _ => {
                    if let Some(local) = self.find_net(child, &pin) {
                        self.set(start + local as usize, Slot::Bound(conn.net));
                    }
                }
            }
        }
    }

    fn set(&mut self, at: usize, slot: Slot) {
        if let Some(s) = self.slots.get_mut(at) {
            *s = slot;
        }
    }

    /// The slot of local net `local` of frame `f`.
    fn slot(&self, f: usize, local: u32) -> Option<Slot> {
        let frame = self.frames.get(f)?;
        self.slots.get(frame.slots + local as usize).copied()
    }

    /// The design net of local net `local` of the innermost frame, resolved
    /// at its first use: up the chain of port bindings to the instance that
    /// names the net, whose path prefixes the name unless it is a constant's
    /// (or the instance is the top), then through the design's net table.
    /// Every slot on the chain keeps the result.
    fn net(&mut self, local: u32, line: Option<usize>) -> Result<NetId, ParseError> {
        let top = self.frames.len().saturating_sub(1);
        let (mut f, mut l) = (top, local);
        let id = loop {
            match self.slot(f, l) {
                Some(Slot::Net(id)) => break id,
                Some(Slot::Bound(p)) if f > 0 => (f, l) = (f - 1, p),
                _ => break self.add_net(f, l, line)?,
            }
        };
        let (mut f, mut l) = (top, local);
        while let Some(frame) = self.frames.get(f) {
            let Some(slot) = self.slots.get_mut(frame.slots + l as usize) else { break };
            let next = *slot;
            *slot = Slot::Net(id);
            match next {
                Slot::Bound(p) if f > 0 => (f, l) = (f - 1, p),
                _ => break,
            }
        }
        Ok(id)
    }

    /// Adds (or finds) the design net that local net `local` of frame `f`
    /// names.
    fn add_net(&mut self, f: usize, local: u32, line: Option<usize>) -> Result<NetId, ParseError> {
        let text = self.modules.text;
        let (module, path) = match self.frames.get(f) {
            Some(frame) => (frame.module, self.path.get(..frame.path).unwrap_or_default()),
            None => (0, ""),
        };
        let spelling = self.net_spelling(module, local);
        let global = &mut self.global;
        global.clear();
        if !path.is_empty() {
            global.push_str(path);
            global.push('/');
        }
        let name = global.len();
        if let Some(spelling) = spelling {
            spelling.write_to(text, global);
        }
        if global.get(name..).is_some_and(|n| n.starts_with(CONST_PREFIX)) {
            global.drain(..name);
        }
        check_room(&self.builder, global, line)?;
        self.resolutions += 1;
        Ok(self.builder.add_net(global.as_str()))
    }

    /// Adds leaf instance `inst` of module `id` as a cell and connects its
    /// pins, creating each net at its first reference. A new cell interns
    /// its library cell, classified at its first use, and the current path,
    /// interned once per module instance.
    fn add_leaf(
        &mut self,
        id: usize,
        inst: &Instance,
        connections: &[Connection],
    ) -> Result<(), ParseError> {
        let (modules, text, line) = (self.modules, self.modules.text, Some(inst.line as usize));
        let Some(module) = modules.modules.get(id) else { return Ok(()) };
        let lib_name = module.types.get(inst.cell).map_or("", |t| t.of(text));
        let outer = self.path.len();
        push_path(&mut self.path, inst.name.of(text));
        // a new cell also interns its library cell, spelled in the source,
        // and its path, a prefix of its name: neither store can outgrow these
        check_room(&self.builder, &self.path, line)?;
        let (opts, classes, path_id) = (self.opts, &mut self.classes, &mut self.path_id);
        let cell_type = self
            .prepared
            .get_mut(id)
            .and_then(Option::as_mut)
            .and_then(|p| p.types.get_mut(inst.cell as usize));
        let (name, hier_path) = (self.path.as_str(), self.path.get(..outer).unwrap_or_default());
        let cell = self.builder.add_cell_with(name, |b| {
            let lib_cell = match cell_type {
                Some(CellType::Leaf(Some(lib_cell))) => *lib_cell,
                Some(slot) => {
                    let lib_cell = b.intern_lib_cell(lib_name);
                    *slot = CellType::Leaf(Some(lib_cell));
                    lib_cell
                }
                None => b.intern_lib_cell(lib_name),
            };
            let (kind, width, height) = match classes.get(lib_cell.0 as usize) {
                Some(&class) => class,
                None => {
                    let class = classify(opts, lib_name);
                    classes.push(class);
                    class
                }
            };
            let hier_path = *path_id.get_or_insert_with(|| b.intern_hier_path(hier_path));
            Cell { kind, width, height, lib_cell, hier_path }
        });
        self.path.truncate(outer);
        for conn in connections {
            let net = self.net(conn.net, line)?;
            if module.pins.get(conn.pin).is_some_and(|p| p.output) {
                // the builder would keep only the last driver and leave the
                // earlier one a fanout entry on a net it no longer drives
                if let Some(other) = self.builder.driver_cell(net).filter(|&d| d != cell) {
                    let message = format!(
                        "net '{}' is driven by instance '{}' and again by instance '{}'",
                        self.builder.net_name(net),
                        self.builder.cell_name(other),
                        self.builder.cell_name(cell),
                    );
                    return Err(ParseError { line, message });
                }
                self.builder.connect_driver(net, cell);
            } else {
                self.builder.connect_sink(net, cell);
            }
        }
        Ok(())
    }
}

/// Rejects elaboration whose next name, `name`, would overflow the design's
/// name stores: elaborated names can outgrow the source many times over.
fn check_room(builder: &DesignBuilder, name: &str, line: Option<usize>) -> Result<(), ParseError> {
    if builder.name_fits(name.len()) {
        return Ok(());
    }
    let message = format!("the elaborated names exceed the {} bytes a design may hold", u32::MAX);
    Err(ParseError { line, message })
}

/// The kind and footprint of a leaf instance of library cell `cell`.
fn classify(opts: &ElaborateOptions, cell: &str) -> CellClass {
    let def = opts.library.find_macro(cell);
    let kind = match def {
        Some(m) if m.is_block => CellKind::Macro,
        _ if opts.flop_prefixes.iter().any(|p| cell.starts_with(p.as_str())) => CellKind::Flop,
        _ => CellKind::Comb,
    };
    let (width, height) = def.map_or((1, 1), |m| (m.width, m.height));
    (kind, width, height)
}

/// Heuristic classification of a pin name as an output.
fn is_output_pin(pin: &str) -> bool {
    let base = pin.split('[').next().unwrap_or(pin);
    if matches!(
        base,
        "Q" | "QN"
            | "Z"
            | "ZN"
            | "Y"
            | "O"
            | "OUT"
            | "out"
            | "q"
            | "DOUT"
            | "RDATA"
            | "dout"
            | "rdata"
    ) {
        return true;
    }
    // numbered variants such as Q0, Z12, OUT3 (used by netlist writers that
    // enumerate output pins)
    for prefix in ["Q", "Z", "OUT", "DOUT"] {
        if let Some(rest) = base.strip_prefix(prefix) {
            if !rest.is_empty() && rest.chars().all(|c| c.is_ascii_digit()) {
                return true;
            }
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::library::MacroDef;

    const SIMPLE: &str = r#"
// simple two-level netlist
module sub (input [1:0] a, output y);
  wire n1;
  AND2 g1 (.A(a[0]), .B(a[1]), .Y(n1));
  DFFX1 r1 (.D(n1), .CK(clk), .Q(y));
endmodule

module top (input [1:0] in_bus, input clk, output o);
  wire [1:0] w;
  BUF b0 (.A(in_bus[0]), .Y(w[0]));
  BUF b1 (.A(in_bus[1]), .Y(w[1]));
  sub u_sub (.a(w), .y(o));
  RAM16 u_ram (.D(w[0]), .Q(ram_q));
endmodule
"#;

    fn opts_with_ram() -> ElaborateOptions {
        let mut opts = ElaborateOptions::default();
        opts.library.add_macro(MacroDef {
            name: "RAM16".into(),
            width: 500,
            height: 300,
            is_block: true,
            pins: vec![],
        });
        opts
    }

    #[test]
    fn parses_and_flattens_hierarchy() {
        let d = parse_verilog(SIMPLE, Some("top"), &opts_with_ram()).unwrap();
        assert_eq!(d.name(), "top");
        // cells: b0, b1, u_sub/g1, u_sub/r1, u_ram
        assert_eq!(d.num_cells(), 5);
        assert!(d.find_cell("u_sub/g1").is_some());
        assert!(d.find_cell("u_sub/r1").is_some());
        let ram = d.find_cell("u_ram").unwrap();
        assert_eq!(d.cell(ram).kind, CellKind::Macro);
        assert_eq!(d.cell(ram).width, 500);
        let r1 = d.find_cell("u_sub/r1").unwrap();
        assert_eq!(d.cell(r1).kind, CellKind::Flop);
        assert_eq!(d.hier_path(d.cell(r1).hier_path), "u_sub");
    }

    #[test]
    fn top_module_inference() {
        let d = parse_verilog(SIMPLE, None, &opts_with_ram()).unwrap();
        assert_eq!(d.name(), "top");
    }

    #[test]
    fn port_connection_maps_through_hierarchy() {
        let d = parse_verilog(SIMPLE, Some("top"), &opts_with_ram()).unwrap();
        // the net w[0] drives both u_sub/g1 (through port a[0]) and u_ram
        let n = d.find_net("w[0]").expect("net w[0] exists");
        let pins = d.connectivity().pins(n);
        let sinks = pins.iter().filter(|p| !p.is_driver() && p.cell().is_some()).count();
        assert!(sinks >= 2, "expected at least 2 sinks, got {pins:?}");
    }

    #[test]
    fn primary_ports_created() {
        let d = parse_verilog(SIMPLE, Some("top"), &opts_with_ram()).unwrap();
        assert!(d.find_port("in_bus[0]").is_some());
        assert!(d.find_port("in_bus[1]").is_some());
        assert!(d.find_port("clk").is_some());
        assert!(d.find_port("o").is_some());
    }

    #[test]
    fn comments_and_escaped_identifiers() {
        let src = r#"
module top (input a, output z);
  /* block comment
     spanning lines */
  wire \escaped$name ;
  BUF u1 (.A(a), .Y(\escaped$name ));
  BUF u2 (.A(\escaped$name ), .Y(z));
endmodule
"#;
        let d = parse_verilog(src, Some("top"), &ElaborateOptions::default()).unwrap();
        assert_eq!(d.num_cells(), 2);
        assert!(d.find_net("escaped$name").is_some());
    }

    #[test]
    fn error_on_unknown_top() {
        let err = parse_verilog(SIMPLE, Some("nope"), &ElaborateOptions::default()).unwrap_err();
        assert!(err.message.contains("not found"));
    }

    #[test]
    fn error_on_garbage() {
        assert!(parse_verilog("module ; garbage", None, &ElaborateOptions::default()).is_err());
    }

    #[test]
    fn concatenation_and_unconnected_pins() {
        let src = r#"
module top (input [1:0] a, output z);
  MYCELL u1 (.D({a[1], a[0]}), .E(), .Y(z));
endmodule
"#;
        let d = parse_verilog(src, Some("top"), &ElaborateOptions::default()).unwrap();
        let c = d.find_cell("u1").unwrap();
        assert_eq!(d.connectivity().fanin(c).len(), 2);
        assert_eq!(d.connectivity().fanout(c).len(), 1);
    }

    #[test]
    fn module_redefinition_last_wins() {
        let src = r#"
module sub (input a, output y);
  BUF g0 (.A(a), .Y(y));
endmodule
module sub (input a, output y);
  INV g0 (.A(a), .Y(y));
  INV g1 (.A(y), .Y(y_n));
endmodule
module top (input a, output z);
  sub u (.a(a), .y(z));
endmodule
"#;
        let d = parse_verilog(src, Some("top"), &ElaborateOptions::default()).unwrap();
        assert_eq!(d.num_cells(), 2);
        assert_eq!(d.lib_cell(d.cell(d.find_cell("u/g0").unwrap()).lib_cell), "INV");
    }

    #[test]
    fn duplicate_named_connection_last_wins() {
        // map-insertion semantics of the flattener port map: the last binding
        // of a duplicated port name wins.
        let src = r#"
module sub (input a, output y);
  BUF g (.A(a), .Y(y));
endmodule
module top (input p, input q, output z);
  sub u (.a(p), .a(q), .y(z));
endmodule
"#;
        let d = parse_verilog(src, Some("top"), &ElaborateOptions::default()).unwrap();
        let g = d.find_cell("u/g").unwrap();
        let fanin_net = d.connectivity().fanin(g)[0];
        assert_eq!(d.net_name(fanin_net), "q");
    }

    /// Parses `src` and expects the width check to reject it on `line`.
    fn assert_too_wide(src: &str, line: usize, range: &str) {
        let err = parse_verilog(src, Some("top"), &ElaborateOptions::default()).unwrap_err();
        assert_eq!(err.line, Some(line), "{err}");
        assert_eq!(err.message, format!("vector {range} is wider than 1048576 bits"));
    }

    #[test]
    fn too_wide_port_declaration_is_rejected() {
        let src = r#"
module top (a, z);
  input [2097151:0] a;
  output z;
  BUF u1 (.A(a[0]), .Y(z));
endmodule
"#;
        assert_too_wide(src, 3, "[2097151:0]");
    }

    #[test]
    fn too_wide_part_select_is_rejected() {
        let src = r#"
module top (input a, output z);
  wire [3:0] w;
  BUF u1 (.A(w[0:2097151]), .Y(z));
endmodule
"#;
        assert_too_wide(src, 4, "[0:2097151]");
    }

    #[test]
    fn bare_bus_to_too_wide_child_port_is_rejected() {
        // the child's declaration is rejected before the bare-bus
        // connection `.a(w)` could expand it bit by bit
        let src = r#"
module sub (input [2097151:0] a, output y);
  BUF g (.A(a[0]), .Y(y));
endmodule
module top (input [3:0] w, output z);
  sub u (.a(w), .y(z));
endmodule
"#;
        assert_too_wide(src, 2, "[2097151:0]");
    }

    /// Parses `src` (top inferred when `top` is `None`) and returns the error.
    fn parse_err(src: &str, top: Option<&str>) -> ParseError {
        parse_verilog(src, top, &ElaborateOptions::default()).unwrap_err()
    }

    #[test]
    fn self_instantiation_is_rejected() {
        let src = "module top (input a, output y);\n\
                   \n\
                   BUF g (.A(a), .Y(y));\n\
                   top u_again (.a(a), .y(y));\n\
                   \n\
                   endmodule\n";
        let err = parse_err(src, Some("top"));
        assert_eq!(err.line, Some(4), "{err}");
        assert_eq!(err.message, "instance 'u_again' instantiates module 'top' inside itself");
    }

    #[test]
    fn mutual_instantiation_is_rejected() {
        let src = "module top (input a, output y);\n  ping u0 (.a(a), .y(y));\nendmodule\n\
                   module ping (input a, output y);\n  pong u1 (.a(a), .y(y));\nendmodule\n\
                   module pong (input a, output y);\n  ping u2 (.a(a), .y(y));\nendmodule\n";
        let err = parse_err(src, None);
        assert_eq!(err.line, Some(8), "{err}");
        assert_eq!(err.message, "instance 'u2' instantiates module 'ping' inside itself");
    }

    #[test]
    fn deeply_nested_concatenation_parses_without_recursion() {
        let depth = 200_000;
        let nested = format!("{}a{}", "{".repeat(depth), "}".repeat(depth));
        let src = format!(
            "module top (input a, output z);\n  BUF u1 (.A({nested}), .Y(z));\nendmodule\n"
        );
        let d = parse_verilog(&src, Some("top"), &ElaborateOptions::default()).unwrap();
        let u1 = d.connectivity().fanin(d.find_cell("u1").unwrap());
        assert_eq!(u1.len(), 1, "nesting only groups the one bit");
        assert_eq!(d.net_name(u1[0]), "a");
        // one brace left open is an error at the connection's line
        let open = format!("{}a{}", "{".repeat(depth), "}".repeat(depth - 1));
        let src =
            format!("module top (input a, output z);\n  BUF u1 (.A({open}), .Y(z));\nendmodule\n");
        let err = parse_err(&src, Some("top"));
        assert_eq!(err.line, Some(2), "{err}");
        assert_eq!(err.message, "expected '}', found Some(Symbol(')'))");
    }

    /// A chain of `n` modules `m0 → m1 → … → m{n-1}`, one per line, each
    /// instantiating the next; the last holds one buffer.
    fn module_chain(n: usize) -> String {
        let mut src = String::new();
        for i in 0..n - 1 {
            src.push_str(&format!(
                "module m{i} (input a, output y); m{} u (.a(a), .y(y)); endmodule\n",
                i + 1
            ));
        }
        src.push_str(&format!(
            "module m{} (input a, output y); BUF g (.A(a), .Y(y)); endmodule\n",
            n - 1
        ));
        src
    }

    #[test]
    fn hierarchy_deeper_than_the_limit_is_rejected() {
        // 40,000 levels: flattening stops at the bound instead of recursing
        let err = parse_err(&module_chain(40_000), None);
        assert_eq!(err.line, Some(MAX_HIERARCHY_DEPTH), "{err}");
        assert_eq!(
            err.message,
            format!(
                "instance 'u' of module 'm{MAX_HIERARCHY_DEPTH}' is nested deeper than 256 levels"
            )
        );
        // exactly the limit elaborates; one level more does not
        let opts = ElaborateOptions::default();
        let d = parse_verilog(&module_chain(MAX_HIERARCHY_DEPTH), None, &opts).unwrap();
        assert!(d.find_cell(&format!("{}g", "u/".repeat(MAX_HIERARCHY_DEPTH - 1))).is_some());
        assert!(parse_verilog(&module_chain(MAX_HIERARCHY_DEPTH + 1), None, &opts).is_err());
    }

    /// A top module instantiating `sub` under one escaped name of
    /// `segments` `/`-separated segments; `sub` holds a gate and two macros.
    fn escaped_path(segments: usize) -> String {
        let name = vec!["a"; segments].join("/");
        format!(
            "module sub (input i, output o); COMB g (.A(i), .Y(o)); \
             RAM m1 (.D(i), .Q(q1)); RAM m2 (.D(i), .Q(q2)); endmodule\n\
             module top (input i, output o);\n  sub \\{name} (.i(i), .o(o));\nendmodule\n"
        )
    }

    #[test]
    fn a_net_driven_by_two_instances_is_rejected() {
        let opts = ElaborateOptions::default();
        let src = "module top (input a, output y);\n  BUF g (.A(a), .Y(y));\n  \
                   BUF h (.A(a), .Y(y));\nendmodule\n";
        let err = parse_verilog(src, Some("top"), &opts).unwrap_err();
        assert_eq!(err.line, Some(3), "{err}");
        assert_eq!(err.message, "net 'y' is driven by instance 'g' and again by instance 'h'");
        // across the hierarchy the net is named as it resolves at the top
        let src = "module sub (input i, output o); BUF g (.A(i), .Y(o)); endmodule\n\
                   module top (input a, output y);\n  sub u (.i(a), .o(y));\n  \
                   BUF h (.A(a), .Y(y));\nendmodule\n";
        let err = parse_verilog(src, Some("top"), &opts).unwrap_err();
        assert_eq!(err.line, Some(4), "{err}");
        assert_eq!(err.message, "net 'y' is driven by instance 'u/g' and again by instance 'h'");
        // one cell with two outputs on one net stays legal, as in the builder
        let src = "module top (input a, output y);\n  FA g (.A(a), .Q(y), .QN(y));\nendmodule\n";
        let d = parse_verilog(src, Some("top"), &opts).unwrap();
        let g = d.find_cell("g").unwrap();
        assert_eq!(d.connectivity().fanout(g).len(), 1);
        assert_eq!(d.validate(), Ok(()));
    }

    #[test]
    fn instance_path_deeper_than_the_limit_is_rejected() {
        // one escaped name makes as many hierarchy levels as it has segments
        let opts = opts_with_ram();
        let d = parse_verilog(&escaped_path(MAX_HIERARCHY_DEPTH), None, &opts).unwrap();
        let g = d.find_cell(&format!("{}/g", vec!["a"; MAX_HIERARCHY_DEPTH].join("/"))).unwrap();
        assert_eq!(d.hier_path(d.cell(g).hier_path).split('/').count(), MAX_HIERARCHY_DEPTH);
        let err = parse_verilog(&escaped_path(MAX_HIERARCHY_DEPTH + 1), None, &opts).unwrap_err();
        assert_eq!(err.line, Some(3), "{err}");
        assert_eq!(
            err.message,
            "an instance of module 'sub' has a hierarchy path of 257 levels, more than 256"
        );
        // the segments add up across module levels
        let src = "module leaf (input a); BUF g (.A(a)); endmodule\n\
                   module mid (input a); leaf \\b/c  (.a(a)); endmodule\n\
                   module top (input a); mid \\a/a  (.a(a)); endmodule\n";
        let d = parse_verilog(src, Some("top"), &ElaborateOptions::default()).unwrap();
        assert!(d.find_cell("a/a/b/c/g").is_some());
    }

    #[test]
    fn source_longer_than_u32_is_rejected() {
        assert!(check_source_len(u32::MAX as usize).is_ok());
        let err = check_source_len(u32::MAX as usize + 1).unwrap_err();
        assert_eq!(err.line, None);
        assert_eq!(
            err.message,
            "the Verilog source is 4294967296 bytes, over the 4294967295 bytes a netlist may span"
        );
    }

    #[test]
    fn names_are_spelled_as_written() {
        // a bit-select is elaborated through its integer, an escaped name
        // and a constant verbatim
        let src = "module top (input [7:0] bus, output z);\n\
                   BUF u1 (.A(bus[007]), .Y(\\w[0]$x ));\n\
                   BUF \\u/2  (.A(\\w[0]$x ), .B(1'b0), .Y(z));\nendmodule\n";
        let d = parse_verilog(src, Some("top"), &ElaborateOptions::default()).unwrap();
        let fanin = |name: &str| -> Vec<&str> {
            let c = d.find_cell(name).unwrap();
            d.connectivity().fanin(c).iter().map(|&n| d.net_name(n)).collect()
        };
        assert_eq!(fanin("u1"), ["bus[7]"]);
        assert_eq!(fanin("u/2"), ["w[0]$x", "__const_1'b0"]);
        assert_eq!(d.hier_path(d.cell(d.find_cell("u/2").unwrap()).hier_path), "");
    }

    #[test]
    fn a_header_cut_off_by_the_end_of_the_file_is_an_error() {
        // the header loop used to spin forever at the end of the file
        for src in ["module m (", "module m (input a,", "module m (input [3:0] a, b"] {
            let err = parse_err(src, None);
            assert_eq!(err.line, None, "{src}: {err}");
            assert_eq!(err.message, "unexpected end of file in module", "{src}");
        }
    }

    #[test]
    fn each_net_is_resolved_once_per_module_instance() {
        // `sub` is instantiated twice; its local nets are a, b, n, y, m and
        // the constant, and top's are p, q, w, z2, z1
        let src = "module sub (input a, input b, output y);\n\
                   AND2 g1 (.A(a), .B(b), .Y(n));\n\
                   INV g2 (.A(n), .Y(y));\n\
                   BUF g3 (.A(n), .B(1'b0), .Y(m));\nendmodule\n\
                   module top (input p, input q, output z1, output z2);\n\
                   sub u0 (.a(p), .b(q), .y(w));\n\
                   sub u1 (.a(w), .b(q), .y(z2));\n\
                   BUF g (.A(w), .Y(z1));\nendmodule\n";
        let (builder, resolutions) =
            elaborate(src, Some("top"), &ElaborateOptions::default()).unwrap();
        let design = builder.build();
        let leaf_pins = design.connectivity().num_pins();
        assert_eq!(leaf_pins, 18);
        // one resolution per (module instance, local net) that a leaf uses
        // and no port binding resolved: p, q, w, z2 and z1 at the top, n, m
        // and the constant in each `sub`; the pins bound to a, b and y reuse
        // the top's entries, and the constant resolves in both instances to
        // one design net
        assert_eq!(resolutions, 5 + 2 * 3);
        assert_eq!(design.num_nets(), 10);
        assert!(resolutions < leaf_pins);
    }

    #[test]
    fn module_table_is_under_half_the_bytes_per_connection() {
        let text = workload::emit::emit_verilog(&workload::presets::generate_circuit("c1").design);
        let table = parse_modules(&text).unwrap();
        let connections: usize = table.modules.iter().map(|m| m.connections.len()).sum();
        let instances: usize = table.modules.iter().map(|m| m.instances.len()).sum();
        // the table this one replaced: a 56-byte connection record and a
        // 28-byte instance record, with no local tables
        let before = (56 * connections + 28 * instances) as f64 / connections as f64;
        let after = table.heap_bytes() as f64 / connections as f64;
        eprintln!(
            "c1: {connections} connections, {instances} instances, module table \
             {after:.1} B per connection (records alone before: {before:.1})"
        );
        assert!(after * 2.0 <= before, "{after:.1} B per connection against {before:.1}");
    }

    #[test]
    fn vector_width_limit_is_inclusive() {
        // 2^20 bits parse (the table is not elaborated here); one more fails
        assert!(parse_modules("module top (input [1048575:0] a); endmodule").is_ok());
        assert!(parse_modules("module top (input [0:-1048575] a); endmodule").is_ok());
        assert!(parse_modules("module top (input [1048576:0] a); endmodule").is_err());
        assert!(parse_modules("module top (input [-1:1048575] a); endmodule").is_err());
    }
}
