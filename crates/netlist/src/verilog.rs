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
//! The parser is *streaming* and *borrowing*: tokens are slices of the
//! source text produced one at a time by a cursor — never a materialized
//! token vector, which costs gigabytes at a million cells — and the module
//! table records every name as a `u32` span of the source text, with every
//! instance's connections in one per-module vector. Flattening writes each
//! net and cell name into reused buffers, interns library cells and
//! hierarchy paths once per distinct value, and drops the module table
//! before the builder packs the wiring.
//!
//! Elaboration is total: a source over `u32::MAX` bytes, a recursive
//! instantiation, a hierarchy deeper than 256 levels (module nesting or `/`
//! segments of an instance path) or a vector wider than 2^20 bits is a
//! [`ParseError`] with a line, and nothing recurses on nesting depth that
//! the input controls without a bound.

use crate::design::{
    Cell, CellKind, Design, DesignBuilder, HierPathId, NetId, PortDirection, PortId,
};
use crate::error::ParseError;
use crate::library::Library;
use crate::names::NameTable;
use geometry::Dbu;
use std::fmt::Write as _;
use std::ops::Range;

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

/// A port declaration: name, direction, optional (msb, lsb) range.
type PortDecl = (Span, PortDirection, Option<(i64, i64)>);

/// A parsed (unflattened) Verilog module. Names are spans of the source.
struct Module {
    name: Span,
    ports: Vec<PortDecl>,
    instances: Vec<Instance>,
    /// The connections of every instance, in source order.
    connections: Vec<Connection>,
}

struct Instance {
    cell: Span,
    name: Span,
    /// Line of the instantiation, for elaboration errors.
    line: u32,
    /// This instance's slice of [`Module::connections`].
    connections: Range<u32>,
}

/// One connected pin bit. Unconnected pins (`.X()`, or an escaped name of
/// zero length) are not recorded: flattening would skip them anyway.
#[derive(Clone, Copy)]
struct Connection {
    pin: Pin,
    net: NetBit,
}

const _: () = assert!(std::mem::size_of::<Instance>() <= 32);
const _: () = assert!(std::mem::size_of::<Connection>() <= 56);

/// A pin name: `base`, then the `[index]` of a `.D[3](...)` connection (not
/// legal Verilog but seen in some netlists), then the `[bit]` of a
/// multi-bit connection.
#[derive(Clone, Copy)]
struct Pin {
    base: Span,
    index: Option<i64>,
    bit: Option<u32>,
}

impl Pin {
    fn write_to(self, text: &str, out: &mut String) {
        out.push_str(self.base.of(text));
        if let Some(i) = self.index {
            let _ = write!(out, "[{i}]");
        }
        if let Some(b) = self.bit {
            let _ = write!(out, "[{b}]");
        }
    }
}

/// One bit of a net expression, written out as a name only when the
/// flattener needs it.
#[derive(Clone, Copy)]
enum NetBit {
    /// `name`
    Name(Span),
    /// `name[i]`
    Bit(Span, i64),
    /// A constant like `1'b0`, an anonymous tie net `__const_1'b0`.
    Const(Span),
}

impl NetBit {
    fn write_to(self, text: &str, out: &mut String) {
        match self {
            NetBit::Name(name) => out.push_str(name.of(text)),
            NetBit::Bit(name, i) => {
                let _ = write!(out, "{}[{i}]", name.of(text));
            }
            NetBit::Const(value) => {
                out.push_str("__const_");
                out.push_str(value.of(text));
            }
        }
    }
}

/// Tokenizer output. Tokens borrow from the source text — no allocation per
/// token.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Token<'a> {
    Ident(&'a str),
    Symbol(char),
    Number(&'a str),
}

/// A token with the line it is on and its byte offset in the source.
#[derive(Clone, Copy)]
struct Lexeme<'a> {
    line: usize,
    start: usize,
    token: Token<'a>,
}

/// Streaming tokenizer: a cursor over the rest of the source text producing
/// one token per call.
struct Lexer<'a> {
    rest: &'a str,
    /// Length of the whole source, so `len - rest.len()` is the cursor's
    /// offset.
    len: usize,
    line: usize,
}

/// Splits `s` at byte `n`, a char boundary `find` reported on `s`.
fn split(s: &str, n: usize) -> (&str, &str) {
    s.split_at_checked(n).unwrap_or((s, ""))
}

impl<'a> Lexer<'a> {
    fn new(text: &'a str) -> Self {
        Self { rest: text, len: text.len(), line: 1 }
    }

    /// Takes the first `n` bytes of the rest of the text as a token.
    fn take(&mut self, n: usize, token: impl FnOnce(&'a str) -> Token<'a>) -> Lexeme<'a> {
        let start = self.len - self.rest.len();
        let (taken, rest) = split(self.rest, n);
        self.rest = rest;
        Lexeme { line: self.line, start, token: token(taken) }
    }

    fn next_token(&mut self) -> Result<Option<Lexeme<'a>>, ParseError> {
        loop {
            let mut chars = self.rest.chars();
            let Some(c) = chars.next() else { return Ok(None) };
            let after = chars.as_str();
            match c {
                '\n' => {
                    self.line += 1;
                    self.rest = after;
                }
                c if c.is_whitespace() => self.rest = after,
                '/' if after.starts_with('/') => match after.find('\n') {
                    Some(n) => {
                        self.line += 1;
                        self.rest = split(after, n + 1).1;
                    }
                    None => self.rest = "",
                },
                '/' if after.starts_with('*') => {
                    let body = split(after, 1).1;
                    match body.find("*/") {
                        Some(n) => {
                            let (comment, rest) = split(body, n);
                            self.line += comment.matches('\n').count();
                            self.rest = split(rest, 2).1;
                        }
                        None => {
                            self.line += body.matches('\n').count();
                            self.rest = "";
                        }
                    }
                }
                '\\' => {
                    // escaped identifier: `\name with specials ` terminated by whitespace
                    self.rest = after;
                    let n = after.find(char::is_whitespace).unwrap_or(after.len());
                    return Ok(Some(self.take(n, Token::Ident)));
                }
                c if c.is_alphabetic() || c == '_' => {
                    let n = self
                        .rest
                        .find(|c2: char| !(c2.is_alphanumeric() || c2 == '_' || c2 == '$'))
                        .unwrap_or(self.rest.len());
                    return Ok(Some(self.take(n, Token::Ident)));
                }
                c if c.is_ascii_digit() => {
                    let n = self
                        .rest
                        .find(|c2: char| !(c2.is_alphanumeric() || c2 == '\'' || c2 == '_'))
                        .unwrap_or(self.rest.len());
                    return Ok(Some(self.take(n, Token::Number)));
                }
                '(' | ')' | '[' | ']' | '{' | '}' | ',' | ';' | ':' | '.' | '=' | '-' | '+'
                | '/' => {
                    return Ok(Some(self.take(c.len_utf8(), |_| Token::Symbol(c))));
                }
                other => {
                    return Err(ParseError::at_line(
                        self.line,
                        format!("unexpected character '{other}'"),
                    ));
                }
            }
        }
    }
}

struct Parser<'a> {
    lexer: Lexer<'a>,
    peeked: Option<Lexeme<'a>>,
    /// Line and source offset of the last token taken.
    line: usize,
    start: usize,
}

impl<'a> Parser<'a> {
    fn new(text: &'a str) -> Self {
        Self { lexer: Lexer::new(text), peeked: None, line: 1, start: 0 }
    }

    fn peek(&mut self) -> Result<Option<Token<'a>>, ParseError> {
        if self.peeked.is_none() {
            self.peeked = self.lexer.next_token()?;
        }
        Ok(self.peeked.map(|l| l.token))
    }

    fn line(&self) -> usize {
        self.peeked.map(|l| l.line).unwrap_or(self.line)
    }

    fn next(&mut self) -> Result<Option<Token<'a>>, ParseError> {
        self.peek()?;
        Ok(self.peeked.take().map(|l| {
            self.line = l.line;
            self.start = l.start;
            l.token
        }))
    }

    /// The span of `word`, the text of the last token taken.
    fn span(&self, word: &str) -> Span {
        // both fit: the source is at most `u32::MAX` bytes
        Span { start: self.start as u32, len: word.len() as u32 }
    }

    fn expect_symbol(&mut self, c: char) -> Result<(), ParseError> {
        match self.next()? {
            Some(Token::Symbol(s)) if s == c => Ok(()),
            other => {
                Err(ParseError::at_line(self.line(), format!("expected '{c}', found {other:?}")))
            }
        }
    }

    fn expect_ident(&mut self) -> Result<Span, ParseError> {
        match self.next()? {
            Some(Token::Ident(s)) => Ok(self.span(s)),
            other => Err(ParseError::at_line(
                self.line(),
                format!("expected identifier, found {other:?}"),
            )),
        }
    }

    fn eat_symbol(&mut self, c: char) -> Result<bool, ParseError> {
        if self.peek()? == Some(Token::Symbol(c)) {
            self.next()?;
            Ok(true)
        } else {
            Ok(false)
        }
    }

    /// Parses `[msb:lsb]` if present.
    fn parse_range(&mut self) -> Result<Option<(i64, i64)>, ParseError> {
        if !self.eat_symbol('[')? {
            return Ok(None);
        }
        let msb = self.parse_int()?;
        self.expect_symbol(':')?;
        let lsb = self.parse_int()?;
        self.expect_symbol(']')?;
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
        let mut negative = false;
        if self.eat_symbol('-')? {
            negative = true;
        }
        match self.next()? {
            Some(Token::Number(n)) => {
                let v: i64 = n.parse().map_err(|_| {
                    ParseError::at_line(self.line(), format!("invalid integer '{n}'"))
                })?;
                Ok(if negative { -v } else { v })
            }
            other => {
                Err(ParseError::at_line(self.line(), format!("expected integer, found {other:?}")))
            }
        }
    }

    /// Parses a net expression — `name`, `name[3]`, `name[7:4]`, a constant,
    /// or a concatenation `{a, b[3], ...}` — and appends its bits to `bits`
    /// in source order. Concatenations are parsed without recursion: nesting
    /// only groups bits, so a depth counter is all the state it needs.
    fn parse_net_expr(&mut self, bits: &mut Vec<NetBit>) -> Result<(), ParseError> {
        let mut depth = 0usize;
        loop {
            while self.eat_symbol('{')? {
                depth += 1;
            }
            self.parse_net_term(bits)?;
            loop {
                if depth == 0 {
                    return Ok(());
                }
                if self.eat_symbol(',')? {
                    break;
                }
                self.expect_symbol('}')?;
                depth -= 1;
            }
        }
    }

    /// Parses one operand of a net expression (no braces).
    fn parse_net_term(&mut self, bits: &mut Vec<NetBit>) -> Result<(), ParseError> {
        match self.next()? {
            Some(Token::Ident(base)) => {
                let base = self.span(base);
                if self.eat_symbol('[')? {
                    let a = self.parse_int()?;
                    if self.eat_symbol(':')? {
                        let b = self.parse_int()?;
                        self.expect_symbol(']')?;
                        self.check_width(a, b)?;
                        // bits are listed in source order, i.e. from `a` to `b`
                        if a >= b {
                            bits.extend((b..=a).rev().map(|i| NetBit::Bit(base, i)));
                        } else {
                            bits.extend((a..=b).map(|i| NetBit::Bit(base, i)));
                        }
                    } else {
                        self.expect_symbol(']')?;
                        bits.push(NetBit::Bit(base, a));
                    }
                } else {
                    bits.push(NetBit::Name(base));
                }
                Ok(())
            }
            Some(Token::Number(n)) => {
                bits.push(NetBit::Const(self.span(n)));
                Ok(())
            }
            other => Err(ParseError::at_line(
                self.line(),
                format!("expected net expression, found {other:?}"),
            )),
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
    while let Some(tok) = p.peek()? {
        p.next()?;
        if tok == Token::Ident("module") {
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
fn parse_module(p: &mut Parser<'_>, bits: &mut Vec<NetBit>) -> Result<Module, ParseError> {
    let name = p.expect_ident()?;
    let mut module =
        Module { name, ports: Vec::new(), instances: Vec::new(), connections: Vec::new() };
    // Header port list. ANSI-style declarations (`input [1:0] a, output y`)
    // are recorded directly; non-ANSI headers only list names and the
    // directions come from declarations in the body.
    if p.eat_symbol('(')? {
        let mut dir: Option<PortDirection> = None;
        let mut range: Option<(i64, i64)> = None;
        loop {
            if p.eat_symbol(')')? {
                break;
            }
            match p.peek()? {
                Some(Token::Ident(kw @ ("input" | "output" | "inout"))) => {
                    p.next()?;
                    dir = Some(direction(kw));
                    if matches!(p.peek()?, Some(Token::Ident("wire" | "reg"))) {
                        p.next()?;
                    }
                    range = p.parse_range()?;
                }
                Some(Token::Ident(pname)) => {
                    p.next()?;
                    if let Some(d) = dir {
                        module.ports.push((p.span(pname), d, range));
                    }
                }
                _ => {
                    p.next()?;
                }
            }
        }
    }
    p.expect_symbol(';')?;

    loop {
        let tok = p.peek()?.ok_or_else(|| ParseError::new("unexpected end of file in module"))?;
        match tok {
            Token::Ident("endmodule") => {
                p.next()?;
                break;
            }
            Token::Ident(kw @ ("input" | "output" | "inout")) => {
                p.next()?;
                let dir = direction(kw);
                // optional `wire` keyword
                if p.peek()? == Some(Token::Ident("wire")) {
                    p.next()?;
                }
                let range = p.parse_range()?;
                loop {
                    let pname = p.expect_ident()?;
                    module.ports.push((pname, dir, range));
                    if !p.eat_symbol(',')? {
                        break;
                    }
                }
                p.expect_symbol(';')?;
            }
            Token::Ident("wire" | "tri") => {
                p.next()?;
                let _range = p.parse_range()?;
                loop {
                    p.expect_ident()?;
                    if !p.eat_symbol(',')? {
                        break;
                    }
                }
                p.expect_symbol(';')?;
            }
            Token::Ident("assign" | "parameter" | "supply0" | "supply1") => {
                // skip to semicolon
                p.next()?;
                while let Some(t) = p.next()? {
                    if t == Token::Symbol(';') {
                        break;
                    }
                }
            }
            Token::Ident(cell) => {
                p.next()?;
                let cell = p.span(cell);
                let line = p.line();
                let name = p.expect_ident()?;
                p.expect_symbol('(')?;
                let start = module.connections.len();
                if !p.eat_symbol(')')? {
                    loop {
                        p.expect_symbol('.')?;
                        let base = p.expect_ident()?;
                        let index = if p.eat_symbol('[')? {
                            let i = p.parse_int()?;
                            p.expect_symbol(']')?;
                            Some(i)
                        } else {
                            None
                        };
                        p.expect_symbol('(')?;
                        bits.clear();
                        if p.peek()? != Some(Token::Symbol(')')) {
                            p.parse_net_expr(bits)?;
                        }
                        p.expect_symbol(')')?;
                        // a multi-bit connection becomes one pin per bit, msb first
                        let width = to_u32(bits.len(), p.line(), "the connection's bit count")?;
                        let multi = width > 1;
                        for (msb_first, &net) in (0..width).rev().zip(bits.iter()) {
                            if !matches!(net, NetBit::Name(Span { len: 0, .. })) {
                                let bit = multi.then_some(msb_first);
                                module
                                    .connections
                                    .push(Connection { pin: Pin { base, index, bit }, net });
                            }
                        }
                        if !p.eat_symbol(',')? {
                            break;
                        }
                    }
                    p.expect_symbol(')')?;
                }
                p.expect_symbol(';')?;
                let end = to_u32(module.connections.len(), line, "the module's connection count")?;
                // `start` is at most `end`, and a line at most the source
                // length, so both fit in `u32`
                let connections = start as u32..end;
                module.instances.push(Instance { cell, name, line: line as u32, connections });
            }
            _ => {
                p.next()?;
            }
        }
    }
    Ok(module)
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
    let mut builder = elaborate(text, top, opts)?;
    connect_top_ports(&mut builder);
    Ok(builder.build())
}

/// Parses `text` and flattens the top module into a builder. The module
/// table is dropped on return, so it is gone before the builder packs the
/// wiring.
fn elaborate(
    text: &str,
    top: Option<&str>,
    opts: &ElaborateOptions,
) -> Result<DesignBuilder, ParseError> {
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
        active: vec![top_id],
        path: String::new(),
        segments: 0,
        path_id: None,
        classes: Vec::new(),
        pin: String::new(),
        net: String::new(),
        global: String::new(),
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
    ctx.flatten(top_module, &PortMap::default())?;
    Ok(ctx.builder)
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
        modules.modules.iter().flat_map(|m| m.instances.iter().map(|i| i.cell.of(text))).collect();
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

/// Sorted (local net → global net) map used while flattening one hierarchical
/// instance. Keys and values are written into one string arena, so a map
/// allocates per instance, not per binding.
#[derive(Default)]
struct PortMap {
    text: String,
    /// `(key start, key end = value start, value end)` offsets into `text`.
    entries: Vec<(usize, usize, usize)>,
}

impl PortMap {
    fn insert(&mut self, key: &str, value: &str) {
        let start = self.text.len();
        self.text.push_str(key);
        let mid = self.text.len();
        self.text.push_str(value);
        self.entries.push((start, mid, self.text.len()));
    }

    /// Sorts the bindings by key for [`PortMap::get`], keeping the *last*
    /// binding of a duplicated port, like map insertion did.
    fn sorted(mut self) -> Self {
        let text = self.text.as_str();
        let key = |&(start, mid, _): &(usize, usize, usize)| text.get(start..mid);
        self.entries.sort_by(|a, b| key(a).cmp(&key(b))); // stable: source order within a key
        self.entries.dedup_by(|later, earlier| {
            let duplicate = key(later) == key(earlier);
            if duplicate {
                *earlier = *later;
            }
            duplicate
        });
        self
    }

    fn get(&self, key: &str) -> Option<&str> {
        let i = self
            .entries
            .binary_search_by(|&(start, mid, _)| self.text.get(start..mid).cmp(&Some(key)))
            .ok()?;
        self.entries.get(i).and_then(|&(_, mid, end)| self.text.get(mid..end))
    }
}

/// Writes the global name of local net `net` into `out`: through the port
/// map if the net is a port of the enclosing module, otherwise by prefixing
/// the instance path.
fn resolve_net(out: &mut String, path: &str, port_map: &PortMap, net: &str) {
    out.clear();
    if let Some(global) = port_map.get(net) {
        out.push_str(global);
    } else if net.starts_with("__const_") || path.is_empty() {
        out.push_str(net);
    } else {
        out.push_str(path);
        out.push('/');
        out.push_str(net);
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

struct Flattener<'t, 'a> {
    modules: &'t ModuleTable<'a>,
    opts: &'t ElaborateOptions,
    builder: DesignBuilder,
    /// Ids of the modules on the active instantiation path, top first.
    active: Vec<usize>,
    /// Instance path of the module being flattened (`u_core/u_alu`).
    path: String,
    /// Number of `/`-separated segments of `path` (0 at the top).
    segments: usize,
    /// `path` interned as a hierarchy path, once a leaf cell lives under it.
    path_id: Option<HierPathId>,
    /// The class of each library cell the builder has interned, by id.
    classes: Vec<CellClass>,
    /// Reused buffers: a pin name, a local net name, its global name.
    pin: String,
    net: String,
    global: String,
}

impl<'t, 'a> Flattener<'t, 'a> {
    /// Instantiates the cells of `module` under the current path. `port_map`
    /// maps the module's local net names to global net names.
    fn flatten(&mut self, module: &'t Module, port_map: &PortMap) -> Result<(), ParseError> {
        for inst in &module.instances {
            let range = inst.connections.start as usize..inst.connections.end as usize;
            let connections = module.connections.get(range).unwrap_or_default();
            match self.modules.find(inst.cell.of(self.modules.text)) {
                Some((id, child)) => self.flatten_child(inst, id, child, connections, port_map)?,
                None => self.add_leaf(inst, connections, port_map)?,
            }
        }
        Ok(())
    }

    /// Flattens hierarchical instance `inst` of module `child` (with id
    /// `id`): builds the child's port map, then descends one level.
    fn flatten_child(
        &mut self,
        inst: &Instance,
        id: usize,
        child: &'t Module,
        connections: &[Connection],
        port_map: &PortMap,
    ) -> Result<(), ParseError> {
        let text = self.modules.text;
        let (name, line) = (inst.name.of(text), inst.line as usize);
        if self.active.contains(&id) {
            return Err(ParseError::at_line(
                line,
                format!(
                    "instance '{name}' instantiates module '{}' inside itself",
                    child.name.of(text)
                ),
            ));
        }
        if self.active.len() >= MAX_HIERARCHY_DEPTH {
            return Err(ParseError::at_line(
                line,
                format!(
                    "instance '{name}' of module '{}' is nested deeper than {MAX_HIERARCHY_DEPTH} levels",
                    child.name.of(text)
                ),
            ));
        }
        let segments = self.segments + 1 + name.matches('/').count();
        if segments > MAX_HIERARCHY_DEPTH {
            // the name itself may be the long part, so it is not repeated
            return Err(ParseError::at_line(
                line,
                format!(
                    "an instance of module '{}' has a hierarchy path of {segments} levels, \
                     more than {MAX_HIERARCHY_DEPTH}",
                    child.name.of(text)
                ),
            ));
        }
        // Child port ranges are looked up through a sorted slice so a wide
        // port list stays O(C log P) rather than O(C·P).
        let mut child_ranges: Vec<(&str, Option<(i64, i64)>)> =
            child.ports.iter().map(|&(n, _, r)| (n.of(text), r)).collect();
        child_ranges.sort_by(|a, b| a.0.cmp(b.0)); // stable: first decl of a duplicate wins
        child_ranges.dedup_by(|a, b| a.0 == b.0);
        let mut map = PortMap::default();
        for conn in connections {
            self.pin.clear();
            conn.pin.write_to(text, &mut self.pin);
            self.net.clear();
            conn.net.write_to(text, &mut self.net);
            let child_range = child_ranges
                .binary_search_by(|(n, _)| (*n).cmp(self.pin.as_str()))
                .ok()
                .and_then(|i| child_ranges.get(i))
                .and_then(|&(_, r)| r);
            match child_range {
                // When a vectored child port is connected to a bare bus
                // name, expand the connection bit by bit so nested levels
                // resolve individual bits consistently.
                Some((msb, lsb)) if !self.net.contains('[') => {
                    let (pin_len, net_len) = (self.pin.len(), self.net.len());
                    for i in msb.min(lsb)..=msb.max(lsb) {
                        self.net.truncate(net_len);
                        let _ = write!(self.net, "[{i}]");
                        resolve_net(&mut self.global, &self.path, port_map, &self.net);
                        self.pin.truncate(pin_len);
                        let _ = write!(self.pin, "[{i}]");
                        map.insert(&self.pin, &self.global);
                    }
                }
                _ => {
                    resolve_net(&mut self.global, &self.path, port_map, &self.net);
                    map.insert(&self.pin, &self.global);
                }
            }
        }
        let map = map.sorted();
        let (outer, outer_segments, outer_id) = (self.path.len(), self.segments, self.path_id);
        push_path(&mut self.path, name);
        self.segments = segments;
        self.path_id = None;
        self.active.push(id);
        let result = self.flatten(child, &map);
        self.active.pop();
        self.path.truncate(outer);
        self.segments = outer_segments;
        self.path_id = outer_id;
        result
    }

    /// Adds leaf instance `inst` as a cell and connects its pins, creating
    /// each net at its first reference. A new cell interns its library cell,
    /// classified at its first use, and the current path, interned once per
    /// module instance.
    fn add_leaf(
        &mut self,
        inst: &Instance,
        connections: &[Connection],
        port_map: &PortMap,
    ) -> Result<(), ParseError> {
        let (text, line) = (self.modules.text, Some(inst.line as usize));
        let lib_name = inst.cell.of(text);
        let outer = self.path.len();
        push_path(&mut self.path, inst.name.of(text));
        // a new cell also interns its library cell, spelled in the source,
        // and its path, a prefix of its name: neither store can outgrow these
        check_room(&self.builder, &self.path, line)?;
        let (opts, classes, path_id) = (self.opts, &mut self.classes, &mut self.path_id);
        let (name, hier_path) = (self.path.as_str(), self.path.get(..outer).unwrap_or_default());
        let cell = self.builder.add_cell_with(name, |b| {
            let lib_cell = b.intern_lib_cell(lib_name);
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
            self.net.clear();
            conn.net.write_to(text, &mut self.net);
            resolve_net(&mut self.global, &self.path, port_map, &self.net);
            check_room(&self.builder, &self.global, line)?;
            let net = self.builder.add_net(&self.global);
            if is_output_pin(conn.pin.base.of(text)) {
                // the builder would keep only the last driver and leave the
                // earlier one a fanout entry on a net it no longer drives
                if let Some(other) = self.builder.driver_cell(net).filter(|&d| d != cell) {
                    let message = format!(
                        "net '{}' is driven by instance '{}' and again by instance '{}'",
                        self.global,
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
    fn vector_width_limit_is_inclusive() {
        // 2^20 bits parse (the table is not elaborated here); one more fails
        assert!(parse_modules("module top (input [1048575:0] a); endmodule").is_ok());
        assert!(parse_modules("module top (input [0:-1048575] a); endmodule").is_ok());
        assert!(parse_modules("module top (input [1048576:0] a); endmodule").is_err());
        assert!(parse_modules("module top (input [-1:1048575] a); endmodule").is_err());
    }
}
