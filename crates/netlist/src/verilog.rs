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
//! The parser is *streaming*: tokens are borrowed slices of the source text
//! produced one at a time by a cursor — never a materialized token vector,
//! which costs gigabytes at a million cells — and the module table and the
//! flattener's per-instance port maps are compact sorted structures rather
//! than `HashMap`s.

use crate::design::{CellKind, Design, DesignBuilder, PortDirection};
use crate::error::ParseError;
use crate::library::Library;
use crate::names::NameTable;

/// The widest vector, in bits, that a declaration or part-select may span.
/// Elaboration creates one name per bit, so wider ranges are rejected where
/// they are read. IEEE 1364 lets tools cap vector length at no less than
/// 2^16 bits; the emitted presets use at most 256.
const MAX_VECTOR_BITS: u64 = 1 << 20;

/// A port declaration: name, direction, optional (msb, lsb) range.
type PortDecl = (String, PortDirection, Option<(i64, i64)>);

/// A parsed (unflattened) Verilog module.
#[derive(Debug, Clone, Default)]
struct Module {
    name: String,
    /// port name -> (direction, msb, lsb) ; scalar ports have msb == lsb == None
    ports: Vec<PortDecl>,
    instances: Vec<Instance>,
}

#[derive(Debug, Clone)]
struct Instance {
    cell: String,
    name: String,
    /// (port, net expression) pairs
    connections: Vec<(String, String)>,
}

/// Tokenizer output. Tokens borrow from the source text — no allocation per
/// token.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Token<'a> {
    Ident(&'a str),
    Symbol(char),
    Number(&'a str),
}

/// Streaming tokenizer: a cursor over the source text producing one token per
/// call.
struct Lexer<'a> {
    text: &'a str,
    pos: usize,
    line: usize,
}

impl<'a> Lexer<'a> {
    fn new(text: &'a str) -> Self {
        Self { text, pos: 0, line: 1 }
    }

    fn next_token(&mut self) -> Result<Option<(usize, Token<'a>)>, ParseError> {
        loop {
            let rest = &self.text[self.pos..];
            let Some(c) = rest.chars().next() else { return Ok(None) };
            match c {
                '\n' => {
                    self.line += 1;
                    self.pos += 1;
                }
                c if c.is_whitespace() => {
                    self.pos += c.len_utf8();
                }
                '/' => match rest[1..].chars().next() {
                    Some('/') => match rest.find('\n') {
                        Some(n) => {
                            self.line += 1;
                            self.pos += n + 1;
                        }
                        None => self.pos = self.text.len(),
                    },
                    Some('*') => {
                        let body = &rest[2..];
                        match body.find("*/") {
                            Some(n) => {
                                self.line += body[..n].matches('\n').count();
                                self.pos += 2 + n + 2;
                            }
                            None => {
                                self.line += body.matches('\n').count();
                                self.pos = self.text.len();
                            }
                        }
                    }
                    _ => {
                        self.pos += 1;
                        return Ok(Some((self.line, Token::Symbol('/'))));
                    }
                },
                '\\' => {
                    // escaped identifier: `\name with specials ` terminated by whitespace
                    let start = self.pos + 1;
                    let end = self.text[start..]
                        .find(char::is_whitespace)
                        .map_or(self.text.len(), |n| start + n);
                    self.pos = end;
                    return Ok(Some((self.line, Token::Ident(&self.text[start..end]))));
                }
                c if c.is_alphabetic() || c == '_' => {
                    let start = self.pos;
                    let end = rest
                        .find(|c2: char| !(c2.is_alphanumeric() || c2 == '_' || c2 == '$'))
                        .map_or(self.text.len(), |n| start + n);
                    self.pos = end;
                    return Ok(Some((self.line, Token::Ident(&self.text[start..end]))));
                }
                c if c.is_ascii_digit() => {
                    let start = self.pos;
                    let end = rest
                        .find(|c2: char| !(c2.is_alphanumeric() || c2 == '\'' || c2 == '_'))
                        .map_or(self.text.len(), |n| start + n);
                    self.pos = end;
                    return Ok(Some((self.line, Token::Number(&self.text[start..end]))));
                }
                '(' | ')' | '[' | ']' | '{' | '}' | ',' | ';' | ':' | '.' | '=' | '-' | '+' => {
                    self.pos += 1;
                    return Ok(Some((self.line, Token::Symbol(c))));
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
    peeked: Option<(usize, Token<'a>)>,
    line: usize,
}

impl<'a> Parser<'a> {
    fn new(text: &'a str) -> Self {
        Self { lexer: Lexer::new(text), peeked: None, line: 1 }
    }

    fn peek(&mut self) -> Result<Option<Token<'a>>, ParseError> {
        if self.peeked.is_none() {
            self.peeked = self.lexer.next_token()?;
        }
        Ok(self.peeked.map(|(_, t)| t))
    }

    fn line(&self) -> usize {
        self.peeked.map(|(l, _)| l).unwrap_or(self.line)
    }

    fn next(&mut self) -> Result<Option<Token<'a>>, ParseError> {
        self.peek()?;
        Ok(self.peeked.take().map(|(l, t)| {
            self.line = l;
            t
        }))
    }

    fn expect_symbol(&mut self, c: char) -> Result<(), ParseError> {
        match self.next()? {
            Some(Token::Symbol(s)) if s == c => Ok(()),
            other => {
                Err(ParseError::at_line(self.line(), format!("expected '{c}', found {other:?}")))
            }
        }
    }

    fn expect_ident(&mut self) -> Result<&'a str, ParseError> {
        match self.next()? {
            Some(Token::Ident(s)) => Ok(s),
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

    /// Parses a net expression: `name`, `name[3]`, `name[7:4]`, or a
    /// concatenation `{a, b[3], ...}`. Returns the list of bit-level net names.
    fn parse_net_expr(&mut self) -> Result<Vec<String>, ParseError> {
        if self.eat_symbol('{')? {
            let mut nets = Vec::new();
            loop {
                nets.extend(self.parse_net_expr()?);
                if !self.eat_symbol(',')? {
                    break;
                }
            }
            self.expect_symbol('}')?;
            return Ok(nets);
        }
        match self.next()? {
            Some(Token::Ident(base)) => {
                if self.eat_symbol('[')? {
                    let a = self.parse_int()?;
                    if self.eat_symbol(':')? {
                        let b = self.parse_int()?;
                        self.expect_symbol(']')?;
                        self.check_width(a, b)?;
                        // bits are listed in source order, i.e. from `a` to `b`
                        let v: Vec<String> = if a >= b {
                            (b..=a).rev().map(|i| format!("{base}[{i}]")).collect()
                        } else {
                            (a..=b).map(|i| format!("{base}[{i}]")).collect()
                        };
                        Ok(v)
                    } else {
                        self.expect_symbol(']')?;
                        Ok(vec![format!("{base}[{a}]")])
                    }
                } else {
                    Ok(vec![base.to_string()])
                }
            }
            Some(Token::Number(n)) => {
                // constant like 1'b0 — treat as an anonymous tie net
                Ok(vec![format!("__const_{n}")])
            }
            other => Err(ParseError::at_line(
                self.line(),
                format!("expected net expression, found {other:?}"),
            )),
        }
    }
}

/// The module table: definition-ordered modules with a compact name index.
#[derive(Default)]
struct ModuleTable {
    modules: Vec<Module>,
    index: NameTable,
}

impl ModuleTable {
    fn find(&self, name: &str) -> Option<&Module> {
        self.index
            .find(NameTable::hash_name(name), |id| self.modules[id as usize].name == name)
            .map(|id| &self.modules[id as usize])
    }

    fn insert(&mut self, m: Module) {
        let hash = NameTable::hash_name(&m.name);
        match self.index.find(hash, |id| self.modules[id as usize].name == m.name) {
            // a redefinition overwrites the earlier one, like map insertion did
            Some(id) => self.modules[id as usize] = m,
            None => {
                let id = self.modules.len() as u32;
                self.index.insert(hash, id);
                self.modules.push(m);
            }
        }
    }
}

/// Parses Verilog source text into the module table.
fn parse_modules(text: &str) -> Result<ModuleTable, ParseError> {
    let mut p = Parser::new(text);
    let mut table = ModuleTable::default();
    while let Some(tok) = p.peek()? {
        match tok {
            Token::Ident("module") => {
                p.next()?;
                let m = parse_module(&mut p)?;
                table.insert(m);
            }
            _ => {
                p.next()?;
            }
        }
    }
    Ok(table)
}

fn parse_module(p: &mut Parser<'_>) -> Result<Module, ParseError> {
    let name = p.expect_ident()?.to_string();
    let mut module = Module { name, ..Default::default() };
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
                    dir = Some(match kw {
                        "input" => PortDirection::Input,
                        "output" => PortDirection::Output,
                        _ => PortDirection::Inout,
                    });
                    if matches!(p.peek()?, Some(Token::Ident("wire" | "reg"))) {
                        p.next()?;
                    }
                    range = p.parse_range()?;
                }
                Some(Token::Ident(pname)) => {
                    p.next()?;
                    if let Some(d) = dir {
                        module.ports.push((pname.to_string(), d, range));
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
                let dir = match kw {
                    "input" => PortDirection::Input,
                    "output" => PortDirection::Output,
                    _ => PortDirection::Inout,
                };
                // optional `wire` keyword
                if p.peek()? == Some(Token::Ident("wire")) {
                    p.next()?;
                }
                let range = p.parse_range()?;
                loop {
                    let pname = p.expect_ident()?;
                    module.ports.push((pname.to_string(), dir, range));
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
                let inst_name = p.expect_ident()?.to_string();
                p.expect_symbol('(')?;
                let mut connections = Vec::new();
                if !p.eat_symbol(')')? {
                    loop {
                        p.expect_symbol('.')?;
                        let port = p.expect_ident()?;
                        // port may itself have an index suffix like .D[3] — not
                        // legal Verilog but seen in some netlists; handled by
                        // parse_net_expr style indexing of the port name.
                        let port = if p.peek()? == Some(Token::Symbol('[')) {
                            p.next()?;
                            let i = p.parse_int()?;
                            p.expect_symbol(']')?;
                            format!("{port}[{i}]")
                        } else {
                            port.to_string()
                        };
                        p.expect_symbol('(')?;
                        let nets = if p.peek()? == Some(Token::Symbol(')')) {
                            Vec::new() // unconnected pin: .X()
                        } else {
                            p.parse_net_expr()?
                        };
                        p.expect_symbol(')')?;
                        // expand multi-bit connections into port[i] names
                        if nets.len() <= 1 {
                            connections
                                .push((port.clone(), nets.first().cloned().unwrap_or_default()));
                        } else {
                            for (i, n) in nets.iter().enumerate() {
                                let bit = nets.len() - 1 - i;
                                connections.push((format!("{port}[{bit}]"), n.clone()));
                            }
                        }
                        if !p.eat_symbol(',')? {
                            break;
                        }
                    }
                    p.expect_symbol(')')?;
                }
                p.expect_symbol(';')?;
                module.instances.push(Instance {
                    cell: cell.to_string(),
                    name: inst_name,
                    connections,
                });
            }
            _ => {
                p.next()?;
            }
        }
    }
    Ok(module)
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
    let modules = parse_modules(text)?;
    if modules.modules.is_empty() {
        return Err(ParseError::new("no modules found"));
    }
    let top_name = match top {
        Some(t) => {
            if modules.find(t).is_none() {
                return Err(ParseError::new(format!("top module '{t}' not found")));
            }
            t.to_string()
        }
        None => infer_top(&modules)?,
    };
    let mut builder = DesignBuilder::new(top_name.clone());
    // top-level ports
    let top_module = modules.find(&top_name).expect("resolved above");
    for (pname, dir, range) in &top_module.ports {
        match range {
            Some((msb, lsb)) => {
                let (hi, lo) = ((*msb).max(*lsb), (*msb).min(*lsb));
                for i in lo..=hi {
                    builder.add_port(format!("{pname}[{i}]"), *dir);
                }
            }
            None => {
                builder.add_port(pname.clone(), *dir);
            }
        }
    }
    let mut ctx = Flattener { modules: &modules, opts, builder };
    ctx.flatten(&top_name, "", &PortMap::default())?;
    let mut design = ctx.builder.build();
    design.bind_library(&opts.library);
    connect_top_ports(&mut design);
    Ok(design)
}

/// After flattening, nets named exactly like a top-level port are attached to it.
fn connect_top_ports(design: &mut Design) {
    let pairs: Vec<(crate::design::PortId, crate::design::NetId, PortDirection)> = design
        .ports()
        .filter_map(|(pid, port)| design.find_net(&port.name).map(|nid| (pid, nid, port.direction)))
        .collect();
    for (pid, nid, dir) in pairs {
        // fix up both directions of the association
        {
            let port = design.port_mut(pid);
            port.net = Some(nid);
        }
        let net = design.net_mut(nid);
        match dir {
            PortDirection::Input => net.driver_port = Some(pid),
            _ => {
                if !net.sink_ports.contains(&pid) {
                    net.sink_ports.push(pid);
                }
            }
        }
    }
}

fn infer_top(modules: &ModuleTable) -> Result<String, ParseError> {
    let mut instantiated: Vec<&str> =
        modules.modules.iter().flat_map(|m| m.instances.iter().map(|i| i.cell.as_str())).collect();
    instantiated.sort_unstable();
    instantiated.dedup();
    let candidates: Vec<&str> = modules
        .modules
        .iter()
        .map(|m| m.name.as_str())
        .filter(|k| instantiated.binary_search(k).is_err())
        .collect();
    match candidates.len() {
        1 => Ok(candidates[0].to_string()),
        0 => Err(ParseError::new("could not infer top module (cyclic instantiation?)")),
        _ => Err(ParseError::new(format!(
            "multiple top candidates: {}; pass one explicitly",
            candidates.join(", ")
        ))),
    }
}

/// Sorted (local net → global net) map used while flattening one hierarchical
/// instance; replaces a per-instance `HashMap` with a binary-searched vector.
#[derive(Debug, Default)]
struct PortMap(Vec<(String, String)>);

impl PortMap {
    fn from_entries(mut entries: Vec<(String, String)>) -> Self {
        entries.sort_by(|a, b| a.0.cmp(&b.0));
        // keep the *last* binding of a duplicated port, like map insertion did
        let mut map: Vec<(String, String)> = Vec::with_capacity(entries.len());
        for e in entries {
            match map.last_mut() {
                Some(last) if last.0 == e.0 => *last = e,
                _ => map.push(e),
            }
        }
        Self(map)
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.0.binary_search_by(|(k, _)| k.as_str().cmp(key)).ok().map(|i| self.0[i].1.as_str())
    }
}

struct Flattener<'a> {
    modules: &'a ModuleTable,
    opts: &'a ElaborateOptions,
    builder: DesignBuilder,
}

impl<'a> Flattener<'a> {
    /// Recursively instantiates `module_name` under hierarchical prefix `path`.
    /// `port_map` maps the module's local net names to global net names.
    fn flatten(
        &mut self,
        module_name: &str,
        path: &str,
        port_map: &PortMap,
    ) -> Result<(), ParseError> {
        let module = self.modules.find(module_name).expect("checked by caller");
        for inst in &module.instances {
            let inst_path =
                if path.is_empty() { inst.name.clone() } else { format!("{path}/{}", inst.name) };
            if let Some(child) = self.modules.find(&inst.cell) {
                // hierarchical instance: build a port map for the child.
                // Child port ranges are looked up through a sorted slice so a
                // wide port list stays O(C log P) rather than O(C·P).
                let mut child_ranges: Vec<(&str, Option<(i64, i64)>)> =
                    child.ports.iter().map(|(n, _, r)| (n.as_str(), *r)).collect();
                child_ranges.sort_by(|a, b| a.0.cmp(b.0)); // stable: first decl of a duplicate wins
                child_ranges.dedup_by(|a, b| a.0 == b.0);
                let mut entries: Vec<(String, String)> = Vec::with_capacity(inst.connections.len());
                for (port, net) in &inst.connections {
                    if net.is_empty() {
                        continue;
                    }
                    // When a vectored child port is connected to a bare bus
                    // name, expand the connection bit by bit so nested levels
                    // resolve individual bits consistently.
                    let child_range = child_ranges
                        .binary_search_by(|(n, _)| (*n).cmp(port.as_str()))
                        .ok()
                        .and_then(|i| child_ranges[i].1);
                    if let (Some((msb, lsb)), false) = (child_range, net.contains('[')) {
                        let (hi, lo) = (msb.max(lsb), msb.min(lsb));
                        for i in lo..=hi {
                            let global = self.resolve_net(path, port_map, &format!("{net}[{i}]"));
                            entries.push((format!("{port}[{i}]"), global));
                        }
                        continue;
                    }
                    let global = self.resolve_net(path, port_map, net);
                    entries.push((port.clone(), global));
                }
                self.flatten(&inst.cell, &inst_path, &PortMap::from_entries(entries))?;
            } else {
                // leaf cell
                let kind = self.classify(&inst.cell);
                let (w, h) = match self.opts.library.find_macro(&inst.cell) {
                    Some(m) => (m.width, m.height),
                    None => (1, 1),
                };
                let cell_id =
                    self.builder.add_cell(inst_path.clone(), inst.cell.clone(), kind, w, h, path);
                for (port, net) in &inst.connections {
                    if net.is_empty() {
                        continue;
                    }
                    let global = self.resolve_net(path, port_map, net);
                    let net_id = self.builder.add_net(global);
                    if is_output_pin(port) {
                        self.builder.connect_driver(net_id, cell_id);
                    } else {
                        self.builder.connect_sink(net_id, cell_id);
                    }
                }
            }
        }
        Ok(())
    }

    fn classify(&self, cell: &str) -> CellKind {
        if let Some(m) = self.opts.library.find_macro(cell) {
            if m.is_block {
                return CellKind::Macro;
            }
        }
        if self.opts.flop_prefixes.iter().any(|p| cell.starts_with(p.as_str())) {
            CellKind::Flop
        } else {
            CellKind::Comb
        }
    }

    /// Maps a local net name to a global one: through the port map if the net
    /// is a port of the enclosing module, otherwise by prefixing the path.
    fn resolve_net(&self, path: &str, port_map: &PortMap, net: &str) -> String {
        if let Some(global) = port_map.get(net) {
            return global.to_string();
        }
        if net.starts_with("__const_") {
            return net.to_string();
        }
        if path.is_empty() {
            net.to_string()
        } else {
            format!("{path}/{net}")
        }
    }
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
  RAM16 u_ram (.D(w[0]), .Q(o));
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
        assert_eq!(d.cell(r1).hier_path, "u_sub");
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
        let net = d.net(n);
        assert!(net.sink_cells.len() >= 2, "expected at least 2 sinks, got {:?}", net);
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
        assert_eq!(d.cell(c).fanin.len(), 2);
        assert_eq!(d.cell(c).fanout.len(), 1);
    }

    #[test]
    fn module_redefinition_last_wins() {
        let src = r#"
module sub (input a, output y);
  BUF g0 (.A(a), .Y(y));
endmodule
module sub (input a, output y);
  INV g0 (.A(a), .Y(y));
  INV g1 (.A(y), .Y(y));
endmodule
module top (input a, output z);
  sub u (.a(a), .y(z));
endmodule
"#;
        let d = parse_verilog(src, Some("top"), &ElaborateOptions::default()).unwrap();
        assert_eq!(d.num_cells(), 2);
        assert_eq!(d.cell(d.find_cell("u/g0").unwrap()).lib_cell, "INV");
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
        let fanin_net = d.cell(g).fanin[0];
        assert_eq!(d.net(fanin_net).name, "q");
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

    #[test]
    fn vector_width_limit_is_inclusive() {
        // 2^20 bits parse (the table is not elaborated here); one more fails
        assert!(parse_modules("module top (input [1048575:0] a); endmodule").is_ok());
        assert!(parse_modules("module top (input [0:-1048575] a); endmodule").is_ok());
        assert!(parse_modules("module top (input [1048576:0] a); endmodule").is_err());
        assert!(parse_modules("module top (input [-1:1048575] a); endmodule").is_err());
    }
}
