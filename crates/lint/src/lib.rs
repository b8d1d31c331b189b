//! `hidap-lint`: a workspace invariant checker.
//!
//! The placer's value proposition is *bit-identical determinism* (dense ≡
//! hashed adjacency, warm ≡ cold placements, byte-identical daemon
//! transcripts) and a daemon that survives arbitrary input. Those are
//! semantic invariants — `rustc` and clippy cannot see them. This crate
//! enforces the source-level patterns that protect them:
//!
//! * `hash-iter` (R1) — no `HashMap`/`HashSet` iteration in non-test code of
//!   the deterministic crates; iteration order would leak into results.
//! * `daemon-panic` (R2) — no `unwrap`/`expect`/`panic!`/slice-index on the
//!   daemon request path; malformed frames must become `err` frames.
//! * `wall-clock` (R3) — no `Instant::now`/`SystemTime::now` outside the
//!   sanctioned timing crate (`bench`); wall-clock reads elsewhere are
//!   determinism hazards.
//! * `heap-size` (R4) — public structs with heap-owning fields in the
//!   byte-accounted crates must `impl HeapSize`, or the daemon's memory
//!   budget silently undercounts.
//! * `test-env` (R5) — tests must not sleep, read the environment, or
//!   depend on machine thread counts unless marked `#[ignore]`.
//! * `fs-scope` (R6) — no filesystem writes in non-test code of the
//!   deterministic crates outside the sanctioned spill module; disk is a
//!   side channel that would let results vary with machine state.
//!
//! Any finding can be waived in place with a pragma comment that *must*
//! carry a reason:
//!
//! ```text
//! // lint:allow(hash-iter): consumers sort the result before use
//! ```
//!
//! A trailing pragma applies to its own line; a standalone pragma comment
//! applies to the next line of code. A pragma with an unknown rule name or
//! a missing reason is itself a finding (rule `pragma`).
//!
//! The analysis is token-based: `lexer` hand-rolls a total Rust tokenizer
//! (raw strings, nested block comments, char-vs-lifetime) in the same
//! borrowed-`&str` style as the streaming netlist parsers, and the rules
//! pattern-match on the token stream with `#[cfg(test)]`/`#[test]`/
//! `#[ignore]` region tracking. See `docs/LINTS.md` for the full rationale
//! and scoping of each rule.

#![forbid(unsafe_code)]
#![deny(clippy::print_stdout)]

pub mod lexer;

use lexer::{tokenize, Token, TokenKind};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// One source file presented to [`analyze`]. `path` is workspace-relative
/// with `/` separators — rule scoping keys off it.
#[derive(Debug, Clone)]
pub struct FileInput {
    pub path: String,
    pub text: String,
}

/// One rule violation. Renders as `file:line: rule: message`.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Finding {
    pub file: String,
    pub line: usize,
    pub rule: &'static str,
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}: {}: {}", self.file, self.line, self.rule, self.message)
    }
}

/// A rule's name and documentation, surfaced by `--explain`.
pub struct Rule {
    pub name: &'static str,
    pub summary: &'static str,
    pub explain: &'static str,
}

/// The rule set. `pragma` is the meta-rule for malformed waivers; it cannot
/// itself be waived.
pub const RULES: &[Rule] = &[
    Rule {
        name: "hash-iter",
        summary: "no HashMap/HashSet iteration in non-test code of deterministic crates",
        explain: "\
hash-iter (R1): iteration over HashMap/HashSet in deterministic crates.

Scope: non-test src code of crates hidap, eval, graphs, placer-core, netlist.

HashMap and HashSet iterate in randomized (or at best unspecified) order, so
any result assembled by walking one is free to differ run-to-run. The repo's
contract is bit-identical output: dense-vs-reference equality tests, warm==cold
ECO placements, byte-identical daemon transcripts. Hash lookups are fine;
it is only *iteration* (for-loops, .iter()/.keys()/.values()/.drain()/...)
that leaks ordering into results.

Fix: use BTreeMap/BTreeSet or a dense index keyed by a stable id, or sort
the iteration output before it can influence anything observable, then waive
the site with // lint:allow(hash-iter): <why the order cannot escape>.",
    },
    Rule {
        name: "daemon-panic",
        summary: "no unwrap/expect/panic!/slice-index on the daemon request path",
        explain: "\
daemon-panic (R2): panics reachable from a client request kill the daemon.

Scope: non-test code of crates/server/src/* and placer-core's service.rs —
everything between frame decode and job completion — plus netlist's
verilog.rs, lef.rs and def.rs, which `intern` runs on client-named files, and
the spill decoders eval's spill.rs, placer-core's seeds.rs and netlist's
codec.rs, which read disk bytes when a `replace` revives a seed.

`hidap --serve` promises that a malformed or hostile frame produces a
structured `err code=...` frame and the session lives on. A stray .unwrap(),
.expect(), panic!/unreachable!/todo!, or slice index on that path converts
bad input into a dead daemon for every connected client. The lint flags all
of them, including `xs[i]` indexing (use .get() and map None to a typed
PlaceError).

Fix: return PlaceError (service) or write an err frame (session),
or prove the invariant locally and waive with
// lint:allow(daemon-panic): <why this cannot panic / is pre-validated>.",
    },
    Rule {
        name: "wall-clock",
        summary: "no Instant::now/SystemTime::now outside sanctioned timing code",
        explain: "\
wall-clock (R3): ambient clock reads are determinism hazards.

Scope: non-test src code of every crate except `bench` (the sanctioned
timing harness).

A wall-clock read that influences placement (timeouts, time-based seeds,
early exits) makes results machine- and load-dependent. Reads that only feed
*reporting* fields (the wall_s numbers in flow reports) are legitimate but
must be visibly declared, so each such site carries a pragma stating that
the value is report-only.

Fix: move timing into bench, thread a caller-supplied clock, or waive with
// lint:allow(wall-clock): <why the value cannot influence results>.",
    },
    Rule {
        name: "heap-size",
        summary: "heap-owning pub structs in accounted crates must impl HeapSize",
        explain: "\
heap-size (R4): byte-accounting completeness for the daemon's memory budget.

Scope: public structs in the accounted crates (netlist, graphs) whose fields
own heap memory (Vec, String, Box, Arc, HashMap, ...).

The DesignStore admission control and artifact-cache eviction decisions are
driven by HeapSize::heap_bytes. A new heap-owning type without an impl makes
every design that embeds it look smaller than it is, and the daemon
over-admits until the OOM killer arbitrates. The lint cross-references every
`pub struct` against `impl HeapSize for ...` within the crate.

Fix: implement HeapSize (sum the owned buffers), or — for short-lived parser
transients that never reach the store — waive with
// lint:allow(heap-size): <why this type is never byte-accounted> placed
directly above the `pub struct` line.",
    },
    Rule {
        name: "test-env",
        summary: "no sleep/env/thread-count reads in non-#[ignore] tests",
        explain: "\
test-env (R5): tests that consult the machine are flaky by construction.

Scope: test code only — files under tests/ and #[cfg(test)]/#[test] regions
— excluding functions marked #[ignore].

thread::sleep() races the scheduler, std::env::var() couples the test to
the invoking shell, and available_parallelism()/num_cpus make assertions
machine-dependent. Under CI load each becomes an intermittent failure that
erodes trust in the suite exactly where determinism is the product.

Fix: replace sleeps with explicit synchronization (channels, joins), inject
configuration instead of reading env, pin thread counts; or mark the test
#[ignore] (opt-in soak tests), or waive with
// lint:allow(test-env): <why this read cannot flake>.",
    },
    Rule {
        name: "fs-scope",
        summary: "no filesystem writes in deterministic crates outside the spill module",
        explain: "\
fs-scope (R6): ambient filesystem writes are determinism and hygiene hazards.

Scope: non-test src code of crates hidap, eval, graphs, placer-core, netlist
— except crates/eval/src/spill.rs, the sanctioned spill tier (its module
header declares the exemption; see docs/MEMORY.md).

The placer's contract is that identical inputs give bit-identical outputs.
A crate that writes files on its own (caches, scratch state, logs) couples
results to whatever the disk held from a previous run, and scatters state
the daemon's memory budget cannot see. All persistence flows through
eval::SpillTier, which is content-addressed, checksummed, and fails open:
a bad file reads as absent, never as another result. The lint flags
fs::write/create_dir*/remove_*/rename/copy/hard_link/set_permissions,
File::create/create_new/options, and OpenOptions construction.

Fix: route the write through eval::SpillTier (or return data to a caller
that owns I/O, e.g. the cli crate), or waive a provably inert site with
// lint:allow(fs-scope): <why this write cannot influence results>.",
    },
    Rule {
        name: "pragma",
        summary: "lint:allow pragmas must name a real rule and carry a reason",
        explain: "\
pragma: the waiver syntax is itself checked.

A waiver is // lint:allow(<rule>): <reason>. The rule must be one of the
real rule names and the reason must be non-empty — an unexplained waiver is
worse than the violation, because it silences the alarm without recording
why that is safe. Malformed pragmas (unknown rule, missing `: reason`) are
findings under this rule and cannot be waived.",
    },
];

/// Looks a rule up by name.
pub fn rule_named(name: &str) -> Option<&'static Rule> {
    RULES.iter().find(|r| r.name == name)
}

/// Crates whose results must be bit-identical run-to-run (R1 scope).
const DETERMINISTIC_CRATES: &[&str] = &["hidap", "eval", "graphs", "placer-core", "netlist"];

/// Crates participating in `HeapSize` byte accounting (R4 scope).
const ACCOUNTED_CRATES: &[&str] = &["netlist", "graphs"];

/// Field types that own heap memory (R4).
const HEAP_OWNING_TYPES: &[&str] = &[
    "Vec", "VecDeque", "String", "Box", "Arc", "Rc", "HashMap", "HashSet", "BTreeMap", "BTreeSet",
    "PathBuf",
];

/// Methods whose call on a hash collection observes iteration order (R1).
const HASH_ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "into_iter",
    "keys",
    "values",
    "values_mut",
    "into_keys",
    "into_values",
    "drain",
];

/// `std::fs` free functions that mutate the filesystem (R6). Reads are fine
/// — only writes scatter state a later run could observe.
const FS_WRITE_FNS: &[&str] = &[
    "write",
    "create_dir",
    "create_dir_all",
    "remove_file",
    "remove_dir",
    "remove_dir_all",
    "rename",
    "copy",
    "hard_link",
    "set_permissions",
];

/// The one module in the deterministic crates sanctioned to touch disk (R6).
const SPILL_MODULE: &str = "crates/eval/src/spill.rs";

/// Keywords that may legitimately precede a `[` without it being an index
/// expression (`impl Foo for [T]`, `return [a, b]`, ...).
const NON_INDEX_KEYWORDS: &[&str] = &[
    "as", "break", "const", "continue", "else", "enum", "extern", "fn", "for", "if", "impl", "in",
    "let", "loop", "match", "mod", "move", "mut", "pub", "ref", "return", "static", "struct",
    "trait", "type", "use", "where", "while", "yield",
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum DirKind {
    Src,
    Tests,
    Examples,
    Benches,
}

fn crate_of(path: &str) -> &str {
    match path.strip_prefix("crates/") {
        Some(rest) => rest.split('/').next().unwrap_or(""),
        None => "hidap-repro",
    }
}

fn dir_kind(path: &str) -> DirKind {
    let rel = match path.strip_prefix("crates/") {
        Some(rest) => rest.split_once('/').map(|(_, r)| r).unwrap_or(rest),
        None => path,
    };
    if rel.starts_with("tests/") {
        DirKind::Tests
    } else if rel.starts_with("examples/") {
        DirKind::Examples
    } else if rel.starts_with("benches/") {
        DirKind::Benches
    } else {
        DirKind::Src
    }
}

fn is_comment(t: &Token) -> bool {
    matches!(t.kind, TokenKind::LineComment | TokenKind::BlockComment)
}

/// The comment-stripped token stream of one file, with text access.
struct Code<'a> {
    toks: Vec<Token>,
    src: &'a str,
}

impl<'a> Code<'a> {
    fn new(all: &[Token], src: &'a str) -> Self {
        Code { toks: all.iter().filter(|t| !is_comment(t)).copied().collect(), src }
    }

    fn ident(&self, i: usize) -> Option<&'a str> {
        let t = self.toks.get(i)?;
        (t.kind == TokenKind::Ident).then(|| t.text(self.src))
    }

    fn is_ident(&self, i: usize, s: &str) -> bool {
        self.ident(i) == Some(s)
    }

    fn punct(&self, i: usize) -> Option<char> {
        let t = self.toks.get(i)?;
        (t.kind == TokenKind::Punct).then(|| t.text(self.src).chars().next())?
    }

    fn is_punct(&self, i: usize, c: char) -> bool {
        self.punct(i) == Some(c)
    }
}

/// A brace-delimited region opened by `#[cfg(test)]` / `#[test]` /
/// `#[ignore]` attributes (byte span of attribute start .. closing brace).
#[derive(Debug, Clone, Copy)]
struct Region {
    start: usize,
    end: usize,
    test: bool,
    ignore: bool,
}

/// Parses one attribute group; `open` indexes its `[`. Returns
/// (is-test, is-ignore, index just past the closing `]`).
fn attr_flags(code: &Code<'_>, open: usize) -> (bool, bool, usize) {
    let mut depth = 0usize;
    let mut j = open;
    let mut test = false;
    let mut negated = false;
    let mut ignore = false;
    while j < code.toks.len() {
        match code.punct(j) {
            Some('[') => depth += 1,
            Some(']') => {
                depth -= 1;
                if depth == 0 {
                    return (test && !negated, ignore, j + 1);
                }
            }
            _ => match code.ident(j) {
                Some("test") => test = true,
                Some("not") => negated = true,
                Some("ignore") => ignore = true,
                _ => {}
            },
        }
        j += 1;
    }
    (test && !negated, ignore, j)
}

/// Byte offset just past the brace matching `open` (which indexes a `{`).
fn match_brace_end(code: &Code<'_>, open: usize) -> usize {
    let mut depth = 0usize;
    let mut j = open;
    while j < code.toks.len() {
        match code.punct(j) {
            Some('{') => depth += 1,
            Some('}') => {
                depth -= 1;
                if depth == 0 {
                    return code.toks[j].end;
                }
            }
            _ => {}
        }
        j += 1;
    }
    code.src.len()
}

/// Finds every `#[cfg(test)]`/`#[test]`/`#[ignore]`-attributed item body.
/// Regions nest (a `#[test]` fn inside a `#[cfg(test)]` mod yields both);
/// queries ask whether *any* enclosing region carries a flag.
fn build_regions(code: &Code<'_>) -> Vec<Region> {
    let mut regions = Vec::new();
    let mut i = 0;
    while i < code.toks.len() {
        if !(code.is_punct(i, '#') && code.is_punct(i + 1, '[')) {
            i += 1;
            continue;
        }
        let attr_start = code.toks[i].start;
        let mut test = false;
        let mut ignore = false;
        let mut j = i;
        while code.is_punct(j, '#') && code.is_punct(j + 1, '[') {
            let (t, g, next) = attr_flags(code, j + 1);
            test |= t;
            ignore |= g;
            j = next;
        }
        if !(test || ignore) {
            i = j;
            continue;
        }
        // Scan the attributed item's header for its body brace; `;` first
        // means a body-less item (e.g. `#[cfg(test)] use ...;`).
        let mut depth = 0i64;
        let mut k = j;
        let mut body = None;
        while k < code.toks.len() {
            match code.punct(k) {
                Some('(') | Some('[') => depth += 1,
                Some(')') | Some(']') => depth -= 1,
                Some('{') if depth == 0 => {
                    body = Some(k);
                    break;
                }
                Some(';') if depth == 0 => break,
                _ => {}
            }
            k += 1;
        }
        match body {
            Some(b) => {
                let end = match_brace_end(code, b);
                regions.push(Region { start: attr_start, end, test, ignore });
                i = b + 1; // descend, so nested #[test]/#[ignore] are found
            }
            None => i = k + 1,
        }
    }
    regions
}

fn in_region(regions: &[Region], pos: usize, want: impl Fn(&Region) -> bool) -> bool {
    regions.iter().any(|r| want(r) && r.start <= pos && pos < r.end)
}

type Allows = BTreeMap<usize, BTreeSet<&'static str>>;

/// Extracts `allow` waiver pragmas (see the module docs for the syntax);
/// malformed ones become `pragma` findings. Returns line → waived rules.
fn build_pragmas(all: &[Token], src: &str, path: &str, findings: &mut Vec<Finding>) -> Allows {
    let mut allows: Allows = BTreeMap::new();
    for (idx, t) in all.iter().enumerate() {
        if !is_comment(t) {
            continue;
        }
        let text = t.text(src);
        let Some(pos) = text.find("lint:allow") else { continue };
        let mut bad = |msg: String| {
            findings.push(Finding {
                file: path.to_string(),
                line: t.line,
                rule: "pragma",
                message: msg,
            });
        };
        let rest = &text[pos + "lint:allow".len()..];
        let Some(rest) = rest.strip_prefix('(') else {
            bad("malformed pragma: expected `lint:allow(<rule>): <reason>`".to_string());
            continue;
        };
        let Some(close) = rest.find(')') else {
            bad("malformed pragma: unclosed `(` in `lint:allow(<rule>)`".to_string());
            continue;
        };
        let rule_name = rest[..close].trim();
        let Some(rule) = rule_named(rule_name).filter(|r| r.name != "pragma") else {
            bad(format!(
                "unknown rule `{rule_name}` in pragma; known rules: {}",
                RULES
                    .iter()
                    .filter(|r| r.name != "pragma")
                    .map(|r| r.name)
                    .collect::<Vec<_>>()
                    .join(", ")
            ));
            continue;
        };
        let after = rest[close + 1..].trim_start();
        let Some(reason) = after.strip_prefix(':') else {
            bad(format!(
                "pragma for `{}` is missing its `: <reason>` — waivers must say why",
                rule.name
            ));
            continue;
        };
        let reason = reason.trim().trim_end_matches("*/").trim();
        if reason.is_empty() {
            bad(format!("pragma for `{}` has an empty reason — waivers must say why", rule.name));
            continue;
        }
        // A trailing pragma covers its own line; a standalone one covers the
        // next line of code (its own line too, harmlessly).
        allows.entry(t.line).or_default().insert(rule.name);
        let trailing =
            all[..idx].iter().rev().take_while(|p| p.line == t.line).any(|p| !is_comment(p));
        if !trailing {
            if let Some(nxt) = all[idx + 1..].iter().find(|p| !is_comment(p)) {
                allows.entry(nxt.line).or_default().insert(rule.name);
            }
        }
    }
    allows
}

fn waived(allows: &Allows, line: usize, rule: &str) -> bool {
    allows.get(&line).is_some_and(|set| set.contains(rule))
}

/// Everything the per-file rules need about one file.
struct Ctx<'a> {
    path: &'a str,
    krate: &'a str,
    kind: DirKind,
    code: &'a Code<'a>,
    regions: &'a [Region],
    allows: &'a Allows,
}

impl Ctx<'_> {
    fn in_test(&self, pos: usize) -> bool {
        in_region(self.regions, pos, |r| r.test)
    }

    fn in_ignore(&self, pos: usize) -> bool {
        in_region(self.regions, pos, |r| r.ignore)
    }

    fn emit(&self, findings: &mut Vec<Finding>, line: usize, rule: &'static str, message: String) {
        if !waived(self.allows, line, rule) {
            findings.push(Finding { file: self.path.to_string(), line, rule, message });
        }
    }
}

/// R1: iteration over hash-ordered collections in deterministic crates.
fn rule_hash_iter(ctx: &Ctx<'_>, findings: &mut Vec<Finding>) {
    if ctx.kind != DirKind::Src || !DETERMINISTIC_CRATES.contains(&ctx.krate) {
        return;
    }
    let code = ctx.code;
    let n = code.toks.len();

    // Pass 1: names bound to HashMap/HashSet — struct fields and let/assign
    // bindings (`x: HashMap<..>`, `x = HashMap::new()`) — plus the body
    // spans of `impl Trait for HashMap<..>` blocks, where `self` itself is
    // hash-ordered.
    let mut names: BTreeSet<&str> = BTreeSet::new();
    let mut self_spans: Vec<(usize, usize)> = Vec::new();
    for i in 0..n {
        let Some(t) = code.ident(i) else { continue };
        if t != "HashMap" && t != "HashSet" {
            continue;
        }
        if ctx.in_test(code.toks[i].start) {
            continue;
        }
        if i >= 1 && code.is_ident(i - 1, "for") {
            let mut depth = 0i64;
            let mut j = i + 1;
            while j < n {
                match code.punct(j) {
                    Some('(') | Some('[') => depth += 1,
                    Some(')') | Some(']') => depth -= 1,
                    Some('{') if depth == 0 => {
                        self_spans.push((code.toks[j].start, match_brace_end(code, j)));
                        break;
                    }
                    _ => {}
                }
                j += 1;
            }
            continue;
        }
        // Rewind over a path prefix (`std::collections::HashMap`) and then
        // over reference sigils (`&`, `&mut`, `&'a`).
        let mut p = i;
        while p >= 3
            && code.is_punct(p - 1, ':')
            && code.is_punct(p - 2, ':')
            && code.ident(p - 3).is_some()
        {
            p -= 3;
        }
        while p >= 1
            && (code.is_punct(p - 1, '&')
                || code.is_ident(p - 1, "mut")
                || code.toks[p - 1].kind == TokenKind::Lifetime)
        {
            p -= 1;
        }
        if p >= 2 && code.is_punct(p - 1, ':') && !code.is_punct(p - 2, ':') {
            if let Some(name) = code.ident(p - 2) {
                names.insert(name);
            }
        } else if p >= 2 && code.is_punct(p - 1, '=') {
            if let Some(name) = code.ident(p - 2) {
                if name != "let" {
                    names.insert(name);
                }
            }
        }
    }
    if names.is_empty() && self_spans.is_empty() {
        return;
    }

    // Pass 2: iteration sites over those names.
    for i in 0..n {
        if ctx.in_test(code.toks[i].start) {
            continue;
        }
        let Some(t) = code.ident(i) else { continue };
        // name.iter() / self.map.keys() / ...
        if HASH_ITER_METHODS.contains(&t)
            && i >= 2
            && code.is_punct(i - 1, '.')
            && code.is_punct(i + 1, '(')
        {
            if let Some(recv) = code.ident(i - 2) {
                let pos = code.toks[i].start;
                let hashy = names.contains(recv)
                    || (recv == "self" && self_spans.iter().any(|&(s, e)| s <= pos && pos < e));
                if hashy {
                    ctx.emit(
                        findings,
                        code.toks[i].line,
                        "hash-iter",
                        format!(
                            "`{recv}.{t}()` iterates a hash-ordered collection in a \
                             deterministic crate; use BTreeMap/a dense index or sort the result"
                        ),
                    );
                }
            }
        }
        // for pat in [&][mut] name { ... }
        if t == "for" {
            let mut depth = 0i64;
            let mut j = i + 1;
            while j < n {
                match code.punct(j) {
                    Some('(') | Some('[') => depth += 1,
                    Some(')') | Some(']') => depth -= 1,
                    Some('{') if depth == 0 => break,
                    _ => {}
                }
                if depth == 0 && code.is_ident(j, "in") {
                    let mut k = j + 1;
                    while code.is_punct(k, '&') || code.is_ident(k, "mut") {
                        k += 1;
                    }
                    if let Some(name) = code.ident(k) {
                        if names.contains(name) && code.is_punct(k + 1, '{') {
                            ctx.emit(
                                findings,
                                code.toks[i].line,
                                "hash-iter",
                                format!(
                                    "for-loop over hash-ordered `{name}` in a deterministic \
                                     crate; use BTreeMap/a dense index or sort first"
                                ),
                            );
                        }
                    }
                    break;
                }
                j += 1;
            }
        }
    }
}

/// Whether a file sits on the daemon request path (R2 scope).
fn on_daemon_path(path: &str) -> bool {
    path.starts_with("crates/server/src/")
        || path == "crates/placer-core/src/service.rs"
        || path == "crates/netlist/src/verilog.rs"
        || path == "crates/netlist/src/lef.rs"
        || path == "crates/netlist/src/def.rs"
        || path == "crates/eval/src/spill.rs"
        || path == "crates/placer-core/src/seeds.rs"
        || path == "crates/netlist/src/codec.rs"
}

/// R2: panic sources on the daemon request path.
fn rule_daemon_panic(ctx: &Ctx<'_>, findings: &mut Vec<Finding>) {
    if !on_daemon_path(ctx.path) {
        return;
    }
    let code = ctx.code;
    for i in 0..code.toks.len() {
        if ctx.in_test(code.toks[i].start) {
            continue;
        }
        let line = code.toks[i].line;
        if let Some(t) = code.ident(i) {
            match t {
                "unwrap" | "expect"
                    if i >= 1 && code.is_punct(i - 1, '.') && code.is_punct(i + 1, '(') =>
                {
                    ctx.emit(
                        findings,
                        line,
                        "daemon-panic",
                        format!(
                            "`.{t}()` on the daemon request path can kill the session; \
                             return a typed PlaceError or an `err` frame instead"
                        ),
                    );
                }
                "panic" | "unreachable" | "todo" | "unimplemented" if code.is_punct(i + 1, '!') => {
                    ctx.emit(
                        findings,
                        line,
                        "daemon-panic",
                        format!(
                            "`{t}!` on the daemon request path can kill the session; \
                             map the condition to a structured error"
                        ),
                    );
                }
                _ => {}
            }
        } else if code.is_punct(i, '[') && i >= 1 {
            let prev = &code.toks[i - 1];
            let indexes = match prev.kind {
                TokenKind::Ident => !NON_INDEX_KEYWORDS.contains(&prev.text(code.src)),
                TokenKind::Punct => matches!(prev.text(code.src), ")" | "]"),
                _ => false,
            };
            if indexes {
                ctx.emit(
                    findings,
                    line,
                    "daemon-panic",
                    "slice/array index on the daemon request path can panic on bad input; \
                     use .get() and map None to a structured error"
                        .to_string(),
                );
            }
        }
    }
}

/// R3: ambient wall-clock reads outside the timing crate.
fn rule_wall_clock(ctx: &Ctx<'_>, findings: &mut Vec<Finding>) {
    if ctx.kind != DirKind::Src || ctx.krate == "bench" {
        return;
    }
    let code = ctx.code;
    for i in 0..code.toks.len() {
        let Some(t) = code.ident(i) else { continue };
        if (t == "Instant" || t == "SystemTime")
            && code.is_punct(i + 1, ':')
            && code.is_punct(i + 2, ':')
            && code.is_ident(i + 3, "now")
            && !ctx.in_test(code.toks[i].start)
        {
            ctx.emit(
                findings,
                code.toks[i].line,
                "wall-clock",
                format!(
                    "`{t}::now()` outside the sanctioned timing crate is a determinism \
                     hazard; move timing into bench or pragma a report-only read"
                ),
            );
        }
    }
}

/// R6: filesystem writes in deterministic crates outside the spill tier.
fn rule_fs_scope(ctx: &Ctx<'_>, findings: &mut Vec<Finding>) {
    if ctx.kind != DirKind::Src
        || !DETERMINISTIC_CRATES.contains(&ctx.krate)
        || ctx.path == SPILL_MODULE
    {
        return;
    }
    let code = ctx.code;
    for i in 0..code.toks.len() {
        if ctx.in_test(code.toks[i].start) {
            continue;
        }
        let Some(t) = code.ident(i) else { continue };
        let line = code.toks[i].line;
        let pathy = code.is_punct(i + 1, ':') && code.is_punct(i + 2, ':');
        if t == "fs" && pathy {
            if let Some(f) = code.ident(i + 3) {
                if FS_WRITE_FNS.contains(&f) && code.is_punct(i + 4, '(') {
                    ctx.emit(
                        findings,
                        line,
                        "fs-scope",
                        format!(
                            "`fs::{f}()` writes the filesystem from a deterministic crate; \
                             route persistence through eval::SpillTier (docs/MEMORY.md)"
                        ),
                    );
                }
            }
        } else if t == "File"
            && pathy
            && matches!(code.ident(i + 3), Some("create") | Some("create_new") | Some("options"))
        {
            ctx.emit(
                findings,
                line,
                "fs-scope",
                format!(
                    "`File::{}` opens the filesystem for writing from a deterministic \
                     crate; route persistence through eval::SpillTier (docs/MEMORY.md)",
                    code.ident(i + 3).unwrap_or("create")
                ),
            );
        } else if t == "OpenOptions" {
            ctx.emit(
                findings,
                line,
                "fs-scope",
                "`OpenOptions` grants write access to the filesystem from a deterministic \
                 crate; route persistence through eval::SpillTier (docs/MEMORY.md)"
                    .to_string(),
            );
        }
    }
}

/// R5: machine-dependent reads in non-#[ignore] test code.
fn rule_test_env(ctx: &Ctx<'_>, findings: &mut Vec<Finding>) {
    let code = ctx.code;
    for i in 0..code.toks.len() {
        let pos = code.toks[i].start;
        if !(ctx.kind == DirKind::Tests || ctx.in_test(pos)) || ctx.in_ignore(pos) {
            continue;
        }
        let Some(t) = code.ident(i) else { continue };
        let line = code.toks[i].line;
        if t == "sleep" && code.is_punct(i + 1, '(') {
            ctx.emit(
                findings,
                line,
                "test-env",
                "test sleeps wall-clock time (flaky under load); synchronize explicitly, \
                 mark #[ignore], or pragma with justification"
                    .to_string(),
            );
        } else if t == "env"
            && code.is_punct(i + 1, ':')
            && code.is_punct(i + 2, ':')
            && matches!(code.ident(i + 3), Some("var") | Some("var_os") | Some("vars"))
        {
            ctx.emit(
                findings,
                line,
                "test-env",
                "test reads the process environment; inject configuration instead, \
                 mark #[ignore], or pragma with justification"
                    .to_string(),
            );
        } else if t == "available_parallelism" || t == "num_cpus" {
            ctx.emit(
                findings,
                line,
                "test-env",
                "test depends on the machine's thread count; pin the count, \
                 mark #[ignore], or pragma with justification"
                    .to_string(),
            );
        }
    }
}

/// A heap-owning `pub struct` candidate awaiting its `impl HeapSize` (R4).
struct HeapStruct {
    krate: String,
    name: String,
    file: String,
    line: usize,
    heap_field: String,
    waived: bool,
}

/// R4 collection pass: public structs with heap-owning fields, and every
/// `impl HeapSize for T`, per accounted crate. Resolution is cross-file.
fn collect_heap_size(
    ctx: &Ctx<'_>,
    structs: &mut Vec<HeapStruct>,
    impls: &mut BTreeSet<(String, String)>,
) {
    if ctx.kind != DirKind::Src || !ACCOUNTED_CRATES.contains(&ctx.krate) {
        return;
    }
    let code = ctx.code;
    let n = code.toks.len();
    for i in 0..n {
        let Some(t) = code.ident(i) else { continue };
        if t == "HeapSize" && code.is_ident(i + 1, "for") {
            if let Some(name) = code.ident(i + 2) {
                impls.insert((ctx.krate.to_string(), name.to_string()));
            }
            continue;
        }
        if t != "struct" || ctx.in_test(code.toks[i].start) {
            continue;
        }
        let Some(name) = code.ident(i + 1) else { continue };
        // Visibility: `pub struct` or `pub(crate) struct`.
        let is_pub = if i >= 1 && code.is_ident(i - 1, "pub") {
            true
        } else if i >= 1 && code.is_punct(i - 1, ')') {
            let mut p = i - 1;
            while p > 0 && !code.is_punct(p, '(') {
                p -= 1;
            }
            p >= 1 && code.is_ident(p - 1, "pub")
        } else {
            false
        };
        if !is_pub {
            continue;
        }
        // Skip generics to the body (`{`, tuple `(`, or unit `;`).
        let mut j = i + 2;
        if code.is_punct(j, '<') {
            let mut depth = 0i64;
            while j < n {
                match code.punct(j) {
                    Some('<') => depth += 1,
                    Some('>') => {
                        depth -= 1;
                        if depth == 0 {
                            j += 1;
                            break;
                        }
                    }
                    _ => {}
                }
                j += 1;
            }
        }
        let (open, close_ch) = loop {
            match code.punct(j) {
                Some('{') => break (j, '}'),
                Some('(') => break (j, ')'),
                Some(';') => break (usize::MAX, ' '),
                None if j >= n => break (usize::MAX, ' '),
                _ => j += 1,
            }
        };
        if open == usize::MAX {
            continue;
        }
        let open_ch = if close_ch == '}' { '{' } else { '(' };
        let mut depth = 0i64;
        let mut k = open;
        let mut heap_field: Option<&str> = None;
        while k < n {
            match code.punct(k) {
                Some(c) if c == open_ch => depth += 1,
                Some(c) if c == close_ch => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                _ => {
                    if let Some(f) = code.ident(k) {
                        if HEAP_OWNING_TYPES.contains(&f) && heap_field.is_none() {
                            heap_field = Some(f);
                        }
                    }
                }
            }
            k += 1;
        }
        if let Some(f) = heap_field {
            let line = code.toks[i + 1].line;
            structs.push(HeapStruct {
                krate: ctx.krate.to_string(),
                name: name.to_string(),
                file: ctx.path.to_string(),
                line,
                heap_field: f.to_string(),
                waived: waived(ctx.allows, line, "heap-size"),
            });
        }
    }
}

/// Runs every rule over `files` and returns sorted, deduplicated findings.
pub fn analyze(files: &[FileInput]) -> Vec<Finding> {
    let mut findings = Vec::new();
    let mut heap_structs: Vec<HeapStruct> = Vec::new();
    let mut heap_impls: BTreeSet<(String, String)> = BTreeSet::new();
    for f in files {
        let all = tokenize(&f.text);
        let code = Code::new(&all, &f.text);
        let mut allows_findings = Vec::new();
        let allows = build_pragmas(&all, &f.text, &f.path, &mut allows_findings);
        findings.append(&mut allows_findings);
        let regions = build_regions(&code);
        let ctx = Ctx {
            path: &f.path,
            krate: crate_of(&f.path),
            kind: dir_kind(&f.path),
            code: &code,
            regions: &regions,
            allows: &allows,
        };
        rule_hash_iter(&ctx, &mut findings);
        rule_daemon_panic(&ctx, &mut findings);
        rule_wall_clock(&ctx, &mut findings);
        rule_fs_scope(&ctx, &mut findings);
        rule_test_env(&ctx, &mut findings);
        collect_heap_size(&ctx, &mut heap_structs, &mut heap_impls);
    }
    for s in heap_structs {
        if !s.waived && !heap_impls.contains(&(s.krate.clone(), s.name.clone())) {
            findings.push(Finding {
                file: s.file,
                line: s.line,
                rule: "heap-size",
                message: format!(
                    "pub struct `{}` owns heap memory (field uses {}) but crate `{}` has no \
                     `impl HeapSize for {}`; the byte budget will undercount it",
                    s.name, s.heap_field, s.krate, s.name
                ),
            });
        }
    }
    findings.sort();
    findings.dedup();
    findings
}

/// Collects every workspace `.rs` source under `root`: the umbrella crate's
/// `src`/`tests`/`examples` plus each `crates/*` member's `src`/`tests`/
/// `examples`/`benches`. Shims (`shims/*`) are vendored stand-ins for
/// external crates and are deliberately out of scope. Paths come back
/// root-relative, sorted, `/`-separated.
pub fn scan_workspace(root: &Path) -> io::Result<Vec<FileInput>> {
    const SUBDIRS: &[&str] = &["src", "tests", "examples", "benches"];
    let mut dirs: Vec<PathBuf> = SUBDIRS.iter().map(|s| root.join(s)).collect();
    let crates = root.join("crates");
    if crates.is_dir() {
        let mut members: Vec<PathBuf> =
            fs::read_dir(&crates)?.map(|e| e.map(|e| e.path())).collect::<io::Result<_>>()?;
        members.sort();
        for m in members.into_iter().filter(|m| m.is_dir()) {
            dirs.extend(SUBDIRS.iter().map(|s| m.join(s)));
        }
    }
    let mut paths = Vec::new();
    for d in dirs.into_iter().filter(|d| d.is_dir()) {
        walk_rs(&d, &mut paths)?;
    }
    paths.sort();
    let mut files = Vec::with_capacity(paths.len());
    for p in paths {
        let rel = p.strip_prefix(root).unwrap_or(&p);
        files.push(FileInput {
            path: rel.to_string_lossy().replace('\\', "/"),
            text: fs::read_to_string(&p)?,
        });
    }
    Ok(files)
}

fn walk_rs(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    let mut entries: Vec<PathBuf> =
        fs::read_dir(dir)?.map(|e| e.map(|e| e.path())).collect::<io::Result<_>>()?;
    entries.sort();
    for p in entries {
        if p.is_dir() {
            walk_rs(&p, out)?;
        } else if p.extension().is_some_and(|e| e == "rs") {
            out.push(p);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one(path: &str, text: &str) -> Vec<Finding> {
        analyze(&[FileInput { path: path.to_string(), text: text.to_string() }])
    }

    #[test]
    fn crate_and_kind_classification() {
        assert_eq!(crate_of("crates/hidap/src/lib.rs"), "hidap");
        assert_eq!(crate_of("src/lib.rs"), "hidap-repro");
        assert_eq!(dir_kind("crates/hidap/tests/x.rs"), DirKind::Tests);
        assert_eq!(dir_kind("crates/hidap/src/tests/x.rs"), DirKind::Src);
        assert_eq!(dir_kind("tests/e2e.rs"), DirKind::Tests);
        assert_eq!(dir_kind("crates/bench/examples/a.rs"), DirKind::Examples);
    }

    #[test]
    fn test_region_exempts_hash_iteration() {
        let src = r#"
            use std::collections::HashMap;
            pub struct S { m: HashMap<u32, u32> }
            #[cfg(test)]
            mod tests {
                fn f(m: std::collections::HashMap<u32, u32>) -> usize {
                    m.iter().count()
                }
            }
        "#;
        assert!(one("crates/hidap/src/a.rs", src).is_empty());
    }

    #[test]
    fn cfg_not_test_is_not_a_test_region() {
        let src = r#"
            #[cfg(not(test))]
            mod prod {
                pub fn f(m: &std::collections::HashMap<u32, u32>) -> usize {
                    m.iter().count()
                }
            }
        "#;
        let f = one("crates/hidap/src/a.rs", src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "hash-iter");
    }

    #[test]
    fn standalone_pragma_covers_next_code_line() {
        let src = r#"
            pub fn f(m: &std::collections::HashMap<u32, u32>) -> Vec<u32> {
                // lint:allow(hash-iter): result is sorted before returning
                let mut v: Vec<u32> = m.keys().copied().collect();
                v.sort_unstable();
                v
            }
        "#;
        assert!(one("crates/eval/src/a.rs", src).is_empty());
    }

    #[test]
    fn pragma_without_reason_is_a_finding() {
        let src = "// lint:allow(hash-iter):\nfn main() {}\n";
        let f = one("crates/hidap/src/a.rs", src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "pragma");
    }

    #[test]
    fn pragma_with_unknown_rule_is_a_finding() {
        let src = "// lint:allow(no-such-rule): because\nfn main() {}\n";
        let f = one("crates/hidap/src/a.rs", src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "pragma");
        assert!(f[0].message.contains("no-such-rule"));
    }

    #[test]
    fn fs_writes_in_deterministic_crates_are_flagged() {
        let src = r#"
            pub fn persist(dir: &std::path::Path, bytes: &[u8]) {
                let _ = std::fs::create_dir_all(dir);
                let _ = std::fs::write(dir.join("x"), bytes);
            }
        "#;
        let f = one("crates/placer-core/src/a.rs", src);
        assert_eq!(f.len(), 2, "{f:?}");
        assert!(f.iter().all(|f| f.rule == "fs-scope"));
        assert!(f[0].message.contains("create_dir_all"), "{f:?}");
        // reads never fire — only writes scatter observable state
        assert!(one("crates/placer-core/src/a.rs", "fn f() { let _ = std::fs::read(\"x\"); }")
            .is_empty());
    }

    #[test]
    fn file_create_and_open_options_are_flagged() {
        let f = one(
            "crates/graphs/src/a.rs",
            "fn f() { let _ = std::fs::File::create(\"x\"); }\n\
             fn g() { let _ = std::fs::OpenOptions::new(); }\n",
        );
        assert_eq!(f.iter().filter(|f| f.rule == "fs-scope").count(), 2, "{f:?}");
        assert!(f[0].message.contains("File::create"), "{f:?}");
        assert!(f[1].message.contains("OpenOptions"), "{f:?}");
    }

    #[test]
    fn the_spill_module_tests_and_other_crates_are_exempt() {
        let write = "pub fn f() { let _ = std::fs::write(\"x\", b\"y\"); }\n";
        assert!(one("crates/eval/src/spill.rs", write).is_empty(), "the sanctioned module");
        assert!(one("crates/eval/tests/a.rs", write).is_empty(), "integration tests");
        assert!(one("crates/cli/src/a.rs", write).is_empty(), "non-deterministic crate");
        let in_test = format!("#[cfg(test)]\nmod tests {{\n{write}}}\n");
        assert!(one("crates/eval/src/a.rs", &in_test).is_empty(), "unit-test region");
    }

    #[test]
    fn fs_scope_is_waivable_with_a_reason() {
        let src = "\
            pub fn f() {\n\
                // lint:allow(fs-scope): crash-report path, never read back\n\
                let _ = std::fs::write(\"x\", b\"y\");\n\
            }\n";
        assert!(one("crates/netlist/src/a.rs", src).is_empty());
    }

    #[test]
    fn findings_render_as_file_line_rule_message() {
        let src = "pub fn f() { let t = std::time::Instant::now(); let _ = t; }\n";
        let f = one("crates/eval/src/a.rs", src);
        assert_eq!(f.len(), 1);
        let line = f[0].to_string();
        assert!(line.starts_with("crates/eval/src/a.rs:1: wall-clock: "), "{line}");
    }
}
