//! The daemon's line protocol: newline-delimited `key=value` frames.
//!
//! One frame per line. A frame is a bare *name* token followed by
//! `key=value` fields separated by whitespace:
//!
//! ```text
//! submit design=0 flow=hidap priority=5 seeds=1,2
//! ok cmd=submit job=0
//! event job=0 stage=flow-started flow=hidap seed=1
//! ```
//!
//! Values containing whitespace (or any character outside the bare-token
//! set) are double-quoted with `\"` / `\\` escapes, so every frame —
//! including error frames carrying free-form messages — survives a
//! parse → serialize → parse round trip unchanged. Blank lines and lines
//! starting with `#` are comments; [`parse_script`] skips them and reports
//! malformed lines with their 1-based line number.
//!
//! The full command/event vocabulary is documented in `docs/PROTOCOL.md` at
//! the repository root.

use placer_core::EffortLevel;
use std::fmt;

/// One protocol frame: a name plus ordered `key=value` fields.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// The frame name (`submit`, `ok`, `event`, ...).
    pub name: String,
    /// The fields, in wire order (order is preserved by the round trip).
    pub fields: Vec<(String, String)>,
}

/// A malformed frame, located by its 1-based line number.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line number of the offending line.
    pub line: usize,
    /// What was wrong with it.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

/// Whether a string is a bare token (serializable without quotes).
fn is_bare(s: &str) -> bool {
    !s.is_empty()
        && s.chars().all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '-' | '.' | ',' | '/'))
}

/// Quotes a value for the wire when it is not a bare token.
fn quote(value: &str) -> String {
    if is_bare(value) {
        return value.to_string();
    }
    let mut out = String::with_capacity(value.len() + 2);
    out.push('"');
    for c in value.chars() {
        if c == '"' || c == '\\' {
            out.push('\\');
        }
        out.push(c);
    }
    out.push('"');
    out
}

impl Frame {
    /// An empty frame with this name.
    pub fn new(name: impl Into<String>) -> Self {
        Self { name: name.into(), fields: Vec::new() }
    }

    /// Appends a field (builder style; values go through `Display`).
    pub fn field(mut self, key: impl Into<String>, value: impl fmt::Display) -> Self {
        self.fields.push((key.into(), value.to_string()));
        self
    }

    /// The first value under a key, if any.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.fields.iter().find(|(k, _)| k == key).map(|(_, v)| v.as_str())
    }

    /// Serializes the frame as one line (no trailing newline), quoting
    /// values as needed so [`Frame::parse`] round-trips it exactly.
    pub fn serialize(&self) -> String {
        let mut out = self.name.clone();
        for (key, value) in &self.fields {
            out.push(' ');
            out.push_str(key);
            out.push('=');
            out.push_str(&quote(value));
        }
        out
    }

    /// Parses one line into a frame. The line must be non-empty and not a
    /// comment (script-level skipping lives in [`parse_script`]).
    pub fn parse(line: &str) -> Result<Frame, String> {
        let mut chars = line.trim().chars().peekable();
        let mut tokens: Vec<String> = Vec::new();
        while let Some(&c) = chars.peek() {
            if c.is_whitespace() {
                chars.next();
                continue;
            }
            // one token: bare chars and quoted runs may alternate (key="v")
            let mut token = String::new();
            while let Some(&c) = chars.peek() {
                if c.is_whitespace() {
                    break;
                }
                if c == '"' {
                    chars.next();
                    let mut closed = false;
                    while let Some(c) = chars.next() {
                        match c {
                            '"' => {
                                closed = true;
                                break;
                            }
                            '\\' => match chars.next() {
                                Some(e @ ('"' | '\\')) => token.push(e),
                                Some(e) => {
                                    return Err(format!("unknown escape '\\{e}' in quoted value"))
                                }
                                None => return Err("unterminated escape in quoted value".into()),
                            },
                            c => token.push(c),
                        }
                    }
                    if !closed {
                        return Err("unterminated quoted value".into());
                    }
                } else {
                    token.push(c);
                    chars.next();
                }
            }
            tokens.push(token);
        }
        let Some((name, fields)) = tokens.split_first() else {
            return Err("empty frame".into());
        };
        if name.contains('=') {
            return Err(format!("frame name '{name}' must come before any key=value field"));
        }
        let mut frame = Frame::new(name.clone());
        for field in fields {
            let Some((key, value)) = field.split_once('=') else {
                return Err(format!("field '{field}' is not key=value"));
            };
            if key.is_empty() {
                return Err(format!("field '{field}' has an empty key"));
            }
            frame.fields.push((key.to_string(), value.to_string()));
        }
        Ok(frame)
    }
}

impl fmt::Display for Frame {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.serialize())
    }
}

/// Parses a whole command script: one frame per line, blank lines and `#`
/// comments skipped, malformed lines rejected with their line number.
pub fn parse_script(input: &str) -> Result<Vec<Frame>, ParseError> {
    let mut frames = Vec::new();
    for (i, line) in input.lines().enumerate() {
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        match Frame::parse(trimmed) {
            Ok(frame) => frames.push(frame),
            Err(message) => return Err(ParseError { line: i + 1, message }),
        }
    }
    Ok(frames)
}

/// The spec an `intern` command carries, handed opaquely to the daemon's
/// [`crate::DesignLoader`]: every field of the frame except the name. The
/// CLI loader reads `verilog=`/`lef=`/`top=` paths; test and bench loaders
/// resolve `design=` against generated presets.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InternSpec {
    /// The intern frame's fields, in wire order.
    pub fields: Vec<(String, String)>,
}

impl InternSpec {
    /// The first value under a key, if any.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.fields.iter().find(|(k, _)| k == key).map(|(_, v)| v.as_str())
    }
}

/// The spec a `submit` command carries.
#[derive(Debug, Clone, PartialEq)]
pub struct SubmitSpec {
    /// Design handle the job places (from an earlier `intern` reply).
    pub design: u32,
    /// Flow name (`hidap`, `indeda`, ...).
    pub flow: String,
    /// Scheduling priority (default 0; higher drains first).
    pub priority: i32,
    /// Seeds to sweep (`seeds=1,2,3`); empty keeps the default `[1]`.
    pub seeds: Vec<u64>,
    /// λ values to sweep (`lambdas=0.2,0.8`); empty keeps the flow's λ.
    pub lambdas: Vec<f64>,
    /// Effort tier (`effort=fast`, `default` or `high`), when given.
    pub effort: Option<EffortLevel>,
    /// Whether to evaluate results (`evaluate=standard`).
    pub evaluate: bool,
}

/// The spec a `replace` command carries: a submit plus the warm-start base
/// job and the textual ECO edit script (resolved against the design at
/// dispatch time — see `netlist::edit::parse_edit_script`).
#[derive(Debug, Clone, PartialEq)]
pub struct ReplaceSpec {
    /// The submit-shaped part: design, flow, priority, effort, evaluation.
    pub submit: SubmitSpec,
    /// The prior job whose held result seeds the warm start.
    pub base: u64,
    /// The textual edit script (`edits="resize u_a/ram 220 160; ..."`);
    /// empty means re-place with no design change (re-legalize only).
    pub edits: String,
}

/// A parsed client command frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// `hello client=<name>` — register the session's client identity.
    Hello {
        /// Display name the client registers under.
        client: String,
    },
    /// `intern ...` — load a design into the store (loader-defined fields).
    Intern(InternSpec),
    /// `submit design=<h> flow=<name> [priority=] [seeds=] [lambdas=]
    /// [effort=] [evaluate=standard]` — queue a job.
    Submit(SubmitSpec),
    /// `replace design=<h> base=<job> [edits="<script>"] [flow=] [priority=]
    /// [effort=] [evaluate=standard]` — queue an incremental re-place of an
    /// edited design, warm-started from a prior job's held result.
    Replace(ReplaceSpec),
    /// `cancel job=<id>` — remove a still-queued job.
    Cancel {
        /// The job to cancel.
        job: u64,
    },
    /// `release design=<h>` — drop one reference to an interned design.
    Release {
        /// The design handle to release.
        design: u32,
    },
    /// `result job=<id>` — claim a finished job's result explicitly.
    Result {
        /// The job whose result to take.
        job: u64,
    },
    /// `stats` — snapshot the service and store accounting.
    Stats,
    /// `drain` — run every queued job (priority order), streaming events.
    Drain,
    /// `shutdown` — end the daemon.
    Shutdown,
}

/// Parses one required field through `FromStr`.
fn require<T: std::str::FromStr>(frame: &Frame, key: &str) -> Result<T, String> {
    let value = frame.get(key).ok_or_else(|| format!("'{}' needs a {key}= field", frame.name))?;
    value.parse().map_err(|_| format!("'{}' has a malformed {key}= field: '{value}'", frame.name))
}

/// Parses one optional field through `FromStr`.
fn optional<T: std::str::FromStr>(frame: &Frame, key: &str) -> Result<Option<T>, String> {
    match frame.get(key) {
        None => Ok(None),
        Some(value) => value
            .parse()
            .map(Some)
            .map_err(|_| format!("'{}' has a malformed {key}= field: '{value}'", frame.name)),
    }
}

/// Parses a comma-separated list field (absent ⇒ empty).
fn list<T: std::str::FromStr>(frame: &Frame, key: &str) -> Result<Vec<T>, String> {
    let Some(value) = frame.get(key) else { return Ok(Vec::new()) };
    value
        .split(',')
        .map(|item| {
            item.parse()
                .map_err(|_| format!("'{}' has a malformed {key}= entry: '{item}'", frame.name))
        })
        .collect()
}

/// Parses the submit-shaped fields shared by `submit` and `replace`.
fn submit_spec(frame: &Frame) -> Result<SubmitSpec, String> {
    let effort = match frame.get("effort") {
        None => None,
        Some(name) => Some(EffortLevel::parse(name).ok_or_else(|| {
            format!(
                "'{}' has an unknown effort= value '{name}' (use fast, default or high)",
                frame.name
            )
        })?),
    };
    let evaluate = match frame.get("evaluate") {
        None => false,
        Some("standard") => true,
        Some(other) => {
            return Err(format!(
                "'{}' has an unknown evaluate= value '{other}' (use 'standard')",
                frame.name
            ))
        }
    };
    Ok(SubmitSpec {
        design: require(frame, "design")?,
        flow: frame.get("flow").unwrap_or("hidap").to_string(),
        priority: optional(frame, "priority")?.unwrap_or(0),
        seeds: list(frame, "seeds")?,
        lambdas: list(frame, "lambdas")?,
        effort,
        evaluate,
    })
}

impl Command {
    /// Interprets a parsed frame as a client command.
    pub fn from_frame(frame: &Frame) -> Result<Command, String> {
        match frame.name.as_str() {
            "hello" => Ok(Command::Hello {
                client: frame.get("client").unwrap_or("anonymous").to_string(),
            }),
            "intern" => Ok(Command::Intern(InternSpec { fields: frame.fields.clone() })),
            "submit" => Ok(Command::Submit(submit_spec(frame)?)),
            "replace" => Ok(Command::Replace(ReplaceSpec {
                submit: submit_spec(frame)?,
                base: require(frame, "base")?,
                edits: frame.get("edits").unwrap_or("").to_string(),
            })),
            "cancel" => Ok(Command::Cancel { job: require(frame, "job")? }),
            "release" => Ok(Command::Release { design: require(frame, "design")? }),
            "result" => Ok(Command::Result { job: require(frame, "job")? }),
            "stats" => Ok(Command::Stats),
            "drain" => Ok(Command::Drain),
            "shutdown" => Ok(Command::Shutdown),
            other => Err(format!("unknown command '{other}'")),
        }
    }
}

/// Renders a stage event as the wire frame streamed during a drain, tagged
/// with the job it belongs to. Timing payloads (`wall_s`) are carried but
/// excluded from the daemon's determinism guarantee.
pub fn event_frame(job: u64, event: &placer_core::StageEvent) -> Frame {
    use placer_core::StageEvent as E;
    let base = Frame::new("event").field("job", job);
    match event {
        E::FlowStarted { flow, seed, lambda } => {
            let frame = base.field("stage", "flow-started").field("flow", flow).field("seed", seed);
            match lambda {
                Some(l) => frame.field("lambda", l),
                None => frame,
            }
        }
        E::HierarchyBuilt { nodes, macros } => {
            base.field("stage", "hierarchy-built").field("nodes", nodes).field("macros", macros)
        }
        E::ShapeCurvesReady { curves } => {
            base.field("stage", "shape-curves-ready").field("curves", curves)
        }
        E::LevelFloorplanned { depth, node, blocks } => base
            .field("stage", "level-floorplanned")
            .field("depth", depth)
            .field("node", if node.is_empty() { "top" } else { node })
            .field("blocks", blocks),
        E::FlippingDone { flipped } => {
            base.field("stage", "flipping-done").field("flipped", flipped)
        }
        E::LegalizationDone { moved } => {
            base.field("stage", "legalization-done").field("moved", moved)
        }
        E::FlowFinished { wall_s, legal } => {
            base.field("stage", "flow-finished").field("legal", legal).field("wall_s", wall_s)
        }
        E::BatchRunStarted { index, total, seed, lambda } => base
            .field("stage", "batch-run-started")
            .field("index", index)
            .field("total", total)
            .field("seed", seed)
            .field("lambda", lambda),
        E::BatchRunFinished { index, score } => {
            let frame = base.field("stage", "batch-run-finished").field("index", index);
            match score {
                Some(s) => frame.field("score", s),
                None => frame,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bare_frames_round_trip() {
        let line = "submit design=0 flow=hidap priority=5 seeds=1,2";
        let frame = Frame::parse(line).unwrap();
        assert_eq!(frame.name, "submit");
        assert_eq!(frame.get("design"), Some("0"));
        assert_eq!(frame.get("seeds"), Some("1,2"));
        assert_eq!(frame.serialize(), line);
        assert_eq!(Frame::parse(&frame.serialize()).unwrap(), frame);
    }

    #[test]
    fn quoted_values_round_trip() {
        let frame = Frame::new("err")
            .field("cmd", "submit")
            .field("reason", "client 'alice' already has 2 queued jobs (its quota)")
            .field("tricky", "a \"quote\" and a \\ backslash = #");
        let wire = frame.serialize();
        let reparsed = Frame::parse(&wire).unwrap();
        assert_eq!(reparsed, frame);
        assert_eq!(Frame::parse(&reparsed.serialize()).unwrap(), frame);
    }

    #[test]
    fn empty_values_round_trip() {
        let frame = Frame::new("event").field("node", "");
        let reparsed = Frame::parse(&frame.serialize()).unwrap();
        assert_eq!(reparsed.get("node"), Some(""));
        assert_eq!(reparsed, frame);
    }

    #[test]
    fn malformed_frames_are_rejected() {
        assert!(Frame::parse("").is_err());
        assert!(Frame::parse("submit design").unwrap_err().contains("not key=value"));
        assert!(Frame::parse("submit =0").unwrap_err().contains("empty key"));
        assert!(Frame::parse("name=first").unwrap_err().contains("frame name"));
        assert!(Frame::parse("err reason=\"unterminated").unwrap_err().contains("unterminated"));
        assert!(Frame::parse("err reason=\"bad \\x escape\"").unwrap_err().contains("escape"));
    }

    #[test]
    fn scripts_skip_comments_and_report_line_numbers() {
        let script = "# a comment\n\nhello client=ci\n  # indented comment\nsubmit design=0\n";
        let frames = parse_script(script).unwrap();
        assert_eq!(frames.len(), 2);
        assert_eq!(frames[0].name, "hello");
        assert_eq!(frames[1].name, "submit");

        let bad = "hello client=ci\n\nsubmit design\n";
        let err = parse_script(bad).unwrap_err();
        assert_eq!(err.line, 3, "{err}");
        assert!(err.to_string().starts_with("line 3:"), "{err}");
    }

    #[test]
    fn commands_parse_from_frames() {
        let frame = Frame::parse("submit design=2 flow=hidap priority=-1 seeds=1,2 lambdas=0.25,0.75 effort=fast evaluate=standard").unwrap();
        match Command::from_frame(&frame).unwrap() {
            Command::Submit(spec) => {
                assert_eq!(spec.design, 2);
                assert_eq!(spec.flow, "hidap");
                assert_eq!(spec.priority, -1);
                assert_eq!(spec.seeds, vec![1, 2]);
                assert_eq!(spec.lambdas, vec![0.25, 0.75]);
                assert_eq!(spec.effort, Some(EffortLevel::Fast));
                assert!(spec.evaluate);
            }
            other => panic!("expected submit, got {other:?}"),
        }
        let frame = Frame::parse("submit design=0 effort=paper").unwrap();
        let err = Command::from_frame(&frame).unwrap_err();
        assert!(err.contains("'paper'") && err.contains("fast, default or high"), "{err}");
        let frame = Frame::parse("submit flow=hidap").unwrap();
        assert!(Command::from_frame(&frame).unwrap_err().contains("design="));
        let frame = Frame::parse("submit design=zero").unwrap();
        assert!(Command::from_frame(&frame).unwrap_err().contains("malformed design="));
        let frame = Frame::parse("warp speed=9").unwrap();
        assert!(Command::from_frame(&frame).unwrap_err().contains("unknown command"));
    }

    #[test]
    fn replace_commands_parse_from_frames() {
        let frame = Frame::parse(
            "replace design=1 base=4 edits=\"resize u_a/ram 220 160; move u_b/ram 10 20\" \
             effort=fast evaluate=standard priority=2",
        )
        .unwrap();
        match Command::from_frame(&frame).unwrap() {
            Command::Replace(spec) => {
                assert_eq!(spec.submit.design, 1);
                assert_eq!(spec.base, 4);
                assert_eq!(spec.edits, "resize u_a/ram 220 160; move u_b/ram 10 20");
                assert_eq!(spec.submit.effort, Some(EffortLevel::Fast));
                assert_eq!(spec.submit.priority, 2);
                assert!(spec.submit.evaluate);
            }
            other => panic!("expected replace, got {other:?}"),
        }
        // an empty edit script is a valid re-legalize-only replace
        let frame = Frame::parse("replace design=0 base=0").unwrap();
        match Command::from_frame(&frame).unwrap() {
            Command::Replace(spec) => assert!(spec.edits.is_empty()),
            other => panic!("expected replace, got {other:?}"),
        }
        let frame = Frame::parse("replace design=0").unwrap();
        assert!(Command::from_frame(&frame).unwrap_err().contains("base="));
    }

    #[test]
    fn event_frames_tag_the_job_and_round_trip() {
        use placer_core::StageEvent;
        let events = [
            StageEvent::FlowStarted { flow: "hidap".into(), seed: 7, lambda: Some(0.5) },
            StageEvent::LevelFloorplanned { depth: 0, node: String::new(), blocks: 4 },
            StageEvent::FlowFinished { wall_s: 0.25, legal: true },
            StageEvent::BatchRunFinished { index: 1, score: Some(1234.5) },
        ];
        for event in &events {
            let frame = event_frame(3, event);
            assert_eq!(frame.get("job"), Some("3"));
            assert_eq!(Frame::parse(&frame.serialize()).unwrap(), frame);
        }
        assert_eq!(event_frame(0, &events[1]).get("node"), Some("top"));
    }
}
