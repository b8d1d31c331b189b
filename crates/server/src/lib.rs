//! The hidap placement daemon: `hidap --serve` behind the CLI.
//!
//! This crate turns the `placer-core` placement service into a long-lived
//! daemon speaking a newline-delimited `key=value` line protocol:
//!
//! * [`protocol`] — frame parse/serialize (round-trip exact, malformed
//!   lines rejected with line numbers), the [`Command`] vocabulary
//!   (`hello`, `intern`, `submit`, `replace`, `cancel`, `release`,
//!   `result`, `stats`, `drain`, `shutdown`), and the [`event_frame`] adapter turning
//!   [`placer_core::FlowObserver`] stage callbacks into `event` frames
//!   tagged with their job id,
//! * [`session`] — the [`Server`] loop: one session over any
//!   `BufRead`/`Write` pair (stdin/stdout under `hidap --serve`, a unix
//!   socket under `--socket`, in-memory buffers in tests), with per-client
//!   quotas, admission control, and the design store staying warm across
//!   sessions.
//!
//! The wire format, every frame, and the daemon's determinism guarantee are
//! documented in `docs/PROTOCOL.md`.

#![forbid(unsafe_code)]
#![deny(clippy::print_stdout)]
#![deny(clippy::unwrap_used)]

pub mod protocol;
pub mod session;

pub use protocol::{event_frame, parse_script, Command, Frame, InternSpec, ParseError, SubmitSpec};
pub use session::{DesignLoader, LoadedDesign, Server, SessionEnd, SharedWriter};
