//! The daemon session loop: commands in, replies and streamed events out.
//!
//! A [`Server`] owns a [`placer_core::PlacementService`] and a
//! [`DesignLoader`] that turns `intern` specs into designs (the CLI loads
//! Verilog/LEF from disk; tests and benches resolve generated presets). One
//! call to [`Server::serve_once`] runs one session — read a command line,
//! answer with one or more frames, repeat until `shutdown` or EOF. The
//! server (and with it the warm [`placer_core::DesignStore`]) outlives the
//! session, so a unix-socket deployment ([`Server::serve_unix`]) keeps
//! designs and artifacts resident across client connections.
//!
//! The server applies the daemon's two admission policies to every `submit`
//! and `replace`: a per-client quota of queued jobs, and admission control
//! against the store's memory budget (see `docs/PROTOCOL.md`).
//!
//! # Determinism
//!
//! Jobs drain serially in priority order (stable within equal priority),
//! admission and quota decisions are pure functions of the server's state,
//! and event frames stream from the single drain thread — so the same
//! command script always produces the same frames in the same order, except
//! for timing payloads (`wall_s=`, `score=`). `docs/PROTOCOL.md` states the
//! guarantee precisely.

use crate::protocol::{event_frame, Command, Frame, InternSpec, ReplaceSpec, SubmitSpec};
use netlist::design::Design;
use placer_core::{
    DesignHandle, DesignStore, FlowObserver, JobId, JobResult, JobState, PlaceError, PlaceJob,
    PlacementService, StageEvent,
};
use std::io::{self, BufRead, Write};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A design produced by a [`DesignLoader`].
pub struct LoadedDesign {
    /// The loaded design, die area set.
    pub design: Design,
    /// Database units per micron of its geometry (reported in the `intern`
    /// reply so clients can convert wirelength numbers).
    pub dbu: i64,
}

/// Turns an `intern` spec into a design. The daemon core stays transport-
/// and format-agnostic: the CLI installs a file loader (Verilog/LEF paths),
/// tests and benches install preset loaders.
pub trait DesignLoader {
    /// Loads the design an `intern` command names, or explains why not.
    fn load(&mut self, spec: &InternSpec) -> Result<LoadedDesign, String>;
}

impl<F: FnMut(&InternSpec) -> Result<LoadedDesign, String>> DesignLoader for F {
    fn load(&mut self, spec: &InternSpec) -> Result<LoadedDesign, String> {
        self(spec)
    }
}

/// How a session ended: a `shutdown` command (stop the daemon) or EOF on
/// the command stream (this client left; the daemon can serve the next).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionEnd {
    /// The client asked the daemon to stop.
    Shutdown,
    /// The command stream ended.
    Eof,
}

/// A cloneable writer sharing one underlying sink behind a mutex, so the
/// session loop and the per-job [`FlowObserver`]s (which stream events from
/// inside the drain) can interleave whole frames on one output stream.
pub struct SharedWriter<W> {
    inner: Arc<Mutex<W>>,
}

impl<W> SharedWriter<W> {
    /// Wraps a sink.
    pub fn new(writer: W) -> Self {
        Self { inner: Arc::new(Mutex::new(writer)) }
    }

    /// Locks the sink (tests use this to inspect a captured transcript).
    /// A poisoned mutex is recovered rather than propagated: the sink is a
    /// byte pipe with no invariants a panicked holder could have broken,
    /// and dying here would take the whole daemon down with it.
    pub fn lock(&self) -> std::sync::MutexGuard<'_, W> {
        self.inner.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

impl<W> Clone for SharedWriter<W> {
    fn clone(&self) -> Self {
        Self { inner: self.inner.clone() }
    }
}

impl<W: Write> Write for SharedWriter<W> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.lock().write(buf)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.lock().flush()
    }
}

/// Adapts [`FlowObserver`] stage callbacks into `event` frames tagged with
/// the observed job's id. The id is set right after submission (the job is
/// only constructed before its id exists; it never runs before the set).
struct FrameObserver<W> {
    job: AtomicU64,
    writer: SharedWriter<W>,
}

impl<W> FrameObserver<W> {
    fn new(writer: SharedWriter<W>) -> Self {
        Self { job: AtomicU64::new(u64::MAX), writer }
    }

    fn set_job(&self, id: JobId) {
        self.job.store(id.0, Ordering::Relaxed);
    }
}

impl<W: Write + Send + 'static> FlowObserver for FrameObserver<W> {
    fn on_event(&self, event: &StageEvent) {
        let frame = event_frame(self.job.load(Ordering::Relaxed), event);
        // a client that hung up mid-drain must not kill the daemon; the
        // session loop notices the dead stream on its next own write
        let _ = writeln!(self.writer.clone(), "{frame}");
    }
}

/// The client a session registered with `hello`.
struct Client {
    /// Display name (quota errors name it).
    name: String,
    /// The client's queued jobs, charged against its quota. A drain frees
    /// every charge; a `cancel` frees its job's.
    queued: Vec<JobId>,
}

/// The placement daemon: placement service + loader + session loop, with
/// the daemon's two admission policies. See the [module docs](crate::session).
pub struct Server {
    service: PlacementService,
    loader: Box<dyn DesignLoader>,
    /// Per-client quota of queued jobs.
    quota: usize,
    /// The current session's client: `None` until the session's `hello`.
    /// Only this client can submit, so it is the only charge kept; a new
    /// `hello` registers a new client with nothing queued.
    client: Option<Client>,
    /// The id the next `hello` registers: ids count up across sessions.
    next_client: u64,
    /// The jobs the current session queued that no drain or `cancel` has
    /// taken off the queue; they are cancelled when the session ends by EOF
    /// or an I/O error, so no job outlives the connection it writes to.
    session_jobs: Vec<JobId>,
}

impl Server {
    /// Default per-client quota of queued jobs.
    pub const DEFAULT_QUOTA: usize = 32;

    /// A server over a placement service (whose store's memory budget, if
    /// any, drives admission control) and a design loader.
    pub fn new(service: PlacementService, loader: impl DesignLoader + 'static) -> Self {
        Self {
            service,
            loader: Box::new(loader),
            quota: Self::DEFAULT_QUOTA,
            client: None,
            next_client: 0,
            session_jobs: Vec::new(),
        }
    }

    /// Sets the per-client quota of queued jobs (default
    /// [`Server::DEFAULT_QUOTA`]).
    pub fn with_quota(mut self, quota: usize) -> Self {
        self.quota = quota;
        self
    }

    /// The placement service (for out-of-band introspection in tests).
    pub fn service(&self) -> &PlacementService {
        &self.service
    }

    /// Serves one session: reads command lines from `reader` until
    /// `shutdown` or EOF, writing reply and event frames to `writer`. The
    /// session starts with no client; the store stays warm for the next
    /// session on the same server. A session that ends by EOF or an I/O
    /// error cancels the jobs it queued and did not drain (each holds the
    /// session's writer), as `cancel` would.
    pub fn serve_once<R: BufRead, W: Write + Send + 'static>(
        &mut self,
        reader: R,
        writer: W,
    ) -> io::Result<SessionEnd> {
        self.client = None;
        let end = self.session(reader, SharedWriter::new(writer));
        if !matches!(end, Ok(SessionEnd::Shutdown)) {
            for id in std::mem::take(&mut self.session_jobs) {
                self.service.cancel_queued(id);
            }
        }
        end
    }

    /// The command loop of [`Server::serve_once`].
    fn session<R: BufRead, W: Write + Send + 'static>(
        &mut self,
        reader: R,
        mut out: SharedWriter<W>,
    ) -> io::Result<SessionEnd> {
        for (i, line) in reader.lines().enumerate() {
            let line = line?;
            let trimmed = line.trim();
            if trimmed.is_empty() || trimmed.starts_with('#') {
                continue;
            }
            let lineno = i + 1;
            let frame = match Frame::parse(trimmed) {
                Ok(frame) => frame,
                Err(message) => {
                    reply(
                        &mut out,
                        Frame::new("err")
                            .field("line", lineno)
                            .field("code", "parse")
                            .field("reason", message),
                    )?;
                    continue;
                }
            };
            let command = match Command::from_frame(&frame) {
                Ok(command) => command,
                Err(message) => {
                    reply(
                        &mut out,
                        Frame::new("err")
                            .field("cmd", &frame.name)
                            .field("line", lineno)
                            .field("code", "bad-command")
                            .field("reason", message),
                    )?;
                    continue;
                }
            };
            if self.dispatch(command, &mut out)? == SessionEnd::Shutdown {
                return Ok(SessionEnd::Shutdown);
            }
        }
        Ok(SessionEnd::Eof)
    }

    /// Binds a unix socket and serves connections one at a time until a
    /// client sends `shutdown`. The store stays warm across connections —
    /// this is the deployment shape where artifact reuse pays off.
    #[cfg(unix)]
    pub fn serve_unix(&mut self, path: &std::path::Path) -> io::Result<()> {
        let _ = std::fs::remove_file(path);
        let listener = std::os::unix::net::UnixListener::bind(path)?;
        loop {
            let (stream, _) = listener.accept()?;
            let reader = io::BufReader::new(stream.try_clone()?);
            // a session dropping its connection mid-command must not take
            // the daemon down with it
            match self.serve_once(reader, stream) {
                Ok(SessionEnd::Shutdown) => break,
                Ok(SessionEnd::Eof) | Err(_) => continue,
            }
        }
        let _ = std::fs::remove_file(path);
        Ok(())
    }

    /// Executes one command, writing its reply frames.
    fn dispatch<W: Write + Send + 'static>(
        &mut self,
        command: Command,
        out: &mut SharedWriter<W>,
    ) -> io::Result<SessionEnd> {
        match command {
            Command::Hello { client } => {
                let id = self.next_client;
                self.next_client += 1;
                reply(
                    out,
                    Frame::new("ok")
                        .field("cmd", "hello")
                        .field("client", id)
                        .field("name", &client)
                        .field("quota", self.quota),
                )?;
                self.client = Some(Client { name: client, queued: Vec::new() });
            }
            Command::Intern(spec) => self.handle_intern(&spec, out)?,
            Command::Submit(spec) => self.handle_submit("submit", &spec, None, out)?,
            Command::Replace(ReplaceSpec { submit, base, edits }) => {
                self.handle_submit("replace", &submit, Some((base, &edits)), out)?
            }
            Command::Cancel { job } => {
                if self.service.cancel_queued(JobId(job)) {
                    if let Some(client) = &mut self.client {
                        client.queued.retain(|&id| id != JobId(job));
                    }
                    self.session_jobs.retain(|&id| id != JobId(job));
                    reply(out, Frame::new("ok").field("cmd", "cancel").field("job", job))?;
                } else {
                    reply(
                        out,
                        Frame::new("err")
                            .field("cmd", "cancel")
                            .field("code", "invalid-request")
                            .field("job", job)
                            .field("reason", format!("job {job} is not queued")),
                    )?;
                }
            }
            Command::Release { design } => {
                if (design as usize) < self.service.store().len() {
                    let refs = self.service.release(DesignHandle(design));
                    self.service.store_mut().reclaim();
                    let resident = self.service.store().is_resident(DesignHandle(design));
                    reply(
                        out,
                        Frame::new("ok")
                            .field("cmd", "release")
                            .field("design", design)
                            .field("refs", refs)
                            .field("resident", resident),
                    )?;
                } else {
                    reply(
                        out,
                        Frame::new("err")
                            .field("cmd", "release")
                            .field("code", "invalid-request")
                            .field("design", design)
                            .field("reason", format!("design {design} was never interned")),
                    )?;
                }
            }
            Command::Result { job } => match self.service.take_result(JobId(job)) {
                None => reply(
                    out,
                    Frame::new("err")
                        .field("cmd", "result")
                        .field("code", "pending")
                        .field("job", job)
                        .field("reason", format!("job {job} is still queued; drain first")),
                )?,
                Some(Ok(result)) => {
                    reply(out, job_done_frame(&result))?;
                    reply(out, Frame::new("ok").field("cmd", "result").field("job", job))?;
                }
                Some(Err(error)) => reply(out, error_frame("result", Some(job), &error))?,
            },
            Command::Stats => self.handle_stats(out)?,
            Command::Drain => self.handle_drain(out)?,
            Command::Shutdown => {
                reply(out, Frame::new("ok").field("cmd", "shutdown"))?;
                return Ok(SessionEnd::Shutdown);
            }
        }
        Ok(SessionEnd::Eof)
    }

    fn handle_intern<W: Write + Send + 'static>(
        &mut self,
        spec: &InternSpec,
        out: &mut SharedWriter<W>,
    ) -> io::Result<()> {
        let loaded = match self.loader.load(spec) {
            Ok(loaded) => loaded,
            Err(reason) => {
                return reply(
                    out,
                    Frame::new("err")
                        .field("cmd", "intern")
                        .field("code", "load-failed")
                        .field("reason", reason),
                );
            }
        };
        let name = loaded.design.name().to_string();
        let handle = self.service.intern(loaded.design);
        let store = self.service.store();
        reply(
            out,
            Frame::new("ok")
                .field("cmd", "intern")
                .field("design", handle.0)
                .field("name", name)
                .field("bytes", store.design_bytes_of(handle))
                .field("refs", store.ref_count(handle))
                .field("resident", store.is_resident(handle))
                .field("dbu", loaded.dbu),
        )
    }

    /// Queues a `submit` job, or a `replace` job when `replace` carries its
    /// base job and edit script, for the session's client. A `replace`
    /// first resolves its edit script against the interned design. The job
    /// is then charged to the client after the two policies:
    ///
    /// 1. quota — the client must have fewer than the server's quota of
    ///    jobs queued, else [`PlaceError::QuotaExceeded`];
    /// 2. admission — the store's pinned design bytes must not exceed its
    ///    memory budget, else [`PlaceError::AdmissionRejected`]. A store
    ///    without a budget admits everything.
    ///
    /// Both are pure functions of the server's state, so a script always
    /// gets the same decisions.
    fn handle_submit<W: Write + Send + 'static>(
        &mut self,
        cmd: &str,
        spec: &SubmitSpec,
        replace: Option<(u64, &str)>,
        out: &mut SharedWriter<W>,
    ) -> io::Result<()> {
        let Some(client) = &mut self.client else {
            return reply(
                out,
                Frame::new("err")
                    .field("cmd", cmd)
                    .field("code", "no-client")
                    .field("reason", "send 'hello client=<name>' before submitting jobs"),
            );
        };
        let observer = Arc::new(FrameObserver::new(out.clone()));
        let mut job = PlaceJob::new(DesignHandle(spec.design), &spec.flow)
            .with_priority(spec.priority)
            .with_observer(observer.clone());
        if !spec.seeds.is_empty() {
            job = job.with_seeds(spec.seeds.clone());
        }
        if !spec.lambdas.is_empty() {
            job = job.with_lambdas(spec.lambdas.clone());
        }
        if let Some(effort) = spec.effort {
            job = job.with_effort(effort);
        }
        if spec.evaluate {
            job = job.with_evaluation(eval::EvalConfig::standard());
        }
        if let Some((base, script)) = replace {
            match replace_edits(self.service.store(), spec.design, script) {
                Ok(edits) => job = job.with_replace(JobId(base), edits),
                Err(frame) => return reply(out, frame),
            }
        }
        if let Err(error) = admit(client, self.quota, self.service.store(), spec.design) {
            return reply(out, error_frame(cmd, None, &error));
        }
        let replaced = job.replace.as_ref().map(|r| (r.base.0, r.edits.len()));
        let id = self.service.submit(job);
        client.queued.push(id);
        self.session_jobs.push(id);
        observer.set_job(id);
        let mut ack =
            Frame::new("ok").field("cmd", cmd).field("job", id.0).field("design", spec.design);
        if let Some((base, edits)) = replaced {
            ack = ack.field("base", base).field("edits", edits);
        }
        reply(out, ack.field("priority", spec.priority))
    }

    fn handle_stats<W: Write + Send + 'static>(
        &mut self,
        out: &mut SharedWriter<W>,
    ) -> io::Result<()> {
        let stats = self.service.stats();
        reply(
            out,
            Frame::new("stats")
                .field("queued", stats.queued)
                .field("peak_queued", stats.peak_queued)
                .field("completed", stats.completed)
                .field("interned", stats.interned_designs)
                .field("resident", stats.resident_designs)
                .field("design_bytes", stats.design_bytes)
                .field("artifact_bytes", stats.artifact_bytes)
                .field("resident_bytes", stats.resident_bytes)
                .field("peak_bytes", stats.peak_resident_bytes)
                .field("budget", stats.memory_budget.map_or("none".to_string(), |b| b.to_string()))
                .field("design_evictions", stats.design_evictions),
        )?;
        for (kind, counters) in [("net", stats.artifacts.net), ("seq", stats.artifacts.seq)] {
            // graphs are never written to disk, so `spills` and `revives`
            // are always 0; the fields stay for the clients that read them
            reply(
                out,
                Frame::new("artifact")
                    .field("kind", kind)
                    .field("hits", counters.hits)
                    .field("misses", counters.misses)
                    .field("evictions", counters.evictions)
                    .field("spills", 0)
                    .field("revives", 0),
            )?;
        }
        reply(
            out,
            Frame::new("spill")
                .field("seed_spills", stats.seed_spills)
                .field("seed_revives", stats.seed_revives)
                .field("seed_rejects", stats.seed_rejects),
        )?;
        let store = self.service.store();
        for i in 0..store.len() {
            let handle = DesignHandle(i as u32);
            reply(
                out,
                Frame::new("design")
                    .field("design", handle.0)
                    .field("name", store.key(handle).name())
                    .field("bytes", store.design_bytes_of(handle))
                    .field("refs", store.ref_count(handle))
                    .field("resident", store.is_resident(handle)),
            )?;
        }
        for record in store.eviction_log() {
            reply(
                out,
                Frame::new("evicted")
                    .field("design", record.handle.0)
                    .field("name", &record.name)
                    .field("bytes", record.bytes)
                    .field("at", record.at),
            )?;
        }
        reply(out, Frame::new("ok").field("cmd", "stats"))
    }

    fn handle_drain<W: Write + Send + 'static>(
        &mut self,
        out: &mut SharedWriter<W>,
    ) -> io::Result<()> {
        // capture the deterministic drain order before running: job-done
        // frames come back in execution (priority) order
        let mut order: Vec<(usize, JobId)> = Vec::new();
        for id in (0..self.service.next_job_id()).map(JobId) {
            if let JobState::Queued { position, .. } = self.service.job_state(id) {
                order.push((position, id));
            }
        }
        order.sort_unstable();
        let ran = self.service.run_all();
        if let Some(client) = &mut self.client {
            client.queued.clear();
        }
        self.session_jobs.clear();
        for (_, id) in order {
            match self.service.take_result(id) {
                Some(Ok(result)) => reply(out, job_done_frame(&result))?,
                Some(Err(error)) => reply(out, error_frame("job", Some(id.0), &error))?,
                None => {}
            }
        }
        reply(out, Frame::new("ok").field("cmd", "drain").field("ran", ran))
    }
}

/// Resolves a `replace` command's textual edit script against the interned
/// design it names, or returns the `err` frame that rejects it.
fn replace_edits(
    store: &DesignStore,
    design: u32,
    script: &str,
) -> Result<Vec<netlist::DesignEdit>, Frame> {
    let err = |code: &str| Frame::new("err").field("cmd", "replace").field("code", code);
    if design as usize >= store.len() {
        return Err(err("invalid-request")
            .field("design", design)
            .field("reason", format!("design {design} was never interned")));
    }
    let Some(resident) = store.get_design(DesignHandle(design)) else {
        return Err(err("invalid-request").field("design", design).field(
            "reason",
            format!("design {design} was evicted; re-intern it before replacing"),
        ));
    };
    netlist::edit::parse_edit_script(script, resident)
        .map_err(|error| err("bad-edit-script").field("reason", error.to_string()))
}

/// The quota and admission policies for one more job of `client` against
/// `design` (see [`Server::handle_submit`]).
fn admit(
    client: &Client,
    quota: usize,
    store: &DesignStore,
    design: u32,
) -> Result<(), PlaceError> {
    if client.queued.len() >= quota {
        return Err(PlaceError::QuotaExceeded { client: client.name.clone(), quota });
    }
    if let Some(budget) = store.memory_budget() {
        let pinned = store.pinned_design_bytes();
        if pinned > budget {
            return Err(PlaceError::AdmissionRejected {
                design,
                pinned_bytes: pinned,
                budget_bytes: budget,
            });
        }
    }
    Ok(())
}

/// Writes one frame as one line.
fn reply<W: Write>(out: &mut SharedWriter<W>, frame: Frame) -> io::Result<()> {
    writeln!(out, "{frame}")
}

/// The completion frame of a successful job, carrying the winning run and
/// its metrics (when the job evaluated).
fn job_done_frame(result: &JobResult) -> Frame {
    let outcome = &result.outcome;
    let mut frame = Frame::new("job-done")
        .field("job", result.job.0)
        .field("design", result.design.0)
        .field("flow", &outcome.flow)
        .field("seed", outcome.seed)
        .field("runs", result.runs.len())
        .field("winner", result.winner_index)
        .field("macros", outcome.placement.macros.len());
    if let Some(lambda) = outcome.lambda {
        frame = frame.field("lambda", lambda);
    }
    if let Some(log) = &result.edit_log {
        frame = frame
            .field("edits_applied", log.applied)
            .field("pure_geometry", log.diff.is_pure_geometry());
    }
    if let Some(metrics) = &outcome.metrics {
        frame = frame
            .field("hpwl_dbu", metrics.hpwl.dbu)
            .field("wirelength_m", metrics.wirelength_m)
            .field("grc_percent", metrics.grc_percent())
            .field("wns_percent", metrics.wns_percent())
            .field("tns_ns", metrics.tns_ns());
    }
    frame.field("wall_s", outcome.wall_s)
}

/// Maps an engine error onto a protocol `err` frame with a structured code
/// (and, for policy rejections, the numbers behind the decision).
fn error_frame(cmd: &str, job: Option<u64>, error: &PlaceError) -> Frame {
    let mut frame = Frame::new("err").field("cmd", cmd);
    if let Some(job) = job {
        frame = frame.field("job", job);
    }
    let code = match error {
        PlaceError::Cancelled => "cancelled",
        PlaceError::InvalidRequest(_) => "invalid-request",
        PlaceError::AdmissionRejected { design, pinned_bytes, budget_bytes } => {
            frame = frame
                .field("design", design)
                .field("pinned_bytes", pinned_bytes)
                .field("budget_bytes", budget_bytes);
            "admission-rejected"
        }
        PlaceError::QuotaExceeded { quota, .. } => {
            frame = frame.field("quota", quota);
            "quota-exceeded"
        }
        PlaceError::UnknownFlow { .. } => "unknown-flow",
        PlaceError::Flow(_) => "flow-failed",
    };
    frame.field("code", code).field("reason", error.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shared_writer_recovers_from_a_poisoned_lock() {
        // regression: a FlowObserver panicking while holding the writer lock
        // used to poison it, turning every later reply into a second panic
        // and killing the session (hidap-lint rule daemon-panic)
        let writer = SharedWriter::new(Vec::new());
        let poisoner = writer.clone();
        let _ = std::thread::spawn(move || {
            let _guard = poisoner.lock();
            panic!("observer dies while holding the writer");
        })
        .join();
        let mut survivor = writer.clone();
        survivor.write_all(b"still alive\n").expect("Vec write cannot fail");
        assert_eq!(&*writer.lock(), b"still alive\n");
    }
}
