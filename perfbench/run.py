#!/usr/bin/env python3
"""The HiDaP benchmark.

One command generates a workload from a seed, runs it through the `hidap`
binary or the `hidap --serve` daemon the way a user does, checks every
output, and prints the metrics as the last line of stdout:

    python3 perfbench/run.py --workload macro_heavy --seed 1 --seconds 30 --trace 0

Run it from the repository root. It builds `hidap` and the benchmark's own
`perfbench` tool into $CARGO_TARGET_DIR (default `.bench_build`) and works
in `.bench_work/`, which it removes on exit. `--trace 0` measures the
end-to-end metrics on untraced runs; `--trace 1` adds one traced run and
reports the per-layer metrics. It exits 1 when any output check fails.
README.md next to this file describes the workloads and every metric.
"""

import argparse
import contextlib
import json
import math
import os
import re
import shlex
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("macro_heavy", "cell_heavy", "eco_session")
MIB = float(1 << 20)

# Set-ups per --trace 0 run; setup_s is their median.
SETUPS = 5
# Untimed placements before a cold run's timed loop: they are checked and
# count as operations, but not towards latency and throughput.
COLD_WARMUP = 1
# Fewest timed placements an untraced cold run measures, whatever
# --seconds says.
MIN_COLD_OPS = 10
# The first ECO jobs after the cold base ran 1.3-1.8x slower than the rest
# in every session measured (cause not isolated); they count as operations
# and towards QoR, but not towards latency and throughput.
WARMUP_JOBS = {"full": 50, "tiny": 5}
# Timed ECO jobs per session: at least this many, so p95 has ten samples
# beyond it; the --trace 1 session times exactly this many.
MIN_JOBS = {"full": 200, "tiny": 20}
# Edits generated per session: the upper bound on jobs in one run.
EDITS = {"full": 1500, "tiny": 40}
# Jobs whose QoR the eco_session means cover: a fixed prefix of the edit
# stream, so the means repeat exactly whatever --seconds allows.
QOR_JOBS = {"full": 250, "tiny": 25}
# Wall-clock limit of everything one run starts.
DEADLINE_S = 170.0
# The reference pass timed between operations: a fixed pure-Python loop of
# this many iterations (about 20-35 ms), independent of the program, so its
# speed is the host's.
REF_LOOP = 300_000
# Reference passes before each timed cold placement, and timed ECO jobs per
# reference pass: about 5% and 15% of a run.
REFS_PER_PLACEMENT = 3
JOBS_PER_REF = 5

# The gated latency is the fastest decile of a run's timed operations over
# the fastest decile of the reference passes timed between them. On a shared
# host the noise is one-sided and slow: neighbours slow the program down for
# seconds to minutes at a time, never speed it up. The fastest decile finds
# the fast phases inside a run; the ratio cancels a phase that covers the
# whole run, which raw times cannot. The raw times are reported ungated in
# the input record.
END_TO_END = {
    "setup_s": "s",
    "op_p10_ref": "ref",
    "peak_rss_mib": "MiB",
    "wirelength_m": "m",
    "grc_pct": "%",
}

# Per-layer metrics: names ending in _s/_ms are spans, the rest are counts
# (or exact results) that repeat exactly for a given seed.
PER_LAYER = {
    "netlist.lef_s": "s",
    "netlist.verilog_s": "s",
    "netlist.def_s": "s",
    "netlist.csr_s": "s",
    "netlist.def_write_s": "s",
    "netlist.design_mib": "MiB",
    "netlist.cells": "count",
    "netlist.pins": "count",
    "netlist.macros": "count",
    "graphs.gnet_s": "s",
    "graphs.gseq_s": "s",
    "graphs.gnet_builds": "count",
    "graphs.gseq_builds": "count",
    "hidap.hierarchy_s": "s",
    "hidap.shape_curves_s": "s",
    "hidap.shape_curves.curves": "count",
    "hidap.floorplan_s": "s",
    "hidap.floorplan.top_s": "s",
    "hidap.floorplan.nested_s": "s",
    "hidap.floorplan.levels": "count",
    "hidap.floorplan.blocks": "count",
    "hidap.floorplan.max_level_s": "s",
    "hidap.legalize_s": "s",
    "hidap.legalize.moved": "count",
    "hidap.flipping_s": "s",
    "hidap.flipping.flipped": "count",
    "eval.cell_place_s": "s",
    "eval.hpwl_s": "s",
    "eval.congestion_s": "s",
    "eval.timing_s": "s",
    "eval.density_s": "s",
    "eval.wns_pct": "%",
    "eval.tns_ns": "ns",
    "hidap.warm_legalize_ms": "ms",
    "hidap.warm_flipping_ms": "ms",
    "eval.warm_ms": "ms",
    "server.replace_ms": "ms",
    "placer-core.pre_flow_ms": "ms",
    "placer-core.post_flow_ms": "ms",
    "server.drain_reply_ms": "ms",
    "eval.artifacts.net_misses": "count",
    "eval.artifacts.seq_misses": "count",
    "eval.artifacts.seq_hits": "count",
    "eval.artifacts.spills": "count",
    "placer-core.seed_spills": "count",
    "placer-core.seed_revives": "count",
    "placer-core.store_peak_mib": "MiB",
    "placer-core.warm_fallbacks": "count",
    "placer-core.rewire_jobs": "count",
    "trace.covered_pct": "%",
    "trace.overhead_pct": "%",
}

# The per-job spans of an ECO job, in wire order (see job_from_records).
JOB_SPANS = (
    "server.replace_ms",
    "placer-core.pre_flow_ms",
    "hidap.warm_legalize_ms",
    "hidap.warm_flipping_ms",
    "eval.warm_ms",
    "placer-core.post_flow_ms",
    "server.drain_reply_ms",
)

REPORT_FIELDS = {
    "wirelength_m": re.compile(r"^wirelength: (\S+) m$", re.M),
    "grc_pct": re.compile(r"^congestion \(GRC%\): (\S+)$", re.M),
    "wns_pct": re.compile(r"^WNS: (\S+)% of clock$", re.M),
    "tns_ns": re.compile(r"^TNS: (\S+) ns$", re.M),
}

# Where a job-done frame puts each QoR field.
JOB_QOR = {"wirelength_m": "wirelength_m", "grc_pct": "grc_percent",
           "wns_pct": "wns_percent", "tns_ns": "tns_ns"}


class BenchError(Exception):
    """A failure that leaves nothing to measure: no result is printed."""


def log(message):
    print(message, file=sys.stderr, flush=True)


# ---------------------------------------------------------------- statistics

def percentile(values, q):
    """The q-quantile (0..1) of `values`, interpolating linearly between
    the two closest ranks."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no values")
    pos = (len(ordered) - 1) * q
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def reference_ms():
    """One reference pass, in ms."""
    start = time.perf_counter()
    total = 0
    for i in range(REF_LOOP):
        total += i * i % 7
    return (time.perf_counter() - start) * 1e3


def timing_summary(latencies_ms, refs_ms, busy_s):
    """The timing summary of a run: the gated `op_p10_ref` (see END_TO_END)
    and the raw latencies, reference time and throughput it derives from.
    `busy_s` is the timed loop's wall time without the reference passes."""
    op_p10 = percentile(latencies_ms, 0.10)
    ref_p10 = percentile(refs_ms, 0.10)
    return {"op_p10_ref": op_p10 / ref_p10,
            "op_p10_ms": op_p10,
            "op_p50_ms": percentile(latencies_ms, 0.50),
            "op_p95_ms": percentile(latencies_ms, 0.95),
            "ref_p10_ms": ref_p10,
            "ops_per_s": len(latencies_ms) / busy_s}


# ------------------------------------------------------------ wire framing

BARE = re.compile(r"^[A-Za-z0-9_.,/-]+$")


def quote(value):
    """A protocol field value: bare when it can be, else double-quoted."""
    value = str(value)
    if BARE.match(value):
        return value
    return '"' + value.replace("\\", "\\\\").replace('"', '\\"') + '"'


def frame(name, **fields):
    return " ".join([name] + [f"{k}={quote(v)}" for k, v in fields.items()])


def parse_frame(line):
    """Parses one protocol line into (name, {key: value}); the inverse of
    `frame` (POSIX shell quoting agrees with the protocol's double quotes
    and their `\\"` / `\\\\` escapes). Raises ValueError on a malformed line."""
    tokens = shlex.split(line)
    if not tokens:
        raise ValueError("empty frame")
    fields = {}
    for token in tokens[1:]:
        key, sep, value = token.partition("=")
        if not sep or not key:
            raise ValueError(f"field {token!r} is not key=value in {line!r}")
        fields.setdefault(key, value)
    return tokens[0], fields


def job_from_records(records):
    """Reads one ECO job off its timestamped transcript: the `replace`
    sent, its reply, the `drain` sent and every frame up to `ok cmd=drain`.
    `records` holds (seconds, '>' or '<', line); a received line's time may
    be None when the job was not traced. Returns the job's outcome, its
    latency in ms, its per-job spans in ms (traced jobs only) and its
    job-done fields."""
    job = {"ok": False, "reason": None, "latency_ms": None, "spans": None,
           "fields": {}, "id": None, "fallback": False, "levels": 0, "curves": 0,
           "moved": 0, "flipped": 0, "rewire": False}
    sent = [(t, line) for t, d, line in records if d == ">"]
    frames = [(t, *parse_frame(line)) for t, d, line in records if d == "<"]
    if not sent or not sent[0][1].startswith("replace "):
        job["reason"] = "transcript does not start with a replace"
        return job
    t_replace = sent[0][0]
    marks = {}
    legalized = []
    done = None
    for t, name, fields in frames:
        cmd = fields.get("cmd")
        if name == "err":
            job["reason"] = f"err cmd={cmd} code={fields.get('code')}: {fields.get('reason')}"
            return job
        if name == "ok" and cmd == "replace":
            job["id"] = fields.get("job")
            marks["replied"] = t
        elif name == "event":
            stage = fields.get("stage")
            if stage == "legalization-done":
                legalized.append(t)
                job["moved"] += int(fields.get("moved", 0))
            elif stage == "hierarchy-built":
                job["fallback"] = True
            elif stage == "shape-curves-ready":
                job["curves"] += int(fields.get("curves", 0))
            elif stage == "level-floorplanned":
                job["levels"] += 1
            elif stage == "flipping-done":
                job["flipped"] += int(fields.get("flipped", 0))
                marks["flipped"] = t
            elif stage == "flow-started":
                marks["started"] = t
            elif stage == "flow-finished":
                marks["finished"] = t
                if fields.get("legal") != "true":
                    job["reason"] = "flow-finished legal=false"
                    return job
        elif name == "job-done":
            done = fields
            marks["done"] = t
        elif name == "ok" and cmd == "drain":
            marks["drained"] = t
    if done is None:
        job["reason"] = "no job-done frame"
        return job
    if done.get("job") != job["id"]:
        job["reason"] = f"job-done for job {done.get('job')}, expected {job['id']}"
        return job
    if done.get("edits_applied") != "1":
        job["reason"] = f"edits_applied={done.get('edits_applied')}, expected 1"
        return job
    missing = {"replied", "started", "flipped", "finished", "drained"} - marks.keys()
    if missing or not legalized:
        job["reason"] = f"missing frames: {sorted(missing) or ['legalization-done']}"
        return job
    job.update(ok=True, fields=done, rewire=done.get("pure_geometry") == "false")
    if marks["drained"] is not None:
        job["latency_ms"] = (marks["drained"] - t_replace) * 1e3
    t_drain = next((t for t, line in sent if line == "drain"), None)
    points = [t_replace, marks["replied"], t_drain, marks["started"], legalized[0],
              legalized[-1], marks["flipped"], marks["finished"], marks["done"],
              marks["drained"]]
    if all(p is not None for p in points):
        ms = lambda a, b: (points[b] - points[a]) * 1e3
        # replace reply | drain sent -> flow started | warm legalization |
        # flipping | warm evaluation | result bookkeeping | drain reply
        job["spans"] = dict(zip(JOB_SPANS, (ms(0, 1), ms(2, 3), ms(3, 4), ms(5, 6),
                                            ms(6, 7), ms(7, 8), ms(8, 9))))
    return job


# ---------------------------------------------------------------- processes

class Watchdog:
    """Kills a process when the run's deadline passes, so no read or wait
    can hang the benchmark."""

    def __init__(self, proc, deadline):
        self.timer = threading.Timer(max(0.0, deadline - time.monotonic()), proc.kill)
        self.timer.daemon = True
        self.timer.start()

    def cancel(self):
        self.timer.cancel()


class Bench:
    def __init__(self, args, hidap, tool, work):
        self.args = args
        self.hidap = hidap
        self.tool_path = tool
        self.work = work
        self.deadline = time.monotonic() + DEADLINE_S
        self.daemons = []

    def remaining(self):
        return max(1.0, self.deadline - time.monotonic())

    def tool(self, *args):
        """Runs one `perfbench` subcommand and returns its JSON output."""
        argv = [str(self.tool_path), *map(str, args)]
        try:
            out = subprocess.run(argv, capture_output=True, text=True, timeout=self.remaining())
        except subprocess.TimeoutExpired as e:
            raise BenchError(f"perfbench {args[0]} timed out") from e
        if out.returncode != 0:
            raise BenchError(f"perfbench {args[0]} failed: {out.stderr.strip()}")
        return json.loads(out.stdout.strip().splitlines()[-1])

    def generate(self, index, edits=0):
        """One set-up's input generation into its own directory."""
        d = self.work / f"in{index}"
        d.mkdir()
        return d, self.tool("gen", "--workload", self.args.workload, "--size", self.args.size,
                            "--seed", self.args.seed, "--edits", edits, "--dir", d)

    # ------------------------------------------------------------ cold runs

    def place_once(self, inputs, top, index):
        """One `hidap` placement, timed from launch to exit, with the peak
        RSS the kernel recorded for the process."""
        out_def = self.work / f"placed{index}.def"
        cmd = [str(self.hidap), "--verilog", str(inputs / "design.v"),
               "--lef", str(inputs / "design.lef"), "--def", str(inputs / "design.def"),
               "--top", top, "--effort", "fast", "--out", str(out_def), "--report"]
        stdout_path = self.work / f"placed{index}.out"
        with open(stdout_path, "wb") as out, open(self.work / f"placed{index}.err", "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, stdout=out, stderr=err)
            watchdog = Watchdog(proc, self.deadline)
            _, status, usage = os.wait4(proc.pid, 0)
            wall_s = time.perf_counter() - start
            watchdog.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        return {"wall_s": wall_s, "rss_mib": usage.ru_maxrss * 1024 / MIB,
                "exit": proc.returncode, "stdout": stdout_path.read_text(errors="replace"),
                "def": out_def}

    def place_loop(self, inputs, top, min_ops):
        """COLD_WARMUP untimed placements, then timed ones, each after
        REFS_PER_PLACEMENT reference passes, until --seconds have passed and
        at least `min_ops` ran. Returns the placements, the reference times
        and the loop's wall time without the reference passes."""
        ops = [dict(self.place_once(inputs, top, i), timed=False) for i in range(COLD_WARMUP)]
        refs = []
        start = time.perf_counter()
        while (len(ops) - COLD_WARMUP < min_ops
               or time.perf_counter() - start < self.args.seconds):
            refs.extend(reference_ms() for _ in range(REFS_PER_PLACEMENT))
            ops.append(dict(self.place_once(inputs, top, len(ops)), timed=True))
        return ops, refs, time.perf_counter() - start - sum(refs) / 1e3

    def check_placement(self, op, inputs, macros):
        """Why a placement failed, or None: non-zero exit, `legal: false`,
        a missing report field, or a DEF that does not read back with every
        macro FIXED inside the die."""
        if op["exit"] != 0:
            return f"exit code {op['exit']}"
        if "(legal: true)" not in op["stdout"]:
            return "not legal"
        for name, pattern in REPORT_FIELDS.items():
            if not pattern.search(op["stdout"]):
                return f"report has no {name}"
        check = self.tool("check-def", "--lef", inputs / "design.lef", "--def", op["def"],
                          "--macros", macros)
        if not check["ok"]:
            return f"placed DEF: {check['problems']} problems, e.g. {check['first']}"
        return None

    def run_cold(self):
        args = self.args
        setups = SETUPS if args.trace == 0 else 1
        times = []
        for i in range(setups):
            start = time.perf_counter()
            inputs, record = self.generate(i)
            times.append(time.perf_counter() - start)
            if i == 0:
                first = record
            elif record != first:
                raise BenchError("two set-ups from one seed generated different inputs")
        inputs = self.work / "in0"
        top = first["top"]
        ops, refs, busy_s = self.place_loop(inputs, top, MIN_COLD_OPS if args.trace == 0 else 2)

        failed = 0
        good = []
        for i, op in enumerate(ops):
            reason = self.check_placement(op, inputs, first["macros"])
            if reason:
                failed += 1
                log(f"placement {i} failed: {reason}")
            else:
                good.append(op)
        timed = [op for op in good if op["timed"]]
        info = {"inputs": first, "ops": len(ops), "samples": len(timed)}
        if not timed:
            return info, len(ops), failed, {}
        reference = report_lines(good[0]["stdout"])
        for i, op in enumerate(good[1:], 1):
            if report_lines(op["stdout"]) != reference:
                failed += 1
                log(f"placement {i} reported other results than placement 0 of one input")

        walls = [op["wall_s"] for op in timed]
        info["timing"] = timing_summary([wall * 1e3 for wall in walls], refs, busy_s)
        qor = parse_report(good[0]["stdout"])
        if args.trace == 0:
            metrics = {
                "setup_s": statistics.median(times),
                "op_p10_ref": info["timing"]["op_p10_ref"],
                "peak_rss_mib": statistics.median(op["rss_mib"] for op in good),
                "wirelength_m": qor["wirelength_m"],
                "grc_pct": qor["grc_pct"],
            }
            return info, len(ops), failed, metrics

        traced_def = self.work / "traced.def"
        traced = self.tool("trace", "--dir", inputs, "--top", top, "--def-out", traced_def)
        if traced_def.read_bytes() != good[0]["def"].read_bytes():
            failed += 1
            log("the traced run wrote another DEF than the untraced runs")
        if traced["report"] != reference:
            failed += 1
            log(f"the traced run reported\n{traced['report']}instead of\n{reference}")
        metrics = zero_layers()
        metrics.update(traced["metrics"])
        metrics["trace.covered_pct"] = traced["covered_s"] / traced["wall_s"] * 100
        metrics["trace.overhead_pct"] = (traced["wall_s"] / statistics.median(walls) - 1) * 100
        info["traced_wall_s"] = traced["wall_s"]
        return info, len(ops) + 1, failed, metrics

    # -------------------------------------------------------------- eco runs

    def start_daemon(self, index, inputs, record):
        """Starts `hidap --serve` on a fresh spill directory, interns the
        design and places the cold base. Returns the daemon and the base
        job's id and job-done fields."""
        spill = self.work / f"spill{index}"
        spill.mkdir()
        daemon = Daemon(self.hidap, spill, self.work / f"daemon{index}.err", self.deadline)
        self.daemons.append(daemon)
        daemon.expect_ok(frame("hello", client="perfbench"), "hello")
        files = {name: inputs / f"design.{name}" for name in ("v", "lef", "def")}
        daemon.expect_ok(frame("intern", verilog=files["v"], lef=files["lef"], top=record["top"],
                               **{"def": files["def"]}), "intern")
        reply = daemon.expect_ok(frame("submit", design=0, flow="hidap", effort="fast",
                                       seeds=1, evaluate="standard"), "submit")
        base = reply["job"]
        frames = daemon.command("drain")
        done = [f for _, n, f in frames if n == "job-done" and f.get("job") == base]
        finished = [f for _, n, f in frames if n == "event" and f.get("stage") == "flow-finished"]
        if not done or not finished or finished[-1].get("legal") != "true":
            raise BenchError(f"the cold base placement failed: {frames[-3:]}")
        return daemon, base, done[0]

    def run_eco(self):
        args = self.args
        setups = SETUPS if args.trace == 0 else 1
        times = []
        daemon = None
        for i in range(setups):
            if daemon is not None:
                daemon.shutdown()
            start = time.perf_counter()
            inputs, record = self.generate(i, EDITS[args.size])
            daemon, base, base_fields = self.start_daemon(i, inputs, record)
            times.append(time.perf_counter() - start)
            if i == 0:
                first = record
            elif record != first:
                raise BenchError("two set-ups from one seed generated different inputs")

        scripts = (inputs / "edits.txt").read_text().splitlines()
        warmup = WARMUP_JOBS[args.size]
        min_jobs = warmup + MIN_JOBS[args.size]
        jobs = []
        refs = []
        extra_failures = 0
        start = None
        for i, script in enumerate(scripts):
            if i == warmup:
                start = time.perf_counter()
            if args.trace == 1 and len(jobs) == min_jobs:
                break
            if len(jobs) >= min_jobs and time.perf_counter() - start >= args.seconds:
                break
            if i >= warmup and (i - warmup) % JOBS_PER_REF == 0:
                refs.append(reference_ms())
            # the traced session alternates traced and untraced jobs, so the
            # tracing overhead is measured on interleaved samples
            job = daemon.replace(base, script, traced=args.trace == 0 or i % 2 == 0)
            job["timed"] = i >= warmup
            jobs.append(job)
            if job["ok"]:
                base = job["id"]
            else:
                log(f"job {i} failed: {job['reason']}")
            if args.inject_bad_edit == i:
                bad = daemon.replace(base, "resize no_such_cell 1000 1000", traced=True)
                if bad["ok"]:
                    raise BenchError("an edit naming an unknown cell was accepted")
                log(f"injected job failed as it must: {bad['reason']}")
                extra_failures += 1
        busy_s = time.perf_counter() - start - sum(refs) / 1e3

        stats = daemon.stats()
        rss_mib = daemon.peak_rss_mib()
        daemon.shutdown()

        good = [job for job in jobs if job["ok"]]
        failed = len(jobs) - len(good) + extra_failures
        attempted = len(jobs) + extra_failures
        timed = [job for job in good if job["timed"]]
        info = {"inputs": first, "ops": attempted, "samples": len(timed)}
        if not timed:
            return info, attempted, failed, {}
        info["timing"] = timing_summary([job["latency_ms"] for job in timed], refs, busy_s)
        qor_jobs = [job for job in jobs[:QOR_JOBS[args.size]] if job["ok"]]
        qor = {key: statistics.fmean(float(job["fields"][field]) for job in qor_jobs)
               for key, field in JOB_QOR.items()}
        if args.trace == 0:
            metrics = {
                "setup_s": statistics.median(times),
                "op_p10_ref": info["timing"]["op_p10_ref"],
                "peak_rss_mib": rss_mib,
                "wirelength_m": qor["wirelength_m"],
                "grc_pct": qor["grc_pct"],
            }
            return info, attempted, failed, metrics

        replay = self.tool("eco-replay", "--dir", inputs, "--top", first["top"],
                           "--jobs", len(jobs))
        direct = replay["jobs"]
        wire = [base_fields] + [job["fields"] for job in jobs]
        for i, (over_wire, in_process) in enumerate(zip(wire, direct)):
            diff = {k: (over_wire.get(k), v) for k, v in in_process.items()
                    if over_wire.get(k) != v}
            if diff:
                failed += 1
                log(f"job {i} differs from the in-process replay: {diff}")
        if len(direct) != len(wire):
            failed += 1
            log(f"the replay ran {len(direct)} jobs, the daemon {len(wire)}")

        traced = [job for job in timed if job["spans"] is not None]
        untraced = [job for job in timed if job["spans"] is None]
        metrics = zero_layers()
        for name in JOB_SPANS:
            metrics[name] = statistics.median(job["spans"][name] for job in traced)
        covered = sum(sum(job["spans"].values()) for job in traced)
        metrics["trace.covered_pct"] = covered / sum(job["latency_ms"] for job in traced) * 100
        metrics["trace.overhead_pct"] = (
            statistics.median(job["latency_ms"] for job in traced)
            / statistics.median(job["latency_ms"] for job in untraced) - 1) * 100
        design = replay["design"]
        metrics.update({
            "netlist.cells": design["cells"],
            "netlist.pins": design["pins"],
            "netlist.macros": design["macros"],
            "netlist.design_mib": design["design_mib"],
            "graphs.gnet_builds": stats["artifact.net"]["misses"],
            "graphs.gseq_builds": stats["artifact.seq"]["misses"],
            "hidap.shape_curves.curves": sum(job["curves"] for job in jobs),
            "hidap.floorplan.levels": sum(job["levels"] for job in jobs),
            "hidap.legalize.moved": sum(job["moved"] for job in jobs),
            "hidap.flipping.flipped": sum(job["flipped"] for job in jobs),
            "eval.wns_pct": qor["wns_pct"],
            "eval.tns_ns": qor["tns_ns"],
            "eval.artifacts.net_misses": stats["artifact.net"]["misses"],
            "eval.artifacts.seq_misses": stats["artifact.seq"]["misses"],
            "eval.artifacts.seq_hits": stats["artifact.seq"]["hits"],
            "eval.artifacts.spills": stats["artifact.net"]["spills"] + stats["artifact.seq"]["spills"],
            "placer-core.seed_spills": stats["spill"]["seed_spills"],
            "placer-core.seed_revives": stats["spill"]["seed_revives"],
            "placer-core.store_peak_mib": stats["stats"]["peak_bytes"] / MIB,
            "placer-core.warm_fallbacks": sum(job["fallback"] for job in jobs),
            "placer-core.rewire_jobs": sum(job["rewire"] for job in good),
        })
        info["replayed_jobs"] = len(direct)
        return info, attempted + 1, failed, metrics


class Daemon:
    """A `hidap --serve` process spoken to over stdin/stdout, one command
    at a time (a closed loop with one client)."""

    def __init__(self, hidap, spill, err_path, deadline):
        with open(err_path, "wb") as err:
            self.proc = subprocess.Popen(
                [str(hidap), "--serve", "--spill-dir", str(spill)],
                stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=err)
        self.watchdog = Watchdog(self.proc, deadline)

    def send(self, line):
        t = time.perf_counter()
        self.proc.stdin.write(line.encode() + b"\n")
        self.proc.stdin.flush()
        return t

    def read(self):
        line = self.proc.stdout.readline()
        t = time.perf_counter()
        if not line:
            raise BenchError("the daemon closed its output")
        return t, line.decode().rstrip("\n")

    def until_terminal(self, cmd, records, traced=True):
        """Reads frames until the terminal `ok`/`err` of `cmd`, appending
        (time, '<', line) to `records`; untraced reads drop the times of
        all but the terminal frame."""
        while True:
            t, line = self.read()
            name, fields = parse_frame(line)
            terminal = name in ("ok", "err") and fields.get("cmd") in (cmd, None)
            records.append((t if traced or terminal else None, "<", line))
            if terminal:
                return name, fields

    def command(self, line):
        records = [(self.send(line), ">", line)]
        self.until_terminal(line.split()[0], records)
        return [(t, *parse_frame(text)) for t, d, text in records if d == "<"]

    def expect_ok(self, line, cmd):
        name, fields = self.command(line)[-1][1:]
        if name != "ok":
            raise BenchError(f"{cmd} failed: {fields}")
        return fields

    def replace(self, base, script, traced):
        """One ECO job: `replace`, then `drain` once the replace is queued."""
        line = frame("replace", design=0, base=base, edits=script, effort="fast",
                     evaluate="standard")
        records = [(self.send(line), ">", line)]
        name, _ = self.until_terminal("replace", records, traced)
        if name == "ok":
            records.append((self.send("drain"), ">", "drain"))
            self.until_terminal("drain", records, traced)
        return job_from_records(records)

    def stats(self):
        """The `stats` block as {frame name[.kind]: fields}."""
        out = {}
        for _, name, fields in self.command("stats"):
            key = f"{name}.{fields['kind']}" if name == "artifact" else name
            out.setdefault(key, {k: int(v) if v.isdigit() else v for k, v in fields.items()})
        return out

    def peak_rss_mib(self):
        """VmHWM of the daemon process, read while it is still alive."""
        status = Path(f"/proc/{self.proc.pid}/status").read_text()
        kib = int(re.search(r"^VmHWM:\s+(\d+) kB$", status, re.M).group(1))
        return kib * 1024 / MIB

    def shutdown(self):
        if self.proc.poll() is None:
            try:
                self.command("shutdown")
            except (BenchError, OSError):
                self.proc.kill()
        self.proc.stdin.close()
        self.proc.stdout.close()
        self.proc.wait()
        self.watchdog.cancel()


# ------------------------------------------------------------------ helpers

def report_lines(stdout):
    """The result lines of a `hidap --report` run (paths and stage timings
    dropped), as the traced run prints them."""
    return "".join(line + "\n" for line in stdout.splitlines()
                   if not line.startswith(("wrote ", "stage ")))


def parse_report(stdout):
    return {name: float(p.search(stdout).group(1)) for name, p in REPORT_FIELDS.items()}


def zero_layers():
    """Every per-layer metric at 0: a layer the workload does not exercise
    did no work."""
    return {name: 0.0 for name in PER_LAYER}


def build(target_dir):
    """Builds `hidap` and `perfbench` from this checkout's sources."""
    env = dict(os.environ, CARGO_TARGET_DIR=str(target_dir))
    for cmd in (["cargo", "build", "--release", "--offline", "-p", "cli", "--bin", "hidap"],
                ["cargo", "build", "--release", "--offline",
                 "--manifest-path", str(HERE / "Cargo.toml")]):
        try:
            subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, check=True, timeout=850)
        except (subprocess.CalledProcessError, subprocess.TimeoutExpired, OSError) as e:
            raise BenchError(f"build failed: {' '.join(cmd)}: {e}") from e
    return target_dir / "release" / "hidap", target_dir / "release" / "perfbench"


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, required=True, choices=(0, 1))
    p.add_argument("--size", default="full", choices=("full", "tiny"),
                   help="tiny: the self-test's small inputs")
    p.add_argument("--inject-bad-edit", type=int, metavar="JOB",
                   help="eco_session: after job JOB, send one extra replace naming an "
                        "unknown cell (the self-test's forced failure)")
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    # a terminated run still stops its daemons and removes its work files
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (ROOT / "Cargo.toml").is_file() or not (ROOT / "crates").is_dir():
        log(f"{ROOT} holds no HiDaP sources to build")
        return 2
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = Path.cwd() / target
    try:
        hidap, tool = build(target)
        # Everything the run starts shares one vCPU: the ECO client and the
        # daemon then hand over without waking an idle vCPU, a wake-up whose
        # latency grows with the host's load, and the reference passes run
        # on the vCPU whose speed they measure.
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
        work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        bench = Bench(args, hidap, tool, work)
        try:
            if args.workload == "eco_session":
                info, attempted, failed, metrics = bench.run_eco()
            else:
                info, attempted, failed, metrics = bench.run_cold()
        finally:
            for daemon in bench.daemons:
                if daemon.proc.poll() is None:
                    daemon.proc.kill()
                daemon.proc.wait()
                daemon.watchdog.cancel()
            shutil.rmtree(work, ignore_errors=True)
            with contextlib.suppress(OSError):
                work.parent.rmdir()
    except BenchError as e:
        log(f"benchmark error: {e}")
        return 1

    names = PER_LAYER if args.trace == 1 else END_TO_END
    correct = failed == 0 and set(names) <= metrics.keys()
    print(json.dumps(info, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics.get(name, 0.0), "unit": unit}
                    for name, unit in names.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
