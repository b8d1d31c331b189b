"""The benchmark's own tests.

    python3 -m unittest discover -s perfbench/tests -v

The last two tests build the program and run every workload at tiny size;
they honour $CARGO_TARGET_DIR like run.py does.
"""

import json
import os
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402


def canned_records():
    """The canned transcript, split into one record list per replace."""
    jobs = []
    for line in (HERE / "eco_transcript.txt").read_text().splitlines():
        if not line or line.startswith("#"):
            continue
        t_ms, direction, text = line.split(" ", 2)
        if direction == ">" and text.startswith("replace "):
            jobs.append([])
        jobs[-1].append((float(t_ms) / 1e3, direction, text))
    return jobs


def canned_jobs():
    return [run.job_from_records(records) for records in canned_records()]


def bench(*args):
    """Runs run.py; returns its exit code, input record and result."""
    out = subprocess.run([sys.executable, str(BENCH / "run.py"), *map(str, args)],
                         cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = out.stdout.strip().splitlines()
    if len(lines) < 2:
        raise AssertionError(f"run.py printed no result: {out.stderr[-2000:]}")
    return out.returncode, json.loads(lines[-2]), json.loads(lines[-1])


def exact(result):
    """The metrics that must repeat exactly: counts and QoR, not times."""
    return {name: m["value"] for name, m in result["metrics"].items()
            if not name.endswith(("_s", "_ms", "_ref")) and not name.startswith(("ops_", "trace."))
            and name not in ("peak_rss_mib", "netlist.design_mib", "placer-core.store_peak_mib")}


class BenchmarkJson(unittest.TestCase):
    def test_metrics_and_limits_match_run_py(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertEqual(spec["command"], ["python3", "perfbench/run.py"])
        self.assertEqual([w["name"] for w in spec["workloads"]], list(run.WORKLOADS))
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]}, run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]}, run.PER_LAYER)
        for workload in spec["workloads"]:
            self.assertLessEqual(len(workload["why"]), 200)
        bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
        self.assertTrue(all(0 < b <= 0.25 for b in bounds.values()))
        self.assertEqual(bounds["setup_s"], max(bounds.values()))


class Statistics(unittest.TestCase):
    def test_percentile_interpolates_between_ranks(self):
        self.assertEqual(run.percentile([3.0], 0.95), 3.0)
        self.assertEqual(run.percentile([4.0, 1.0, 3.0, 2.0], 0.5), 2.5)
        self.assertAlmostEqual(run.percentile(list(range(1, 201)), 0.95), 190.05)

    def test_timing_summary(self):
        refs = [20.0, 30.0, 20.0, 25.0, 40.0, 20.0]
        summary = run.timing_summary([float(ms) for ms in range(1, 21)], refs, 4.0)
        self.assertAlmostEqual(summary["op_p10_ms"], 2.9)
        self.assertAlmostEqual(summary["op_p50_ms"], 10.5)
        self.assertAlmostEqual(summary["op_p95_ms"], 19.05)
        self.assertEqual(summary["ref_p10_ms"], 20.0)
        self.assertAlmostEqual(summary["op_p10_ref"], 2.9 / 20.0)
        self.assertEqual(summary["ops_per_s"], 5.0)


class Framing(unittest.TestCase):
    def test_quoted_values_round_trip(self):
        script = 'resize u_a/ram 1 2; rewire n[3] - "odd\\name"'
        line = run.frame("replace", design=0, edits=script)
        self.assertEqual(line.split(" ", 2)[:2], ["replace", "design=0"])
        self.assertEqual(run.parse_frame(line), ("replace", {"design": "0", "edits": script}))

    def test_malformed_lines_are_rejected(self):
        for bad in ['ok cmd="open', "ok novalue", "", "ok =1"]:
            with self.assertRaises(ValueError):
                run.parse_frame(bad)


class CannedTranscript(unittest.TestCase):
    def test_latency_and_spans_of_a_job(self):
        job = canned_jobs()[0]
        self.assertTrue(job["ok"], job["reason"])
        self.assertEqual(job["id"], "1")
        self.assertAlmostEqual(job["latency_ms"], 30.0)
        expected = {"server.replace_ms": 0.5, "placer-core.pre_flow_ms": 3.0,
                    "hidap.warm_legalize_ms": 1.0, "hidap.warm_flipping_ms": 2.0,
                    "eval.warm_ms": 20.0, "placer-core.post_flow_ms": 2.0,
                    "server.drain_reply_ms": 1.0}
        for name, ms in expected.items():
            self.assertAlmostEqual(job["spans"][name], ms, msg=name)

    def test_p50_p95_rewires_and_fallbacks(self):
        jobs = canned_jobs()
        good = [job for job in jobs if job["ok"]]
        latencies = [job["latency_ms"] for job in good]
        self.assertEqual([round(x, 6) for x in latencies], [30.0, 60.0, 20.0, 80.0])
        self.assertAlmostEqual(run.percentile(latencies, 0.5), 45.0)
        self.assertAlmostEqual(run.percentile(latencies, 0.95), 77.0)
        self.assertEqual([job["rewire"] for job in good], [False, True, False, False])
        fallback = good[3]
        self.assertTrue(fallback["fallback"])
        self.assertEqual((fallback["levels"], fallback["curves"], fallback["moved"]), (1, 17, 7))
        # the warm flipping span starts at the last legalization
        self.assertAlmostEqual(fallback["spans"]["hidap.warm_flipping_ms"], 2.0)

    def test_failures_are_detected_not_dropped(self):
        jobs = canned_jobs()
        self.assertEqual([job["ok"] for job in jobs], [True, True, True, True, False, False])
        self.assertIn("bad-edit-script", jobs[4]["reason"])
        self.assertIn("legal=false", jobs[5]["reason"])

    def test_untraced_jobs_keep_their_latency_only(self):
        records = [(t if direction == ">" or text.startswith("ok cmd=") else None, direction, text)
                   for t, direction, text in canned_records()[0]]
        job = run.job_from_records(records)
        self.assertTrue(job["ok"], job["reason"])
        self.assertAlmostEqual(job["latency_ms"], 30.0)
        self.assertIsNone(job["spans"])


class TinyRuns(unittest.TestCase):
    """Every workload at tiny size, run twice with one seed."""

    def test_counts_and_qor_repeat_exactly(self):
        for workload in run.WORKLOADS:
            for trace in (0, 1):
                results = []
                for _ in range(2):
                    code, inputs, result = bench("--workload", workload, "--seed", 7,
                                                 "--seconds", 0.5, "--trace", trace,
                                                 "--size", "tiny")
                    self.assertEqual(code, 0, f"{workload} trace {trace}: {result}")
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    names = run.PER_LAYER if trace else run.END_TO_END
                    self.assertEqual(set(result["metrics"]), set(names))
                    results.append((inputs["inputs"], exact(result)))
                self.assertEqual(results[0], results[1], f"{workload} trace {trace}")

    def test_a_forced_failure_is_counted(self):
        code, inputs, result = bench("--workload", "eco_session", "--seed", 7, "--seconds", 0.5,
                                     "--trace", 0, "--size", "tiny", "--inject-bad-edit", 3)
        self.assertEqual(code, 1)
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], 1)
        self.assertEqual(result["attempted"], inputs["ops"])
        self.assertEqual(inputs["ops"], inputs["samples"] + run.WARMUP_JOBS["tiny"] + 1)


if __name__ == "__main__":
    unittest.main()
