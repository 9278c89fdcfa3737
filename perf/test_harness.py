"""Self-test of the benchmark harness.

Runs a ``--smoke`` size of every workload, traced and untraced, plus the
suite at smoke size, in well under a minute::

    python perf/test_harness.py        # or: python -m pytest perf/

It lives outside the repository's ``testpaths``, so the tier-1 suite
neither runs nor depends on it.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
import tracing  # noqa: E402

WORKLOADS = ("steady-64k", "observed-64k", "mp2-64k", "fig6-quick")


def _run(args, cwd=ROOT, timeout=120):
    return subprocess.run([sys.executable, RUN, *args], cwd=cwd,
                          capture_output=True, text=True, timeout=timeout)


class SmokeRuns(unittest.TestCase):
    """One traced and one untraced smoke run of every workload."""

    @classmethod
    def setUpClass(cls):
        os.makedirs(run.OUT, exist_ok=True)
        cls.tmp = tempfile.mkdtemp(prefix="harness-", dir=run.OUT)
        cls.runs = {}
        for name in WORKLOADS:
            for trace in (0, 1):
                detail = os.path.join(cls.tmp, f"{name}-{trace}.json")
                spans = os.path.join(cls.tmp, f"{name}-{trace}.trace")
                proc = _run(["--workload", name, "--seed", "0",
                             "--seconds", "0", "--trace", str(trace),
                             "--smoke", "--detail", detail,
                             "--trace-out", spans])
                cls.runs[name, trace] = (proc, detail, spans)

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.tmp, ignore_errors=True)

    def result(self, name, trace):
        proc, _, _ = self.runs[name, trace]
        self.assertEqual(proc.returncode, 0, proc.stderr)
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def detail(self, name, trace):
        with open(self.runs[name, trace][1], encoding="utf-8") as fh:
            return json.load(fh)

    def test_result_line_metrics_match_spec(self):
        spec = run.load_spec()
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            want = {m["name"]: m["unit"] for m in spec[key]}
            for name in WORKLOADS:
                result = self.result(name, trace)
                self.assertEqual(set(result), {"correct", "attempted",
                                               "failed", "metrics"})
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                self.assertGreaterEqual(result["attempted"], 1)
                got = {m: v["unit"] for m, v in result["metrics"].items()}
                self.assertEqual(got, want, (name, trace))
                for m, v in result["metrics"].items():
                    self.assertIsInstance(v["value"], (int, float), m)

    def test_end_to_end_metrics_are_never_zero(self):
        for name in WORKLOADS:
            for m, v in self.result(name, 0)["metrics"].items():
                self.assertGreater(v["value"], 0, (name, m))

    def test_spans_nest_and_self_times_are_non_negative(self):
        for name in WORKLOADS:
            with open(self.runs[name, 1][2], encoding="utf-8") as fh:
                spans = json.load(fh)["spans"]
            self.assertTrue(spans, name)
            child = [0.0] * len(spans)
            for i, (_, start, end, parent) in enumerate(spans):
                self.assertLessEqual(start, end)
                if parent >= 0:
                    self.assertLess(parent, i)
                    _, p_start, p_end, _ = spans[parent]
                    self.assertLessEqual(p_start, start, (name, i))
                    self.assertLessEqual(end, p_end, (name, i))
                    child[parent] += end - start
            for i, (_, start, end, _) in enumerate(spans):
                self.assertGreaterEqual(end - start - child[i], -1e-9)
            for span, _, self_s in self.detail(name, 1)["self_table"]:
                self.assertGreaterEqual(self_s, -1e-9, (name, span))

    def test_tracing_leaves_the_digest_unchanged(self):
        for name in WORKLOADS:
            self.assertEqual(self.detail(name, 0)["unit_digests"],
                             self.detail(name, 1)["unit_digests"], name)

    def test_campaign_backends_agree(self):
        digests = {self.detail(name, 0)["digest"] for name in WORKLOADS
                   if name != "fig6-quick"}
        self.assertEqual(len(digests), 1)


class MissingHook(unittest.TestCase):
    def test_missing_optional_hook_drops_its_metric_only(self):
        from refclock import RefClock
        from workloads import CampaignWorkload
        wl = CampaignWorkload("steady-64k", "inprocess", repeats=1)
        expected = wl.reference(0, True, 0)
        optional = tuple(
            (mod, cls, "_gone" if span == "campaign.cheap_run" else meth,
             span, hook)
            for mod, cls, meth, span, hook in tracing.OPTIONAL_HOOKS)
        recorder = tracing.SpanRecorder()
        from repro.fuzzer.campaign import Campaign
        original = Campaign.__dict__["step_until"]
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr):
            uninstall = tracing.install(recorder, optional=optional)
        try:
            outcome = wl.run(wl.setup(0, True, 0, run.OUT), RefClock())
        finally:
            uninstall()
        self.assertIs(Campaign.__dict__["step_until"], original)
        self.assertEqual(outcome.digest, expected)
        self.assertEqual(recorder.missing, ["campaign.cheap_run"])
        self.assertIn("_gone", stderr.getvalue())
        metrics = tracing.layer_metrics(recorder, outcome.execs, 1)
        self.assertNotIn("campaign.cheap_run_s", metrics)
        self.assertGreater(metrics["mutation.apply_s"], 0)


class Suite(unittest.TestCase):
    def test_smoke_suite_passes_and_writes_its_artifacts(self):
        out = os.path.join(run.OUT, "harness-suite.json")
        proc = _run(["--smoke", "--seconds", "0", "--out", out],
                    timeout=300)
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        with open(out, encoding="utf-8") as fh:
            record = json.load(fh)
        os.remove(out)
        self.assertEqual(record["checks_failed"], [])
        self.assertEqual(record["provenance"]["thread_pins"],
                         run.THREAD_PINS)
        for name in WORKLOADS:
            entry = record["workloads"][name]
            self.assertEqual(entry["error_rate"]["value"], 0)
            self.assertIn("per_layer", entry)
        with open(os.path.join(run.OUT, "trace.json"),
                  encoding="utf-8") as fh:
            self.assertEqual(set(json.load(fh)), set(WORKLOADS))


class Standalone(unittest.TestCase):
    def test_fails_without_the_program_source(self):
        with tempfile.TemporaryDirectory(dir=run.OUT) as tmp:
            shutil.copy(run.SPEC, tmp)
            os.mkdir(os.path.join(tmp, "perf"))
            for name in os.listdir(HERE):
                if name.endswith(".py"):
                    shutil.copy(os.path.join(HERE, name),
                                os.path.join(tmp, "perf"))
            proc = subprocess.run(
                [sys.executable, os.path.join("perf", "run.py"),
                 "--workload", "steady-64k", "--seed", "0", "--seconds",
                 "1", "--trace", "0"], cwd=tmp, capture_output=True,
                text=True, timeout=60)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn("correct", proc.stdout)


if __name__ == "__main__":
    unittest.main()
