"""Host-time span tracing for the benchmark, installed from outside ``src``.

The benchmark never edits the program it measures. :func:`install`
replaces selected methods of the program's classes with class-level
wrappers, each recording one span per call: its name, its start and end
on the host clock, and the span that was open when it began. Spans stay
in memory, in compact ``array`` columns, until :meth:`SpanRecorder.write`
dumps them at the end of the run.

A span's *self* time is its duration minus the durations of its direct
child spans, so nested layers (``Campaign.step_until`` calling
``Mutator.havoc_apply``) are never counted twice. The per-layer metrics
of ``BENCHMARK.json`` are sums of self times, call counts and result
counters; :func:`layer_metrics` derives them.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
from array import array
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional, Tuple

import numpy as np


class SpanRecorder:
    """In-memory span store plus per-name self-time and call totals."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name_id = array("l")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.self_s: List[float] = []
        self.calls: List[int] = []
        #: Result counters fed by the wrappers' hooks (rows, flags, ...).
        self.counts: Dict[str, float] = {}
        #: Span names whose optional private hook did not exist.
        self.missing: List[str] = []
        # Open spans, innermost last: [span id, name id, child seconds,
        # start time].
        self._stack: List[list] = []
        self.origin = time.perf_counter()

    def intern(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.self_s.append(0.0)
            self.calls.append(0)
        return nid

    def _enter(self, nid: int) -> list:
        sid = len(self.name_id)
        stack = self._stack
        self.name_id.append(nid)
        self.parent.append(stack[-1][0] if stack else -1)
        self.end.append(0.0)
        frame = [sid, nid, 0.0, 0.0]
        stack.append(frame)
        frame[3] = now = time.perf_counter()
        self.start.append(now)
        return frame

    def _exit(self, frame: list) -> None:
        now = time.perf_counter()
        stack = self._stack
        stack.pop()
        sid, nid, child, begun = frame
        self.end[sid] = now
        duration = now - begun
        self.self_s[nid] += duration - child
        self.calls[nid] += 1
        if stack:
            stack[-1][2] += duration

    def timed(self, name: str, fn: Callable,
              on_result: Optional[Callable] = None) -> Callable:
        """Wrap ``fn`` so every call records one ``name`` span."""
        nid = self.intern(name)
        enter, leave = self._enter, self._exit

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = enter(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                leave(frame)
            if on_result is not None:
                on_result(self, args, result)
            return result

        return traced

    @contextmanager
    def region(self, name: str) -> Iterator[None]:
        """A span around a block of the benchmark's own code."""
        frame = self._enter(self.intern(name))
        try:
            yield
        finally:
            self._exit(frame)

    def count(self, key: str, n: float) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def self_time(self, name: str) -> float:
        nid = self._ids.get(name)
        return 0.0 if nid is None else self.self_s[nid]

    def call_count(self, name: str) -> int:
        nid = self._ids.get(name)
        return 0 if nid is None else self.calls[nid]

    def table(self) -> List[Tuple[str, int, float]]:
        """``(span, calls, self seconds)`` rows, largest self time first."""
        rows = [(name, self.calls[i], self.self_s[i])
                for i, name in enumerate(self.names) if self.calls[i]]
        return sorted(rows, key=lambda row: -row[2])

    def spans(self) -> List[list]:
        """``[name, start, end, parent]`` per span, times relative to
        the recorder's creation; a span's id is its index."""
        origin = self.origin
        return [[self.names[n], s - origin, e - origin, p]
                for n, s, e, p in zip(self.name_id, self.start, self.end,
                                      self.parent)]

    def write(self, path: str, **meta) -> None:
        os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({**meta, "fields": ["name", "start", "end", "parent"],
                       "spans": self.spans()}, fh)


# -- what gets wrapped ----------------------------------------------------

def _rows(key: str) -> Callable:
    def hook(rec: SpanRecorder, args, result) -> None:
        rec.count(key, result.n)
    return hook


def _flags(rec: SpanRecorder, args, result) -> None:
    flags = result[1]
    rec.count("core.flagged", int(np.count_nonzero(flags)))
    rec.count("core.flag_rows", int(flags.size))


def _segment(rec: SpanRecorder, args, result) -> None:
    if not result:
        rec.count("core.stale_downgrades", 1)


def _flushed(rec: SpanRecorder, args, result) -> None:
    recorder = args[0]
    rec.count("telemetry.artifact_bytes",
              sum(os.path.getsize(path) for path in result))
    rec.count("telemetry.span_deposits",
              sum(span["calls"]
                  for span in recorder.tracer.profile().values()))


#: (module, class, method, span name, result hook). Every method must
#: exist; the program's public API is what the benchmark measures.
HOOKS: Tuple = (
    ("repro.fuzzer.mutation", "Mutator", "havoc_draw", "mutation.draw",
     None),
    ("repro.fuzzer.mutation", "Mutator", "havoc_apply", "mutation.apply",
     _rows("mutation.rows")),
    ("repro.target.executor", "Executor", "execute_batch",
     "target.execute_batch", _rows("target.batch_rows")),
    ("repro.target.executor", "Executor", "execute", "target.execute",
     None),
    ("repro.memsim.costmodel", "BitmapCostModel", "exec_cycles_batch",
     "memsim.price_batch", None),
    ("repro.memsim.costmodel", "BitmapCostModel", "exec_cycles",
     "memsim.price", None),
    ("repro.fuzzer.pool", "SeedPool", "add", "pool.add", None),
    ("repro.fuzzer.pool", "SeedPool", "cull", "pool.cull", None),
    ("repro.fuzzer.pool", "SeedPool", "pick_splice_partner",
     "pool.splice_pick", None),
    ("repro.fuzzer.scheduling", "Scheduler", "next_seed",
     "scheduler.next_seed", None),
    ("repro.fuzzer.campaign", "Campaign", "__init__", "campaign.init",
     None),
    ("repro.fuzzer.campaign", "Campaign", "start", "campaign.start", None),
    ("repro.fuzzer.campaign", "Campaign", "step_until", "campaign.step",
     None),
    ("repro.telemetry.recorder", "TelemetryRecorder", "emit",
     "telemetry.emit", None),
    ("repro.telemetry.recorder", "TelemetryRecorder", "flush",
     "telemetry.flush", _flushed),
)

#: Private methods: wrapped only if they exist. A refactor may delete
#: them; the span's metric is then dropped with a warning.
OPTIONAL_HOOKS: Tuple = (
    ("repro.fuzzer.campaign", "Campaign", "_charge", "campaign.charge",
     None),
    ("repro.fuzzer.campaign", "Campaign", "_charge_cheap_run",
     "campaign.cheap_run", None),
    ("repro.fuzzer.campaign", "Campaign", "_batch_front",
     "campaign.batch_front", None),
    ("repro.fuzzer.mp", "MPCampaign", "_batch_front", "mp.front", None),
    ("repro.fuzzer.mp", "MPCampaign", "_start_workers",
     "mp.start_workers", None),
)

#: (module, base class, {method: (span name, result hook)}): the base and
#: every subclass get each method they define themselves wrapped, so
#: every concrete coverage map and instrumentation is covered once.
FAMILIES: Tuple = (
    ("repro.instrumentation.edge_ids", "Instrumentation", {
        "keys_for": ("instrumentation.keys", None),
        "keys_for_batch": ("instrumentation.keys_batch", None)}),
    ("repro.core.bitmap_base", "CoverageMap", {
        "reset": ("core.reset", None),
        "update": ("core.update", None),
        "classify": ("core.classify", None),
        "classify_and_compare": ("core.classify_and_compare", None),
        "hash": ("core.hash", None),
        "update_compare_batch": ("core.update_compare_batch", _flags),
        "segment_interesting": ("core.segment_interesting", _segment)}),
)

#: Packages whose import registers every family subclass.
_FAMILY_PACKAGES = ("repro.core", "repro.instrumentation")


def _subclasses(cls) -> List[type]:
    out, todo = [], [cls]
    while todo:
        klass = todo.pop()
        out.append(klass)
        todo.extend(klass.__subclasses__())
    return out


def install(recorder: SpanRecorder, hooks: Tuple = HOOKS,
            optional: Tuple = OPTIONAL_HOOKS,
            families: Tuple = FAMILIES) -> Callable[[], None]:
    """Wrap the program's layer methods; return a function that undoes it.

    A missing required method raises ``AttributeError``. A missing
    optional hook prints a warning, is listed in ``recorder.missing``
    and leaves its metric out.
    """
    for package in _FAMILY_PACKAGES:
        importlib.import_module(package)
    saved: List[Tuple[type, str, Callable]] = []

    def wrap(cls, method, span, hook):
        original = cls.__dict__[method]
        saved.append((cls, method, original))
        setattr(cls, method, recorder.timed(span, original, hook))

    for module, name, method, span, hook in hooks:
        cls = getattr(importlib.import_module(module), name)
        if method not in cls.__dict__:
            raise AttributeError(f"{name}.{method} not found")
        wrap(cls, method, span, hook)
    for module, name, method, span, hook in optional:
        cls = getattr(importlib.import_module(module), name)
        if method not in cls.__dict__:
            recorder.missing.append(span)
            print(f"perf: warning: optional hook {name}.{method} not found;"
                  f" span {span} and its metric are dropped",
                  file=sys.stderr)
            continue
        wrap(cls, method, span, hook)
    for module, name, methods in families:
        base = getattr(importlib.import_module(module), name)
        for cls in _subclasses(base):
            for method, (span, hook) in methods.items():
                fn = cls.__dict__.get(method)
                if fn is None or getattr(fn, "__isabstractmethod__", False):
                    continue
                wrap(cls, method, span, hook)

    def uninstall() -> None:
        for cls, method, original in reversed(saved):
            setattr(cls, method, original)
        saved.clear()

    return uninstall


# -- per-layer metrics ------------------------------------------------------

#: Metric -> spans whose self times it sums.
SELF_TIME: Dict[str, Tuple[str, ...]] = {
    "mutation.draw_s": ("mutation.draw",),
    "mutation.apply_s": ("mutation.apply",),
    "target.execute_batch_s": ("target.execute_batch",),
    "target.execute_s": ("target.execute",),
    "instrumentation.keys_batch_s": ("instrumentation.keys_batch",),
    "instrumentation.keys_s": ("instrumentation.keys",),
    "core.update_compare_batch_s": ("core.update_compare_batch",),
    "core.scalar_map_s": ("core.reset", "core.update", "core.classify",
                          "core.classify_and_compare", "core.hash"),
    "memsim.price_batch_s": ("memsim.price_batch",),
    "memsim.price_s": ("memsim.price",),
    "pool.add_s": ("pool.add",),
    "pool.cull_s": ("pool.cull",),
    "pool.splice_pick_s": ("pool.splice_pick",),
    "scheduler.next_seed_s": ("scheduler.next_seed",),
    "campaign.init_s": ("campaign.init",),
    "campaign.start_s": ("campaign.start",),
    "campaign.step_self_s": ("campaign.step",),
    "campaign.charge_s": ("campaign.charge",),
    "campaign.cheap_run_s": ("campaign.cheap_run",),
    "mp.front_s": ("mp.front",),
    "mp.start_workers_s": ("mp.start_workers",),
    "telemetry.emit_s": ("telemetry.emit",),
    "telemetry.flush_s": ("telemetry.flush",),
}

#: Metric -> span whose call count it is.
CALLS: Dict[str, str] = {
    "target.execute_calls": "target.execute",
    "core.segment_interesting_calls": "core.segment_interesting",
    "core.replays": "core.classify_and_compare",
    "memsim.price_batch_calls": "memsim.price_batch",
    "pool.admits": "pool.add",
}

#: Metrics read straight from the wrappers' result counters.
COUNTS: Tuple[str, ...] = (
    "mutation.rows", "target.batch_rows", "core.flagged",
    "core.stale_downgrades", "telemetry.artifact_bytes",
    "telemetry.span_deposits")


def layer_metrics(rec: SpanRecorder, execs: int,
                  units: int) -> Dict[str, float]:
    """Per-layer metrics, per unit of work (one campaign or one grid).

    Time metrics are self seconds; ratios are taken over all units.
    Metrics whose spans all belong to missing optional hooks are left
    out.
    """
    dropped = set(rec.missing)
    out: Dict[str, float] = {}
    for metric, spans in SELF_TIME.items():
        if set(spans) <= dropped:
            continue
        out[metric] = sum(rec.self_time(s) for s in spans) / units
    for metric, span in CALLS.items():
        out[metric] = rec.call_count(span) / units
    for key in COUNTS:
        out[key] = rec.counts.get(key, 0) / units
    rows = out["mutation.rows"]
    out["mutation.apply_us_per_row"] = (
        out["mutation.apply_s"] / rows * 1e6 if rows else 0.0)
    flag_rows = rec.counts.get("core.flag_rows", 0)
    out["core.flag_rate"] = (rec.counts.get("core.flagged", 0) / flag_rows
                             if flag_rows else 0.0)
    replays = out["core.replays"]
    out["campaign.replay_ratio"] = replays * units / execs if execs else 0.0
    out["campaign.replay_yield"] = (out["pool.admits"] / replays
                                    if replays else 0.0)
    return out


def layer_of(span: str) -> str:
    """The layer a span belongs to, for the host-time stage shares."""
    return span.split(".", 1)[0]
