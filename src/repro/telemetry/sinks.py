"""Event sinks: JSONL log and AFL artifact derivation.

A sink consumes the validated event stream (:mod:`.events`) and turns
it into one consumption surface:

* :class:`JsonlEventLog` — the full stream, one canonical-form JSON
  object per line (``events.jsonl``);
* :class:`AflStatsSink` — AFL-compatible ``fuzzer_stats`` and
  ``plot_data`` derived from lifecycle + snapshot events
  (:mod:`.aflstats` does the formatting).

Sinks never touch the filesystem; they expose ``artifacts()`` (file
name → rendered text) and the recorder decides where files land. Every
sink supports ``dump_state``/``load_state`` with **full value copies**
so a checkpoint restored into a fresh process reproduces the artifact
prefix exactly — the foundation of the byte-identical-resume test.

Canonical encoding: ``sort_keys=True`` and ``(",", ":")`` separators,
so the byte stream is a pure function of the event values.
"""

from __future__ import annotations

import json
from typing import Dict, List

from .aflstats import plot_row, render_fuzzer_stats, render_plot_data

__all__ = ["encode_event", "Sink", "JsonlEventLog", "AflStatsSink"]


def encode_event(event: dict) -> str:
    """Canonical single-line JSON encoding of one event."""
    return json.dumps(event, sort_keys=True, separators=(",", ":"))


class Sink:
    """Interface all sinks implement."""

    def emit(self, event: dict) -> None:
        raise NotImplementedError

    def artifacts(self) -> Dict[str, str]:
        """File name -> rendered content; empty for in-memory sinks."""
        return {}

    def dump_state(self) -> object:
        raise NotImplementedError

    def load_state(self, state: object) -> None:
        raise NotImplementedError


class JsonlEventLog(Sink):
    """Accumulates the full event stream for ``events.jsonl``."""

    filename = "events.jsonl"

    def __init__(self) -> None:
        self.events: List[dict] = []

    def emit(self, event: dict) -> None:
        self.events.append(event)

    def artifacts(self) -> Dict[str, str]:
        if not self.events:
            return {}
        lines = [encode_event(e) for e in self.events]
        return {self.filename: "\n".join(lines) + "\n"}

    def dump_state(self) -> List[dict]:
        return [dict(e) for e in self.events]

    def load_state(self, state: List[dict]) -> None:
        self.events = [dict(e) for e in state]


class AflStatsSink(Sink):
    """Derives AFL ``fuzzer_stats`` + ``plot_data`` from the stream.

    ``campaign_start`` pins the static fields (banner, map size),
    every ``snapshot`` appends one plot row and refreshes the running
    stats, ``campaign_finish`` marks the series complete. All times are
    virtual seconds; ``start_time`` is therefore always 0 and
    ``fuzzer_pid`` 0 (there is no process).
    """

    def __init__(self) -> None:
        self.start: Dict[str, object] = {}
        self.last: Dict[str, object] = {}
        self.finish: Dict[str, object] = {}
        self.rows: List[List[object]] = []

    def emit(self, event: dict) -> None:
        kind = event["kind"]
        if kind == "campaign_start":
            self.start = dict(event)
        elif kind == "snapshot":
            self.last = dict(event)
            self.rows.append(plot_row({
                "relative_time": int(event["t"]),
                "cycles_done": event["queue_cycles"],
                "cur_path": event["cur_path"],
                "paths_total": event["queue_depth"],
                "pending_total": event["pending_total"],
                "pending_favs": event["pending_favs"],
                "map_size": int(self.start.get("map_size", 0)),
                "unique_crashes": event["crashes"],
                "unique_hangs": event["hangs"],
                "max_depth": event["max_depth"],
                "execs_per_sec": event["execs_per_sec"],
            }))
        elif kind == "campaign_finish":
            self.finish = dict(event)

    def fuzzer_stats(self) -> Dict[str, object]:
        last = self.last
        density = float(last.get("map_density", 0.0))
        return {
            "start_time": 0,
            "last_update": int(float(last.get("t", 0.0))),
            "fuzzer_pid": 0,
            "cycles_done": int(last.get("queue_cycles", 0)),
            "execs_done": int(last.get("execs", 0)),
            "execs_per_sec": float(last.get("execs_per_sec", 0.0)),
            "paths_total": int(last.get("queue_depth", 0)),
            "paths_favored": int(last.get("favored", 0)),
            "paths_found": int(last.get("queue_depth", 0)),
            "paths_imported": 0,
            "max_depth": int(last.get("max_depth", 0)),
            "cur_path": int(last.get("cur_path", 0)),
            "pending_favs": int(last.get("pending_favs", 0)),
            "pending_total": int(last.get("pending_total", 0)),
            "unique_crashes": int(last.get("crashes", 0)),
            "unique_hangs": int(last.get("hangs", 0)),
            "bitmap_cvg": f"{density * 100.0:.2f}%",
            "afl_banner": str(self.start.get("benchmark", "unknown")),
            "afl_version": "repro-sim",
        }

    def artifacts(self) -> Dict[str, str]:
        if not self.rows and not self.start:
            return {}
        return {
            "fuzzer_stats": render_fuzzer_stats(self.fuzzer_stats()),
            "plot_data": render_plot_data(self.rows),
        }

    def dump_state(self) -> dict:
        return {"start": dict(self.start), "last": dict(self.last),
                "finish": dict(self.finish),
                "rows": [list(r) for r in self.rows]}

    def load_state(self, state: dict) -> None:
        self.start = dict(state["start"])
        self.last = dict(state["last"])
        self.finish = dict(state["finish"])
        self.rows = [list(r) for r in state["rows"]]
