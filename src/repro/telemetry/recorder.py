"""Recorder: the per-instance facade the rest of the stack talks to.

A :class:`TelemetryRecorder` bundles one metrics registry, one span
tracer, and the standard sink set (JSONL log, AFL artifact derivation)
behind a single ``emit()``/``flush()`` surface. A
:class:`Campaign` owns at most one recorder; a parallel session owns a
:class:`SessionTelemetry`, which hands each instance its own recorder
(so AFL artifacts land in per-instance directories, AFL-style) plus a
session-level recorder for supervisor events.

Checkpoint integration: ``snapshot_state()`` captures every sink, the
registry, and the tracer as plain values; ``restore_state()`` rolls
them back. The capture rides inside
:class:`repro.fuzzer.checkpoint.CampaignCheckpoint`, which is what lets
a resumed campaign continue its event series — and therefore its
rendered ``plot_data`` — byte-identically.
"""

from __future__ import annotations

import json
import os
from typing import Dict, List, Optional

from .events import make_event
from .metrics import MetricsRegistry
from .sinks import AflStatsSink, JsonlEventLog
from .spans import SpanTracer

__all__ = ["TelemetryRecorder", "SessionTelemetry"]

#: File name for the metrics/span profile artifact.
METRICS_FILENAME = "metrics.json"


class TelemetryRecorder:
    """One instance's metrics, spans, and event sinks."""

    def __init__(self, instance: int = -1) -> None:
        self.instance = instance
        self.registry = MetricsRegistry()
        self.tracer = SpanTracer()
        self.event_log = JsonlEventLog()
        self.afl = AflStatsSink()
        self._sinks = (self.event_log, self.afl)

    # -- producing -----------------------------------------------------

    def bind_clock(self, cycles_fn) -> None:
        """Point span measurement at a virtual-cycle counter."""
        self.tracer.bind(cycles_fn)

    def emit(self, kind: str, t: float,
             instance: Optional[int] = None, **payload) -> dict:
        """Validate and fan one event out to every sink."""
        event = make_event(
            kind, t,
            instance=self.instance if instance is None else instance,
            **payload)
        for sink in self._sinks:
            sink.emit(event)
        return event

    @property
    def events(self) -> List[dict]:
        return self.event_log.events

    # -- checkpoint support -------------------------------------------

    def snapshot_state(self) -> Dict[str, object]:
        return {
            "log": self.event_log.dump_state(),
            "afl": self.afl.dump_state(),
            "registry": self.registry.dump_state(),
            "tracer": self.tracer.dump_state(),
        }

    def restore_state(self, state: Dict[str, object]) -> None:
        self.event_log.load_state(state["log"])
        self.afl.load_state(state["afl"])
        self.registry.load_state(state["registry"])
        self.tracer.load_state(state["tracer"])

    # -- rendering -----------------------------------------------------

    def artifacts(self) -> Dict[str, str]:
        """All file artifacts (name -> content) for this instance."""
        out: Dict[str, str] = {}
        for sink in self._sinks:
            out.update(sink.artifacts())
        profile = {"metrics": self.registry.snapshot(),
                   "spans": self.tracer.profile()}
        out[METRICS_FILENAME] = json.dumps(
            profile, sort_keys=True, indent=2) + "\n"
        return out

    def flush(self, directory: str) -> List[str]:
        """Write every artifact under ``directory``; return paths."""
        os.makedirs(directory, exist_ok=True)
        written = []
        artifacts = self.artifacts()
        for name in sorted(artifacts):
            path = os.path.join(directory, name)
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(artifacts[name])
            written.append(path)
        return written


def instance_dirname(instance: int) -> str:
    """Directory name for one parallel instance's artifacts."""
    return f"instance-{instance:03d}"


class SessionTelemetry:
    """Recorder fan-out for a parallel session.

    ``session`` collects supervisor-level events (faults, restarts,
    stalls, quarantines, sync costs); ``for_instance(i)`` lazily
    creates the per-instance recorder each campaign threads through its
    hot path. ``flush(root)`` lays the tree out AFL-style::

        root/
          events.jsonl        # session events
          metrics.json
          instance-000/
            events.jsonl fuzzer_stats plot_data metrics.json
          instance-001/
            ...
    """

    def __init__(self) -> None:
        self.session = TelemetryRecorder(instance=-1)
        self._instances: Dict[int, TelemetryRecorder] = {}

    def for_instance(self, instance: int) -> TelemetryRecorder:
        recorder = self._instances.get(instance)
        if recorder is None:
            recorder = TelemetryRecorder(instance=instance)
            self._instances[instance] = recorder
        return recorder

    @property
    def instances(self) -> List[int]:
        return sorted(self._instances)

    def snapshot_state(self) -> Dict[str, object]:
        return {
            "session": self.session.snapshot_state(),
            "instances": {i: self._instances[i].snapshot_state()
                          for i in sorted(self._instances)},
        }

    def restore_state(self, state: Dict[str, object]) -> None:
        self.session.restore_state(state["session"])
        for i, sub in state["instances"].items():
            self.for_instance(int(i)).restore_state(sub)

    def flush(self, root: str) -> List[str]:
        written = self.session.flush(root)
        for i in sorted(self._instances):
            written.extend(self._instances[i].flush(
                os.path.join(root, instance_dirname(i))))
        return written
