"""Structured telemetry for the fuzzing + memsim stack.

Observability layer threaded through :class:`~repro.fuzzer.Campaign`,
the parallel-session supervisor, and the memsim cost model:

* :mod:`.metrics` — deterministic counters/gauges/fixed-bucket
  histograms (:class:`MetricsRegistry`);
* :mod:`.spans` — virtual-time span tracing of the hot paths
  (:class:`SpanTracer`, :data:`NULL_TRACER` for the disabled path);
* :mod:`.events` — the JSONL event schema and validators;
* :mod:`.sinks` / :mod:`.aflstats` — JSONL log and AFL-compatible
  ``fuzzer_stats``/``plot_data`` writers;
* :mod:`.recorder` — the per-instance facade
  (:class:`TelemetryRecorder`) and the parallel-session fan-out
  (:class:`SessionTelemetry`);
* :mod:`.introspect` / :mod:`.validate` — live status rendering and
  consumer-side artifact validation (``python -m repro.telemetry``).

Determinism contract (TEL001, enforced by
``tests/statlint/test_telemetry_rule.py``): nothing in this package reads
the wall clock or unseeded randomness; all timestamps are virtual
seconds from the simulated campaign clock, all serialization uses
sorted keys. Two runs of the same configuration therefore produce
byte-identical telemetry artifacts, and a checkpoint-restored campaign
continues its series exactly (see DESIGN.md, "Observability").
"""

from .events import (EVENT_KINDS, EVENT_SCHEMA, make_event,
                     validate_event, validate_stream)
from .metrics import Counter, Gauge, Histogram, MetricsRegistry
from .recorder import SessionTelemetry, TelemetryRecorder
from .sinks import AflStatsSink, JsonlEventLog, encode_event
from .spans import NULL_TRACER, NullTracer, SpanTracer
from .validate import validate_directory, validate_tree

__all__ = [
    "EVENT_KINDS", "EVENT_SCHEMA", "make_event", "validate_event",
    "validate_stream",
    "Counter", "Gauge", "Histogram", "MetricsRegistry",
    "SessionTelemetry", "TelemetryRecorder",
    "AflStatsSink", "JsonlEventLog", "encode_event",
    "NULL_TRACER", "NullTracer", "SpanTracer",
    "validate_directory", "validate_tree",
]
