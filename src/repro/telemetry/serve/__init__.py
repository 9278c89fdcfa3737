"""Live telemetry service: HTTP API + websocket dashboard.

This package serves a telemetry directory (the ``--telemetry-dir`` of
:mod:`repro.telemetry`) while campaigns are still writing it:

* :mod:`.tailer` — incremental tail-from-offset readers over canonical
  ``events.jsonl`` streams (shared with the CLI status view);
* :mod:`.aggregator` — :class:`TelemetryAggregator`, the deterministic
  event-stream fold that turns tailed events into queryable series
  (coverage growth, execs/sec, memsim level shares, fault timeline)
  with a replayable snapshot/delta protocol;
* :mod:`.http` — an asyncio (stdlib-only) HTTP/1.1 + RFC 6455
  websocket server exposing the aggregator;
* :mod:`.dashboard` — the single-file HTML/JS live dashboard served
  at ``/``;
* :mod:`.background` — a thread wrapper so the experiment runner can
  serve a live view next to a running workload (``--serve``);
* :mod:`.cli` — ``repro-fuzz serve DIR``.

Determinism contract (DESIGN.md §10): the aggregator is a pure
function of the ingested event sequence, so a live websocket session
and a post-hoc aggregation of the same JSONL files produce
byte-identical series.
"""

from .aggregator import AggregatorService, TelemetryAggregator
from .background import BackgroundServer
from .http import TelemetryServer
from .tailer import FileTailer, TreeTailer

__all__ = [
    "AggregatorService", "TelemetryAggregator",
    "BackgroundServer", "TelemetryServer",
    "FileTailer", "TreeTailer",
]
