"""Telemetry event schema and validation.

Every record in a telemetry JSONL stream is a flat JSON object with
three common fields — ``t`` (virtual seconds since campaign start),
``kind`` (one of :data:`EVENT_KINDS`), ``instance`` (parallel instance
index, ``-1`` for session-level events) — plus a kind-specific payload
described by :data:`EVENT_SCHEMA`.

The schema is enforced **at both ends**: :func:`make_event` validates on
produce, so a misbehaving emitter fails loudly inside the run that
introduced it instead of corrupting the artifact, and
:func:`validate_stream` re-validates on consume (the CI smoke step and
``python -m repro.telemetry``). Field types are deliberately coarse —
``int``/``float``/``str`` — because the stream is a data-exchange
format, not an internal API.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Tuple

from ..core.errors import TelemetryError

__all__ = [
    "EVENT_KINDS", "EVENT_SCHEMA", "COMMON_FIELDS",
    "make_event", "validate_event", "validate_stream",
]

#: Common fields present on every event.
COMMON_FIELDS: Dict[str, str] = {
    "t": "float",
    "kind": "str",
    "instance": "int",
}

#: kind -> {payload field -> type tag}. Type tags: "int" (integral),
#: "float" (any real number), "str".
EVENT_SCHEMA: Dict[str, Dict[str, str]] = {
    # Campaign lifecycle ---------------------------------------------
    "campaign_start": {
        "benchmark": "str",
        "fuzzer": "str",
        "map_size": "int",
        "rng_seed": "int",
    },
    "campaign_finish": {
        "execs": "int",
        "edges": "int",
        "crashes": "int",
        "hangs": "int",
        "stop_reason": "str",
    },
    # Periodic progress sample (one per plot_data row) ---------------
    "snapshot": {
        "execs": "int",
        "execs_per_sec": "float",
        "edges": "int",
        "map_density": "float",
        "collision_rate": "float",
        "queue_depth": "int",
        "pending_total": "int",
        "pending_favs": "int",
        "favored": "int",
        "queue_cycles": "int",
        "cur_path": "int",
        "crashes": "int",
        "hangs": "int",
        "max_depth": "int",
    },
    # Supervisor / fault-tolerance -----------------------------------
    "fault": {
        "status": "str",
        "reason": "str",
    },
    "restart": {
        "restarts": "int",
    },
    "stall": {
        "last_progress": "float",
    },
    "quarantine": {
        "exporter": "int",
        "entries": "int",
    },
}

EVENT_KINDS: Tuple[str, ...] = tuple(sorted(EVENT_SCHEMA))


def _type_ok(value: object, tag: str) -> bool:
    if tag == "str":
        return isinstance(value, str)
    if tag == "int":
        return isinstance(value, int) and not isinstance(value, bool)
    if tag == "float":
        return (isinstance(value, (int, float))
                and not isinstance(value, bool))
    raise TelemetryError(f"unknown schema type tag {tag!r}")


def validate_event(event: dict, where: str = "event") -> dict:
    """Check one event against the schema; return it unchanged.

    Raises :class:`TelemetryError` naming the offending field, so both
    producer (``make_event``) and consumer (``validate_stream``) report
    the same diagnostics.
    """
    kind = event.get("kind")
    if kind not in EVENT_SCHEMA:
        raise TelemetryError(
            f"{where}: unknown event kind {kind!r} "
            f"(expected one of {', '.join(EVENT_KINDS)})")
    expected = dict(COMMON_FIELDS)
    expected.update(EVENT_SCHEMA[kind])
    for field in sorted(expected):
        if field not in event:
            raise TelemetryError(
                f"{where}: {kind} event missing field {field!r}")
        if not _type_ok(event[field], expected[field]):
            raise TelemetryError(
                f"{where}: {kind} event field {field!r} should be "
                f"{expected[field]}, got {type(event[field]).__name__} "
                f"({event[field]!r})")
    for field in sorted(event):
        if field not in expected:
            raise TelemetryError(
                f"{where}: {kind} event has unexpected field {field!r}")
    return event


def make_event(kind: str, t: float, instance: int = -1,
               **payload: object) -> dict:
    """Build a schema-valid event dict with key-sorted insertion order."""
    event = {"t": float(t), "kind": kind, "instance": int(instance)}
    event.update(payload)
    validate_event(event, where="emit")
    return {key: event[key] for key in sorted(event)}


def validate_stream(events: Iterable[dict]) -> List[dict]:
    """Validate an iterable of events; return them as a list."""
    out = []
    for i, event in enumerate(events):
        out.append(validate_event(event, where=f"line {i + 1}"))
    return out
