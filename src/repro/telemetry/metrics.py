"""Deterministic metrics: counters, gauges, fixed-bucket histograms.

The registry is the numeric half of the telemetry layer (events are the
other half, :mod:`repro.telemetry.events`). Its design constraint is
the repo's determinism invariant (DET001/TEL001, enforced under
``tests/statlint``): a metric
snapshot must be a pure function of the observations fed into it —
no wall clocks, no entropy, no platform-dependent iteration order.
Concretely:

* histograms use **fixed bucket boundaries declared at creation**, so
  two runs of the same campaign produce identical bucket vectors (a
  dynamically rebucketing histogram would fold measurement history into
  the output);
* snapshots serialize metrics **sorted by name** and buckets in
  boundary order, so the rendered JSON is byte-stable;
* all state is plain Python numbers, making registry state trivially
  checkpointable (:meth:`MetricsRegistry.dump_state`) for the
  bit-identical campaign resume that :mod:`repro.fuzzer.checkpoint`
  guarantees.
"""

from __future__ import annotations

import bisect
import re
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..core.errors import TelemetryError

#: Metric names: dotted lowercase identifiers (``memsim.share.llc``).
_NAME = re.compile(r"^[a-z0-9_]+(\.[a-z0-9_]+)*$")

#: Default histogram boundaries for share-of-total observations in
#: ``[0, 1]`` (memsim per-level cycle shares, map density).
SHARE_BUCKETS: Tuple[float, ...] = (
    0.01, 0.05, 0.10, 0.20, 0.40, 0.60, 0.80, 0.95)

Number = Union[int, float]


def sequential_sum(start, values):
    """Fold ``values`` onto ``start`` strictly left to right along the
    last axis: a scalar ``+=`` loop's float additions, in its order
    (``np.sum`` would add pairwise). ``start`` is a scalar for 1-D
    ``values`` or one start per row of 2-D ``values``; returns a float
    or a list of floats."""
    start = np.asarray(start, dtype=np.float64)[..., None]
    return np.add.accumulate(np.concatenate((start, values), axis=-1),
                             axis=-1)[..., -1].tolist()


def _check_name(name: str) -> str:
    if not _NAME.match(name):
        raise TelemetryError(
            f"invalid metric name {name!r}; use dotted lowercase "
            f"identifiers like 'memsim.share.llc'")
    return name


class Counter:
    """A monotonically increasing count."""

    kind = "counter"

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: Number = 0

    def inc(self, amount: Number = 1) -> None:
        if amount < 0:
            raise TelemetryError(
                f"counter {self.name!r} cannot decrease (got {amount})")
        self.value += amount

    def as_dict(self) -> dict:
        return {"kind": self.kind, "value": self.value}

    def dump_state(self) -> Number:
        return self.value

    def load_state(self, state: Number) -> None:
        self.value = state


class Gauge:
    """A value that can move in either direction (queue depth, density)."""

    kind = "gauge"

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: Number = 0

    def set(self, value: Number) -> None:
        self.value = value

    def as_dict(self) -> dict:
        return {"kind": self.kind, "value": self.value}

    def dump_state(self) -> Number:
        return self.value

    def load_state(self, state: Number) -> None:
        self.value = state


class Histogram:
    """Fixed-boundary histogram (cumulative-free, one count per bucket).

    ``boundaries`` are the **upper** edges of the finite buckets; one
    overflow bucket catches everything above the last edge. Boundaries
    are fixed at creation and never adapt to the data — the determinism
    contract of the module docstring.
    """

    kind = "histogram"

    def __init__(self, name: str,
                 boundaries: Sequence[float] = SHARE_BUCKETS) -> None:
        bounds = tuple(float(b) for b in boundaries)
        if not bounds:
            raise TelemetryError(
                f"histogram {name!r} needs at least one bucket boundary")
        if any(b >= a for b, a in zip(bounds, bounds[1:])):
            raise TelemetryError(
                f"histogram {name!r} boundaries must strictly increase, "
                f"got {bounds}")
        self.name = name
        self.boundaries = bounds
        self.counts: List[int] = [0] * (len(bounds) + 1)
        self.total = 0
        self.sum: float = 0.0

    def observe(self, value: Number) -> None:
        """Count ``value`` in the first bucket whose edge is ``>=`` it."""
        self.counts[bisect.bisect_left(self.boundaries, value)] += 1
        self.total += 1
        self.sum += value

    def observe_many(self, values) -> None:
        """Bit-identical to one :meth:`observe` per value, in order."""
        values = np.asarray(values, dtype=np.float64)
        added = np.bincount(np.searchsorted(self.boundaries, values,
                                            side="left"),
                            minlength=len(self.counts))
        self.counts = [c + k for c, k in zip(self.counts, added.tolist())]
        self.total += values.size
        self.sum = sequential_sum(self.sum, values)

    @property
    def mean(self) -> float:
        return self.sum / self.total if self.total else 0.0

    def as_dict(self) -> dict:
        return {"kind": self.kind,
                "boundaries": list(self.boundaries),
                "counts": list(self.counts),
                "total": self.total,
                "sum": self.sum}

    def dump_state(self) -> dict:
        return {"counts": list(self.counts), "total": self.total,
                "sum": self.sum}

    def load_state(self, state: dict) -> None:
        self.counts = list(state["counts"])
        self.total = state["total"]
        self.sum = state["sum"]


class MetricsRegistry:
    """Named metrics with get-or-create access and stable snapshots."""

    def __init__(self) -> None:
        self._metrics: Dict[str, Union[Counter, Gauge, Histogram]] = {}

    def __len__(self) -> int:
        return len(self._metrics)

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def _get_or_create(self, name: str, kind: str, factory):
        metric = self._metrics.get(name)
        if metric is None:
            metric = factory(_check_name(name))
            self._metrics[name] = metric
        elif metric.kind != kind:
            raise TelemetryError(
                f"metric {name!r} already registered as {metric.kind}, "
                f"requested as {kind}")
        return metric

    def counter(self, name: str) -> Counter:
        return self._get_or_create(name, "counter", Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get_or_create(name, "gauge", Gauge)

    def histogram(self, name: str,
                  boundaries: Optional[Sequence[float]] = None
                  ) -> Histogram:
        metric = self._get_or_create(
            name, "histogram",
            lambda n: Histogram(n, boundaries or SHARE_BUCKETS))
        if (boundaries is not None and
                metric.boundaries != tuple(float(b) for b in boundaries)):
            raise TelemetryError(
                f"histogram {name!r} already registered with boundaries "
                f"{metric.boundaries}")
        return metric

    def snapshot(self) -> Dict[str, dict]:
        """Name-sorted, JSON-ready view of every metric."""
        return {name: self._metrics[name].as_dict()
                for name in sorted(self._metrics)}

    # -- checkpoint support -------------------------------------------

    def dump_state(self) -> Dict[str, object]:
        """Copyable value state (metric identities stay in place)."""
        return {name: self._metrics[name].dump_state()
                for name in sorted(self._metrics)}

    def load_state(self, state: Dict[str, object]) -> None:
        """Restore a ``dump_state`` capture.

        Metrics created after the capture are reset to zero rather than
        deleted — their identity (boundaries) is immutable config, their
        counts are rolled back like every other campaign counter.
        """
        for name in sorted(self._metrics):
            metric = self._metrics[name]
            if name in state:
                metric.load_state(state[name])
            elif isinstance(metric, Histogram):
                metric.load_state({"counts": [0] * len(metric.counts),
                                   "total": 0, "sum": 0.0})
            else:
                metric.load_state(0)
