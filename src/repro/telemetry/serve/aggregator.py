"""Deterministic event-stream aggregation behind the live service.

:class:`TelemetryAggregator` folds the canonical telemetry event
stream (:mod:`repro.telemetry.events`) into queryable per-campaign
series: coverage growth, execs/sec, map density, crash counts, and
the fault/restart/stall/quarantine timeline. It is the single
consumer the dashboard, the REST API, and the websocket delta feed
all read from, and it obeys a strict **determinism contract**
(DESIGN.md §10):

* the aggregate is a pure fold of the ingested ``(campaign_id,
  event)`` sequence — no clocks, no randomness, no filesystem;
* per-campaign series depend only on that campaign's own events, in
  stream order, so any interleaving of campaigns (live tailing vs
  post-hoc bulk read) yields identical per-campaign series;
* every ingest appends zero or more **deltas** — ``append`` ops on a
  named series or ``set`` ops on a keyed object — with a global
  monotone ``seq``; replaying deltas over a snapshot reproduces a
  later snapshot exactly (the websocket protocol is this replay).

Dispatch is **total over the schema**: every kind in
:data:`repro.telemetry.events.EVENT_SCHEMA` must have an
``_on_<kind>`` handler or appear in :data:`IGNORED_KINDS`; the
constructor enforces it at runtime (and
``test_every_schema_kind_is_covered`` pins it), so a newly declared
event kind cannot silently vanish from the dashboard.
"""

from __future__ import annotations

import json
import os
from collections import deque
from typing import Deque, Dict, List, Optional, Tuple

from ...core.errors import TelemetryError
from ..events import COMMON_FIELDS, EVENT_SCHEMA
from .tailer import TreeTailer, metrics_watcher_paths

__all__ = ["TelemetryAggregator", "CampaignSeries", "AggregatorService",
           "IGNORED_KINDS", "canonical_json"]

#: Event kinds the aggregator deliberately does not visualize. Keep
#: this in sync with the dashboard: membership here is an explicit
#: decision, absence from both here and the ``_on_<kind>`` handler set
#: is a bug the constructor rejects.
IGNORED_KINDS: Tuple[str, ...] = ()

#: Series names every campaign carries, in canonical order.
SERIES_NAMES: Tuple[str, ...] = (
    "coverage", "throughput", "execs", "density", "crashes",
    "timeline")


def canonical_json(value: object) -> str:
    """The service's one JSON encoding: sorted keys, no whitespace."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


class CampaignSeries:
    """All aggregated state of one campaign."""

    def __init__(self, campaign_id: str) -> None:
        self.campaign_id = campaign_id
        self.meta: Dict[str, object] = {}
        self.final: Dict[str, object] = {}
        self.levels: Dict[str, float] = {}
        self.series: Dict[str, List[list]] = {
            name: [] for name in SERIES_NAMES}

    def as_dict(self) -> dict:
        """JSON-ready snapshot of this campaign. Key order is fixed
        here and canonicalized again by :func:`canonical_json`, so the
        rendered bytes are a pure function of the ingested events."""
        return {
            "id": self.campaign_id,
            "meta": dict(self.meta),
            "final": dict(self.final),
            "levels": {k: self.levels[k] for k in sorted(self.levels)},
            "series": {name: [list(row) for row in self.series[name]]
                       for name in SERIES_NAMES},
        }


def _payload(event: dict) -> Dict[str, object]:
    """Kind-specific fields of an event, key-sorted."""
    return {key: event[key] for key in sorted(event)
            if key not in COMMON_FIELDS}


class TelemetryAggregator:
    """The deterministic fold (see module docstring).

    Args:
        delta_log: how many trailing deltas are kept for incremental
            ``deltas_since`` queries; clients further behind get a
            full snapshot instead (the websocket layer handles that).
    """

    def __init__(self, delta_log: int = 8192) -> None:
        self.seq = 0
        self._campaigns: Dict[str, CampaignSeries] = {}
        self._deltas: Deque[dict] = deque(maxlen=delta_log)
        self._dispatch = {}
        for kind in sorted(EVENT_SCHEMA):
            handler = getattr(self, "_on_" + kind, None)
            if handler is not None:
                self._dispatch[kind] = handler
            elif kind not in IGNORED_KINDS:
                raise TelemetryError(
                    f"TelemetryAggregator handles no event kind "
                    f"{kind!r} and does not ignore it; add an "
                    f"_on_{kind} handler or list it in IGNORED_KINDS")

    # -- queries -------------------------------------------------------

    @property
    def campaigns(self) -> List[str]:
        return sorted(self._campaigns)

    def campaign(self, campaign_id: str) -> Optional[CampaignSeries]:
        return self._campaigns.get(campaign_id)

    def snapshot(self) -> dict:
        """Full state: every campaign's series plus the current seq."""
        return {
            "seq": self.seq,
            "campaigns": {cid: self._campaigns[cid].as_dict()
                          for cid in sorted(self._campaigns)},
        }

    def deltas_since(self, seq: int) -> Optional[List[dict]]:
        """Deltas after ``seq``, oldest first; ``None`` when ``seq``
        predates the delta log (caller must resnapshot)."""
        if seq > self.seq:
            return None
        if seq == self.seq:
            return []
        pending = [d for d in self._deltas if d["seq"] > seq]
        covered = len(pending) == self.seq - seq
        return pending if covered else None

    # -- ingestion -----------------------------------------------------

    def _series_for(self, campaign_id: str) -> CampaignSeries:
        series = self._campaigns.get(campaign_id)
        if series is None:
            series = CampaignSeries(campaign_id)
            self._campaigns[campaign_id] = series
        return series

    def _push(self, campaign_id: str, op: dict) -> dict:
        self.seq += 1
        delta = {"seq": self.seq, "campaign": campaign_id}
        delta.update(op)
        self._deltas.append(delta)
        return delta

    def ingest(self, campaign_id: str, event: dict) -> List[dict]:
        """Fold one event; return the deltas it produced."""
        kind = event["kind"]
        handler = self._dispatch.get(kind)
        if handler is None:
            if kind in IGNORED_KINDS:
                return []
            raise TelemetryError(
                f"aggregator: unhandled event kind {kind!r}")
        series = self._series_for(campaign_id)
        return [self._push(campaign_id, op)
                for op in handler(series, event)]

    def ingest_levels(self, campaign_id: str,
                      levels: Dict[str, float]) -> List[dict]:
        """Install memsim per-level cycle shares (from metrics.json).

        ``set`` semantics: idempotent, so re-reading an unchanged
        metrics file produces no delta.
        """
        ordered = {k: float(levels[k]) for k in sorted(levels)}
        series = self._series_for(campaign_id)
        if series.levels == ordered:
            return []
        series.levels = ordered
        return [self._push(campaign_id,
                           {"op": "set", "key": "levels",
                            "value": dict(ordered)})]

    @staticmethod
    def apply_delta(snapshot: dict, delta: dict) -> None:
        """Replay one delta onto a :meth:`snapshot`-shaped dict —
        the reference client the websocket protocol is tested
        against (and the dashboard's JS mirrors)."""
        campaigns = snapshot["campaigns"]
        cid = delta["campaign"]
        if cid not in campaigns:
            campaigns[cid] = CampaignSeries(cid).as_dict()
        target = campaigns[cid]
        if delta["op"] == "append":
            target["series"][delta["series"]].append(
                list(delta["row"]))
        elif delta["op"] == "set":
            target[delta["key"]] = delta["value"]
        else:
            raise TelemetryError(
                f"unknown delta op {delta['op']!r}")
        snapshot["seq"] = delta["seq"]

    # -- handlers (one per EVENT_SCHEMA kind; see IGNORED_KINDS) -------

    def _append(self, series: CampaignSeries, name: str,
                row: list) -> dict:
        series.series[name].append(row)
        return {"op": "append", "series": name, "row": list(row)}

    def _timeline(self, series: CampaignSeries, event: dict) -> List[dict]:
        row = [event["t"], event["kind"], event["instance"],
               _payload(event)]
        return [self._append(series, "timeline", row)]

    def _on_campaign_start(self, series: CampaignSeries,
                           event: dict) -> List[dict]:
        meta = _payload(event)
        meta["instance"] = event["instance"]
        series.meta = meta
        return [{"op": "set", "key": "meta", "value": dict(meta)}]

    def _on_campaign_finish(self, series: CampaignSeries,
                            event: dict) -> List[dict]:
        final = _payload(event)
        final["t"] = event["t"]
        series.final = final
        return [{"op": "set", "key": "final", "value": dict(final)}]

    def _on_snapshot(self, series: CampaignSeries,
                     event: dict) -> List[dict]:
        return [
            self._append(series, "coverage",
                         [event["t"], event["edges"]]),
            self._append(series, "throughput",
                         [event["t"], event["execs_per_sec"]]),
            self._append(series, "execs", [event["t"], event["execs"]]),
            self._append(series, "density",
                         [event["t"], event["map_density"]]),
            self._append(series, "crashes",
                         [event["t"], event["crashes"],
                          event["hangs"]]),
        ]

    def _on_fault(self, series, event) -> List[dict]:
        return self._timeline(series, event)

    def _on_restart(self, series, event) -> List[dict]:
        return self._timeline(series, event)

    def _on_stall(self, series, event) -> List[dict]:
        return self._timeline(series, event)

    def _on_quarantine(self, series, event) -> List[dict]:
        return self._timeline(series, event)


class AggregatorService:
    """Filesystem-facing wrapper: tailers + metrics watch + aggregator.

    The one stateful object the HTTP server owns. :meth:`poll` tails
    every event log under ``root`` incrementally, re-reads a
    campaign's ``metrics.json`` only when its size/mtime changed, and
    returns the deltas the new data produced.
    """

    def __init__(self, root: str, delta_log: int = 8192) -> None:
        self.root = root
        self.tailer = TreeTailer(root)
        self.aggregator = TelemetryAggregator(delta_log=delta_log)
        self._metrics_stamp: Dict[str, Tuple[int, int]] = {}

    def poll(self) -> List[dict]:
        deltas: List[dict] = []
        for campaign_id, event in self.tailer.poll():
            deltas.extend(self.aggregator.ingest(campaign_id, event))
        for campaign_id, levels in self._poll_levels():
            deltas.extend(
                self.aggregator.ingest_levels(campaign_id, levels))
        return deltas

    def _poll_levels(self) -> List[Tuple[str, Dict[str, float]]]:
        """(campaign_id, level shares) for changed metrics.json files."""
        updates: List[Tuple[str, Dict[str, float]]] = []
        for campaign_id, path in metrics_watcher_paths(
                self.root, self.tailer.campaigns):
            try:
                stat = os.stat(path)
            except OSError:
                continue
            stamp = (int(stat.st_size), int(stat.st_mtime_ns))
            if self._metrics_stamp.get(campaign_id) == stamp:
                continue
            self._metrics_stamp[campaign_id] = stamp
            levels = _level_shares_from_metrics(path)
            if levels:
                updates.append((campaign_id, levels))
        return updates


def _level_shares_from_metrics(path: str) -> Dict[str, float]:
    """Mean per-level memsim cycle shares out of one metrics.json.

    The campaign records ``memsim.share.<level>`` histograms (one
    observation per execution, the cost model's L1/L2/LLC/DRAM/TLB
    attribution); the dashboard wants one number per level — the mean
    share, ``sum / total``.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            profile = json.load(fh)
    except (OSError, ValueError):
        return {}
    metrics = profile.get("metrics")
    if not isinstance(metrics, dict):
        return {}
    shares: Dict[str, float] = {}
    for name in sorted(metrics):
        if not name.startswith("memsim.share."):
            continue
        record = metrics[name]
        total = record.get("total", 0)
        if record.get("kind") == "histogram" and total:
            level = name[len("memsim.share."):]
            shares[level] = float(record["sum"]) / float(total)
    return shares
