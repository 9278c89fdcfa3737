"""Human-readable status views over telemetry state.

Renders the ``afl-whatsup``-style live view behind
``repro-fuzz telemetry --telemetry-dir DIR`` and the post-run summary
the CLI prints when a campaign was run with telemetry enabled. Works
from a flushed directory tree (parsed artifacts).
"""

from __future__ import annotations

import os
from typing import Dict, List, Optional, Tuple

from .aflstats import parse_fuzzer_stats
from .validate import load_events

__all__ = ["render_status", "render_tree",
           "load_directory", "StatusTracker"]

#: (fuzzer_stats key, display label) rows of the status card.
_STATUS_ROWS: Tuple[Tuple[str, str], ...] = (
    ("last_update", "virtual time (s)"),
    ("execs_done", "execs done"),
    ("execs_per_sec", "execs/sec"),
    ("paths_total", "paths total"),
    ("pending_favs", "pending favs"),
    ("pending_total", "pending total"),
    ("bitmap_cvg", "map density"),
    ("unique_crashes", "crashes"),
    ("unique_hangs", "hangs"),
    ("cycles_done", "queue cycles"),
)


def render_status(title: str, stats: Dict[str, object],
                  recent: Optional[List[dict]] = None,
                  recent_limit: int = 5) -> str:
    """One instance's status card: stats rows + most recent events."""
    lines = [f"=== {title} ==="]
    for key, label in _STATUS_ROWS:
        if key in stats:
            lines.append(f"  {label:<18} {stats[key]}")
    if not any(key in stats for key, _ in _STATUS_ROWS):
        lines.append("  (no snapshots recorded)")
    if recent:
        lines.append("  recent events:")
        for event in recent[-recent_limit:]:
            extras = " ".join(
                f"{k}={event[k]}" for k in sorted(event)
                if k not in ("t", "kind", "instance"))
            lines.append(
                f"    [t={event['t']:.2f}] {event['kind']} {extras}".rstrip())
    return "\n".join(lines)


def load_directory(directory: str) -> Tuple[Dict[str, str], List[dict]]:
    """Parsed (fuzzer_stats, events) from one flushed directory."""
    stats: Dict[str, str] = {}
    stats_path = os.path.join(directory, "fuzzer_stats")
    if os.path.exists(stats_path):
        with open(stats_path, "r", encoding="utf-8") as fh:
            stats = parse_fuzzer_stats(fh.read())
    events: List[dict] = []
    events_path = os.path.join(directory, "events.jsonl")
    if os.path.exists(events_path):
        events = load_events(events_path)
    return stats, events


def render_tree(root: str) -> str:
    """Status cards for every telemetry directory under ``root``."""
    from .validate import telemetry_dirs
    sections: List[str] = []
    if os.path.isdir(root):
        for directory in telemetry_dirs(root):
            stats, events = load_directory(directory)
            title = os.path.relpath(directory, root)
            if title == ".":
                title = root
            sections.append(render_status(title, stats, events))
    if not sections:
        return f"=== {root} ===\n  (no telemetry artifacts found)"
    return "\n\n".join(sections)


class StatusTracker:
    """Refreshable status view that tails event logs incrementally.

    :func:`render_tree` re-reads every ``events.jsonl`` from offset 0,
    which is fine for a one-shot view but quadratic for a refreshing
    one (``--follow``): a long campaign's log is re-parsed in full on
    every tick. A tracker keeps a
    :class:`~repro.telemetry.serve.tailer.TreeTailer` across
    refreshes — the same reader the live service uses — so each
    :meth:`refresh` reads only the bytes appended since the last one.
    The regression test pins this via :attr:`bytes_read`.
    """

    def __init__(self, root: str, recent_limit: int = 5) -> None:
        from .serve.tailer import TreeTailer
        self.root = root
        self.recent_limit = recent_limit
        self.tailer = TreeTailer(root)
        self._recent: Dict[str, List[dict]] = {}

    @property
    def bytes_read(self) -> int:
        """Total event-log bytes ever read — approaches the logs'
        size, not refresh count × size."""
        return sum(self.tailer.tailer_for(cid).bytes_read
                   for cid in self.tailer.campaigns)

    def refresh(self) -> str:
        """Ingest appended events, re-render all status cards."""
        for campaign_id, event in self.tailer.poll():
            bucket = self._recent.setdefault(campaign_id, [])
            bucket.append(event)
            del bucket[:-self.recent_limit]
        sections: List[str] = []
        for campaign_id in self.tailer.campaigns:
            directory = (self.root if campaign_id == "." else
                         os.path.join(self.root, campaign_id))
            stats: Dict[str, str] = {}
            stats_path = os.path.join(directory, "fuzzer_stats")
            if os.path.exists(stats_path):
                with open(stats_path, "r", encoding="utf-8") as fh:
                    stats = parse_fuzzer_stats(fh.read())
            title = (self.root if campaign_id == "." else campaign_id)
            sections.append(render_status(
                title, stats, self._recent.get(campaign_id),
                self.recent_limit))
        if not sections:
            return (f"=== {self.root} ===\n"
                    f"  (no telemetry artifacts found)")
        return "\n\n".join(sections)
