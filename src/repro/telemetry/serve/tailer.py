"""Incremental tail-from-offset readers for telemetry JSONL streams.

The live service (and the refreshing CLI status view) must not re-read
a growing ``events.jsonl`` from offset 0 on every poll: a long campaign
accumulates tens of thousands of events, and the whole point of the
status substrate is that observation stays cheap. A
:class:`FileTailer` remembers the byte offset of the last fully
consumed line and each :meth:`FileTailer.poll` reads only the bytes
appended since, never handing out a partially written trailing line. A
:class:`TreeTailer` manages one tailer per ``events.jsonl`` found under
a telemetry root, discovering new campaign/instance directories as
they appear (sorted, so multi-file interleaving is deterministic).

Both are consumers in the sense of :mod:`repro.telemetry.validate`:
every parsed line is schema-validated before it reaches an aggregator,
so a corrupt artifact fails loudly at the tail site with file + line.
"""

from __future__ import annotations

import json
import os
from typing import Dict, List, Tuple

from ...core.errors import TelemetryError
from ..events import validate_event

__all__ = ["FileTailer", "TreeTailer", "EVENTS_FILENAME",
           "metrics_watcher_paths"]

EVENTS_FILENAME = "events.jsonl"

#: Sibling artifact holding the metrics/span profile of a campaign.
METRICS_FILENAME = "metrics.json"


def metrics_watcher_paths(root: str,
                          campaigns: List[str]) -> List[Tuple[str, str]]:
    """``(campaign_id, metrics.json path)`` for known campaigns.

    Existence is not checked here — the caller stats the path anyway
    (metrics land at flush time, usually after the event log).
    """
    out: List[Tuple[str, str]] = []
    for campaign_id in sorted(campaigns):
        directory = (root if campaign_id == "." else
                     os.path.join(root, campaign_id))
        out.append((campaign_id,
                    os.path.join(directory, METRICS_FILENAME)))
    return out


class FileTailer:
    """Tails one JSONL event file from its last consumed byte offset.

    A poll consumes only complete lines (ending in ``\\n``); a partial
    trailing line — a writer mid-append — stays in the file until a
    later poll sees its terminator. If the file shrinks below the
    consumed offset (truncation/replacement), the tailer starts over
    from offset 0: the stream identity changed, so its prefix no
    longer counts as consumed.

    Attributes:
        offset: byte offset of the first unconsumed byte.
        bytes_read: total bytes this tailer ever read from disk — the
            regression handle proving refreshes are incremental (it
            approaches file size, not refreshes × size).
        lineno: 1-based line number of the next unconsumed line.
    """

    def __init__(self, path: str) -> None:
        self.path = path
        self.offset = 0
        self.bytes_read = 0
        self.lineno = 1

    def poll(self) -> List[dict]:
        """Validated events appended since the last poll (maybe [])."""
        try:
            size = os.path.getsize(self.path)
        except OSError:
            return []
        if size < self.offset:   # truncated/replaced: start over
            self.offset = 0
            self.lineno = 1
        if size == self.offset:
            return []
        with open(self.path, "rb") as fh:
            fh.seek(self.offset)
            chunk = fh.read(size - self.offset)
        self.bytes_read += len(chunk)
        end = chunk.rfind(b"\n")
        if end < 0:
            return []   # no complete line yet; re-read the tail later
        complete = chunk[:end + 1]
        events: List[dict] = []
        for raw in complete.split(b"\n")[:-1]:
            where = f"{self.path}:{self.lineno}"
            self.lineno += 1
            line = raw.decode("utf-8").strip()
            if not line:
                continue
            try:
                event = json.loads(line)
            except ValueError as exc:
                raise TelemetryError(
                    f"{where}: invalid JSON: {exc}") from exc
            events.append(validate_event(event, where=where))
        self.offset += len(complete)
        return events


class TreeTailer:
    """Tails every ``events.jsonl`` under a telemetry root.

    Campaign ids are directory paths relative to the root (``"."`` for
    an event log directly in the root) — the same identifiers
    :func:`repro.telemetry.validate.validate_tree` reports. Discovery
    re-walks the tree on every poll so directories created after the
    tailer (an experiment starting its next campaign, a parallel
    session adding instances) join the watch set automatically.
    """

    def __init__(self, root: str) -> None:
        self.root = root
        self._tailers: Dict[str, FileTailer] = {}

    @property
    def campaigns(self) -> List[str]:
        """Known campaign ids, sorted."""
        return sorted(self._tailers)

    def tailer_for(self, campaign_id: str) -> FileTailer:
        return self._tailers[campaign_id]

    def _discover(self) -> None:
        if not os.path.isdir(self.root):
            return
        for dirpath, dirnames, filenames in os.walk(self.root):
            dirnames.sort()
            if EVENTS_FILENAME not in filenames:
                continue
            campaign_id = os.path.relpath(dirpath, self.root)
            if campaign_id not in self._tailers:
                self._tailers[campaign_id] = FileTailer(
                    os.path.join(dirpath, EVENTS_FILENAME))

    def poll(self) -> List[Tuple[str, dict]]:
        """``(campaign_id, event)`` pairs appended since the last
        poll, campaign-sorted then file-ordered within a campaign."""
        self._discover()
        out: List[Tuple[str, dict]] = []
        for campaign_id in sorted(self._tailers):
            for event in self._tailers[campaign_id].poll():
                out.append((campaign_id, event))
        return out
