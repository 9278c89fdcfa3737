"""Crash deduplication: Crashwalk-style and AFL-style.

The paper measures unique crashes with Crashwalk [21] — a hash of the
faulting call stack and address — because AFL's built-in edge-novelty
dedup depends on the coverage map and is therefore "inherently biased
towards larger maps" (§V-A3). Both mechanisms are implemented so the
bias itself can be demonstrated; all reported crash counts use the
Crashwalk triager.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Set

import numpy as np

from ..core.compare import VirginMap
from ..target.crashes import CrashInfo


@dataclass
class CrashRecord:
    """First sighting of a deduplicated crash."""

    key: int
    site_id: int
    found_at: float
    n_seen: int = 1


class CrashwalkTriager:
    """Deduplicates by hash(call stack, faulting address).

    Map-size independent: two configurations that reach the same bug
    count it identically, which is what makes the paper's cross-map
    crash comparisons fair.
    """

    def __init__(self) -> None:
        self.records: Dict[int, CrashRecord] = {}

    def observe(self, crash: CrashInfo, virtual_time: float) -> bool:
        """Record a crash; returns True if it was new."""
        key = crash.crashwalk_key()
        record = self.records.get(key)
        if record is not None:
            record.n_seen += 1
            return False
        self.records[key] = CrashRecord(key=key, site_id=crash.site_id,
                                        found_at=virtual_time)
        return True

    @property
    def unique_crashes(self) -> int:
        return len(self.records)

    def merge_from(self, other: "CrashwalkTriager") -> int:
        """Absorb another instance's records (parallel sync).

        Returns the number of crashes newly learned.
        """
        new = 0
        for key, record in other.records.items():
            mine = self.records.get(key)
            if mine is None:
                self.records[key] = CrashRecord(
                    key=record.key, site_id=record.site_id,
                    found_at=record.found_at, n_seen=record.n_seen)
                new += 1
            else:
                mine.n_seen += record.n_seen
                mine.found_at = min(mine.found_at, record.found_at)
        return new

    def curve(self) -> List[tuple]:
        """(virtual_time, cumulative unique crashes), time-ordered."""
        times = sorted(r.found_at for r in self.records.values())
        return [(t, i + 1) for i, t in enumerate(times)]


class AflCrashTriager:
    """AFL's built-in dedup: a crash is unique if its trace clears new
    bits in a dedicated crash virgin map.

    Kept to demonstrate the map-size bias the paper avoids; the bigger
    the map, the fewer collisions in ``virgin_crash`` and the more
    crashes count as unique.
    """

    def __init__(self, map_size: int) -> None:
        self.virgin_crash = VirginMap(map_size)
        self.unique_crashes = 0

    def observe(self, indices: np.ndarray, values: np.ndarray) -> bool:
        """Check a crashing test case's classified trace, given as
        (location, bucket) pairs; True if new."""
        result = self.virgin_crash.merge_sparse(indices, values)
        if result.interesting:
            self.unique_crashes += 1
            return True
        return False
