"""BigMap: the adaptive two-level coverage bitmap (paper §IV).

Three pieces of state (Figure 4b):

* ``index``  — maps an edge key to its slot in the condensed coverage
  bitmap; -1 marks a key never seen in the whole campaign. Written only
  when a key is first discovered; *read* only during update.
* ``cov``    — the condensed coverage bitmap. All live counters occupy
  the prefix ``[0, used_key)``.
* ``used_key`` — next free slot; grows monotonically over the campaign.

Consequences, which :mod:`repro.memsim.costmodel` prices:

* reset / classify / compare sweep only ``[0, used_key)``;
* the index bitmap is never touched outside update, so its cache lines
  compete for capacity only during execution, not during the sweeps.

:meth:`BigMapCoverage.hash` covers up to the last non-zero byte (not
``used_key``) so that a path's hash is independent of unrelated
discoveries (§IV-D). The cost model charges the hash over ``used_key``
instead (a known deviation, see EXPERIMENTS.md).

The slot assignment — next free slot on first appearance — is what
condenses scattered keys into a dense prefix. (Within one batched
update, fresh keys are assigned in sorted order rather than trace
order; any dense assignment is equivalent because the index persists
for the whole campaign, so every key keeps one stable slot.)
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from .bitmap_base import CoverageMap, apply_counts
from .classify import classify_counts
from .compare import CompareResult, VirginMap
from .errors import MapFullError
from .hashing import crc32_trimmed


class BigMapCoverage(CoverageMap):
    """Two-level condensed coverage bitmap.

    Args:
        map_size: capacity in keys/bytes (power of two). Can be made
            arbitrarily large: per-execution cost depends on ``used_key``,
            i.e. on how many distinct keys the target has produced so far,
            not on ``map_size``.
    """

    #: Sentinel marking an unassigned index entry.
    UNASSIGNED = -1

    def __init__(self, map_size: int) -> None:
        super().__init__(map_size)
        self.index = np.full(map_size, self.UNASSIGNED, dtype=np.int64)
        self.cov = np.zeros(map_size, dtype=np.uint8)
        self.used_key = 0

    # -- operations ------------------------------------------------------

    def reset(self) -> None:
        self.cov[:self.used_key] = 0

    def update_aggregated(self, unique: np.ndarray,
                          summed: np.ndarray) -> int:
        if unique.size == 0:
            return 0
        slots = self.index[unique]
        fresh = slots == self.UNASSIGNED
        n_fresh = int(np.count_nonzero(fresh))
        if n_fresh:
            if self.used_key + n_fresh > self.map_size:
                raise MapFullError(
                    f"{self.used_key + n_fresh} distinct keys exceed map "
                    f"size {self.map_size}")
            new_slots = np.arange(self.used_key,
                                  self.used_key + n_fresh, dtype=np.int64)
            self.index[unique[fresh]] = new_slots
            self.used_key += n_fresh
            slots = self.index[unique]
        apply_counts(self.cov, slots, summed)
        return int(unique.size)

    def classify(self) -> None:
        region = self.cov[:self.used_key]
        classify_counts(region, out=region)

    def compare(self, virgin: VirginMap) -> CompareResult:
        return virgin.merge(self.cov, limit=self.used_key)

    def _new_bits(self, keys: np.ndarray, classified: np.ndarray,
                  virgin: np.ndarray) -> np.ndarray:
        # A key with no condensed slot yet would allocate one on a real
        # update — a brand-new edge — so it flags outright. Assigned
        # keys test their byte against the virgin byte of their slot.
        slots = self.index[keys]
        fresh = slots == self.UNASSIGNED
        return fresh | ((classified & virgin[np.where(fresh, 0, slots)])
                        != 0)

    def hash(self) -> int:
        return crc32_trimmed(self.cov, self.used_key)

    # -- introspection ---------------------------------------------------

    def active_bytes(self) -> int:
        return self.used_key

    def slot_for_key(self, key: int) -> int:
        """Condensed slot assigned to ``key``, or -1 if never seen."""
        return int(self.index[key])

    def count_for_key(self, key: int) -> int:
        slot = self.index[key]
        if slot == self.UNASSIGNED:
            return 0
        return int(self.cov[slot])

    def nonzero_locations(self) -> np.ndarray:
        return np.flatnonzero(self.cov[:self.used_key])

    def classified_trace(self) -> Tuple[np.ndarray, np.ndarray]:
        locations = self.nonzero_locations()
        return locations, self.cov[locations]

    def check_invariants(self) -> None:
        """Assert the structural invariants; used by property tests.

        * assigned slots are exactly ``0..used_key-1``, each used once;
        * nothing beyond ``used_key`` is nonzero in the coverage bitmap;
        * unassigned index entries are the sentinel.
        """
        assigned = self.index[self.index != self.UNASSIGNED]
        if assigned.size != self.used_key:
            raise AssertionError(
                f"{assigned.size} assigned slots but used_key="
                f"{self.used_key}")
        if assigned.size and (np.sort(assigned) !=
                              np.arange(self.used_key)).any():
            raise AssertionError("assigned slots are not a dense prefix")
        if np.count_nonzero(self.cov[self.used_key:]):
            raise AssertionError("coverage bytes beyond used_key are dirty")
