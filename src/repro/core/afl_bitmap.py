"""AFL's flat coverage bitmap (the paper's baseline).

One byte per map location; edge keys index the array directly
(``coverage_bitmap[E_XY]++``, Listing 1). Reset, classify, compare and
hash all sweep the *full* map regardless of how little of it is in use —
the inefficiency BigMap removes.

Implementation note — the *simulation fast path*: on multi-megabyte
maps, literally sweeping the numpy array per execution costs tens of
host-milliseconds without changing a single result (zero bytes classify
to zero; virgin bytes whose trace byte is zero cannot change; resetting
untouched bytes is a no-op). With ``sparse_host_ops=True`` (default)
the implementation therefore performs reset/classify/compare only on
the locations touched since the last reset, while the cost model
(:mod:`repro.memsim.costmodel`) still charges the full-map sweeps — the
physics the paper measures. ``sparse_host_ops=False`` executes the
literal full sweeps (used by the equivalence tests, which assert both
modes produce byte-identical maps and identical compare outcomes).
"""

from __future__ import annotations

import zlib
from typing import List, Tuple

import numpy as np

from .bitmap_base import CoverageMap, apply_counts
from .classify import classify_counts
from .compare import CompareResult, VirginMap
from .hashing import crc32_full


class AflCoverage(CoverageMap):
    """Flat one-level coverage bitmap, as in stock AFL.

    Args:
        map_size: bitmap size in bytes (power of two; AFL default 65536).
        sparse_host_ops: see the module docstring; results are
            identical either way.
    """

    def __init__(self, map_size: int, *,
                 sparse_host_ops: bool = True) -> None:
        super().__init__(map_size)
        self.sparse_host_ops = sparse_host_ops
        self.trace = np.zeros(map_size, dtype=np.uint8)
        self._touched: List[np.ndarray] = []

    def _touched_unique(self) -> np.ndarray:
        if not self._touched:
            return np.empty(0, dtype=np.int64)
        if len(self._touched) == 1:
            return self._touched[0]
        merged = np.unique(np.concatenate(self._touched))
        self._touched = [merged]
        return merged

    def reset(self) -> None:
        if self.sparse_host_ops:
            touched = self._touched_unique()
            if touched.size:
                self.trace[touched] = 0
            self._touched = []
        else:
            self.trace.fill(0)
            self._touched = []

    def update_aggregated(self, unique: np.ndarray,
                          summed: np.ndarray) -> int:
        if unique.size == 0:
            return 0
        apply_counts(self.trace, unique, summed)
        # A copy: a replayed segment is a view into its whole window's
        # key array, which would otherwise stay alive until the next
        # reset.
        self._touched.append(unique.copy())
        return int(unique.size)

    def classify(self) -> None:
        if self.sparse_host_ops:
            touched = self._touched_unique()
            if touched.size:
                self.trace[touched] = classify_counts(self.trace[touched])
        else:
            classify_counts(self.trace, out=self.trace)

    def compare(self, virgin: VirginMap) -> CompareResult:
        if not self.sparse_host_ops:
            return virgin.merge(self.trace)
        touched = self._touched_unique()
        return virgin.merge_sparse(touched, self.trace[touched])

    def _new_bits(self, keys: np.ndarray, classified: np.ndarray,
                  virgin: np.ndarray) -> np.ndarray:
        # Flat map: keys index the virgin bytes directly.
        return (classified & virgin[keys]) != 0

    def hash(self) -> int:
        """Path identifier of the classified trace.

        AFL hashes the full map with CRC32. The fast path computes a
        functionally equivalent identifier from the (location, bucket)
        pairs — the full map is fully determined by them, so two traces
        hash equal iff their full maps are byte-identical.
        """
        if not self.sparse_host_ops:
            return crc32_full(self.trace)
        touched = self._touched_unique()
        live = touched[self.trace[touched] != 0]
        return zlib.crc32(self.trace[live].tobytes(),
                          zlib.crc32(live.tobytes()))

    def active_bytes(self) -> int:
        return self.map_size

    def count_for_key(self, key: int) -> int:
        return int(self.trace[key])

    def nonzero_locations(self) -> np.ndarray:
        if self.sparse_host_ops:
            touched = self._touched_unique()
            return touched[self.trace[touched] != 0]
        return np.flatnonzero(self.trace)

    def classified_trace(self) -> Tuple[np.ndarray, np.ndarray]:
        locations = self.nonzero_locations()
        return locations, self.trace[locations]
