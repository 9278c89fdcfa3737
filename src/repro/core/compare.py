"""Virgin-map comparison with AFL's ``has_new_bits`` semantics.

AFL keeps a *virgin map*: one byte per map location, initialized to 0xFF,
in which every bit still set marks a (location, bucket) pair never yet seen.
After classifying a trace, the fuzzer ANDs it against the virgin map:

* a location whose virgin byte is still 0xFF and is hit at all → a brand
  new edge (interest level 2);
* a location already known but hit with a new count bucket → level 1;
* otherwise nothing new (level 0).

Hit buckets are then cleared from the virgin map (``virgin &= ~trace``).

Crash and hang deduplication in stock AFL use additional virgin maps with
the same semantics (``virgin_crash``, ``virgin_tmout``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import MapSizeError


#: Interest levels returned by the compare step.
NO_NEW_COVERAGE = 0
NEW_HIT_COUNT = 1
NEW_EDGE = 2


@dataclass(frozen=True)
class CompareResult:
    """Outcome of merging one classified trace into a virgin map.

    Attributes:
        level: 0 (nothing new), 1 (new hit-count bucket), 2 (new edge).
        new_edges: number of locations that transitioned from fully
            virgin (0xFF) to touched in this merge.
        new_buckets: number of locations that gained a new bucket without
            being brand new edges.
    """

    level: int
    new_edges: int
    new_buckets: int

    @property
    def interesting(self) -> bool:
        return self.level > 0


class VirginMap:
    """Global not-yet-seen coverage state, one byte per map location."""

    def __init__(self, map_size: int) -> None:
        if map_size <= 0:
            raise MapSizeError(f"map size must be positive, got {map_size}")
        self.map_size = map_size
        self.virgin = np.full(map_size, 0xFF, dtype=np.uint8)

    def merge(self, classified: np.ndarray, limit: int = None) -> CompareResult:
        """Merge a classified trace, returning what was new.

        Args:
            classified: bucketed trace bytes (same indexing as this map).
            limit: restrict the compare to ``classified[:limit]`` — BigMap
                passes ``used_key`` here so only the condensed region is
                swept. AFL passes ``None`` (full map).
        """
        trace = classified if limit is None else classified[:limit]
        virgin = self.virgin if limit is None else self.virgin[:limit]

        hits = (trace & virgin) != 0
        if not hits.any():
            return CompareResult(NO_NEW_COVERAGE, 0, 0)

        brand_new = hits & (virgin == 0xFF) & (trace != 0)
        new_edges = int(np.count_nonzero(brand_new))
        new_buckets = int(np.count_nonzero(hits)) - new_edges
        np.bitwise_and(virgin, np.bitwise_not(trace), out=virgin)

        level = NEW_EDGE if new_edges else NEW_HIT_COUNT
        return CompareResult(level, new_edges, new_buckets)

    def merge_sparse(self, indices: np.ndarray,
                     values: np.ndarray) -> CompareResult:
        """Merge a trace given as (location, classified byte) pairs.

        Exactly equivalent to :meth:`merge` on a full map that is zero
        everywhere outside ``indices`` — locations with a zero trace
        byte can never clear virgin bits. Duplicate indices are OR-ed
        together first (the dense equivalent holds one byte per
        location, the union of the observed buckets); without the
        aggregation, duplicate fancy-index stores would be last-write-
        wins and ``new_edges``/``new_buckets`` would double-count.
        """
        if indices.size == 0:
            return CompareResult(NO_NEW_COVERAGE, 0, 0)
        if indices.size > 1 and not bool(np.all(np.diff(indices) > 0)):
            # Not strictly increasing, so possibly duplicated (the hot
            # callers pass np.unique output, which skips this branch).
            unique, inverse = np.unique(indices, return_inverse=True)
            if unique.size != indices.size:
                merged = np.zeros(unique.size, dtype=np.uint8)
                np.bitwise_or.at(merged, inverse, values)
                indices, values = unique, merged
        virgin_vals = self.virgin[indices]
        hits = (values & virgin_vals) != 0
        if not hits.any():
            return CompareResult(NO_NEW_COVERAGE, 0, 0)
        brand_new = hits & (virgin_vals == 0xFF) & (values != 0)
        new_edges = int(np.count_nonzero(brand_new))
        new_buckets = int(np.count_nonzero(hits)) - new_edges
        self.virgin[indices] = virgin_vals & np.bitwise_not(values)
        level = NEW_EDGE if new_edges else NEW_HIT_COUNT
        return CompareResult(level, new_edges, new_buckets)

    def count_discovered(self) -> int:
        """Number of map locations with at least one bucket cleared."""
        return int(np.count_nonzero(self.virgin != 0xFF))

    def reset(self) -> None:
        """Forget all coverage (fresh campaign)."""
        self.virgin.fill(0xFF)

    def copy(self) -> "VirginMap":
        clone = VirginMap(self.map_size)
        clone.virgin[:] = self.virgin
        return clone
