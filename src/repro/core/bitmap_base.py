"""Abstract interface shared by AFL's flat bitmap and BigMap.

A :class:`CoverageMap` is the per-execution ("local") trace store. The
fuzzing loop drives it through the operation sequence of paper §II-A2:

    reset → (target runs, emitting updates) → classify → compare → [hash]

Both implementations receive the same *keys*: integers in
``[0, map_size)`` produced by an instrumentation pipeline (plain AFL edge
hashes, N-gram hashes, ...). The difference is purely in how the backing
storage is organized and therefore what each operation has to touch —
which is the whole point of the paper.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .classify import classify_counts
from .compare import CompareResult, VirginMap
from .errors import KeyRangeError, MapSizeError, TraceShapeError


def _require_power_of_two(map_size: int) -> None:
    if map_size <= 0 or (map_size & (map_size - 1)) != 0:
        raise MapSizeError(
            f"map size must be a positive power of two, got {map_size}")


def aggregate_keys(keys: np.ndarray, counts: np.ndarray
                   ) -> Tuple[np.ndarray, np.ndarray]:
    """Combine duplicate keys, summing their counts.

    Distinct program edges whose IDs collide into the same map key must
    accumulate into one location — this is exactly the hash-collision
    aliasing the paper studies, so it must be modeled faithfully.

    Returns:
        ``(unique_keys, summed_counts)`` with ``unique_keys`` sorted.
    """
    if keys.ndim != 1 or counts.ndim != 1 or keys.shape != counts.shape:
        raise TraceShapeError(
            f"keys/counts must be equal-length 1-D arrays, got shapes "
            f"{keys.shape} and {counts.shape}")
    if keys.size == 0:
        return keys.astype(np.int64), counts.astype(np.int64)
    unique, inverse = np.unique(keys, return_inverse=True)
    # np.bincount(weights=) would accumulate in float64 and round-trip
    # through a cast; add.at keeps the sums exact in int64, matching
    # aggregate_keys_batch's explicit int64 prefix sums.
    summed = np.zeros(unique.size, dtype=np.int64)
    np.add.at(summed, inverse, np.asarray(counts, dtype=np.int64))
    return unique.astype(np.int64), summed


def aggregate_keys_batch(keys: np.ndarray, counts: np.ndarray,
                         offsets: np.ndarray, map_size: int,
                         *, return_segments: bool = False):
    """Per-segment :func:`aggregate_keys` over one flat key array.

    Trace ``i`` owns ``keys[offsets[i]:offsets[i+1]]``. Each segment is
    aggregated independently — duplicate keys within a segment sum
    their counts; identical keys in *different* segments stay separate.
    Within each output segment keys are sorted ascending, exactly like
    the scalar helper.

    Returns:
        ``(unique_keys, summed_counts, out_offsets)`` — flat aggregated
        arrays plus the new segment boundaries. With
        ``return_segments=True`` a fourth array carries the segment id
        of every flat output entry (a by-product of the aggregation
        pass; callers that need it avoid re-expanding the offsets).
    """
    n_seg = offsets.size - 1
    if keys.size == 0:
        empty = (keys.astype(np.int64), counts.astype(np.int64),
                 np.zeros(n_seg + 1, dtype=np.int64))
        if return_segments:
            return empty + (np.zeros(0, dtype=np.int64),)
        return empty
    seg = np.repeat(np.arange(n_seg, dtype=np.int64), np.diff(offsets))
    counts64 = np.asarray(counts, dtype=np.int64)
    # Sorting values beats argsort-then-gather by ~3x, so when counts
    # fit in the low 20 bits of a non-negative int64 (hit counts are
    # tiny — 1 + input_byte % loop_cap), pack (composite, count) into
    # one word and sort that. Equal composites still land adjacent
    # (count bits only order ties, whose counts just sum either way).
    cmax = int(counts64.max())
    if (0 <= int(counts64.min()) and cmax < (1 << 20)
            and n_seg * map_size <= (1 << 43)):
        # packed = (seg * map_size + keys) << 20 | counts, built
        # in place on the owned `seg` buffer to skip three temporaries.
        packed = seg
        packed *= np.int64(map_size) << np.int64(20)
        packed += keys.astype(np.int64) << np.int64(20)
        packed += counts64
        packed.sort()
        sorted_comp = packed >> np.int64(20)
        sorted_counts = packed & np.int64((1 << 20) - 1)
    else:
        # Hand-rolled unique: argsort + group-boundary prefix sums stay
        # in int64 and skip the inverse array np.unique would build.
        # Order among equal composites is irrelevant (counts just sum).
        composite = seg * np.int64(map_size) + keys
        order = np.argsort(composite)
        sorted_comp = composite[order]
        sorted_counts = counts64[order]
    neq = np.empty(sorted_comp.size, dtype=bool)
    neq[0] = True
    np.not_equal(sorted_comp[1:], sorted_comp[:-1], out=neq[1:])
    bounds = np.flatnonzero(neq)
    unique = sorted_comp[bounds]
    prefix = np.empty(sorted_counts.size + 1, dtype=np.int64)
    prefix[0] = 0
    np.cumsum(sorted_counts, out=prefix[1:])
    ends = np.concatenate([bounds[1:], [sorted_comp.size]])
    summed = prefix[ends] - prefix[bounds]
    if map_size & (map_size - 1) == 0:
        shift = np.int64(map_size.bit_length() - 1)
        out_seg = unique >> shift
        out_keys = unique & np.int64(map_size - 1)
    else:
        out_seg = unique // np.int64(map_size)
        out_keys = (unique - out_seg * np.int64(map_size)).astype(np.int64)
    out_offsets = np.searchsorted(
        out_seg, np.arange(n_seg + 1, dtype=np.int64)).astype(np.int64)
    if return_segments:
        return out_keys, summed, out_offsets, out_seg
    return out_keys, summed, out_offsets


def classified_counts(summed: np.ndarray) -> np.ndarray:
    """Classified trace bytes a fresh map would hold after ``summed``.

    Every execution starts from a reset map, so the stored byte for a
    location is a pure function of that execution's summed hit count:
    saturate to ``uint8``, then bucket. This is what lets batched
    compare work from aggregated counts without materializing any map.
    """
    return classify_counts(np.minimum(summed, 255).astype(np.uint8))


@dataclass
class BatchUpdate:
    """Aggregated, classified view of a batch of traces.

    Produced by :meth:`CoverageMap.update_compare_batch`. Nothing here
    touches the coverage map itself — per-execution maps are
    reset-scoped, so the classified bytes are derivable from the counts
    alone (see :func:`classified_counts`); the map is only materialized
    for the rare traces that survive the batched compare pre-filter.

    Attributes:
        keys: flat per-segment-unique map keys, ascending per segment.
        summed: collision-aggregated hit counts aligned with ``keys``.
        classified: bucketed trace bytes aligned with ``keys``.
        offsets: segment boundaries (``n + 1`` entries).
        n_unique: distinct locations per trace (the cost model's
            ``unique_locations``).
    """

    keys: np.ndarray
    summed: np.ndarray
    classified: np.ndarray
    offsets: np.ndarray
    n_unique: np.ndarray

    @property
    def n(self) -> int:
        return int(self.offsets.size - 1)

    def segment(self, i: int) -> Tuple[np.ndarray, np.ndarray]:
        """``(keys, summed)`` of trace ``i``: the aggregated trace
        :meth:`CoverageMap.update_aggregated` loads. Empty for a dense
        batch's unflagged trace, which has no segment."""
        lo, hi = int(self.offsets[i]), int(self.offsets[i + 1])
        return self.keys[lo:hi], self.summed[lo:hi]


@dataclass
class FlatKeys:
    """A batch of traces as flat key segments.

    Trace ``i`` owns ``keys[offsets[i]:offsets[i+1]]`` and the aligned
    ``counts``; a key may repeat within a segment (colliding edges), so
    the segments are aggregated before they are classified. The form
    every metric can produce, including input-dependent ones whose keys
    vary per row.
    """

    keys: np.ndarray
    counts: np.ndarray
    offsets: np.ndarray


@dataclass
class DenseKeys:
    """A batch of traces as dense key columns.

    Every row has the same columns and every column owns one map key
    that no other column shares, so a row needs no aggregation: its
    summed hit count for a key is the column's entry. Two kinds of
    column:

    * *plain* columns are columns of ``reach`` whose hit count is 1
      whenever the trace reached them (one edge, no loop): the bool
      matrix is read in place, never copied to counts;
    * *counted* columns carry summed hit counts in ``counts`` (a loop
      edge, or a group of edges sharing one key), 0 where untouched.

    Attributes:
        reach: ``(n, n_cols)`` bool matrix the plain columns index.
        plain: ``int64`` indices of the plain columns of ``reach``.
        plain_keys: map key of each plain column.
        n_plain: per-row number of plain columns reached (``int64``).
        counts: ``(n, C)`` int64 summed hit counts of the counted
            columns.
        count_keys: map key of each counted column.
    """

    reach: np.ndarray
    plain: np.ndarray
    plain_keys: np.ndarray
    n_plain: np.ndarray
    counts: np.ndarray
    count_keys: np.ndarray

    @property
    def n(self) -> int:
        return int(self.reach.shape[0])


def apply_counts(store: np.ndarray, slots: np.ndarray,
                 summed: np.ndarray) -> None:
    """Add ``summed`` hit counts into 8-bit ``store[slots]``.

    ``slots`` must be unique. Counters saturate at 255 (sticky, like a
    per-increment saturating counter; stock AFL's raw ``u8`` increments
    wrap instead).
    """
    current = store[slots].astype(np.int64) + summed
    store[slots] = np.minimum(current, 255).astype(np.uint8)


class CoverageMap(ABC):
    """Per-execution coverage store: the fuzzer's ``trace_bits``."""

    def __init__(self, map_size: int) -> None:
        _require_power_of_two(map_size)
        self.map_size = map_size

    # -- operations ------------------------------------------------------

    @abstractmethod
    def reset(self) -> None:
        """Clear per-execution state ahead of the next test case."""

    def update(self, keys: np.ndarray, counts: np.ndarray) -> int:
        """Record that each ``keys[i]`` was traversed ``counts[i]`` times.

        Aggregates the trace (:func:`aggregate_keys`) and loads it
        through :meth:`update_aggregated`.

        Returns:
            Number of distinct map locations touched (after collision
            aliasing) — the ``unique_locations`` of the cost model.
        """
        self._check_keys(keys)
        return self.update_aggregated(*aggregate_keys(keys, counts))

    @abstractmethod
    def update_aggregated(self, unique: np.ndarray,
                          summed: np.ndarray) -> int:
        """Record one already aggregated trace.

        ``unique`` holds ascending, duplicate-free ``int64`` keys and
        ``summed`` their collision-summed hit counts: what
        :func:`aggregate_keys` returns, and what one segment of a
        :class:`BatchUpdate` holds. The keys are not range-checked here
        (:meth:`update` and :meth:`update_compare_batch` check them).

        Returns:
            ``unique.size``: the distinct map locations touched.
        """

    @abstractmethod
    def classify(self) -> None:
        """Bucket the stored hit counts in place."""

    @abstractmethod
    def compare(self, virgin: VirginMap) -> CompareResult:
        """Merge the (already classified) trace into ``virgin``."""

    @abstractmethod
    def hash(self) -> int:
        """Hash of the classified trace, stable across unrelated growth."""

    def classify_and_compare(self, virgin: VirginMap) -> CompareResult:
        """Merged classify+compare sweep (paper §IV-E optimization).

        On the host this simply chains ``classify(); compare(virgin)``;
        what the merged pass saves is priced by the cost model
        (``MapCostConfig.merged_classify_compare``), not here.
        """
        self.classify()
        return self.compare(virgin)

    # -- batched pipeline -------------------------------------------------

    def update_compare_batch(self, batch, virgin: VirginMap
                             ) -> Tuple[BatchUpdate, np.ndarray]:
        """Aggregate, classify and flag a whole batch of traces at once.

        ``batch`` is a :class:`FlatKeys` or a :class:`DenseKeys`. Unlike
        :meth:`update` this does NOT touch the map: it computes, per
        trace, exactly what ``reset(); update(seg)`` would store and
        what ``classify()`` would bucket it to (see
        :func:`classified_counts`).

        The flags are per-trace "could this be interesting?" verdicts: a
        conservative superset of :meth:`compare`'s ``interesting``
        against the virgin map *as it is now*, and exact when nothing
        merges in between. Virgin bits only clear, so a trace flagged
        ``False`` stays uninteresting no matter what earlier traces in
        the batch merge in the meantime. Flagged traces replay the full
        scalar pipeline to learn the truth (and to perform the merge).

        The returned :class:`BatchUpdate` always has every trace's
        ``n_unique``. Its segments are complete for a flat batch; a
        dense batch builds them only for the flagged traces (the only
        ones :meth:`segment_interesting` re-tests) and leaves the rest
        empty.
        """
        if isinstance(batch, DenseKeys):
            return self._update_compare_dense(batch, virgin.virgin)
        self._check_keys(batch.keys)
        u_keys, summed, u_off, seg = aggregate_keys_batch(
            batch.keys, batch.counts, batch.offsets, self.map_size,
            return_segments=True)
        classified = classified_counts(summed)
        update = BatchUpdate(keys=u_keys, summed=summed,
                             classified=classified, offsets=u_off,
                             n_unique=np.diff(u_off))
        if u_keys.size == 0:
            return update, np.zeros(update.n, dtype=bool)
        hit = self._new_bits(u_keys, classified, virgin.virgin)
        return update, np.bincount(seg[hit], minlength=update.n) > 0

    def _update_compare_dense(self, batch: DenseKeys, virgin: np.ndarray
                              ) -> Tuple[BatchUpdate, np.ndarray]:
        """:meth:`update_compare_batch` on key columns.

        A plain column's classified byte is 1, so one ``_new_bits`` call
        over the plain keys picks the columns that could still clear a
        virgin bit, and a row is flagged if it reached any of them: one
        bool gather. Counted columns classify their summed counts and
        test every (row, column) byte, masked to the touched ones (an
        unassigned BigMap key flags whatever its byte).
        """
        # Column gathers go through the transposed views: the
        # executor's reach matrix is stored edge-major, so a column of
        # the window is a contiguous row there.
        reach_t, counts = batch.reach.T, batch.counts
        keys = np.concatenate([batch.plain_keys, batch.count_keys])
        self._check_keys(keys)
        hot = batch.plain[self._new_bits(batch.plain_keys, np.uint8(1),
                                         virgin)]
        flags = reach_t[hot].any(axis=0)
        classified = classified_counts(counts)
        touched = counts > 0
        flags |= (touched & self._new_bits(batch.count_keys, classified,
                                           virgin)).any(axis=1)
        n_unique = batch.n_plain + np.count_nonzero(touched, axis=1)

        # Segments of the flagged rows: their touched columns in key
        # order. Column keys are distinct, so that is the ascending,
        # duplicate-free segment aggregate_keys_batch would build. The
        # touched mask is laid out key-major, then read row-major.
        rows = np.flatnonzero(flags)
        n_cols, n_plain = keys.size, batch.plain.size
        order = np.argsort(keys)
        rank = np.empty(n_cols, dtype=np.int64)
        rank[order] = np.arange(n_cols)
        mask = np.empty((n_cols, rows.size), dtype=bool)
        mask[rank[:n_plain]] = reach_t[batch.plain][:, rows]
        mask[rank[n_plain:]] = touched.T[:, rows]
        nz = np.flatnonzero(mask.T)
        pos = nz % n_cols  # key rank of each entry
        # Plain entries sum to 1; counted ones read their count.
        summed = np.ones(nz.size, dtype=np.int64)
        count_col = (order - n_plain)[pos]
        hit = np.flatnonzero(count_col >= 0)
        summed[hit] = counts[rows[nz[hit] // n_cols], count_col[hit]]
        offsets = np.zeros(batch.n + 1, dtype=np.int64)
        offsets[rows + 1] = np.diff(np.searchsorted(
            nz, np.arange(rows.size + 1) * n_cols))
        np.cumsum(offsets, out=offsets)
        update = BatchUpdate(keys=keys[order][pos], summed=summed,
                             classified=classified_counts(summed),
                             offsets=offsets, n_unique=n_unique)
        return update, flags

    def segment_interesting(self, update: BatchUpdate, i: int,
                            virgin: VirginMap) -> bool:
        """Re-test trace ``i``'s flag against the *current* state.

        :meth:`update_compare_batch`'s flag for one trace, evaluated
        against the map and virgin as they stand now rather than at
        batch time. A map's key-to-slot state only grows and virgin
        bits only clear, so a False here is final — the batched engine
        uses this to dismiss flags that went stale after earlier traces
        in the same window claimed the bits. Host-only: the serial
        engine discovers the same verdict inside its normally-priced
        pipeline.
        """
        lo, hi = int(update.offsets[i]), int(update.offsets[i + 1])
        return bool(self._new_bits(update.keys[lo:hi],
                                   update.classified[lo:hi],
                                   virgin.virgin).any())

    @abstractmethod
    def _new_bits(self, keys: np.ndarray, classified: np.ndarray,
                  virgin: np.ndarray) -> np.ndarray:
        """Which aggregated ``keys`` could clear ``virgin`` bits.

        ``classified`` holds each key's bucketed trace byte and
        ``virgin`` is the virgin byte array. The one place a map's key
        to virgin-byte mapping lives, for flat segments and key columns
        alike: ``keys`` may be a per-column vector that ``classified``
        (a scalar, or a ``(rows, columns)`` matrix) broadcasts against.
        Read-only.
        """

    # -- introspection ---------------------------------------------------

    @abstractmethod
    def active_bytes(self) -> int:
        """Bytes a full-map operation must sweep for this structure."""

    @abstractmethod
    def count_for_key(self, key: int) -> int:
        """Current stored (possibly classified) count for a map key."""

    @abstractmethod
    def nonzero_locations(self) -> np.ndarray:
        """Storage slots with a nonzero count (structure-native indexing)."""

    @abstractmethod
    def classified_trace(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(nonzero_locations(), their stored bytes)``: the trace as
        the sparse pairs :meth:`VirginMap.merge_sparse` takes."""

    # -- shared helpers ---------------------------------------------------

    def _check_keys(self, keys: np.ndarray) -> None:
        if keys.size == 0:
            return
        if int(keys.min()) < 0 or int(keys.max()) >= self.map_size:
            raise KeyRangeError(
                f"keys must lie in [0, {self.map_size}), got range "
                f"[{int(keys.min())}, {int(keys.max())}]")
