"""Exactness tests for the batched coverage kernels.

``update_batch`` must aggregate each segment exactly like the scalar
``reset(); update(keys, counts)`` path, ``classified_counts`` must match
what ``classify()`` would store, and ``compare_batch`` must be a
conservative superset of the serial compare's ``interesting`` — with
equality whenever the virgin map is not mutated between traces.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (AflCoverage, BigMapCoverage, COUNTER_SATURATE,
                        COUNTER_WRAP, VirginMap, aggregate_keys,
                        aggregate_keys_batch, classified_counts)

MAP = 1 << 10


def make_batch(rng, n_traces, map_size=MAP, max_seg=30):
    segs = [rng.integers(0, map_size,
                         size=int(rng.integers(0, max_seg))).astype(
                             np.int64)
            for _ in range(n_traces)]
    counts = [rng.integers(1, 300, size=s.size).astype(np.int64)
              for s in segs]
    offsets = np.zeros(n_traces + 1, dtype=np.int64)
    np.cumsum([s.size for s in segs], out=offsets[1:])
    flat_keys = np.concatenate(segs) if segs else \
        np.empty(0, dtype=np.int64)
    flat_counts = np.concatenate(counts) if counts else \
        np.empty(0, dtype=np.int64)
    return segs, counts, flat_keys, flat_counts, offsets


class TestAggregateKeysBatch:
    def test_matches_scalar_per_segment(self):
        rng = np.random.default_rng(0)
        segs, counts, fk, fc, off = make_batch(rng, 20)
        u_keys, summed, u_off = aggregate_keys_batch(fk, fc, off, MAP)
        for i, (seg, cnt) in enumerate(zip(segs, counts)):
            ref_keys, ref_sum = aggregate_keys(seg, cnt)
            lo, hi = u_off[i], u_off[i + 1]
            assert np.array_equal(u_keys[lo:hi], ref_keys)
            assert np.array_equal(summed[lo:hi], ref_sum)

    def test_empty_batch(self):
        u_keys, summed, u_off = aggregate_keys_batch(
            np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64),
            np.zeros(4, dtype=np.int64), MAP)
        assert u_keys.size == 0
        assert np.array_equal(u_off, np.zeros(4, dtype=np.int64))

    def test_duplicate_keys_across_segments_stay_separate(self):
        keys = np.array([5, 5, 5], dtype=np.int64)
        counts = np.array([1, 2, 4], dtype=np.int64)
        offsets = np.array([0, 2, 3], dtype=np.int64)
        u_keys, summed, u_off = aggregate_keys_batch(
            keys, counts, offsets, MAP)
        assert np.array_equal(u_keys, [5, 5])
        assert np.array_equal(summed, [3, 4])
        assert np.array_equal(u_off, [0, 1, 2])


class TestClassifiedCounts:
    @pytest.mark.parametrize("mode", [COUNTER_SATURATE, COUNTER_WRAP])
    @pytest.mark.parametrize("cls", [AflCoverage, BigMapCoverage])
    def test_matches_map_classify(self, mode, cls):
        rng = np.random.default_rng(1)
        cov = cls(MAP, counter_mode=mode)
        for trial in range(20):
            keys = rng.integers(0, MAP, size=25).astype(np.int64)
            counts = rng.integers(1, 600, size=25).astype(np.int64)
            unique, summed = aggregate_keys(keys, counts)
            cov.reset()
            cov.update(keys, counts)
            cov.classify()
            stored = np.array([cov.count_for_key(int(k))
                               for k in unique])
            assert np.array_equal(
                classified_counts(summed, mode), stored), \
                f"{cls.__name__} {mode} trial {trial}"


@pytest.mark.parametrize("cls", [AflCoverage, BigMapCoverage])
class TestCompareBatch:
    def _run_serial(self, cls, segs, counts, virgin):
        cov = cls(MAP)
        outcomes = []
        for seg, cnt in zip(segs, counts):
            cov.reset()
            cov.update(seg, cnt)
            outcomes.append(
                cov.classify_and_compare(virgin).interesting)
        return outcomes

    def test_flags_are_exact_on_frozen_virgin(self, cls):
        """Against a fixed virgin map the pre-filter is exact, not
        merely conservative: each trace sees the same virgin state the
        serial compare would."""
        rng = np.random.default_rng(2)
        # Pre-discover some coverage so virgin is partially cleared.
        warm = cls(MAP)
        virgin = VirginMap(MAP)
        for _ in range(5):
            warm.reset()
            warm.update(rng.integers(0, MAP, size=40).astype(np.int64),
                        rng.integers(1, 9, size=40).astype(np.int64))
            warm.classify_and_compare(virgin)

        cov = cls(MAP)
        # Give the batch map the same slot state for BigMap by warming
        # it with the same keys (slot layout affects nothing for AFL).
        if isinstance(cov, BigMapCoverage):
            cov.index[:] = warm.index
            cov.used_key = warm.used_key
            cov.cov = np.zeros_like(warm.cov)

        segs, counts, fk, fc, off = make_batch(rng, 30)
        update = cov.update_batch(fk, fc, off)
        flags = cov.compare_batch(update, virgin)

        for i, (seg, cnt) in enumerate(zip(segs, counts)):
            probe = virgin.copy()
            cov.reset()
            cov.update(seg, cnt)
            truth = cov.classify_and_compare(probe).interesting
            assert bool(flags[i]) == truth, f"trace {i}"

    def test_flags_superset_under_live_merging(self, cls):
        """Processing in order with merges between traces: a False
        flag must imply not-interesting at replay time."""
        rng = np.random.default_rng(3)
        virgin = VirginMap(MAP)
        cov = cls(MAP)
        segs, counts, fk, fc, off = make_batch(rng, 40, max_seg=12)
        update = cov.update_batch(fk, fc, off)
        flags = cov.compare_batch(update, virgin)
        for i, (seg, cnt) in enumerate(zip(segs, counts)):
            cov.reset()
            cov.update(seg, cnt)
            truth = cov.classify_and_compare(virgin).interesting
            if truth:
                assert bool(flags[i]), f"trace {i}: missed interesting"

    def test_n_unique_matches_scalar_update(self, cls):
        rng = np.random.default_rng(4)
        cov = cls(MAP)
        segs, counts, fk, fc, off = make_batch(rng, 15)
        update = cov.update_batch(fk, fc, off)
        for i, (seg, cnt) in enumerate(zip(segs, counts)):
            cov.reset()
            assert int(update.n_unique[i]) == cov.update(seg, cnt)


class TestCompareBatchProperty:
    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_bigmap_never_misses(self, seed):
        rng = np.random.default_rng(seed)
        virgin = VirginMap(MAP)
        cov = BigMapCoverage(MAP)
        for round_no in range(3):
            segs, counts, fk, fc, off = make_batch(rng, 10, max_seg=8)
            update = cov.update_batch(fk, fc, off)
            flags = cov.compare_batch(update, virgin)
            for i, (seg, cnt) in enumerate(zip(segs, counts)):
                cov.reset()
                cov.update(seg, cnt)
                truth = cov.classify_and_compare(virgin).interesting
                if truth:
                    assert bool(flags[i])


@pytest.mark.parametrize("mode", [COUNTER_SATURATE, COUNTER_WRAP])
@pytest.mark.parametrize("cls", [AflCoverage, BigMapCoverage])
def test_hot_path_dtypes(cls, mode):
    """The dtypes the hot path promises: int64 keys, counts and offsets,
    uint8 map and virgin bytes, bool flags. A float64 or platform-word
    intermediate leaking out of a kernel fails here."""
    rng = np.random.default_rng(5)
    segs, counts, fk, fc, off = make_batch(rng, 12)

    unique, summed = aggregate_keys(segs[0], counts[0])
    assert (unique.dtype, summed.dtype) == (np.int64, np.int64)
    empty = aggregate_keys(np.empty(0, dtype=np.int64),
                           np.empty(0, dtype=np.int64))
    assert [a.dtype for a in empty] == [np.int64, np.int64]
    batch = aggregate_keys_batch(fk, fc, off, MAP, return_segments=True)
    assert [a.dtype for a in batch] == [np.int64] * 4
    assert classified_counts(summed, mode).dtype == np.uint8

    cov = cls(MAP, counter_mode=mode)
    cov.reset()
    cov.update(fk, fc)
    cov.classify()
    store = cov.trace if cls is AflCoverage else cov.cov
    assert store.dtype == np.uint8
    if cls is BigMapCoverage:
        assert cov.index.dtype == np.int64

    virgin = VirginMap(MAP)
    virgin.merge(store)
    assert virgin.virgin.dtype == np.uint8
    virgin.merge_sparse(unique, classified_counts(summed, mode))
    assert virgin.virgin.dtype == np.uint8

    update, flags = cov.update_compare_batch(fk, fc, off, virgin)
    assert update.keys.dtype == np.int64
    assert update.summed.dtype == np.int64
    assert update.classified.dtype == np.uint8
    assert update.offsets.dtype == np.int64
    assert update.n_unique.dtype == np.int64
    assert update.segment_ids().dtype == np.int64
    assert flags.dtype == np.bool_
