"""Exactness tests for the batched coverage kernels.

``update_compare_batch`` must aggregate each segment exactly like the
scalar ``reset(); update(keys, counts)`` path, ``classified_counts``
must match what ``classify()`` would store, and its flags must be a
conservative superset of the serial compare's ``interesting`` — with
equality whenever the virgin map is not mutated between traces.
``segment_interesting`` must re-derive one trace's flag against the
current state, and a False from it must be final.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (AflCoverage, BigMapCoverage, FlatKeys, VirginMap,
                        aggregate_keys, aggregate_keys_batch,
                        classified_counts)

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
    @pytest.mark.parametrize("cls", [AflCoverage, BigMapCoverage])
    def test_matches_map_classify(self, cls):
        rng = np.random.default_rng(1)
        cov = cls(MAP)
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
                classified_counts(summed), stored), \
                f"{cls.__name__} trial {trial}"


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
        update, flags = cov.update_compare_batch(
            FlatKeys(fk, fc, off), virgin)

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
        update, flags = cov.update_compare_batch(
            FlatKeys(fk, fc, off), virgin)
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
        update, _ = cov.update_compare_batch(FlatKeys(fk, fc, off),
                                             VirginMap(MAP))
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
            update, flags = cov.update_compare_batch(
            FlatKeys(fk, fc, off), virgin)
            for i, (seg, cnt) in enumerate(zip(segs, counts)):
                cov.reset()
                cov.update(seg, cnt)
                truth = cov.classify_and_compare(virgin).interesting
                if truth:
                    assert bool(flags[i])


#: A trace as (key, count) pairs over a small key space, so traces
#: share keys and buckets often.
TRACE = st.lists(st.tuples(st.integers(0, 31), st.integers(1, 300)),
                 max_size=6)


def flatten(traces):
    """Flat int64 keys, counts and offsets of a list of traces."""
    keys = [k for trace in traces for k, _ in trace]
    counts = [c for trace in traces for _, c in trace]
    offsets = np.cumsum([0] + [len(trace) for trace in traces])
    return (np.array(keys, dtype=np.int64),
            np.array(counts, dtype=np.int64), offsets.astype(np.int64))


def run_scalar(cov, trace, virgin):
    """The scalar pipeline on one trace; returns its interest."""
    keys, counts, _ = flatten([trace])
    cov.reset()
    cov.update(keys, counts)
    return cov.classify_and_compare(virgin).interesting


@pytest.mark.parametrize("cls", [AflCoverage, BigMapCoverage])
class TestSegmentInterestingProperty:
    @given(before=st.lists(TRACE, max_size=4),
           batch=st.lists(TRACE, min_size=1, max_size=6),
           after=st.lists(TRACE, max_size=4))
    @settings(max_examples=50, deadline=None, derandomize=True)
    def test_sound_after_merges(self, cls, before, batch, after):
        """After arbitrary merges, ``segment_interesting`` equals the
        flag ``update_compare_batch`` computes against the current
        state, and its False is final: the scalar pipeline finds the
        trace uninteresting."""
        cov, virgin = cls(MAP), VirginMap(MAP)
        for trace in before:
            run_scalar(cov, trace, virgin)
        keys, counts, offsets = flatten(batch)
        batch_keys = FlatKeys(keys, counts, offsets)
        update, _ = cov.update_compare_batch(batch_keys, virgin)
        for trace in after:
            run_scalar(cov, trace, virgin)
        _, flags_now = cov.update_compare_batch(batch_keys, virgin)
        for i, trace in enumerate(batch):
            now = cov.segment_interesting(update, i, virgin)
            assert now == bool(flags_now[i]), f"trace {i}"
            if not now:
                assert not run_scalar(cov, trace, virgin.copy()), \
                    f"trace {i}: stale False"


@pytest.mark.parametrize("cls", [AflCoverage, BigMapCoverage])
def test_hot_path_dtypes(cls):
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
    assert classified_counts(summed).dtype == np.uint8

    cov = cls(MAP)
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
    virgin.merge_sparse(unique, classified_counts(summed))
    assert virgin.virgin.dtype == np.uint8

    update, flags = cov.update_compare_batch(FlatKeys(fk, fc, off),
                                             virgin)
    assert update.keys.dtype == np.int64
    assert update.summed.dtype == np.int64
    assert update.classified.dtype == np.uint8
    assert update.offsets.dtype == np.int64
    assert update.n_unique.dtype == np.int64
    assert flags.dtype == np.bool_


def random_program(rng, n_edges):
    """A random edge tree over a 16-byte input with byte guards, loop
    edges (caps up to 512, so counts reach the 255 saturation) and
    crash sites."""
    from repro.target import Guard
    from tests.target.test_executor import build_program
    edges = [{}]
    for e in range(1, n_edges):
        edge = {"parent": int(rng.integers(0, e)),
                "kind": [Guard.ALWAYS, Guard.BYTE_LT, Guard.BYTE_EQ][
                    int(rng.integers(0, 3))],
                "off": int(rng.integers(0, 16)),
                "val": int(rng.integers(0, 4)) * 64}
        if rng.random() < 0.4:
            edge["loop_off"] = int(rng.integers(0, 16))
            edge["loop_cap"] = int(rng.choice([2, 8, 64, 512]))
        if rng.random() < 0.1:
            edge["crash"] = e
        edges.append(edge)
    return build_program(edges, input_len=16)


def random_rows(rng, n_rows):
    """Zero-padded input rows whose bytes often meet the guards."""
    values = np.array([0, 1, 63, 64, 128, 192, 255], dtype=np.uint8)
    rows = values[rng.integers(0, values.size, size=(n_rows, 16))]
    noise = rng.random((n_rows, 16)) < 0.3
    rows[noise] = rng.integers(0, 256, size=int(noise.sum()),
                               dtype=np.uint8)
    return rows


@pytest.mark.parametrize("cls", [AflCoverage, BigMapCoverage])
class TestDenseFrontProperty:
    """The dense window front (key columns read straight from the
    executor's reach matrix) equals the flat reference: the per-row
    key oracle, ``aggregate_keys_batch`` and ``_new_bits``. Tiny maps
    make plain and loop edges collide, so every column kind — plain,
    lone loop, collision group — is exercised, against a virgin map
    and BigMap index that earlier traces partly filled."""

    @given(seed=st.integers(0, 2**32 - 1),
           n_edges=st.integers(2, 40),
           map_bits=st.integers(4, 7),
           metric=st.sampled_from(["afl-edge", "trace-pc-guard"]))
    @settings(max_examples=40, deadline=None, derandomize=True)
    def test_matches_flat_reference(self, cls, seed, n_edges, map_bits,
                                    metric):
        from repro.instrumentation import build_instrumentation
        from repro.target import Executor
        from tests.instrumentation.key_oracle import oracle_keys_for_batch
        rng = np.random.default_rng(seed)
        map_size = 1 << map_bits
        program = random_program(rng, n_edges)
        executor = Executor(program)
        instr = build_instrumentation(metric, program, map_size,
                                      seed=seed)
        cov, virgin = cls(map_size), VirginMap(map_size)
        for row in random_rows(rng, 4):
            keys, counts = instr.keys_for(executor.execute(row.tobytes()),
                                          row)
            cov.reset()
            cov.update(keys, counts)
            cov.classify_and_compare(virgin)

        rows = random_rows(rng, 24)
        bres = executor.execute_batch(rows)
        update, flags = cov.update_compare_batch(
            instr.columns.window(bres), virgin)

        keys, counts = oracle_keys_for_batch(instr, bres, rows)
        u_keys, summed, u_off = aggregate_keys_batch(
            keys, counts, bres.offsets, map_size)
        classified = classified_counts(summed)
        new = cov._new_bits(u_keys, classified, virgin.virgin)
        assert np.array_equal(update.n_unique, np.diff(u_off))
        assert np.array_equal(bres.traversals, [
            counts[lo:hi].sum() for lo, hi in zip(bres.offsets[:-1],
                                                  bres.offsets[1:])])
        for i in range(bres.n):
            ref = slice(u_off[i], u_off[i + 1])
            assert bool(flags[i]) == bool(new[ref].any()), f"row {i}"
            got = slice(update.offsets[i], update.offsets[i + 1])
            if not flags[i]:
                assert got.start == got.stop, f"row {i}: unflagged segment"
                continue
            assert np.array_equal(update.keys[got], u_keys[ref])
            assert np.array_equal(update.summed[got], summed[ref])
            assert np.array_equal(update.classified[got], classified[ref])
            assert cov.segment_interesting(update, i, virgin)
