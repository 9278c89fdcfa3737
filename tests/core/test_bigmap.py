"""Unit and property tests for the BigMap two-level bitmap."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import BigMapCoverage, VirginMap
from repro.core.errors import KeyRangeError, MapSizeError

MAP = 1 << 12


def arr(values):
    return np.asarray(values, dtype=np.int64)


class TestSlotAssignment:
    def test_slots_are_a_dense_prefix(self):
        cov = BigMapCoverage(MAP)
        cov.update(arr([100, 4000, 7]), arr([1, 1, 1]))
        assert cov.used_key == 3
        slots = sorted(cov.slot_for_key(k) for k in (100, 4000, 7))
        assert slots == [0, 1, 2]

    def test_slot_is_stable_across_resets_and_executions(self):
        """Paper §IV-B: the same edge points to the same location for
        all test cases, because reset never touches the index."""
        cov = BigMapCoverage(MAP)
        cov.update(arr([9, 50]), arr([1, 1]))
        slot_9 = cov.slot_for_key(9)
        for _ in range(5):
            cov.reset()
            cov.update(arr([9, 200 + _]), arr([2, 1]))
            assert cov.slot_for_key(9) == slot_9

    def test_unknown_key_has_no_slot(self):
        cov = BigMapCoverage(MAP)
        cov.update(arr([5]), arr([1]))
        assert cov.slot_for_key(6) == BigMapCoverage.UNASSIGNED
        assert cov.count_for_key(6) == 0

    def test_duplicate_keys_in_one_trace_share_a_slot(self):
        cov = BigMapCoverage(MAP)
        cov.update(arr([5, 5, 5]), arr([1, 2, 3]))
        assert cov.used_key == 1
        assert cov.count_for_key(5) == 6

    def test_used_key_monotone(self):
        cov = BigMapCoverage(MAP)
        previous = 0
        rng = np.random.default_rng(0)
        for _ in range(20):
            keys = rng.integers(0, MAP, size=30)
            cov.reset()
            cov.update(keys, np.ones(30, dtype=np.int64))
            assert cov.used_key >= previous
            previous = cov.used_key

    def test_completely_filled_map_still_works(self):
        """With an index as large as the map, every key fits by
        construction (used_key can never exceed the distinct keys,
        which are bounded by the map size); filling all slots must
        leave the structure consistent."""
        cov = BigMapCoverage(8)
        cov.update(arr([0, 1, 2, 3]), np.ones(4, dtype=np.int64))
        cov.reset()
        cov.update(arr([4, 5, 6, 7]), np.ones(4, dtype=np.int64))
        assert cov.used_key == 8
        cov.check_invariants()
        cov.reset()
        cov.update(arr(range(8)), np.ones(8, dtype=np.int64))
        assert cov.used_key == 8


class TestOperations:
    def test_reset_clears_only_counts(self):
        cov = BigMapCoverage(MAP)
        cov.update(arr([3, 9]), arr([1, 4]))
        cov.reset()
        assert cov.count_for_key(3) == 0
        assert cov.used_key == 2
        assert cov.slot_for_key(9) != BigMapCoverage.UNASSIGNED

    def test_classify_buckets_used_region(self):
        cov = BigMapCoverage(MAP)
        cov.update(arr([1, 2, 3]), arr([1, 5, 200]))
        cov.classify()
        assert cov.count_for_key(1) == 1
        assert cov.count_for_key(2) == 8
        assert cov.count_for_key(3) == 128

    def test_compare_levels(self):
        cov = BigMapCoverage(MAP)
        virgin = VirginMap(MAP)
        cov.update(arr([7]), arr([1]))
        assert cov.classify_and_compare(virgin).level == 2
        cov.reset()
        cov.update(arr([7]), arr([1]))
        assert cov.classify_and_compare(virgin).level == 0
        cov.reset()
        cov.update(arr([7]), arr([40]))
        assert cov.classify_and_compare(virgin).level == 1

    def test_counts_saturate_by_default(self):
        cov = BigMapCoverage(MAP)
        cov.update(arr([5]), arr([300]))
        assert cov.count_for_key(5) == 255

    def test_key_validation(self):
        cov = BigMapCoverage(MAP)
        with pytest.raises(KeyRangeError):
            cov.update(arr([MAP]), arr([1]))
        with pytest.raises(KeyRangeError):
            cov.update(arr([-1]), arr([1]))

    def test_map_size_must_be_power_of_two(self):
        with pytest.raises(MapSizeError):
            BigMapCoverage(1000)

    def test_active_bytes_tracks_used_key(self):
        cov = BigMapCoverage(MAP)
        assert cov.active_bytes() == 0
        cov.update(arr([1, 2]), arr([1, 1]))
        assert cov.active_bytes() == 2


class TestHashPathIdentity:
    def test_paper_section_4d_example(self):
        """The P1/P2/P3 example: same path must hash equal even after
        used_key grew in between (hash up to last non-zero, not
        used_key)."""
        cov = BigMapCoverage(MAP)
        # P1: A->B->C (keys 10, 20)
        cov.reset()
        cov.update(arr([10, 20]), arr([1, 1]))
        cov.classify()
        h1 = cov.hash()
        # P2: A->B->C->D extends used_key to 3.
        cov.reset()
        cov.update(arr([10, 20, 30]), arr([1, 1, 1]))
        cov.classify()
        assert cov.used_key == 3
        # P3: A->B->C again.
        cov.reset()
        cov.update(arr([10, 20]), arr([1, 1]))
        cov.classify()
        assert cov.hash() == h1

    def test_different_paths_hash_differently(self):
        cov = BigMapCoverage(MAP)
        cov.update(arr([10, 20]), arr([1, 1]))
        cov.classify()
        h1 = cov.hash()
        cov.reset()
        cov.update(arr([10]), arr([1]))
        cov.classify()
        assert cov.hash() != h1

    def test_empty_map_hash_is_stable(self):
        cov = BigMapCoverage(MAP)
        assert cov.hash() == BigMapCoverage(MAP).hash()


@settings(max_examples=60, deadline=None)
@given(st.lists(st.lists(st.tuples(st.integers(0, MAP - 1),
                                   st.integers(1, 300)),
                         min_size=0, max_size=30),
                min_size=1, max_size=12))
def test_invariants_hold_under_arbitrary_traces(traces):
    """Property: structural invariants survive any update sequence."""
    cov = BigMapCoverage(MAP)
    for trace in traces:
        cov.reset()
        if trace:
            keys, counts = zip(*trace)
            cov.update(arr(keys), arr(counts))
        cov.classify()
        cov.check_invariants()
    distinct = len({k for trace in traces for k, _ in trace})
    assert cov.used_key == distinct


class TestHashSingleScan:
    def test_hash_scans_the_condensed_region_once(self, monkeypatch):
        """The CRC trim scans the condensed region for its last
        non-zero byte exactly once per hash() call."""
        import repro.core.hashing as hashing_mod
        from repro.core.hashing import last_nonzero_index

        calls = []

        def counting(bitmap, search_limit=None):
            calls.append(1)
            return last_nonzero_index(bitmap, search_limit)

        monkeypatch.setattr(hashing_mod, "last_nonzero_index", counting)

        cov = BigMapCoverage(MAP)
        cov.update(arr([5, 900, 33]), arr([1, 2, 3]))
        cov.classify()
        digest = cov.hash()
        assert len(calls) == 1

        from repro.core.hashing import crc32_trimmed
        assert digest == crc32_trimmed(cov.cov, cov.used_key)

    def test_hash_of_empty_map_single_scan(self, monkeypatch):
        import repro.core.hashing as hashing_mod
        from repro.core.hashing import last_nonzero_index

        calls = []

        def counting(bitmap, search_limit=None):
            calls.append(1)
            return last_nonzero_index(bitmap, search_limit)

        monkeypatch.setattr(hashing_mod, "last_nonzero_index", counting)

        cov = BigMapCoverage(MAP)
        digest = cov.hash()
        assert len(calls) == 1
        import zlib
        assert digest == zlib.crc32(b"")
