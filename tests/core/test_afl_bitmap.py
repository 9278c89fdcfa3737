"""Unit tests for the AFL flat bitmap, incl. sparse/dense equivalence."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import AflCoverage, VirginMap
from repro.core.errors import KeyRangeError

MAP = 1 << 12


def arr(values):
    return np.asarray(values, dtype=np.int64)


class TestBasicSemantics:
    def test_update_accumulates(self):
        cov = AflCoverage(MAP)
        cov.update(arr([3, 3, 9]), arr([1, 2, 5]))
        assert cov.count_for_key(3) == 3
        assert cov.count_for_key(9) == 5

    def test_reset_zeroes(self):
        cov = AflCoverage(MAP)
        cov.update(arr([3]), arr([7]))
        cov.reset()
        assert cov.count_for_key(3) == 0
        assert cov.nonzero_locations().size == 0

    def test_update_returns_unique_count(self):
        cov = AflCoverage(MAP)
        assert cov.update(arr([1, 1, 2, 3]), arr([1, 1, 1, 1])) == 3
        assert cov.update(arr([]), arr([])) == 0

    def test_colliding_keys_alias(self):
        """Two 'edges' mapping to one key merge their counts — the
        collision ambiguity the paper studies."""
        cov = AflCoverage(MAP)
        cov.update(arr([42, 42]), arr([1, 1]))
        assert cov.count_for_key(42) == 2
        assert cov.nonzero_locations().tolist() == [42]

    def test_classify_in_place(self):
        cov = AflCoverage(MAP)
        cov.update(arr([5]), arr([100]))
        cov.classify()
        assert cov.count_for_key(5) == 64

    def test_compare_against_virgin(self):
        cov = AflCoverage(MAP)
        virgin = VirginMap(MAP)
        cov.update(arr([5]), arr([1]))
        assert cov.classify_and_compare(virgin).level == 2
        cov.reset()
        cov.update(arr([5]), arr([1]))
        assert cov.classify_and_compare(virgin).level == 0

    def test_key_range_checked(self):
        with pytest.raises(KeyRangeError):
            AflCoverage(MAP).update(arr([MAP + 1]), arr([1]))

    def test_active_bytes_is_map_size(self):
        assert AflCoverage(MAP).active_bytes() == MAP

    def test_hash_consistent_for_same_trace(self):
        cov = AflCoverage(MAP)
        cov.update(arr([1, 2]), arr([1, 1]))
        cov.classify()
        h1 = cov.hash()
        cov.reset()
        cov.update(arr([1, 2]), arr([1, 1]))
        cov.classify()
        assert cov.hash() == h1

    def test_hash_differs_for_different_traces(self):
        cov = AflCoverage(MAP)
        cov.update(arr([1]), arr([1]))
        cov.classify()
        h1 = cov.hash()
        cov.reset()
        cov.update(arr([2]), arr([1]))
        cov.classify()
        assert cov.hash() != h1


@settings(max_examples=40, deadline=None)
@given(st.lists(st.lists(st.tuples(st.integers(0, MAP - 1),
                                   st.integers(1, 300)),
                         min_size=0, max_size=25),
                min_size=1, max_size=8))
def test_sparse_and_dense_host_ops_are_equivalent(traces):
    """The simulation fast path must be functionally invisible:
    byte-identical maps, identical compare outcomes, identical
    nonzero locations, across arbitrary execution sequences."""
    sparse = AflCoverage(MAP, sparse_host_ops=True)
    dense = AflCoverage(MAP, sparse_host_ops=False)
    virgin_s, virgin_d = VirginMap(MAP), VirginMap(MAP)
    for trace in traces:
        sparse.reset()
        dense.reset()
        if trace:
            keys, counts = zip(*trace)
            n_s = sparse.update(arr(keys), arr(counts))
            n_d = dense.update(arr(keys), arr(counts))
            assert n_s == n_d
        r_s = sparse.classify_and_compare(virgin_s)
        r_d = dense.classify_and_compare(virgin_d)
        assert (r_s.level, r_s.new_edges, r_s.new_buckets) == \
            (r_d.level, r_d.new_edges, r_d.new_buckets)
        assert np.array_equal(sparse.trace, dense.trace)
        assert np.array_equal(sparse.nonzero_locations(),
                              dense.nonzero_locations())
    assert np.array_equal(virgin_s.virgin, virgin_d.virgin)


def test_sparse_hash_identifies_paths():
    """The sparse hash is a different function from CRC32-of-full-map,
    but must still be a path identifier: equal iff maps equal."""
    cov = AflCoverage(MAP, sparse_host_ops=True)
    cov.update(arr([10, 20]), arr([1, 1]))
    cov.classify()
    h1 = cov.hash()
    cov.reset()
    cov.update(arr([10, 20]), arr([1, 1]))
    cov.classify()
    assert cov.hash() == h1
    cov.reset()
    cov.update(arr([10, 21]), arr([1, 1]))
    cov.classify()
    assert cov.hash() != h1
