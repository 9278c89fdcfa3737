"""Unit tests for virgin-map compare (has_new_bits semantics)."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.classify import classify_counts
from repro.core.compare import (NEW_EDGE, NEW_HIT_COUNT, NO_NEW_COVERAGE,
                                VirginMap)
from repro.core.errors import MapSizeError

MAP = 256


def classified(pairs, size=MAP):
    trace = np.zeros(size, dtype=np.uint8)
    for idx, count in pairs:
        trace[idx] = count
    return classify_counts(trace)


class TestMergeLevels:
    def test_fresh_map_new_edge(self):
        virgin = VirginMap(MAP)
        result = virgin.merge(classified([(3, 1)]))
        assert result.level == NEW_EDGE
        assert result.new_edges == 1
        assert result.new_buckets == 0

    def test_same_trace_second_time_is_nothing(self):
        virgin = VirginMap(MAP)
        trace = classified([(3, 1), (7, 5)])
        assert virgin.merge(trace).level == NEW_EDGE
        assert virgin.merge(trace).level == NO_NEW_COVERAGE

    def test_new_bucket_on_known_edge(self):
        virgin = VirginMap(MAP)
        virgin.merge(classified([(3, 1)]))
        result = virgin.merge(classified([(3, 10)]))
        assert result.level == NEW_HIT_COUNT
        assert result.new_buckets == 1
        assert result.new_edges == 0

    def test_same_bucket_different_count_is_nothing(self):
        """Counts 4 and 7 share the [4-7] bucket (paper §II-A2)."""
        virgin = VirginMap(MAP)
        virgin.merge(classified([(3, 4)]))
        assert virgin.merge(classified([(3, 7)])).level == NO_NEW_COVERAGE

    def test_new_edge_wins_over_new_bucket(self):
        virgin = VirginMap(MAP)
        virgin.merge(classified([(3, 1)]))
        result = virgin.merge(classified([(3, 10), (9, 1)]))
        assert result.level == NEW_EDGE
        assert result.new_edges == 1
        assert result.new_buckets == 1

    def test_empty_trace(self):
        virgin = VirginMap(MAP)
        assert virgin.merge(np.zeros(MAP, dtype=np.uint8)).level == \
            NO_NEW_COVERAGE

    def test_limit_restricts_compare(self):
        virgin = VirginMap(MAP)
        trace = classified([(100, 1)])
        assert virgin.merge(trace, limit=50).level == NO_NEW_COVERAGE
        assert virgin.merge(trace, limit=101).level == NEW_EDGE


class TestMergeSparse:
    @given(st.lists(st.tuples(st.integers(0, MAP - 1),
                              st.integers(1, 255)),
                    min_size=0, max_size=40),
           st.lists(st.tuples(st.integers(0, MAP - 1),
                              st.integers(1, 255)),
                    min_size=0, max_size=40))
    def test_equivalent_to_full_merge(self, first, second):
        """Sparse and full merges agree on any pair of traces."""
        dense, sparse = VirginMap(MAP), VirginMap(MAP)
        for pairs in (first, second):
            trace = classified(dict(pairs).items())
            indices = np.flatnonzero(trace)
            full = dense.merge(trace)
            spr = sparse.merge_sparse(indices, trace[indices])
            assert (full.level, full.new_edges, full.new_buckets) == \
                (spr.level, spr.new_edges, spr.new_buckets)
        assert np.array_equal(dense.virgin, sparse.virgin)

    def test_empty_indices(self):
        virgin = VirginMap(MAP)
        result = virgin.merge_sparse(np.empty(0, dtype=np.int64),
                                     np.empty(0, dtype=np.uint8))
        assert result.level == NO_NEW_COVERAGE


class TestDiscoveredAndMergeFrom:
    def test_count_discovered(self):
        virgin = VirginMap(MAP)
        assert virgin.count_discovered() == 0
        virgin.merge(classified([(1, 1), (2, 1)]))
        assert virgin.count_discovered() == 2

    def test_reset(self):
        virgin = VirginMap(MAP)
        virgin.merge(classified([(1, 1)]))
        virgin.reset()
        assert virgin.count_discovered() == 0

    def test_copy_is_independent(self):
        a = VirginMap(MAP)
        a.merge(classified([(1, 1)]))
        b = a.copy()
        b.merge(classified([(2, 1)]))
        assert a.count_discovered() == 1
        assert b.count_discovered() == 2

    def test_invalid_size(self):
        with pytest.raises(MapSizeError):
            VirginMap(0)


class TestMergeSparseDuplicates:
    def _dense_from_pairs(self, pairs, size=MAP):
        dense = np.zeros(size, dtype=np.uint8)
        for idx, val in pairs:
            dense[idx] |= val  # the dense map holds the union of buckets
        return dense

    def test_duplicate_indices_match_dense_merge(self):
        pairs = [(3, 0x01), (3, 0x08), (9, 0x02), (9, 0x02), (9, 0x20)]
        indices = np.asarray([p[0] for p in pairs], dtype=np.int64)
        values = np.asarray([p[1] for p in pairs], dtype=np.uint8)

        sparse_virgin, dense_virgin = VirginMap(MAP), VirginMap(MAP)
        sparse = sparse_virgin.merge_sparse(indices, values)
        dense = dense_virgin.merge(self._dense_from_pairs(pairs))

        assert (sparse.level, sparse.new_edges, sparse.new_buckets) == \
            (dense.level, dense.new_edges, dense.new_buckets)
        assert np.array_equal(sparse_virgin.virgin, dense_virgin.virgin)

    def test_duplicate_indices_on_partially_known_map(self):
        sparse_virgin, dense_virgin = VirginMap(MAP), VirginMap(MAP)
        for v in (sparse_virgin, dense_virgin):
            v.merge(classified([(3, 1), (7, 1)]))

        pairs = [(3, 0x01), (3, 0x02), (7, 0x01), (11, 0x04), (11, 0x04)]
        indices = np.asarray([p[0] for p in pairs], dtype=np.int64)
        values = np.asarray([p[1] for p in pairs], dtype=np.uint8)
        sparse = sparse_virgin.merge_sparse(indices, values)
        dense = dense_virgin.merge(self._dense_from_pairs(pairs))

        assert (sparse.level, sparse.new_edges, sparse.new_buckets) == \
            (dense.level, dense.new_edges, dense.new_buckets)
        assert np.array_equal(sparse_virgin.virgin, dense_virgin.virgin)

    @given(st.lists(st.tuples(st.integers(0, MAP - 1),
                              st.sampled_from([1, 2, 4, 8, 16, 32, 64,
                                               128])),
                    min_size=0, max_size=40))
    def test_merge_sparse_always_matches_dense(self, pairs):
        indices = np.asarray([p[0] for p in pairs], dtype=np.int64)
        values = np.asarray([p[1] for p in pairs], dtype=np.uint8)

        sparse_virgin, dense_virgin = VirginMap(MAP), VirginMap(MAP)
        sparse = sparse_virgin.merge_sparse(indices, values)
        dense = dense_virgin.merge(self._dense_from_pairs(pairs))

        assert (sparse.level, sparse.new_edges, sparse.new_buckets) == \
            (dense.level, dense.new_edges, dense.new_buckets)
        assert np.array_equal(sparse_virgin.virgin, dense_virgin.virgin)
