"""Unit/property tests for shared bitmap helpers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import aggregate_keys, apply_counts
from repro.core.errors import TraceShapeError


class TestAggregateKeys:
    def test_combines_duplicates(self):
        keys = np.array([5, 2, 5, 2, 5], dtype=np.int64)
        counts = np.array([1, 2, 3, 4, 5], dtype=np.int64)
        unique, summed = aggregate_keys(keys, counts)
        assert unique.tolist() == [2, 5]
        assert summed.tolist() == [6, 9]

    def test_empty(self):
        unique, summed = aggregate_keys(np.empty(0, dtype=np.int64),
                                        np.empty(0, dtype=np.int64))
        assert unique.size == 0 and summed.size == 0

    def test_shape_mismatch(self):
        with pytest.raises(TraceShapeError):
            aggregate_keys(np.array([1, 2]), np.array([1]))

    def test_rejects_2d(self):
        with pytest.raises(TraceShapeError):
            aggregate_keys(np.zeros((2, 2)), np.zeros((2, 2)))

    @given(st.lists(st.tuples(st.integers(0, 63), st.integers(1, 100)),
                    max_size=60))
    def test_total_count_preserved(self, pairs):
        keys = np.array([k for k, _ in pairs], dtype=np.int64)
        counts = np.array([c for _, c in pairs], dtype=np.int64)
        _, summed = aggregate_keys(keys, counts)
        assert summed.sum() == counts.sum()

    @given(st.lists(st.integers(0, 63), max_size=60))
    def test_unique_sorted(self, raw):
        keys = np.array(raw, dtype=np.int64)
        unique, _ = aggregate_keys(keys, np.ones_like(keys))
        assert (np.diff(unique) > 0).all()


class TestApplyCounts:
    def test_saturate_is_sticky(self):
        store = np.array([250], dtype=np.uint8)
        apply_counts(store, np.array([0]), np.array([10]))
        assert store[0] == 255
        apply_counts(store, np.array([0]), np.array([10]))
        assert store[0] == 255

    @given(st.integers(0, 255), st.integers(0, 1000))
    def test_saturate_equals_per_increment_saturate(self, start, add):
        """Summed-then-saturated equals incrementing one at a time."""
        store = np.array([start], dtype=np.uint8)
        apply_counts(store, np.array([0]), np.array([add]))
        expected = start
        for _ in range(add):
            expected = min(expected + 1, 255)
        assert store[0] == expected
