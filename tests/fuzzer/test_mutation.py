"""Unit tests for the mutation engine."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fuzzer import Mutator


def make_mutator(seed=0, **kwargs):
    return Mutator(np.random.default_rng(np.random.PCG64(seed)),
                   **kwargs)


def havoc(mutator, data, n, splice_with=None):
    return mutator.havoc_apply([mutator.havoc_draw(data, n, splice_with)])


def havoc_one(mutator, data, splice_with=None):
    return havoc(mutator, data, 1, splice_with).tobytes(0)


class TestHavoc:
    """Single-input havoc: one-row batches through havoc_draw/apply."""

    def test_deterministic_for_same_stream(self):
        a, b = make_mutator(7), make_mutator(7)
        data = bytes(range(64))
        for _ in range(20):
            assert havoc_one(a, data) == havoc_one(b, data)

    def test_usually_changes_input(self):
        mutator = make_mutator(1)
        data = bytes(64)
        changed = sum(havoc_one(mutator, data) != data for _ in range(50))
        assert changed >= 45

    def test_length_bounds(self):
        mutator = make_mutator(2, max_len=128, min_len=4)
        data = bytes(100)
        for _ in range(300):
            mutant = havoc_one(mutator, data)
            assert 4 <= len(mutant) <= 128

    def test_empty_input_handled(self):
        mutator = make_mutator(3)
        mutant = havoc_one(mutator, b"")
        assert len(mutant) >= 1

    def test_splice_mixes_partners(self):
        mutator = make_mutator(4)
        a = bytes([0xAA]) * 64
        b = bytes([0xBB]) * 64
        spliced_bytes = set()
        for _ in range(40):
            spliced_bytes.update(havoc_one(mutator, a, splice_with=b))
        assert 0xBB in spliced_bytes, "splice partner bytes never appear"

    def test_invalid_bounds(self):
        with pytest.raises(ValueError):
            make_mutator(max_len=2, min_len=4)

    @settings(max_examples=30, deadline=None)
    @given(st.binary(min_size=1, max_size=256), st.integers(0, 1000),
           st.integers(1, 16), st.integers(4, 512))
    def test_never_crashes_on_arbitrary_input(self, data, seed, n,
                                              max_len):
        """min_len only guards deletions — inputs that are already
        shorter may stay short, but mutants are never empty, never
        exceed the cap, and stay zero-padded past their length."""
        mutator = make_mutator(seed, max_len=max_len)
        batch = havoc(mutator, data, n)
        assert batch.n == n
        assert (batch.lengths >= 1).all()
        assert (batch.lengths <= max(mutator.max_len, len(data))).all()
        for i in range(n):
            assert not batch.data[i, int(batch.lengths[i]):].any()


class TestHavocBatch:
    def test_deterministic_for_same_stream(self):
        a, b = make_mutator(7), make_mutator(7)
        data = bytes(range(64))
        for _ in range(5):
            ba = havoc(a, data, 16, splice_with=bytes(range(32)))
            bb = havoc(b, data, 16, splice_with=bytes(range(32)))
            assert np.array_equal(ba.data, bb.data)
            assert np.array_equal(ba.lengths, bb.lengths)

    def test_zero_padding_invariant(self):
        mutator = make_mutator(3)
        for trial in range(10):
            batch = havoc(mutator, bytes(range(40)), 32,
                          splice_with=bytes(range(20)))
            for i in range(batch.n):
                tail = batch.data[i, int(batch.lengths[i]):]
                assert not tail.any(), f"trial {trial} row {i}"

    def test_length_bounds(self):
        mutator = make_mutator(5, max_len=128, min_len=4)
        for data_len in (1, 4, 40, 128):
            batch = havoc(mutator, bytes(data_len), 24)
            assert batch.width <= 128
            # Deletes never shrink below min_len; shorter inputs can
            # only grow.
            assert (batch.lengths >= min(data_len, 4)).all()
            assert (batch.lengths <= batch.width).all()

    def test_usually_changes_input(self):
        mutator = make_mutator(1)
        data = bytes(64)
        batch = havoc(mutator, data, 50)
        changed = sum(batch.tobytes(i) != data for i in range(50))
        assert changed >= 45

    def test_rows_are_diverse(self):
        mutator = make_mutator(9)
        batch = havoc(mutator, bytes(range(64)), 64)
        assert len({batch.tobytes(i) for i in range(64)}) >= 32

    def test_empty_input_yields_min_len_rows(self):
        mutator = make_mutator(2, min_len=4)
        batch = havoc(mutator, b"", 8)
        assert (batch.lengths >= 4).all()
        assert any(batch.row(i).any() for i in range(batch.n))

    def test_splice_mixes_partner_bytes(self):
        mutator = make_mutator(11)
        data, partner = b"\x01" * 64, b"\x02" * 64
        batch = havoc(mutator, data, 40, splice_with=partner)
        has_partner = sum(bool((batch.row(i) == 2).any())
                          for i in range(batch.n))
        assert has_partner >= 10

    def test_dictionary_tokens_appear(self):
        token = b"MAGICTOKEN"
        mutator = Mutator(np.random.default_rng(np.random.PCG64(4)),
                          dictionary=[token])
        batch = havoc(mutator, bytes(64), 80)
        stamped = sum(token in batch.tobytes(i) for i in range(batch.n))
        assert stamped >= 5

    def test_row_views_match_tobytes(self):
        mutator = make_mutator(6)
        batch = havoc(mutator, bytes(range(32)), 10)
        for i, view in enumerate(batch.rows()):
            assert view.tobytes() == batch.tobytes(i)
