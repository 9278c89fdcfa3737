"""Unit tests for the mutation engine."""

import dataclasses

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


def _assert_draws_equal(a, b):
    for field in dataclasses.fields(a):
        va, vb = getattr(a, field.name), getattr(b, field.name)
        if isinstance(va, np.ndarray):
            assert np.array_equal(va, vb), field.name
            assert va.dtype == vb.dtype, field.name
        else:
            assert va == vb, field.name


def _shard(draws, lo, hi):
    """Rows ``[lo, hi)`` of a window, as row-sliced draws (what a
    worker applies)."""
    bounds = np.cumsum([0] + [d.n for d in draws])
    return [d.rows(max(lo - start, 0), min(hi - start, d.n))
            for d, start in zip(draws, bounds)
            if start < hi and start + d.n > lo]


class TestShardPurity:
    """A worker process re-draws its shard of a window from recipes and
    applies only those rows at the window's width. That is sound only
    if ``havoc_apply`` is a pure function of ``(draws, width)`` — the
    dictionary stamp included — and re-drawing reproduces a draw bit
    for bit."""

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1),
           window=st.lists(st.tuples(st.binary(max_size=80),
                                     st.integers(0, 12),
                                     st.one_of(st.none(),
                                               st.binary(max_size=60))),
                           min_size=1, max_size=4),
           dictionary=st.booleans(), data=st.data())
    def test_any_row_range_matches_the_full_apply(self, seed, window,
                                                  dictionary, data):
        tokens = [b"TOKEN", b"\xff\xfe", b"0123456789ABCDEF"]
        mutator = make_mutator(seed, max_len=256,
                               dictionary=tokens if dictionary else None)
        draws = [mutator.havoc_draw(base, n, partner)
                 for base, n, partner in window]
        state = mutator.rng.bit_generator.state
        for draw in draws:
            _assert_draws_equal(mutator.redraw(draw.recipe), draw)
        assert mutator.rng.bit_generator.state == state

        full = mutator.havoc_apply(draws)
        total = full.n
        lo = data.draw(st.integers(0, total), label="lo")
        hi = data.draw(st.integers(lo, total), label="hi")
        part = mutator.havoc_apply(_shard(draws, lo, hi), full.width)
        assert part.data.shape == (hi - lo, full.width)
        assert np.array_equal(part.data, full.data[lo:hi])
        assert np.array_equal(part.lengths, full.lengths[lo:hi])

        # Worker-style cuts, including shards with zero rows when the
        # window has fewer rows than workers: the parts concatenate
        # back to the whole window.
        for workers in (2, 3, 4):
            cuts = [total * k // workers for k in range(workers + 1)]
            parts = [mutator.havoc_apply(_shard(draws, a, b), full.width)
                     for a, b in zip(cuts, cuts[1:])]
            assert np.array_equal(
                np.concatenate([p.data for p in parts]), full.data)
            assert np.array_equal(
                np.concatenate([p.lengths for p in parts]), full.lengths)
        # Applying consumed no randomness.
        assert mutator.rng.bit_generator.state == state

    def test_empty_apply_takes_the_explicit_width(self):
        mutator = make_mutator(0, min_len=4)
        assert mutator.havoc_apply([]).data.shape == (0, 4)
        assert mutator.havoc_apply([], 37).data.shape == (0, 37)
        draw = mutator.havoc_draw(bytes(10), 5)
        assert mutator.havoc_apply([draw], 200).data.shape == (5, 200)
        assert mutator.havoc_apply([draw.rows(2, 2)], 200).data.shape \
            == (0, 200)

    def test_dictionary_draws_extend_the_stream_only(self):
        """Without a dictionary the stream is untouched; with one, the
        stamp uniforms come after every havoc draw of the seed."""
        plain = make_mutator(5)
        stamped = make_mutator(5, dictionary=[b"AB"])
        a = plain.havoc_draw(bytes(range(30)), 9)
        b = stamped.havoc_draw(bytes(range(30)), 9)
        assert a.stamp is None and b.stamp.shape == (4, 9)
        assert np.array_equal(a.op, b.op) and np.array_equal(a.val, b.val)
        assert np.array_equal(b.stamp, plain.rng.random((4, 9)))
        assert plain.rng.bit_generator.state == \
            stamped.rng.bit_generator.state
