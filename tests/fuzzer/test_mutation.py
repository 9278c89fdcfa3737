"""Unit tests for the mutation engine."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fuzzer import Campaign, CampaignConfig, Mutator
from repro.fuzzer import mutation
from repro.target import get_benchmark


class KeyedMutator(Mutator):
    """A mutator fed one key per draw from its own stream, the way a
    campaign feeds its mutator."""

    def __init__(self, seed, **kwargs):
        super().__init__(**kwargs)
        self.keys = np.random.PCG64(seed)

    def draw(self, data, n, splice_with=None):
        return self.havoc_draw(self.keys.random_raw(), data, n,
                               splice_with)


def make_mutator(seed=0, **kwargs):
    return KeyedMutator(seed, **kwargs)


def havoc(mutator, data, n, splice_with=None):
    return mutator.havoc_apply([mutator.draw(data, n, splice_with)])


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
        mutator = make_mutator(4, dictionary=[token])
        batch = havoc(mutator, bytes(64), 80)
        stamped = sum(token in batch.tobytes(i) for i in range(batch.n))
        assert stamped >= 5

    def test_row_views_match_tobytes(self):
        mutator = make_mutator(6)
        batch = havoc(mutator, bytes(range(32)), 10)
        assert len(batch) == batch.n == 10
        for i in range(len(batch)):
            assert batch[i].tobytes() == batch.tobytes(i)
            assert batch[i].size == batch.lengths[i]


#: A window of havoc specs, minus the keys: ``(data, energy,
#: partner)`` per seed.
_WINDOWS = st.lists(st.tuples(st.binary(max_size=80), st.integers(0, 12),
                              st.one_of(st.none(), st.binary(max_size=60))),
                    min_size=1, max_size=4)
_TOKENS = [b"TOKEN", b"\xff\xfe", b"0123456789ABCDEF"]


def _keyed(mutator, window):
    """The window's specs, one key per seed from the mutator's stream."""
    return [(mutator.keys.random_raw(), base, n, partner)
            for base, n, partner in window]


class TestShardPurity:
    """A worker process draws the specs overlapping its shard of a
    window and applies only those rows at the window's width. That is
    sound only if a draw is a pure function of its spec and
    ``havoc_apply`` is a pure function of ``(draws, width)`` — the
    dictionary stamp included."""

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), window=_WINDOWS,
           dictionary=st.booleans(), data=st.data())
    def test_any_row_range_matches_the_full_apply(self, seed, window,
                                                  dictionary, data):
        mutator = make_mutator(seed, max_len=256,
                               dictionary=_TOKENS if dictionary else None)
        specs = _keyed(mutator, window)
        full = mutator.havoc_apply(mutator.draw_rows(specs))
        total = full.n
        lo = data.draw(st.integers(0, total), label="lo")
        hi = data.draw(st.integers(lo, total), label="hi")
        part = mutator.havoc_apply(mutator.draw_rows(specs, lo, hi),
                                   full.width)
        assert part.data.shape == (hi - lo, full.width)
        assert np.array_equal(part.data, full.data[lo:hi])
        assert np.array_equal(part.lengths, full.lengths[lo:hi])

        # Worker-style cuts, including shards with zero rows when the
        # window has fewer rows than workers: the parts concatenate
        # back to the whole window.
        for workers in (2, 3, 4):
            cuts = [total * k // workers for k in range(workers + 1)]
            parts = [mutator.havoc_apply(mutator.draw_rows(specs, a, b),
                                         full.width)
                     for a, b in zip(cuts, cuts[1:])]
            assert np.array_equal(
                np.concatenate([p.data for p in parts]), full.data)
            assert np.array_equal(
                np.concatenate([p.lengths for p in parts]), full.lengths)

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), window=_WINDOWS,
           dictionary=st.booleans(), data=st.data())
    def test_a_draw_depends_only_on_its_own_spec(self, seed, window,
                                                 dictionary, data):
        """Drawing a window's specs in shuffled order, or one spec
        alone, gives bit-identical rows."""
        mutator = make_mutator(seed, max_len=256,
                               dictionary=_TOKENS if dictionary else None)
        specs = _keyed(mutator, window)
        full = mutator.havoc_apply(mutator.draw_rows(specs))
        bounds = np.cumsum([0] + [n for _, _, n, _ in specs])
        order = data.draw(st.permutations(range(len(specs))),
                          label="order")
        shuffled = mutator.havoc_apply(
            mutator.draw_rows([specs[j] for j in order]), full.width)
        at = 0
        for j in order:
            rows = slice(bounds[j], bounds[j + 1])
            alone = mutator.havoc_apply(mutator.draw_rows([specs[j]]),
                                        full.width)
            moved = slice(at, at + alone.n)
            at += alone.n
            for batch, cut in ((alone, slice(None)), (shuffled, moved)):
                assert np.array_equal(batch.data[cut], full.data[rows])
                assert np.array_equal(batch.lengths[cut],
                                      full.lengths[rows])

    def test_empty_apply_takes_the_explicit_width(self):
        mutator = make_mutator(0, min_len=4)
        assert mutator.havoc_apply([]).data.shape == (0, 4)
        assert mutator.havoc_apply([], 37).data.shape == (0, 37)
        draw = mutator.draw(bytes(10), 5)
        assert mutator.havoc_apply([draw], 200).data.shape == (5, 200)
        assert mutator.havoc_apply([draw.rows(2, 2)], 200).data.shape \
            == (0, 200)

    def test_dictionary_draws_extend_the_stream_only(self):
        """A dictionary leaves a draw's havoc randomness untouched: its
        stamp uniforms come after every havoc draw of the seed."""
        plain = Mutator()
        stamped = Mutator(dictionary=[b"AB"])
        a = plain.havoc_draw(5, bytes(range(30)), 9)
        b = stamped.havoc_draw(5, bytes(range(30)), 9)
        assert a.stamp is None and b.stamp.shape == (4, 9)
        for name in ("n_ops", "op", "f1", "f2", "f3", "f4", "sel", "val"):
            assert np.array_equal(getattr(a, name), getattr(b, name))


@st.composite
def _length_windows(draw):
    """Length bounds, a window of specs and an explicit width (or None)
    that reach every corner of the length-op phase: empty bases, bases
    at ``min_len`` (deletes fall back), bases near ``max_len`` with a
    ``max_len`` under the 64-byte floor (inserts hit the width guard),
    splices on and off, and widths wider than any draw's."""
    min_len = draw(st.integers(1, 8), label="min_len")
    max_len = draw(st.one_of(st.integers(min_len, 48),
                             st.integers(64, 200)), label="max_len")

    def sized(label):
        n = draw(st.one_of(st.just(0), st.just(min_len),
                           st.integers(max(0, max_len - 3), max_len + 2),
                           st.integers(0, max_len)), label=label)
        return draw(st.binary(min_size=n, max_size=n), label=label)

    window = [(sized("base"), draw(st.integers(1, 40), label="n"),
               sized("partner") if draw(st.booleans(), label="splice")
               else None)
              for _ in range(draw(st.integers(1, 4), label="draws"))]
    extra = draw(st.one_of(st.none(), st.integers(1, 80)), label="extra")
    return min_len, max_len, window, extra


class TestLengthOpPaths:
    """Phase A of ``havoc_apply`` finishes its stacks with the scalar
    ``_length_tail`` once a step has at most ``_SCALAR_STEP_CUTOFF``
    mutants left; the vectorized window steps run before that. Both
    paths must build the same mutants, whichever step the switch falls
    on."""

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), shape=_length_windows())
    def test_cutoff_never_changes_the_mutants(self, seed, shape):
        min_len, max_len, window, extra = shape
        mutator = make_mutator(seed, min_len=min_len, max_len=max_len)
        draws = mutator.draw_rows(_keyed(mutator, window))
        width = None if extra is None else \
            max(d.width for d in draws) + extra
        prod = mutator.havoc_apply(draws, width)
        for cutoff in (0, prod.n):  # all vectorized, all scalar
            with mock.patch.object(mutation, "_SCALAR_STEP_CUTOFF",
                                   cutoff):
                other = mutator.havoc_apply(draws, width)
            assert np.array_equal(other.data, prod.data), cutoff
            assert np.array_equal(other.lengths, prod.lengths), cutoff
        assert prod.lengths.max() <= prod.width
        past = np.arange(prod.width) >= prod.lengths[:, None]
        assert not prod.data[past].any()


@pytest.fixture(scope="module")
def zlib_small():
    return get_benchmark("zlib").build(scale=0.2, seed_scale=1.0)


class TestCampaignKeyStream:
    @pytest.mark.parametrize("energy", [1, 16, 300])
    def test_one_word_per_draw_whatever_the_energy(self, zlib_small,
                                                   energy):
        """Scheduling a seed with energy takes exactly one word more
        from the campaign stream than scheduling it with none — the
        draw's key — and nothing else moves it."""
        after = {}
        for e in (0, energy):
            campaign = Campaign(
                CampaignConfig(benchmark="zlib", fuzzer="bigmap",
                               map_size=1 << 16, scale=0.2,
                               seed_scale=1.0, batch_window=1),
                built=zlib_small)
            campaign.start()
            campaign.scheduler.energy_for = lambda seed, e=e: e
            window = campaign._collect_window()
            after[e] = campaign.rng.bit_generator.state
        assert window is not None and window[0][0][2] == energy
        words = np.random.PCG64()
        words.state = after[0]
        assert window[0][0][0] == words.random_raw()
        assert words.state == after[energy]
