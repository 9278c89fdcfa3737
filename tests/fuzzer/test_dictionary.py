"""Unit tests for dictionary extraction and dictionary-driven havoc."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fuzzer import Mutator, extract_dictionary
from repro.fuzzer.dictionary import DictionaryMixer
from repro.target import Guard, ProgramSpec, generate_program


@pytest.fixture(scope="module")
def magic_program():
    return generate_program(ProgramSpec(
        name="dict-test", n_core_edges=200, input_len=64, seed=41,
        magic_subtree_edges=60, magic_subtree_count=4,
        magic_leaf_edges=6))


class TestExtraction:
    def test_tokens_are_the_magic_operands(self, magic_program):
        tokens = extract_dictionary(magic_program)
        assert tokens
        multi = np.flatnonzero(
            magic_program.kind == np.uint8(Guard.EQ_MULTI))
        expected = {bytes(magic_program.magic[
            e, :int(magic_program.width[e])]) for e in multi.tolist()}
        assert set(tokens) == expected

    def test_deterministic_order(self, magic_program):
        assert extract_dictionary(magic_program) == \
            extract_dictionary(magic_program)

    def test_cap_respected(self, magic_program):
        assert len(extract_dictionary(magic_program, max_tokens=3)) == 3

    def test_no_magic_no_tokens(self):
        plain = generate_program(ProgramSpec(
            name="plain", n_core_edges=50, seed=1))
        assert extract_dictionary(plain) == []


class TestMixer:
    def test_empty_dictionary_is_falsy(self):
        assert not DictionaryMixer([])
        assert DictionaryMixer([b"ab"])

    def test_probability_validated(self):
        with pytest.raises(ValueError):
            DictionaryMixer([b"x"], use_probability=2.0)

    def test_tokens_appear_in_mutants(self, magic_program):
        tokens = extract_dictionary(magic_program)
        token = max(tokens, key=len)
        mutator = Mutator(dictionary=[token])
        batch = mutator.havoc_apply([mutator.havoc_draw(3, bytes(64), 300)])
        hits = sum(token in batch.tobytes(i) for i in range(batch.n))
        assert hits > 10, "dictionary tokens should appear regularly"

    def test_never_applied_when_probability_zero(self):
        mixer = DictionaryMixer([b"\xde\xad\xbe\xef"],
                                use_probability=0.0)
        mat = np.zeros((8, 32), dtype=np.uint8)
        lengths = np.full(8, 32, dtype=np.int64)
        mixer.stamp(mat, lengths, np.random.default_rng(0).random((4, 8)))
        assert not np.any(mat)
        assert (lengths == 32).all()

    def test_empty_buffer_handled(self):
        mixer = DictionaryMixer([b"\x01\x02"], use_probability=1.0)
        mat = np.zeros((1, 8), dtype=np.uint8)
        lengths = np.zeros(1, dtype=np.int64)
        mixer.stamp(mat, lengths, np.random.default_rng(1).random((4, 1)))
        assert mat[0, :int(lengths[0])].tolist() == [1, 2]
        assert not mat[0, 2:].any()

    @pytest.mark.parametrize("insert_u, pos_u, expect", [
        # Overwrite: position scaled over [0, len - token].
        (0.1, 0.0, b"ABxxxx"), (0.1, 0.99, b"xxxxAB"),
        # Insert: position scaled over [0, len].
        (0.9, 0.0, b"ABxxxxxx"), (0.9, 0.5, b"xxxABxxx"),
        (0.9, 0.99, b"xxxxxxAB")])
    def test_overwrite_and_insert_positions(self, insert_u, pos_u, expect):
        mixer = DictionaryMixer([b"AB"], use_probability=1.0)
        mat = np.zeros((1, 16), dtype=np.uint8)
        mat[0, :6] = np.frombuffer(b"xxxxxx", dtype=np.uint8)
        lengths = np.array([6], dtype=np.int64)
        mixer.stamp(mat, lengths,
                    np.array([[0.0], [0.0], [insert_u], [pos_u]]))
        assert mat[0, :int(lengths[0])].tobytes() == expect
        assert not mat[0, int(lengths[0]):].any()

    def test_long_token_is_clamped_and_insert_truncated(self):
        mixer = DictionaryMixer([b"LONGTOKEN"], use_probability=1.0)
        mat = np.zeros((2, 12), dtype=np.uint8)
        mat[0, :4] = 7
        mat[1, :10] = 7
        lengths = np.array([4, 10], dtype=np.int64)
        # Row 0: the token is longer than the row, so it overwrites the
        # whole row, clamped, even though the insert uniform fired.
        # Row 1: an insert at position 5, truncated at the width.
        mixer.stamp(mat, lengths, np.array([[0.0, 0.0], [0.0, 0.0],
                                            [0.9, 0.9], [0.5, 0.5]]))
        assert mat[0].tobytes() == b"LONG" + bytes(8)
        assert lengths[0] == 4
        assert mat[1].tobytes() == bytes([7] * 5) + b"LONGTOK"
        assert lengths[1] == 12


class TestCampaignIntegration:
    def test_dictionary_opens_magic_gates(self, magic_program):
        """With the autodictionary, campaigns reach magic-gated code
        that blind mutation cannot (the laf-intel alternative)."""
        from repro.fuzzer import CampaignConfig, run_campaign
        from repro.target import BuiltBenchmark, generate_seed_corpus
        built = BuiltBenchmark(
            config=None, program=magic_program,
            seeds=generate_seed_corpus(magic_program, 5, seed=2,
                                       magic_probability=0.0),
            scale=1.0)
        base = dict(benchmark="zlib", fuzzer="bigmap",
                    map_size=1 << 16, virtual_seconds=2.0,
                    max_real_execs=4_000, rng_seed=5,
                    compute_true_coverage=True)
        without = run_campaign(CampaignConfig(**base), built=built)
        with_dict = run_campaign(
            CampaignConfig(use_dictionary=True, **base), built=built)
        # Magic region is sizable (60+ edges); the dictionary must
        # unlock coverage blind mutation does not reach.
        assert with_dict.true_edge_coverage > without.true_edge_coverage


def _reference_stamp(buf, u, tokens, use_probability, width):
    """The per-row stamp, one row at a time (AFL's EXTRAS cases with
    the uniforms drawn up front): the oracle for the vectorized
    ``DictionaryMixer.stamp``."""
    use, pick, insert, where = u
    if use >= use_probability:
        return buf
    token = tokens[int(pick * len(tokens))]
    if buf and (insert < 0.75 or len(buf) <= len(token)):
        if len(token) >= len(buf):
            return token[:len(buf)]
        pos = int(where * (len(buf) - len(token) + 1))
        return buf[:pos] + token + buf[pos + len(token):]
    pos = int(where * (len(buf) + 1))
    return (buf[:pos] + token + buf[pos:])[:width]


class TestStampMatchesRowReference:
    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(rows=st.lists(st.binary(max_size=24), min_size=1, max_size=12),
           tokens=st.lists(st.binary(min_size=1, max_size=10),
                           min_size=1, max_size=4),
           width=st.integers(24, 40), seed=st.integers(0, 2**32 - 1))
    def test_vectorized_stamp_equals_per_row_loop(self, rows, tokens,
                                                  width, seed):
        mixer = DictionaryMixer(tokens, use_probability=0.6)
        mat = np.zeros((len(rows), width), dtype=np.uint8)
        for i, row in enumerate(rows):
            mat[i, :len(row)] = np.frombuffer(row, dtype=np.uint8)
        lengths = np.array([len(r) for r in rows], dtype=np.int64)
        u = np.random.default_rng(seed).random((4, len(rows)))
        mixer.stamp(mat, lengths, u)
        for i, row in enumerate(rows):
            want = _reference_stamp(row, u[:, i], tokens, 0.6, width)
            assert mat[i, :int(lengths[i])].tobytes() == want
            assert not mat[i, int(lengths[i]):].any()
