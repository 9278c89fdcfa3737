"""Unit tests for dictionary extraction and dictionary-driven havoc."""

import numpy as np
import pytest

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
        mutator = Mutator(np.random.default_rng(3),
                          dictionary=[token])
        batch = mutator.havoc_apply([mutator.havoc_draw(bytes(64), 300)])
        hits = sum(token in batch.tobytes(i) for i in range(batch.n))
        assert hits > 10, "dictionary tokens should appear regularly"

    def test_never_applied_when_probability_zero(self):
        mixer = DictionaryMixer([b"\xde\xad\xbe\xef"],
                                use_probability=0.0)
        rng = np.random.default_rng(0)
        buf = np.zeros(32, dtype=np.uint8)
        out = mixer.maybe_apply(buf, rng)
        assert not np.any(out)

    def test_empty_buffer_handled(self):
        mixer = DictionaryMixer([b"\x01\x02"], use_probability=1.0)
        rng = np.random.default_rng(1)
        out = mixer.maybe_apply(np.empty(0, dtype=np.uint8), rng)
        assert out.tolist() == [1, 2]


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
