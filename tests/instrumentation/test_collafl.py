"""Unit tests for the CollAFL comparator instrumentation."""

import numpy as np
import pytest

from repro.instrumentation import (CollAflInstrumentation,
                                   build_instrumentation,
                                   required_map_size)
from repro.target import Executor, ProgramSpec, generate_program


@pytest.fixture(scope="module")
def program():
    return generate_program(ProgramSpec(
        name="collafl-test", n_core_edges=500, input_len=64, seed=31,
        static_edges=100_000))


class TestStaticAssignment:
    def test_collision_free_when_map_fits(self, program):
        inst = CollAflInstrumentation(program, 1 << 16,
                                      indirect_fraction=0.0)
        assert inst.fully_static is False  # 64k < 100k static edges
        inst_big = CollAflInstrumentation(program, 1 << 17,
                                          indirect_fraction=0.0)
        assert inst_big.fully_static
        assert inst_big.direct_collision_count() == 0
        assert inst_big.distinct_keys_possible() == program.n_edges

    def test_required_map_size_covers_static(self, program):
        size = required_map_size(program)
        assert size >= program.static_edges
        assert size & (size - 1) == 0

    def test_undersized_map_wraps_and_collides(self):
        tight = generate_program(ProgramSpec(
            name="tight", n_core_edges=600, seed=7, static_edges=600))
        inst = CollAflInstrumentation(tight, 1 << 9,  # 512 < 600 edges
                                      indirect_fraction=0.0)
        assert not inst.fully_static
        assert inst.direct_collision_count() > 0

    def test_more_edges_than_static_keys_stay_in_map(self):
        """A program with fewer static than materialized edges still
        keys every edge inside the map, and needs a map that holds every
        edge to be fully static."""
        small = generate_program(ProgramSpec(
            name="t", n_core_edges=600, input_len=64, seed=1,
            static_edges=100))
        assert small.static_edges < small.n_edges
        inst = CollAflInstrumentation(small, 1 << 7)
        assert not inst.fully_static
        assert inst.edge_keys.min() >= 0
        assert inst.edge_keys.max() < (1 << 7)
        size = required_map_size(small)
        assert size >= small.n_edges
        fits = CollAflInstrumentation(small, size, indirect_fraction=0.0)
        assert fits.fully_static
        assert fits.direct_collision_count() == 0

    def test_indirect_edges_may_collide(self, program):
        inst = CollAflInstrumentation(program, 1 << 17, seed=3,
                                      indirect_fraction=0.5)
        assert inst.indirect_mask.sum() > 0
        # Direct edges still never collide with each other.
        direct = inst.edge_keys[~inst.indirect_mask]
        assert np.unique(direct).size == direct.size

    def test_keys_in_range(self, program):
        inst = CollAflInstrumentation(program, 1 << 17)
        assert inst.edge_keys.min() >= 0
        assert inst.edge_keys.max() < (1 << 17)

    def test_fraction_validated(self, program):
        with pytest.raises(ValueError):
            CollAflInstrumentation(program, 1 << 16,
                                   indirect_fraction=2.0)


class TestIntegration:
    def test_registered_in_factory(self, program):
        inst = build_instrumentation("collafl", program, 1 << 17)
        assert isinstance(inst, CollAflInstrumentation)

    def test_trace_mapping(self, program):
        from repro.target import generate_seed_corpus
        inst = CollAflInstrumentation(program, 1 << 17,
                                      indirect_fraction=0.0)
        seed = generate_seed_corpus(program, 1, seed=2)[0]
        result = Executor(program).execute(seed)
        keys, counts = inst.keys_for(
            result, np.frombuffer(seed, dtype=np.uint8))
        # Collision-free: every traversed edge keeps its own key.
        assert np.unique(keys).size == result.n_edges

    def test_campaign_with_collafl_metric(self, program):
        from repro.fuzzer import CampaignConfig, run_campaign
        from repro.target import BenchmarkConfig, BuiltBenchmark
        from repro.target import generate_seed_corpus
        built = BuiltBenchmark(
            config=None, program=program,
            seeds=generate_seed_corpus(program, 5, seed=1), scale=1.0)
        result = run_campaign(CampaignConfig(
            benchmark="zlib",  # anchor only; program comes from built
            fuzzer="bigmap", map_size=1 << 17, metric="collafl",
            virtual_seconds=0.2, max_real_execs=400), built=built)
        assert result.execs > 0
        assert result.discovered_locations > 0
