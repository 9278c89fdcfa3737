"""Unit tests for the instrumentation factory and composition."""

import numpy as np
import pytest

from repro.instrumentation import (apply_lafintel, build_instrumentation,
                                   metric_names)
from repro.target import Executor


class TestFactory:
    def test_all_registered_metrics_build(self, tiny_program, tiny_seeds):
        ex = Executor(tiny_program)
        result = ex.execute(tiny_seeds[0])
        inp = np.frombuffer(tiny_seeds[0], dtype=np.uint8)
        for metric in metric_names():
            inst = build_instrumentation(metric, tiny_program, 1 << 16,
                                         seed=1)
            keys, counts = inst.keys_for(result, inp)
            assert keys.shape == result.edges.shape
            assert keys.min() >= 0 and keys.max() < (1 << 16)
            assert counts.shape == result.counts.shape

    def test_unknown_metric(self, tiny_program):
        with pytest.raises(ValueError, match="unknown metric"):
            build_instrumentation("quantum", tiny_program, 1 << 16)

    def test_metric_names_sorted_and_complete(self):
        names = metric_names()
        assert names == sorted(names)
        assert "afl-edge" in names
        assert "ngram3" in names
        assert "trace-pc-guard" in names
        assert "afl-edge+context" in names


class TestComposition:
    def test_lafintel_ngram_composition(self, tiny_program):
        inst = build_instrumentation("ngram3", apply_lafintel(tiny_program),
                                     1 << 18, seed=2)
        # The composition's program is the transformed one.
        assert inst.program.meta.get("laf_applied")
        assert inst.program.n_edges >= tiny_program.n_edges
        # Pressure amplification from both laf and contexts.
        assert inst.distinct_keys_possible() > tiny_program.n_edges

    def test_composition_executes_end_to_end(self, tiny_program,
                                             tiny_seeds):
        inst = build_instrumentation("ngram3", apply_lafintel(tiny_program),
                                     1 << 18, seed=2)
        ex = Executor(inst.program)
        result = ex.execute(tiny_seeds[0])
        keys, counts = inst.keys_for(
            result, np.frombuffer(tiny_seeds[0], dtype=np.uint8))
        assert keys.size == result.n_edges
        assert (keys < (1 << 18)).all()
