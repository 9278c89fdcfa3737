"""Unit tests for bias-free coverage evaluation and report rendering."""

import numpy as np
import pytest

from repro.analysis import (arithmetic_mean, average_speedup,
                            covered_edge_mask, evaluate_corpus,
                            geometric_mean, render_bar_block,
                            render_series, render_table, speedups)
from repro.target import Executor


class TestCoverageEval:
    def test_empty_corpus(self, tiny_program):
        assert evaluate_corpus(tiny_program, []) == 0

    def test_union_over_corpus(self, tiny_program, tiny_seeds):
        ex = Executor(tiny_program)
        individual = [set(ex.execute(s).edges.tolist())
                      for s in tiny_seeds]
        union = set().union(*individual)
        assert evaluate_corpus(tiny_program, tiny_seeds,
                               executor=ex) == len(union)

    def test_union_across_batches(self, tiny_program, tiny_seeds,
                                  monkeypatch):
        """A corpus longer than one batch covers the union of every
        batch's traces."""
        from repro.analysis import coverage_eval
        monkeypatch.setattr(coverage_eval, "_CHUNK", 2)
        ex = Executor(tiny_program)
        mask = np.zeros(tiny_program.n_edges, dtype=bool)
        for s in tiny_seeds:
            mask[ex.execute(s).edges] = True
        assert len(tiny_seeds) > 2
        assert np.array_equal(
            covered_edge_mask(tiny_program, iter(tiny_seeds)), mask)

    def test_mask_matches_count(self, tiny_program, tiny_seeds):
        mask = covered_edge_mask(tiny_program, tiny_seeds)
        assert mask.shape == (tiny_program.n_edges,)
        assert int(mask.sum()) == evaluate_corpus(tiny_program,
                                                  tiny_seeds)

    def test_collision_free(self, tiny_program, tiny_seeds):
        """The evaluation counts *program edges*, so two edges whose
        instrumented keys would collide still count as two."""
        ex = Executor(tiny_program)
        result = ex.execute(tiny_seeds[0])
        assert evaluate_corpus(tiny_program, [tiny_seeds[0]],
                               executor=ex) == result.n_edges


class TestMeans:
    def test_arithmetic(self):
        assert arithmetic_mean([1, 2, 3]) == pytest.approx(2.0)
        assert arithmetic_mean([]) == 0.0

    def test_geometric(self):
        assert geometric_mean([1, 4]) == pytest.approx(2.0)
        assert geometric_mean([]) == 0.0
        assert geometric_mean([0, 4]) == pytest.approx(4.0), \
            "non-positive entries are excluded"

    def test_speedups(self):
        base = {"a": 10.0, "b": 5.0, "c": 0.0}
        new = {"a": 20.0, "b": 5.0, "d": 1.0}
        ratios = speedups(base, new)
        assert ratios == {"a": 2.0, "b": 1.0}
        assert average_speedup(base, new) == pytest.approx(1.5)


class TestRendering:
    def test_table_alignment(self):
        text = render_table(["name", "value"],
                            [["alpha", 1_234], ["b", 5.678]],
                            title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "name" in lines[1] and "value" in lines[1]
        assert "alpha" in text and "1,234" in text and "5.68" in text

    def test_series(self):
        text = render_series("s", [(1, 2.0), (3, 4.0)], x_label="k",
                             y_label="rate")
        assert "k -> rate" in text
        assert text.count("\n") == 2

    def test_bar_block(self):
        text = render_bar_block("B", {"x": 10.0, "y": 5.0}, unit="/s")
        assert "####" in text
        x_line = next(l for l in text.splitlines() if "x" in l)
        y_line = next(l for l in text.splitlines() if "y" in l)
        assert x_line.count("#") > y_line.count("#")

    def test_bar_block_empty(self):
        assert "(empty)" in render_bar_block("B", {})
