"""Scalar-equivalence tests for the batched executor.

Every trace in ``execute_batch`` must be bit-identical to what
``execute`` produces for the same input: same ascending edge list,
same hit counts (including loop-edge modular counts), same traversal
total, same crash selection and post-crash truncation.
"""

import numpy as np
import pytest

from repro.instrumentation import build_instrumentation, metric_names
from repro.target import Executor, get_benchmark

from tests.instrumentation.key_oracle import oracle_keys_for_batch
from tests.target.test_executor import build_program


def pack_rows(rows, width=None):
    """Zero-padded (n, width) matrix plus per-row uint8 views."""
    width = width or max((len(r) for r in rows), default=1)
    mat = np.zeros((len(rows), max(width, 1)), dtype=np.uint8)
    views = []
    for i, r in enumerate(rows):
        arr = np.frombuffer(r, dtype=np.uint8)
        mat[i, :arr.size] = arr
        views.append(arr)
    return mat, views


def random_rows(program, rng, n):
    rows = []
    for _ in range(n):
        length = int(rng.integers(0, program.input_len + 16))
        rows.append(rng.integers(0, 256, size=length,
                                 dtype=np.uint8).tobytes())
    return rows


def assert_batch_matches_scalar(executor, rows):
    mat, _ = pack_rows(rows)
    batch = executor.execute_batch(mat)
    assert batch.n == len(rows)
    for i, row in enumerate(rows):
        scalar = executor.execute(row)
        edges, counts = batch.segment(i)
        assert np.array_equal(edges, scalar.edges), f"row {i} edges"
        assert np.array_equal(counts, scalar.counts), f"row {i} counts"
        assert int(batch.traversals[i]) == scalar.traversals
        if scalar.crash is None:
            assert batch.crashes[i] is None
        else:
            assert batch.crashes[i] == scalar.crash
        mat_result = batch.result_for(i)
        assert mat_result.n_edges == scalar.n_edges


class TestExecuteBatchEquivalence:
    def test_benchmark_random_inputs(self):
        bench = get_benchmark("zlib").build(scale=0.05)
        executor = Executor(bench.program)
        rng = np.random.default_rng(7)
        rows = bench.seeds[:8] + random_rows(bench.program, rng, 40)
        assert_batch_matches_scalar(executor, rows)

    def test_mutated_seeds_hit_crashes(self):
        """Bit-flipped seeds reach deep paths, including crash edges."""
        bench = get_benchmark("libpng").build(scale=0.05)
        executor = Executor(bench.program)
        rng = np.random.default_rng(11)
        rows = []
        for seed in bench.seeds * 8:
            buf = bytearray(seed)
            for _ in range(int(rng.integers(1, 8))):
                buf[int(rng.integers(0, len(buf)))] = int(
                    rng.integers(0, 256))
            rows.append(bytes(buf))
        assert_batch_matches_scalar(executor, rows)

    def test_loop_counts_match(self):
        program = build_program([
            {},  # unguarded root
            {"parent": 0, "loop_off": 3, "loop_cap": 13},
            {"parent": 0, "loop_off": 5, "loop_cap": 200},
        ])
        executor = Executor(program)
        rng = np.random.default_rng(3)
        rows = random_rows(program, rng, 32)
        assert_batch_matches_scalar(executor, rows)

    def test_crash_truncation_matches(self):
        from repro.target import Guard
        program = build_program([
            {},
            {"parent": 0, "kind": Guard.BYTE_EQ, "off": 0, "val": 65,
             "crash": 1},
            {"parent": 0, "kind": Guard.BYTE_EQ, "off": 1, "val": 66,
             "crash": 2},
            {"parent": 1},
            {"parent": 2},
        ])
        executor = Executor(program)
        rows = [b"AB" + bytes(6), b"A" + bytes(7), b"\x00B" + bytes(6),
                bytes(8)]
        assert_batch_matches_scalar(executor, rows)
        mat, _ = pack_rows(rows)
        batch = executor.execute_batch(mat)
        # Both guards hit on row 0; the shallower-ranked crash wins.
        assert batch.crashes[0] is not None
        assert batch.crashes[3] is None

    def test_empty_batch(self):
        bench = get_benchmark("zlib").build(scale=0.02)
        executor = Executor(bench.program)
        batch = executor.execute_batch(
            np.zeros((0, 8), dtype=np.uint8))
        assert batch.n == 0
        assert batch.edges.size == 0

    def test_execute_inputs_matches_scalar(self):
        bench = get_benchmark("zlib").build(scale=0.02)
        executor = Executor(bench.program)
        rows = [b"", bytes(range(256)) * 2] + random_rows(
            bench.program, np.random.default_rng(3), 6)
        batch = executor.execute_inputs(rows)
        assert batch.n == len(rows)
        for i, row in enumerate(rows):
            scalar = executor.execute(row)
            edges, counts = batch.segment(i)
            assert np.array_equal(edges, scalar.edges), f"row {i}"
            assert np.array_equal(counts, scalar.counts), f"row {i}"
            assert batch.crashes[i] == scalar.crash

    def test_rows_longer_than_input_len_truncate(self):
        bench = get_benchmark("zlib").build(scale=0.02)
        executor = Executor(bench.program)
        long_row = bytes(range(256)) * 2
        assert_batch_matches_scalar(executor, [long_row])


class TestKeysForBatch:
    @pytest.mark.parametrize("metric", metric_names())
    def test_flat_keys_match_per_trace(self, metric):
        bench = get_benchmark("zlib").build(scale=0.05)
        executor = Executor(bench.program)
        instr = build_instrumentation(metric, bench.program, 1 << 14)
        rng = np.random.default_rng(5)
        rows = bench.seeds[:4] + random_rows(bench.program, rng, 12)
        mat, views = pack_rows(rows)
        batch = executor.execute_batch(mat)
        keys, counts = instr.keys_for_batch(batch, views)
        want_keys, want_counts = oracle_keys_for_batch(instr, batch, views)
        assert np.array_equal(keys, want_keys), metric
        assert np.array_equal(counts, want_counts), metric
        for i, row in enumerate(rows):
            k, c = instr.keys_for(executor.execute(row), views[i])
            lo, hi = int(batch.offsets[i]), int(batch.offsets[i + 1])
            assert np.array_equal(k, want_keys[lo:hi]), f"{metric} row {i}"
            assert np.array_equal(c, want_counts[lo:hi])
