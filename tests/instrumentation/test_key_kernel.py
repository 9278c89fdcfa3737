"""The batched key kernel of the input-dependent metrics equals the
per-row oracle (``tests/instrumentation/key_oracle.py``).

Random programs (loop edges, crash sites) run a batch of rows of random
exact lengths; ``keys_for_batch`` must reproduce, row by row, the keys
the hand-written formula gives for that row's own bytes. The same
property must fail on a seeded bug: checksumming each row zero-padded
to the batch width instead of at its exact length.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.instrumentation import build_instrumentation
from repro.target import Executor

from tests.core.test_batch_kernels import random_program
from tests.instrumentation.key_oracle import oracle_keys_for_batch

#: The metrics whose keys depend on the input bytes.
METRICS = ["ngram2", "ngram3", "ngram4", "afl-edge+context"]


def exact_rows(mat, lengths):
    return [mat[i, :n] for i, n in enumerate(lengths)]


def padded_rows(mat, lengths):
    """The seeded bug: every row at the full zero-padded width."""
    return list(mat)


def keys_property(rows_for):
    """The property, with ``rows_for(mat, lengths)`` choosing the rows
    handed to ``keys_for_batch``."""

    @given(seed=st.integers(0, 2**32 - 1),
           n_edges=st.integers(2, 40),
           map_bits=st.integers(4, 16),
           metric=st.sampled_from(METRICS),
           lengths=st.lists(st.integers(0, 16), min_size=1, max_size=8))
    @settings(max_examples=30, deadline=None, derandomize=True,
              database=None)
    def prop(seed, n_edges, map_bits, metric, lengths):
        rng = np.random.default_rng(seed)
        program = random_program(rng, n_edges)
        instr = build_instrumentation(metric, program, 1 << map_bits,
                                      seed=seed)
        mat = np.zeros((len(lengths), program.input_len), dtype=np.uint8)
        for row, n in zip(mat, lengths):
            row[:n] = rng.integers(0, 256, size=n, dtype=np.uint8)
        bres = Executor(program).execute_batch(mat)
        keys, counts = instr.keys_for_batch(bres, rows_for(mat, lengths))
        want_keys, want_counts = oracle_keys_for_batch(
            instr, bres, exact_rows(mat, lengths))
        assert np.array_equal(keys, want_keys)
        assert np.array_equal(counts, want_counts)

    return prop


class TestKeysForBatchProperty:
    def test_matches_oracle(self):
        keys_property(exact_rows)()

    def test_padded_checksum_bug_fails(self):
        with pytest.raises(AssertionError):
            keys_property(padded_rows)()
