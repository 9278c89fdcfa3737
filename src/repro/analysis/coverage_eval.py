"""Bias-free independent coverage evaluation (paper §V-A3).

Comparing fuzzers by their own coverage maps is unfair — a bigger map
has fewer collisions and "sees" more locations. The paper therefore
collects each fuzzer's output corpus and re-measures it with an
independent coverage build. Our equivalent: re-execute the corpus on
the program and count *true program edges* (structural indices, no
hashing, no map, no collisions).
"""

from __future__ import annotations

from typing import Iterable, Optional

import numpy as np

from ..target.cfg import Program
from ..target.executor import Executor

#: Most inputs executed in one batch.
_CHUNK = 1024


def covered_edge_mask(program: Program, corpus: Iterable[bytes],
                      executor: Optional[Executor] = None) -> np.ndarray:
    """Boolean per-edge coverage mask of a corpus.

    The corpus runs in batches of at most ``_CHUNK`` inputs
    (:meth:`Executor.execute_inputs`); an edge is covered when any
    trace of any batch reached it.
    """
    executor = executor or Executor(program)
    corpus = list(corpus)
    covered = np.zeros(program.n_edges, dtype=bool)
    for lo in range(0, len(corpus), _CHUNK):
        covered |= executor.execute_inputs(
            corpus[lo:lo + _CHUNK]).reach.any(axis=0)
    return covered


def evaluate_corpus(program: Program, corpus: Iterable[bytes],
                    executor: Optional[Executor] = None) -> int:
    """Distinct true edges covered by ``corpus`` (collision-free)."""
    return int(np.count_nonzero(covered_edge_mask(program, corpus,
                                                  executor)))
