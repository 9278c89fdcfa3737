"""Coverage-key pipelines: AFL edge hashing and trace-pc-guard IDs.

AFL's classic instrumentation (paper Listing 1) assigns every basic
block a random compile-time ID uniform over ``[0, MAP_SIZE)`` and keys
an edge as ``(B_src >> 1) ^ B_dst``. Distinct edges can collide — the
paper's central problem — and the collision probability falls as the
map grows, which is why instrumentations are parameterized by map size
(recompiling with a larger ``MAP_SIZE`` draws new block IDs).

The alternative ``trace-pc-guard`` style instead numbers static edges
sequentially, which is collision-free for direct edges but cannot see
indirect edges (no destination known at compile time); those fall back
to runtime hashing (paper §II-A2).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Sequence, Tuple

import numpy as np

from ..target.cfg import Program
from ..target.executor import BatchExecResult, ExecResult


class Instrumentation(ABC):
    """Maps an execution's edge trace to coverage-map keys.

    Implementations precompute a per-edge key table at construction so
    per-execution work is one gather.
    """

    #: Human-readable metric name, used in reports.
    name: str

    def __init__(self, program: Program, map_size: int) -> None:
        if map_size <= 0 or (map_size & (map_size - 1)) != 0:
            raise ValueError(
                f"map size must be a positive power of two, got {map_size}")
        self.program = program
        self.map_size = map_size

    @abstractmethod
    def keys_for(self, result: ExecResult,
                 input_bytes: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Return ``(keys, counts)`` for one execution's trace."""

    def keys_for_batch(self, result: BatchExecResult,
                       input_rows: Sequence[np.ndarray]) \
            -> Tuple[np.ndarray, np.ndarray]:
        """Flat ``(keys, counts)`` for a whole batch, trace-segmented.

        Output arrays align with ``result.edges`` / ``result.offsets``;
        segment ``i`` holds exactly ``keys_for(result.result_for(i),
        input_rows[i])``. ``input_rows`` is any indexable of exact-length
        rows — a list of views, or the campaign's ``MutantBatch``, which
        builds a view only when indexed. This base implementation loops
        per trace (input-dependent metrics like context/ngram need the
        exact per-row bytes); gather-table metrics override it with one
        flat gather and never index a row.
        """
        keys = np.empty(result.edges.size, dtype=np.int64)
        counts = np.empty(result.edges.size, dtype=np.int64)
        for i in range(result.n):
            lo, hi = int(result.offsets[i]), int(result.offsets[i + 1])
            k, c = self.keys_for(result.result_for(i), input_rows[i])
            keys[lo:hi] = k
            counts[lo:hi] = c
        return keys, counts

    @abstractmethod
    def distinct_keys_possible(self) -> int:
        """Number of distinct keys this metric can emit on this program.

        This is the map pressure ``n`` in the collision-rate formula
        (Equation 1) and in Table II/III's collision-rate columns.
        """


def assign_block_ids(n_blocks: int, map_size: int,
                     seed: int) -> np.ndarray:
    """Compile-time random block IDs, uniform over ``[0, map_size)``."""
    rng = np.random.default_rng(np.random.PCG64(seed))
    return rng.integers(0, map_size, size=n_blocks, dtype=np.int64)


def afl_edge_keys(program: Program, map_size: int,
                  seed: int) -> np.ndarray:
    """Per-edge AFL keys: ``(block[src] >> 1) ^ block[dst]``.

    Both operands are below ``map_size`` (a power of two), so the XOR is
    too — no extra masking needed, exactly as in AFL.
    """
    block_ids = assign_block_ids(program.n_blocks, map_size, seed)
    return (block_ids[program.src_block] >> 1) ^ \
        block_ids[program.dst_block]


class EdgeTableInstrumentation(Instrumentation):
    """A metric whose key depends on the edge alone.

    Subclasses fill ``edge_keys`` (one map key per program edge) at
    construction; a trace's keys are then one gather, for one execution
    or a whole batch alike, and the input bytes are never read.
    """

    edge_keys: np.ndarray

    def keys_for(self, result: ExecResult,
                 input_bytes: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        return self.edge_keys[result.edges], result.counts

    def keys_for_batch(self, result: BatchExecResult,
                       input_rows: Sequence[np.ndarray]) \
            -> Tuple[np.ndarray, np.ndarray]:
        return self.edge_keys[result.edges], result.counts

    def distinct_keys_possible(self) -> int:
        return int(np.unique(self.edge_keys).size)


class AflEdgeInstrumentation(EdgeTableInstrumentation):
    """Classic AFL edge-hash instrumentation (Listing 1).

    Args:
        program: the target.
        map_size: coverage bitmap size (power of two).
        seed: compile-time randomness; a different seed is a recompile.
    """

    name = "afl-edge"

    def __init__(self, program: Program, map_size: int,
                 seed: int = 0) -> None:
        super().__init__(program, map_size)
        self.edge_keys = afl_edge_keys(program, map_size, seed)


class TracePCGuardInstrumentation(EdgeTableInstrumentation):
    """Sequential static-edge IDs à la Clang's trace-pc-guard.

    Direct edges get consecutive IDs (collision-free until the map is
    smaller than the number of static edges, when the modulo wraps);
    *indirect* edges — a configurable fraction — cannot be numbered at
    compile time and fall back to random hashing.
    """

    name = "trace-pc-guard"

    def __init__(self, program: Program, map_size: int, seed: int = 0,
                 indirect_fraction: float = 0.05) -> None:
        super().__init__(program, map_size)
        if not 0 <= indirect_fraction <= 1:
            raise ValueError(f"indirect_fraction must be in [0, 1], got "
                             f"{indirect_fraction}")
        rng = np.random.default_rng(np.random.PCG64(seed ^ 0x7C9))
        n = program.n_edges
        keys = np.arange(n, dtype=np.int64) % map_size
        indirect = rng.random(n) < indirect_fraction
        n_ind = int(indirect.sum())
        if n_ind:
            keys[indirect] = rng.integers(0, map_size, size=n_ind,
                                          dtype=np.int64)
        self.edge_keys = keys
        self.indirect_mask = indirect
