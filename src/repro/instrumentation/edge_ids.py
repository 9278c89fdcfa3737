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
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence, Tuple

import numpy as np

from ..core.bitmap_base import DenseKeys
from ..target.cfg import NO_LOOP, Program
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

    @abstractmethod
    def keys_for_batch(self, result: BatchExecResult,
                       input_rows: Sequence[np.ndarray]) \
            -> Tuple[np.ndarray, np.ndarray]:
        """Flat ``(keys, counts)`` for a whole batch, trace-segmented.

        Output arrays align with ``result.edges`` / ``result.offsets``;
        segment ``i`` holds exactly ``keys_for(result.result_for(i),
        input_rows[i])``. ``input_rows`` is any indexable of exact-length
        rows — a list of views, or the campaign's ``MutantBatch``, which
        builds a view only when indexed.
        """

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


@dataclass(frozen=True)
class KeyColumns:
    """An edge-key table grouped into the columns of a dense window.

    Built once per instrumentation (so once per campaign) from the
    per-edge keys and the program's loop edges. Three kinds of column:

    * a *plain* column is an edge that owns its key alone and is not a
      loop: a trace that reaches it hits its key exactly once, so the
      window reads its reach column in place;
    * a *loop* column is a loop edge that owns its key alone: its count
      is the edge's hit count;
    * a *group* column is a key two or more edges share (a collision
      group, loop edges included): its count sums its members' hits.

    Attributes:
        plain: ``int64`` plain edge indices.
        plain_keys: their keys.
        loop_hits: per loop column, its column in a batch's loop-hit
            block (``BatchExecResult.hits``).
        members: group member edges, grouped; group ``j`` owns
            ``members[starts[j]:starts[j+1]]``.
        member_hits: per member, its loop-hit column, or -1 for an edge
            that counts 1.
        starts: first member of each group.
        count_keys: keys of the loop columns, then of the groups.
    """

    plain: np.ndarray
    plain_keys: np.ndarray
    loop_hits: np.ndarray
    members: np.ndarray
    member_hits: np.ndarray
    starts: np.ndarray
    count_keys: np.ndarray

    @classmethod
    def group(cls, edge_keys: np.ndarray,
              loops: np.ndarray) -> "KeyColumns":
        """Group ``edge_keys`` given the ascending loop edge indices."""
        _, inverse, sizes = np.unique(edge_keys, return_inverse=True,
                                      return_counts=True)
        shared = sizes[inverse] > 1
        is_loop = np.zeros(edge_keys.size, dtype=bool)
        is_loop[loops] = True
        plain = np.flatnonzero(~shared & ~is_loop)
        lone = np.flatnonzero(~shared & is_loop)
        members = np.flatnonzero(shared)
        members = members[np.argsort(edge_keys[members], kind="stable")]
        member_keys = edge_keys[members]
        first = np.ones(members.size, dtype=bool)
        first[1:] = member_keys[1:] != member_keys[:-1]
        starts = np.flatnonzero(first)
        return cls(plain=plain, plain_keys=edge_keys[plain],
                   loop_hits=np.searchsorted(loops, lone),
                   members=members,
                   member_hits=np.where(is_loop[members],
                                        np.searchsorted(loops, members), -1),
                   starts=starts,
                   count_keys=np.concatenate([edge_keys[lone],
                                              member_keys[starts]]))

    def window(self, result: BatchExecResult) -> DenseKeys:
        """A batch's traces as :class:`DenseKeys` over these columns.

        Only loop and group columns build counts: a gather of loop hits,
        and per group one ``np.add.reduceat`` over its members' hits
        (1 where a plain member was reached).
        """
        # Edge-major, like the executor's kernel: rows of the transposed
        # reach and hit matrices are contiguous.
        hits = result.hits.T
        counts = np.empty((self.count_keys.size, result.n), dtype=np.int64)
        n_loop = self.loop_hits.size
        counts[:n_loop] = hits[self.loop_hits]
        n_plain = result.n_edges - np.count_nonzero(counts[:n_loop], axis=0)
        if self.starts.size:
            block = result.reach.T[self.members].astype(np.int64)
            loop = self.member_hits >= 0
            block[loop] = hits[self.member_hits[loop]]
            counts[n_loop:] = np.add.reduceat(block, self.starts, axis=0)
            n_plain -= np.count_nonzero(block, axis=0)
        return DenseKeys(reach=result.reach, plain=self.plain,
                         plain_keys=self.plain_keys, n_plain=n_plain,
                         counts=counts.T, count_keys=self.count_keys)


class EdgeTableInstrumentation(Instrumentation):
    """A metric whose key depends on the edge alone.

    Subclasses fill ``edge_keys`` (one map key per program edge) at
    construction; a trace's keys, or a batch's flat ones, are then one
    gather and the input bytes are never read. The campaign's window
    front needs no gather at all: the table, grouped once into
    :attr:`columns`, reads the batch's dense reach matrix directly
    (:meth:`KeyColumns.window`).
    """

    edge_keys: np.ndarray

    def keys_for(self, result: ExecResult,
                 input_bytes: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        return self.edge_keys[result.edges], result.counts

    keys_for_batch = keys_for

    def distinct_keys_possible(self) -> int:
        return int(np.unique(self.edge_keys).size)

    @cached_property
    def columns(self) -> KeyColumns:
        """The key table grouped for dense windows (built on first use)."""
        return KeyColumns.group(
            self.edge_keys,
            np.flatnonzero(self.program.loop_off != NO_LOOP))


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


def sequential_edge_keys(program: Program, map_size: int, seed: int,
                         indirect_fraction: float) \
        -> Tuple[np.ndarray, np.ndarray]:
    """``(edge_keys, indirect_mask)``: edge ``e`` keys to ``e % map_size``,
    except an ``indirect_fraction`` share of edges with no destination
    known at compile time, which draw random keys. Both trace-pc-guard
    and CollAFL number edges this way, each with its own ``seed``."""
    if not 0 <= indirect_fraction <= 1:
        raise ValueError(f"indirect_fraction must be in [0, 1], got "
                         f"{indirect_fraction}")
    rng = np.random.default_rng(np.random.PCG64(seed))
    n = program.n_edges
    keys = np.arange(n, dtype=np.int64) % map_size
    indirect = rng.random(n) < indirect_fraction
    n_ind = int(indirect.sum())
    if n_ind:
        keys[indirect] = rng.integers(0, map_size, size=n_ind,
                                      dtype=np.int64)
    return keys, indirect


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
        self.edge_keys, self.indirect_mask = sequential_edge_keys(
            program, map_size, seed ^ 0x7C9, indirect_fraction)
