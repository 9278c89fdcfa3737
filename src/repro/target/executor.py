"""Vectorized program execution: one pass, level-by-level.

:class:`Executor` evaluates every edge guard against the input in one
vectorized sweep, then propagates reachability down the tree one depth
level at a time (a parent's verdict is final before any child reads
it). Loop hit counts, crash detection and trace truncation all fall out
of the same pass — no per-edge Python loop ever runs at execute time.

Execution order is breadth-first by ``(depth, edge index)``; a crash
truncates the trace after the crashing edge in that order, the way a
real process stops producing coverage at the faulting instruction.

There is one kernel, :meth:`Executor._run`, over a matrix of inputs.
:meth:`Executor.execute` runs it on one row and
:meth:`Executor.execute_batch` on many, so a trace does not depend on
which entry point produced it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from .cfg import NO_CRASH, NO_LOOP, Guard, Program
from .crashes import CrashInfo, synth_stack

#: Base of the synthetic fault-address space (see CrashInfo).
_FAULT_BASE = 0x400000


@dataclass
class ExecResult:
    """Outcome of one execution.

    Attributes:
        edges: ``int64`` indices of traversed edges, ascending.
        counts: per-edge hit counts aligned with ``edges`` (1 for plain
            edges, ``1 + inp[loop_off] % loop_cap`` for loop edges).
        traversals: total edge traversals (``counts.sum()``) — the
            execution-cost driver in the memory model.
        crash: the triggered :class:`CrashInfo`, or ``None``.
        interesting: scratch flag for the coverage pipeline (the
            executor itself always leaves it ``False``).
    """

    edges: np.ndarray
    counts: np.ndarray
    traversals: int
    crash: Optional[CrashInfo] = None
    interesting: bool = field(default=False, compare=False)

    @property
    def n_edges(self) -> int:
        """Number of distinct edges traversed."""
        return int(self.edges.size)


@dataclass
class BatchExecResult:
    """Outcome of one batched execution of ``n`` inputs.

    Per-trace edge lists are concatenated into flat arrays; trace ``i``
    owns the segment ``[offsets[i], offsets[i+1])``. Within a segment
    edges are ascending, exactly as :class:`ExecResult` orders them.

    Attributes:
        edges: flat ``int64`` edge indices for all traces.
        counts: flat hit counts aligned with ``edges``.
        offsets: ``int64`` array of ``n + 1`` segment boundaries.
        traversals: per-trace total traversals (``int64``, length n).
        crashes: per-trace :class:`CrashInfo` or ``None``.
    """

    edges: np.ndarray
    counts: np.ndarray
    offsets: np.ndarray
    traversals: np.ndarray
    crashes: List[Optional[CrashInfo]]

    @property
    def n(self) -> int:
        """Number of traces in the batch."""
        return int(self.offsets.size - 1)

    def segment(self, i: int) -> Tuple[np.ndarray, np.ndarray]:
        """(edges, counts) views for trace ``i``."""
        lo, hi = int(self.offsets[i]), int(self.offsets[i + 1])
        return self.edges[lo:hi], self.counts[lo:hi]

    def result_for(self, i: int) -> ExecResult:
        """Materialize trace ``i`` as a scalar :class:`ExecResult`."""
        edges, counts = self.segment(i)
        return ExecResult(edges=edges, counts=counts,
                          traversals=int(self.traversals[i]),
                          crash=self.crashes[i])


class Executor:
    """Executes inputs against one :class:`Program`.

    Construction precomputes guard gather tables and the level
    structure; an execution is then a handful of vectorized ops.
    """

    def __init__(self, program: Program) -> None:
        self.program = program
        n = program.n_edges
        kind = program.kind

        # The kernel evaluates edges in execution order, (depth, edge
        # index): column c holds edge order[c]. Every depth level is
        # then one contiguous column slice, a parent's column precedes
        # its children's, and a row's first crash is its leftmost
        # crash column.
        order = np.argsort(program.depth, kind="stable")
        column = np.empty(n, dtype=np.int64)
        column[order] = np.arange(n)
        self._order, self._column = order, column

        lt = np.flatnonzero(kind == np.uint8(Guard.BYTE_LT))
        self._lt, self._lt_off, self._lt_val = (
            column[lt], program.off[lt], program.val[lt])
        eq = np.flatnonzero(kind == np.uint8(Guard.BYTE_EQ))
        self._eq, self._eq_off, self._eq_val = (
            column[eq], program.off[eq], program.val[eq])
        self._never = column[kind == np.uint8(Guard.NEVER)]
        multi = np.flatnonzero(kind == np.uint8(Guard.EQ_MULTI))
        self._multi = column[multi]
        # Every magic byte of every EQ_MULTI guard, flattened: guard k
        # owns entries [starts[k], starts[k] + width[k]) (width >= 1).
        width = program.width[multi].astype(np.int64)
        self._multi_starts = np.cumsum(width) - width
        owner = np.repeat(np.arange(multi.size), width)
        within = np.arange(owner.size) - self._multi_starts[owner]
        self._magic_off = program.off[multi][owner] + within
        self._magic_val = program.magic[multi[owner], within]

        self._loops = np.flatnonzero(program.loop_off != NO_LOOP)
        self._loop_off = program.loop_off[self._loops]
        self._loop_cap = program.loop_cap[self._loops]

        depths = program.depth[order]
        max_depth = int(depths[-1]) if n else 0
        bounds = np.searchsorted(depths, np.arange(max_depth + 2))
        self._levels: List[Tuple[int, int, np.ndarray]] = [
            (int(lo), int(hi), column[program.parent[order[lo:hi]]])
            for lo, hi in zip(bounds[1:-1], bounds[2:])]

        self._crash_cols = np.sort(column[program.crash_site != NO_CRASH])
        self._stack_cache: Dict[int, Tuple[int, ...]] = {}

    # ------------------------------------------------------------------

    def _crash_info(self, edge: int) -> CrashInfo:
        site = int(self.program.crash_site[edge])
        stack = self._stack_cache.get(edge)
        if stack is None:
            stack = synth_stack(self.program, edge)
            self._stack_cache[edge] = stack
        return CrashInfo(site_id=site, edge_index=edge, stack=stack,
                         fault_address=_FAULT_BASE + (site << 6))

    def execute(self, data: bytes) -> ExecResult:
        """Run one input; returns its trace (and crash, if any).

        The batch kernel on a one-row buffer, so a trace is the same
        whether its input runs alone or in a batch.
        """
        bufs = np.zeros((1, self.program.input_len), dtype=np.uint8)
        raw = np.frombuffer(data, dtype=np.uint8)[:self.program.input_len]
        bufs[0, :raw.size] = raw
        return self._run(bufs).result_for(0)

    def execute_batch(self, data: np.ndarray) -> BatchExecResult:
        """Run a ``(n, width)`` uint8 matrix of inputs in one pass.

        Rows must be zero-padded past their logical lengths — exactly
        the layout :meth:`Mutator.havoc_apply` produces — because
        :meth:`execute` zero-fills its buffer; any padding width is
        accepted (rows are truncated or zero-extended to the program's
        ``input_len``). Each trace equals ``execute(row_bytes)``.

        Returns:
            :class:`BatchExecResult` with flat per-trace segments.
        """
        n_rows, width = data.shape
        bufs = np.zeros((n_rows, self.program.input_len), dtype=np.uint8)
        w = min(width, self.program.input_len)
        bufs[:, :w] = data[:, :w]
        return self._run(bufs)

    def _run(self, bufs: np.ndarray) -> BatchExecResult:
        """The kernel behind :meth:`execute` and :meth:`execute_batch`:
        ``bufs`` is ``(n, input_len)`` uint8, one input per row."""
        n_rows = bufs.shape[0]
        n = self.program.n_edges
        reach = np.ones((n_rows, n), dtype=bool)  # execution order
        reach[:, self._never] = False
        if self._lt.size:
            reach[:, self._lt] = bufs[:, self._lt_off] < self._lt_val
        if self._eq.size:
            reach[:, self._eq] = bufs[:, self._eq_off] == self._eq_val
        if self._multi.size:
            reach[:, self._multi] = np.logical_and.reduceat(
                bufs[:, self._magic_off] == self._magic_val,
                self._multi_starts, axis=1)
        # Level by level: a parent's verdict is final before any child
        # reads it.
        for lo, hi, parents in self._levels:
            reach[:, lo:hi] &= reach[:, parents]

        crashes: List[Optional[CrashInfo]] = [None] * n_rows
        if self._crash_cols.size:
            hit = reach[:, self._crash_cols]
            crashed_rows = np.flatnonzero(hit.any(axis=1))
            if crashed_rows.size:
                first = self._crash_cols[
                    np.argmax(hit[crashed_rows], axis=1)]
                for row, col in zip(crashed_rows, first):
                    crashes[row] = self._crash_info(int(self._order[col]))
                    # The trace stops at the faulting edge.
                    reach[row, col + 1:] = False
        reach = np.take(reach, self._column, axis=1)  # edge order

        # One flat pass: entry row * n_edges + edge, ascending, so each
        # row's edges form one ascending segment.
        flat = np.flatnonzero(reach)
        per_row = np.count_nonzero(reach, axis=1)
        offsets = np.zeros(n_rows + 1, dtype=np.int64)
        np.cumsum(per_row, out=offsets[1:])
        edges = flat - np.repeat(np.arange(n_rows, dtype=np.int64) * n,
                                 per_row)
        counts = np.ones(edges.size, dtype=np.int64)
        if self._loops.size:
            live = np.flatnonzero(reach[:, self._loops])
            if live.size:
                lrows, lidx = np.divmod(live, self._loops.size)
                pos = np.searchsorted(flat, lrows * n + self._loops[lidx])
                counts[pos] = 1 + (bufs[lrows, self._loop_off[lidx]]
                                   .astype(np.int64)
                                   % self._loop_cap[lidx])
        csum = np.zeros(edges.size + 1, dtype=np.int64)
        np.cumsum(counts, out=csum[1:])
        traversals = csum[offsets[1:]] - csum[offsets[:-1]]
        return BatchExecResult(edges=edges, counts=counts,
                               offsets=offsets, traversals=traversals,
                               crashes=crashes)
