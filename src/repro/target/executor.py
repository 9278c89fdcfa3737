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
from functools import cached_property
from typing import Dict, List, Optional, Sequence, Tuple

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
    """

    edges: np.ndarray
    counts: np.ndarray
    traversals: int
    crash: Optional[CrashInfo] = None

    @property
    def n_edges(self) -> int:
        """Number of distinct edges traversed."""
        return int(self.edges.size)


@dataclass
class BatchExecResult:
    """Outcome of one batched execution of ``n`` inputs, in dense form.

    The executor's kernel decides reachability for every (row, edge)
    pair at once, so a batch is kept as that matrix plus the hit counts
    of the program's loop edges (every other traversed edge counts 1).
    Consumers that only need per-trace verdicts read the matrix
    directly (the dense window front of the batched engine); a trace's
    flat ``(edges, counts)`` list is cut from its dense row only when
    asked for (:meth:`segment`, :meth:`result_for`), and the whole-batch
    flat form (:attr:`edges`, :attr:`counts`, :attr:`offsets`) only when
    a consumer walks every segment (input-dependent metrics' key
    gather, and the tests' flat oracle).

    Attributes:
        reach: ``(n, n_edges)`` bool; ``reach[i, e]`` iff trace ``i``
            traversed edge ``e`` (crash-truncated). Stored edge-major
            (a transposed view), so gathering edge columns is cheap.
        hits: ``(n, n_loops)`` uint16 hit counts of the loop edges
            ``loops`` (``1 + inp[loop_off] % loop_cap``), 0 where the
            trace did not traverse the edge.
        loops: ascending ``int64`` edge indices of the program's loop
            edges, the columns of ``hits``. One array per executor,
            shared by every batch it runs (``shared``: concatenating
            batches keeps it as is).
        n_edges: per-trace number of distinct edges traversed
            (``int64``, length n).
        traversals: per-trace total traversals (``int64``, length n).
        crashes: per-trace :class:`CrashInfo` or ``None``.
    """

    reach: np.ndarray
    hits: np.ndarray
    loops: np.ndarray = field(metadata={"shared": True})
    n_edges: np.ndarray
    traversals: np.ndarray
    crashes: List[Optional[CrashInfo]]

    @property
    def n(self) -> int:
        """Number of traces in the batch."""
        return int(self.reach.shape[0])

    def segment(self, i: int) -> Tuple[np.ndarray, np.ndarray]:
        """(edges, counts) of trace ``i``, cut from its dense row."""
        edges = np.flatnonzero(self.reach[i])
        counts = np.ones(edges.size, dtype=np.int64)
        live = np.flatnonzero(self.hits[i])
        if live.size:
            counts[np.searchsorted(edges, self.loops[live])] = \
                self.hits[i, live]
        return edges, counts

    def result_for(self, i: int) -> ExecResult:
        """Materialize trace ``i`` as a scalar :class:`ExecResult`."""
        edges, counts = self.segment(i)
        return ExecResult(edges=edges, counts=counts,
                          traversals=int(self.traversals[i]),
                          crash=self.crashes[i])

    def __getstate__(self) -> dict:
        # The flat form is a cache: an mp worker's reply does not ship
        # it, and whoever needs it rebuilds it from the dense form.
        state = dict(self.__dict__)
        state.pop("_flat", None)
        return state

    @cached_property
    def _flat(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        # One pass: entry row * n_edges + edge, ascending, so each
        # row's edges form one ascending segment.
        n_rows, n = self.reach.shape
        flat = np.flatnonzero(self.reach)
        offsets = np.zeros(n_rows + 1, dtype=np.int64)
        np.cumsum(self.n_edges, out=offsets[1:])
        edges = flat - np.repeat(np.arange(n_rows, dtype=np.int64) * n,
                                 self.n_edges)
        counts = np.ones(edges.size, dtype=np.int64)
        live = np.flatnonzero(self.hits)
        if live.size:
            lrows, lidx = np.divmod(live, self.loops.size)
            pos = np.searchsorted(flat, lrows * n + self.loops[lidx])
            counts[pos] = self.hits.ravel()[live]
        return edges, counts, offsets

    @property
    def edges(self) -> np.ndarray:
        """Flat ``int64`` edge indices of all traces; trace ``i`` owns
        ``[offsets[i], offsets[i+1])``, ascending as in
        :class:`ExecResult`."""
        return self._flat[0]

    @property
    def counts(self) -> np.ndarray:
        """Flat hit counts aligned with :attr:`edges`."""
        return self._flat[1]

    @property
    def offsets(self) -> np.ndarray:
        """``int64`` array of ``n + 1`` segment boundaries."""
        return self._flat[2]


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
        bufs = np.zeros((self.program.input_len, 1), dtype=np.uint8)
        raw = np.frombuffer(data, dtype=np.uint8)[:self.program.input_len]
        bufs[:raw.size, 0] = raw
        return self._run(bufs).result_for(0)

    def execute_inputs(self, inputs: Sequence[bytes]) -> BatchExecResult:
        """Run a list of byte inputs as one :meth:`execute_batch`.

        Each input is truncated to ``input_len`` and zero-padded, as in
        :meth:`execute`, so trace ``i`` equals ``execute(inputs[i])``.
        """
        rows = np.zeros((len(inputs), self.program.input_len),
                        dtype=np.uint8)
        for row, data in zip(rows, inputs):
            raw = np.frombuffer(data, dtype=np.uint8)[:row.size]
            row[:raw.size] = raw
        return self.execute_batch(rows)

    def execute_batch(self, data: np.ndarray) -> BatchExecResult:
        """Run a ``(n, width)`` uint8 matrix of inputs in one pass.

        Rows must be zero-padded past their logical lengths — exactly
        the layout :meth:`Mutator.havoc_apply` produces — because
        :meth:`execute` zero-fills its buffer; any padding width is
        accepted (rows are truncated or zero-extended to the program's
        ``input_len``). Each trace equals ``execute(row_bytes)``.

        Returns:
            :class:`BatchExecResult` in dense form.
        """
        n_rows, width = data.shape
        bufs = np.zeros((self.program.input_len, n_rows), dtype=np.uint8)
        w = min(width, self.program.input_len)
        bufs[:w] = data[:, :w].T
        return self._run(bufs)

    def _run(self, bufs: np.ndarray) -> BatchExecResult:
        """The kernel behind :meth:`execute` and :meth:`execute_batch`:
        ``bufs`` is ``(input_len, n)`` uint8, one input per column.

        The kernel works edge-major — a ``(n_edges, n)`` matrix, one
        row per edge — so every guard write, parent gather and crash
        probe moves whole contiguous rows. The result's ``reach`` is
        that matrix's transpose, a view.
        """
        n_rows = bufs.shape[1]
        n = self.program.n_edges
        reach = np.ones((n, n_rows), dtype=bool)  # execution order
        reach[self._never] = False
        if self._lt.size:
            reach[self._lt] = bufs[self._lt_off] < self._lt_val[:, None]
        if self._eq.size:
            reach[self._eq] = bufs[self._eq_off] == self._eq_val[:, None]
        if self._multi.size:
            reach[self._multi] = np.logical_and.reduceat(
                bufs[self._magic_off] == self._magic_val[:, None],
                self._multi_starts, axis=0)
        # Level by level: a parent's verdict is final before any child
        # reads it.
        for lo, hi, parents in self._levels:
            reach[lo:hi] &= reach[parents]

        crashes: List[Optional[CrashInfo]] = [None] * n_rows
        if self._crash_cols.size:
            hit = reach[self._crash_cols]
            crashed_rows = np.flatnonzero(hit.any(axis=0))
            if crashed_rows.size:
                first = self._crash_cols[
                    np.argmax(hit[:, crashed_rows], axis=0)]
                for row, col in zip(crashed_rows, first):
                    crashes[row] = self._crash_info(int(self._order[col]))
                    # The trace stops at the faulting edge.
                    reach[col + 1:, row] = False
        reach = reach[self._column]  # edge order

        # A hit count is at most 1 + 255, so uint16 holds it.
        hits = np.where(reach[self._loops],
                        1 + bufs[self._loop_off].astype(np.int64)
                        % self._loop_cap[:, None], 0).astype(np.uint16)
        n_edges = reach.sum(axis=0, dtype=np.int64)
        # Every traversed edge counts 1, a loop edge its hit count.
        traversals = (n_edges + hits.sum(axis=0, dtype=np.int64)
                      - np.count_nonzero(hits, axis=0))
        return BatchExecResult(reach=reach.T, hits=hits.T, loops=self._loops,
                               n_edges=n_edges, traversals=traversals,
                               crashes=crashes)
