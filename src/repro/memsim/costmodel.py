"""Analytical per-execution cost model for bitmap operations.

This module prices one fuzzing iteration (target execution + bitmap
reset/update/classify/compare/hash) in cycles on a
:class:`~repro.memsim.machine.Machine`, reproducing the paper's
throughput phenomena without its Xeon testbed.

The model rests on one residency rule, validated against the exact
cache simulator in the test suite:

    **Everything an iteration touches competes for cache.** The
    iteration's working set W is the sum of the target's own hot data
    and every map structure the iteration references. An operation's
    data is served by the smallest cache level that holds W; if W
    exceeds the LLC, it is served by DRAM.

What goes into W is where AFL and BigMap differ — and is the entire
point of the paper:

* AFL streams its full local map *and* the full virgin map every
  iteration (reset/classify/compare sweeps), so
  ``W_afl = 2 × map_size + target_ws``. An 8 MB map means a 16 MB+
  working set: nothing survives in a 12 MB LLC, every sweep and every
  scattered counter update goes to memory, and thousands of 4 kB pages
  thrash the DTLB.
* BigMap touches only the condensed prefix (``used_key`` bytes, a few
  times over) plus the cache lines of the index entries its edges hit:
  ``W_bigmap = 2 × used + unique × line + target_ws`` — independent of
  ``map_size``, which is the adaptivity claim of §IV-A.

Sequential sweeps are priced per byte at the residency level's
streaming rate (writes at DRAM pay read-for-ownership; non-temporal
stores bypass it, §IV-E). Scattered accesses pay the residency level's
load latency plus a DTLB walk fraction (huge pages eliminate it).
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Dict

import numpy as np

from ..core.errors import CalibrationError
from .machine import Machine, XEON_E5645
from .tlb import scattered_walk_fraction, sweep_walk_cycles

#: Map-structure kinds.
AFL = "afl"
BIGMAP = "bigmap"

#: Extra DRAM cost factor for cached→memory write sweeps (RFO + WB).
DRAM_WRITE_FACTOR = 1.6
#: Streaming rate for non-temporal stores (cycles/byte), level-independent.
NON_TEMPORAL_RATE = 0.40


@dataclass(frozen=True)
class MapCostConfig:
    """Which data structure, at what size, with which §IV-E options."""

    kind: str
    map_size: int
    merged_classify_compare: bool = True
    non_temporal_reset: bool = False
    huge_pages: bool = True
    index_entry_bytes: int = 8

    def __post_init__(self) -> None:
        if self.kind not in (AFL, BIGMAP):
            raise CalibrationError(f"unknown map kind {self.kind!r}")
        if self.map_size <= 0:
            raise CalibrationError(f"map_size must be positive, got "
                                   f"{self.map_size}")


@dataclass(frozen=True)
class ExecShape:
    """Per-execution quantities reported by the campaign loop.

    Attributes:
        traversals: total edge traversals (instrumentation executions).
        unique_locations: distinct map locations touched.
        used_bytes: BigMap's ``used_key`` at this point (ignored for AFL).
        interesting: whether the test case triggers the hash operation.
        hash_bytes: bytes the hash covers (BigMap: up to last non-zero).
    """

    traversals: int
    unique_locations: int
    used_bytes: int = 0
    interesting: bool = False
    hash_bytes: int = 0


#: Figure 3's cost categories, in :class:`OpCycles` field order.
OP_CATEGORIES = ("execution", "reset", "classify", "compare", "hash",
                 "others")


@dataclass(frozen=True)
class OpCycles:
    """Cycle breakdown of one fuzzing iteration (Figure 3's categories)."""

    execution: float
    reset: float
    classify: float
    compare: float
    hash: float
    others: float

    @property
    def total(self) -> float:
        return (self.execution + self.reset + self.classify +
                self.compare + self.hash + self.others)

    def as_dict(self) -> Dict[str, float]:
        return {key: getattr(self, key) for key in OP_CATEGORIES}


@dataclass(frozen=True)
class BatchOpCycles:
    """Vectorized :class:`OpCycles` for a batch of non-interesting execs.

    ``execution`` varies per trace; the sweep components depend only on
    the (shared) coverage state, so they are scalars. Column ``i`` of
    :meth:`columns` must be bit-identical to
    ``exec_cycles(ExecShape(...))`` for that trace — the batched
    campaign relies on this for cycle-exact determinism.
    """

    execution: np.ndarray
    reset: float
    classify: float
    compare: float
    hash: float
    others: float

    @property
    def n(self) -> int:
        return int(self.execution.size)

    def totals(self) -> np.ndarray:
        """Per-trace total cycles, accumulated in ``OpCycles.total`` order."""
        return ((((self.execution + self.reset) + self.classify) +
                 self.compare) + self.hash) + self.others

    def columns(self, lo: int, hi: int) -> np.ndarray:
        """Traces ``[lo, hi)`` as one row per :data:`OP_CATEGORIES`
        entry and one column per trace."""
        out = np.empty((len(OP_CATEGORIES), hi - lo))
        out[0] = self.execution[lo:hi]
        out[1:] = [[self.reset], [self.classify], [self.compare],
                   [self.hash], [self.others]]
        return out


class BitmapCostModel:
    """Prices fuzzing iterations for one (machine, map config, target).

    Args:
        config: map structure and options.
        machine: hardware parameters (default: the paper's Xeon).
        exec_base_cycles: fixed per-execution target cost (setup, I/O).
        per_traversal_cycles: target cost per edge traversal.
        indirection_cycles: BigMap's extra per-traversal cost for the
            index load + predicted branch (Listing 2 lines 3–5).
        target_ws_bytes: the target program's own hot working set.
        others_cycles: scheduling/bookkeeping constant ("Others").
        fork_overhead_cycles: per-execution process-creation cost. Zero
            models the paper's persistent mode (§V-A1: "does not have
            any fork() call or initialization overheads"); classic
            fork-server AFL pays a few hundred microseconds per run.
    """

    def __init__(self, config: MapCostConfig, *,
                 machine: Machine = XEON_E5645,
                 exec_base_cycles: float = 60_000.0,
                 per_traversal_cycles: float = 110.0,
                 indirection_cycles: float = 2.0,
                 target_ws_bytes: int = 65_536,
                 others_cycles: float = 15_000.0,
                 fork_overhead_cycles: float = 0.0) -> None:
        for name, value in (("exec_base_cycles", exec_base_cycles),
                            ("per_traversal_cycles", per_traversal_cycles),
                            ("indirection_cycles", indirection_cycles),
                            ("others_cycles", others_cycles)):
            if value < 0:
                raise CalibrationError(f"{name} must be >= 0, got {value}")
        self.config = config
        self.machine = machine
        self.exec_base_cycles = exec_base_cycles
        self.per_traversal_cycles = per_traversal_cycles
        self.indirection_cycles = indirection_cycles
        self.target_ws_bytes = target_ws_bytes
        self.others_cycles = others_cycles
        if fork_overhead_cycles < 0:
            raise CalibrationError(
                f"fork_overhead_cycles must be >= 0, got "
                f"{fork_overhead_cycles}")
        self.fork_overhead_cycles = fork_overhead_cycles
        # Per-level tables (cache levels smallest first, DRAM last).
        self._level_sizes = tuple(lvl.size_bytes for lvl in machine.levels)
        self._latency = (*(lvl.latency_cycles for lvl in machine.levels),
                         machine.dram_latency_cycles)
        self._attribution_keys = (
            "core", *(lvl.name.lower() for lvl in machine.levels), "dram",
            "tlb")

    # -- residency -------------------------------------------------------

    def working_set_bytes(self, shape: ExecShape) -> int:
        """Total bytes one iteration touches (the W of the module doc)."""
        if self.config.kind == AFL:
            return 2 * self.config.map_size + self.target_ws_bytes
        index_lines = shape.unique_locations * self.machine.line_size
        return (2 * shape.used_bytes + index_lines + self.target_ws_bytes)

    def _level_index(self, footprint: int) -> int:
        """Smallest level holding ``footprint``; len(levels) = DRAM."""
        return bisect.bisect_left(self._level_sizes, footprint)

    def _level_rows(self, footprints) -> np.ndarray:
        """:meth:`_level_index` of every entry of ``footprints``."""
        return np.searchsorted(self._level_sizes, footprints, side="left")

    def _seq_rate(self, level_idx: int, *, write: bool) -> float:
        if level_idx >= len(self.machine.levels):
            rate = self.machine.dram_seq_cycles_per_byte
            return rate * DRAM_WRITE_FACTOR if write else rate
        return self.machine.levels[level_idx].seq_cycles_per_byte

    # -- per-operation pricing -------------------------------------------

    def _sweep(self, region_bytes: int, level_idx: int, *,
               write: bool = False, read_write: bool = False,
               non_temporal: bool = False) -> float:
        """Cycles for one sequential pass over ``region_bytes``."""
        if region_bytes <= 0:
            return 0.0
        if non_temporal:
            cycles = region_bytes * NON_TEMPORAL_RATE
        else:
            rate = self._seq_rate(level_idx, write=write or read_write)
            passes = 2.0 if read_write else 1.0
            cycles = region_bytes * rate * passes
        return cycles + sweep_walk_cycles(region_bytes, self.machine,
                                          self.config.huge_pages)

    def _scatter(self, n_accesses: int, region_bytes: int,
                 level_idx: int) -> float:
        """Cycles for data-dependent accesses within ``region_bytes``."""
        if n_accesses <= 0:
            return 0.0
        walk = scattered_walk_fraction(region_bytes, self.machine,
                                       self.config.huge_pages)
        per_access = self._latency[level_idx] + \
            walk * self.machine.walk_cycles
        return n_accesses * per_access

    # -- iteration pricing -------------------------------------------------

    def exec_cycles(self, shape: ExecShape) -> OpCycles:
        """Cycle breakdown of one fuzzing iteration."""
        cfg = self.config
        level_w = self._level_index(self.working_set_bytes(shape))

        execution = (self.exec_base_cycles +
                     self.fork_overhead_cycles +
                     shape.traversals * self.per_traversal_cycles)
        if cfg.kind == AFL:
            active = cfg.map_size
            # Counter updates scatter over the full map span.
            execution += self._scatter(shape.unique_locations,
                                       cfg.map_size, level_w)
            reset_level = level_w
            hash_bytes = cfg.map_size
        else:
            active = shape.used_bytes
            # Index lookup per traversal (cheap: predicted branch + load
            # from a hot line) plus scattered index access per distinct
            # edge, plus dense counter writes into the condensed prefix.
            execution += shape.traversals * self.indirection_cycles
            index_region = cfg.map_size * cfg.index_entry_bytes
            execution += self._scatter(shape.unique_locations,
                                       index_region, level_w)
            # Hot-set rule: the condensed prefix is touched several
            # times per iteration and nothing streams over it, so it
            # stays resident at whatever level holds it — regardless of
            # the index lines and target data around it.
            dense_level = self._level_index(2 * shape.used_bytes)
            execution += self._scatter(shape.unique_locations,
                                       max(shape.used_bytes, 1),
                                       dense_level)
            reset_level = dense_level
            hash_bytes = shape.hash_bytes or shape.used_bytes

        sweep_level = level_w if cfg.kind == AFL else reset_level
        reset = self._sweep(active, reset_level, write=True,
                            non_temporal=cfg.non_temporal_reset)
        if cfg.merged_classify_compare:
            classify = 0.0
            compare = (self._sweep(active, sweep_level, read_write=True) +
                       self._sweep(active, sweep_level))
        else:
            classify = self._sweep(active, sweep_level, read_write=True)
            compare = (self._sweep(active, sweep_level) +
                       self._sweep(active, sweep_level))
        hash_cycles = self._sweep(hash_bytes, sweep_level) \
            if shape.interesting else 0.0

        return OpCycles(execution=execution, reset=reset,
                        classify=classify, compare=compare,
                        hash=hash_cycles, others=self.others_cycles)

    def exec_cycles_batch(self, traversals: np.ndarray,
                          unique_locations: np.ndarray, *,
                          used_bytes: int = 0) -> BatchOpCycles:
        """Price a batch of non-interesting executions at once.

        Equivalent to calling :meth:`exec_cycles` per trace with
        ``ExecShape(traversals[i], unique_locations[i], used_bytes)`` —
        and bit-identical to it, because every per-row term is computed
        with the same elementary float operations in the same order.
        ``used_bytes`` is a scalar: within one batch the coverage state
        is fixed (interesting traces replay the scalar path, and the
        caller re-prices the remainder when ``used_key`` moves).
        """
        cfg = self.config
        trav = np.asarray(traversals, dtype=np.int64)
        uniq = np.asarray(unique_locations, dtype=np.int64)
        execution = ((self.exec_base_cycles + self.fork_overhead_cycles) +
                     trav * self.per_traversal_cycles)

        if cfg.kind == AFL:
            # AFL's working set is shape-independent, so one residency
            # level covers the whole batch.
            level_w = self._level_index(
                2 * cfg.map_size + self.target_ws_bytes)
            walk = scattered_walk_fraction(cfg.map_size, self.machine,
                                           cfg.huge_pages)
            per_access = self._latency[level_w] + \
                walk * self.machine.walk_cycles
            execution = execution + uniq * per_access
            active = cfg.map_size
            reset_level = level_w
        else:
            # BigMap's working set varies with unique_locations, so the
            # residency level of the index scatter is per-row.
            level_rows = self._level_rows(
                2 * used_bytes + uniq * self.machine.line_size +
                self.target_ws_bytes)
            execution = execution + trav * self.indirection_cycles
            index_region = cfg.map_size * cfg.index_entry_bytes
            walk_idx = scattered_walk_fraction(index_region, self.machine,
                                               cfg.huge_pages)
            per_access_idx = np.take(self._latency, level_rows) + \
                walk_idx * self.machine.walk_cycles
            execution = execution + uniq * per_access_idx
            dense_level = self._level_index(2 * used_bytes)
            walk_dense = scattered_walk_fraction(
                max(used_bytes, 1), self.machine, cfg.huge_pages)
            per_access_dense = self._latency[dense_level] + \
                walk_dense * self.machine.walk_cycles
            execution = execution + uniq * per_access_dense
            active = used_bytes
            reset_level = dense_level

        sweep_level = reset_level
        reset = self._sweep(active, reset_level, write=True,
                            non_temporal=cfg.non_temporal_reset)
        if cfg.merged_classify_compare:
            classify = 0.0
            compare = (self._sweep(active, sweep_level, read_write=True) +
                       self._sweep(active, sweep_level))
        else:
            classify = self._sweep(active, sweep_level, read_write=True)
            compare = (self._sweep(active, sweep_level) +
                       self._sweep(active, sweep_level))

        return BatchOpCycles(execution=execution, reset=reset,
                             classify=classify, compare=compare,
                             hash=0.0, others=self.others_cycles)

    # -- cycle attribution -------------------------------------------------

    def cycle_attribution(self, shape: ExecShape) -> Dict[str, float]:
        """Where one iteration's cycles go: per hierarchy level + TLB.

        Returns ``{"core", "l1d", "l2", "llc", "dram", "tlb"}`` cycle
        totals that sum to ``exec_cycles(shape).total`` exactly — the
        same pricing walk as :meth:`exec_cycles`, but split by *where*
        each component is served instead of by *which operation* spent
        it. ``core`` holds the memory-independent work (target compute,
        indirection arithmetic, fork, bookkeeping); ``tlb`` holds page
        walks from both sweeps and scattered accesses. Telemetry feeds
        the :meth:`level_share` fractions as histogram observations
        (``memsim.share.*``), giving campaigns the per-execution
        tracing-cost decomposition the throughput figures are built
        from. :meth:`cycle_attribution_batch` on this one execution.
        """
        return _one_row(self.cycle_attribution_batch, shape)

    def level_share(self, shape: ExecShape) -> Dict[str, float]:
        """:meth:`cycle_attribution` normalized to fractions of total."""
        return _one_row(self.level_share_batch, shape)

    def cycle_attribution_batch(self, traversals, unique_locations, *,
                                used_bytes: int = 0,
                                interesting: bool = False,
                                hash_bytes: int = 0) -> Dict[str, object]:
        """:meth:`cycle_attribution` of executions sharing one coverage state.

        ``traversals`` and ``unique_locations`` are ints for one
        execution (the walk then stays in plain floats) or equal-length
        arrays, one entry per execution. Entry ``i`` is bit-identical to
        the walk on entry ``i`` alone: the same float terms in the same
        order, where a term the row does not incur (no accesses, or a
        level that does not serve it) is an exact ``+ 0.0``.
        """
        cfg = self.config
        machine = self.machine
        trav, uniq = traversals, unique_locations
        if np.ndim(trav):
            trav = np.asarray(trav, dtype=np.int64)
            uniq = np.asarray(uniq, dtype=np.int64)
        zero = trav * 0.0
        levels = [zero] * len(self._latency)  # DRAM last
        tlb = zero

        def scatter(region_bytes: int, level) -> None:
            nonlocal tlb
            if np.ndim(level):
                # A per-row level: each row lands on exactly one level.
                for k, latency in enumerate(self._latency):
                    levels[k] = levels[k] + uniq * latency * (level == k)
            else:
                levels[level] = levels[level] + uniq * self._latency[level]
            walk = scattered_walk_fraction(region_bytes, machine,
                                           cfg.huge_pages)
            tlb = tlb + uniq * walk * machine.walk_cycles

        def sweep(region_bytes: int, level_idx: int, *,
                  write: bool = False, read_write: bool = False,
                  non_temporal: bool = False) -> None:
            nonlocal tlb
            if region_bytes <= 0:
                return
            if non_temporal:
                # NT stores stream past the hierarchy straight to DRAM.
                levels[-1] = levels[-1] + region_bytes * NON_TEMPORAL_RATE
            else:
                rate = self._seq_rate(level_idx, write=write or read_write)
                passes = 2.0 if read_write else 1.0
                levels[level_idx] = (levels[level_idx] +
                                     region_bytes * rate * passes)
            tlb = tlb + sweep_walk_cycles(region_bytes, machine,
                                          cfg.huge_pages)

        core = ((self.exec_base_cycles + self.fork_overhead_cycles) +
                trav * self.per_traversal_cycles)
        if cfg.kind == AFL:
            level_w = self._level_index(
                2 * cfg.map_size + self.target_ws_bytes)
            active = cfg.map_size
            scatter(cfg.map_size, level_w)
            reset_level = level_w
            hash_bytes = cfg.map_size
        else:
            level_w = self._level_rows(2 * used_bytes +
                                       uniq * machine.line_size +
                                       self.target_ws_bytes)
            active = used_bytes
            core = core + trav * self.indirection_cycles
            scatter(cfg.map_size * cfg.index_entry_bytes, level_w)
            dense_level = self._level_index(2 * used_bytes)
            scatter(max(used_bytes, 1), dense_level)
            reset_level = dense_level
            hash_bytes = hash_bytes or used_bytes

        sweep(active, reset_level, write=True,
              non_temporal=cfg.non_temporal_reset)
        sweep(active, reset_level, read_write=True)
        sweep(active, reset_level)
        if not cfg.merged_classify_compare:
            # Unmerged classify+compare costs one extra plain sweep
            # over the region (rw + 2×plain vs merged's rw + plain).
            sweep(active, reset_level)
        if interesting:
            sweep(hash_bytes, reset_level)
        core = core + self.others_cycles
        return dict(zip(self._attribution_keys, (core, *levels, tlb)))

    def level_share_batch(self, traversals, unique_locations,
                          **shape) -> Dict[str, object]:
        """:meth:`cycle_attribution_batch` normalized to fractions of
        each execution's total."""
        attr = self.cycle_attribution_batch(traversals, unique_locations,
                                            **shape)
        total = sum(attr.values())
        # An execution whose cycles are all zero has all-zero shares.
        divisor = np.where(total > 0, total, np.inf)
        return {key: value / divisor for key, value in attr.items()}

    def throughput(self, shape: ExecShape) -> float:
        """Executions per second for a steady stream of ``shape`` execs."""
        return self.machine.frequency_hz / self.exec_cycles(shape).total

    def dram_bytes_per_exec(self, shape: ExecShape) -> float:
        """Approximate DRAM traffic per iteration (drives contention).

        Sweeps whose residency level is DRAM stream their full region;
        scattered DRAM accesses move one line each. Zero when the
        working set fits in the LLC. The smaller the cache share
        relative to the working set, the *more* traffic each iteration
        moves (the target's own data misses too, and dirty map lines
        are written back mid-sweep) — this thrash amplification is what
        bends AFL's total throughput downward past the socket knee in
        Figure 9(a).
        """
        working_set = self.working_set_bytes(shape)
        level_w = self._level_index(working_set)
        if level_w < len(self.machine.levels):
            return 0.0
        cfg = self.config
        if cfg.kind == AFL:
            active = cfg.map_size
            sweep_passes = 4.0  # reset + classify/compare rw + virgin
            scattered = shape.unique_locations
        else:
            active = shape.used_bytes
            sweep_passes = 4.0
            scattered = 2 * shape.unique_locations
        base_traffic = (active * sweep_passes +
                        scattered * self.machine.line_size +
                        self.target_ws_bytes)
        overflow = 1.0 - min(1.0, self.machine.llc.size_bytes /
                             working_set)
        return base_traffic * (1.0 + 0.8 * overflow)


def _one_row(batch_fn, shape: ExecShape) -> Dict[str, float]:
    """Evaluate a ``*_batch`` attribution on the one execution ``shape``."""
    row = batch_fn(shape.traversals, shape.unique_locations,
                   used_bytes=shape.used_bytes,
                   interesting=shape.interesting,
                   hash_bytes=shape.hash_bytes)
    return {key: float(value) for key, value in row.items()}
