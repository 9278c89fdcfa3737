"""Shared-memory multiprocess execution backend for batched campaigns.

:class:`MPCampaign` runs the exact same batched engine as
:class:`~repro.fuzzer.campaign.Campaign` — same RNG stream, same
scheduling, same replay semantics — but computes the whole vectorized
*front* of every mega-batch (havoc apply, execute, key gather, fused
aggregate/classify/compare) across ``workers`` processes: the parent
and ``workers - 1`` forked children.

Design (mirrors the runner/measurer split of Klees et al.):

* **Shared state in shared memory.** The virgin map, the BigMap index
  table and the ``used_key`` counter live in
  :mod:`multiprocessing.shared_memory` segments created *before* the
  children fork. The parent's own arrays are replaced by views into
  those segments, so every in-place write the parent makes — virgin
  merges during replays, index slot assignments, checkpoint restores
  (which deliberately restore with ``arr[:] = saved``) — is immediately
  visible to every child with zero copies and no synchronization
  protocol: while a window's front runs, every process, the parent
  included, only *reads* the shared segments, and the parent writes
  them only after it has received every child's reply. With one
  worker no child exists, so nothing is re-homed.
* **Specs, not rows, go out.** Scheduling draws no havoc randomness:
  it takes one key per seed from the canonical RNG stream and
  pairs it with the seed and partner bytes and the energy: the draw's
  *spec* (:meth:`~repro.fuzzer.campaign.Campaign._collect_window`). A
  window of ``n`` rows is split into ``workers`` contiguous shards
  with bounds ``n * w // workers`` — a pure function of ``(n,
  workers)``, independent of timing. Child ``w`` (from 1) receives the
  window width, the bounds of shard ``w`` and the window's specs; the
  parent sends every child its request first and then computes shard
  0 itself. Each process draws only the specs overlapping its shard
  (:meth:`~repro.fuzzer.mutation.Mutator.draw_rows`), cuts them to its
  rows, applies them at the window width and runs the in-process
  front.
* **Rows and dense traces come back.** Each child returns its
  mutant rows, its dense traces (the executor's reach matrix and loop
  hit counts), the per-trace arrays (traversals, unique-location
  counts, interest flags, crash marks) and the aggregated-key segments
  of the rows it flagged, empty elsewhere
  (:class:`~repro.fuzzer.campaign.BatchFront`).
* **Fixed reduction order.** The parent puts its own shard first,
  collects the children's in child order (a blocking ``recv`` per pipe,
  in order), then concatenates. It receives every reply even when its
  own shard raises, so a pipe never holds a stale window's reply. A
  draw is a pure function of its spec, a row's mutant depends only on
  its own draw and the window width, and every front quantity is
  row/segment-local, so the concatenation is bit-identical to the
  in-process front no matter how many workers computed it — the
  equivalence contract of DESIGN.md §8.

Everything after the front — charging, hang prediction, stale-flag
downgrades, replays, admissions, checkpoints, telemetry — runs
unchanged in the parent, so campaign results are bit-identical for any
worker count, including the serial engine. The parent re-tests each
flag it meets in the cheap-run scan against the live virgin map, using
the flagged row's aggregated keys, so a flag gone stale joins the
current run of cheap traces instead of ending it. A flagged replay
loads the aggregated segment its shard built; a row without one (a
crash-only or hang-budget replay, or the window's one map-repair row)
cuts its trace from the shard's dense rows, exactly as the in-process
engine does, so nothing re-executes or re-aggregates.
Children never mutate shared state and never touch the parent's RNG.

The worker entry point :func:`_mp_worker_main` runs in forked
children, so module-level mutable state written on both sides of this
boundary would silently diverge. This module keeps all of its state on
the campaign object and in the explicit shm segments; the
1/2/3/4-worker bit-identity tests in
``tests/fuzzer/test_batch_engine.py`` pin that.
"""

from __future__ import annotations

import dataclasses
from multiprocessing import get_context, shared_memory
from typing import List

import numpy as np

from ..core.errors import CampaignConfigError
from .campaign import BatchFront, Campaign, CampaignConfig


def _concat(parts):
    """Concatenate per-shard records in shard order, field by field.

    Covers every record a front is made of (:class:`BatchFront` and the
    mutant batch, trace and key records inside it): nested records
    recurse, arrays (along rows) and lists concatenate, segment
    ``offsets`` are rebased, and absent (None) fields and fields marked
    ``shared`` (one array every shard holds whole) stay as they are.
    """
    fields = {}
    for field in dataclasses.fields(parts[0]):
        if field.metadata.get("shared"):
            continue
        values = [getattr(p, field.name) for p in parts]
        if field.name == "offsets":
            shift = np.cumsum([0] + [int(v[-1]) for v in values])
            values = [values[0][:1]] + [v[1:] + s
                                        for v, s in zip(values, shift)]
        if dataclasses.is_dataclass(values[0]):
            fields[field.name] = _concat(values)
        elif isinstance(values[0], list):
            fields[field.name] = [x for v in values for x in v]
        elif values[0] is not None:
            fields[field.name] = np.concatenate(values)
    return dataclasses.replace(parts[0], **fields)


def _mp_worker_main(campaign: "MPCampaign", conn) -> None:
    """Worker loop: compute batch-front shards on request.

    Runs in a forked child. Reads the inherited (read-only for the
    worker) executor/instrumentation tables and the shared-memory
    virgin/index/used_key state; writes nothing but its reply pipe.
    One request draws the specs overlapping one shard, applies that
    shard's rows at the window width, computes their front and ships
    it back.
    """
    try:
        while True:
            msg = conn.recv()
            if msg[0] == "stop":
                break
            _, specs, width, lo, hi = msg
            # Refresh the one scalar mirrored through shared memory
            # (arrays need no refresh: they *are* the shared segments).
            if hasattr(campaign.coverage, "used_key"):
                campaign.coverage.used_key = int(
                    campaign._used_key_shm[0])
            # The in-process front, bypassing this class's sharding
            # override.
            conn.send(Campaign._batch_front(campaign, specs, width, lo, hi))
    finally:
        conn.close()


class MPCampaign(Campaign):
    """Batched campaign whose batch front runs on a process pool.

    Args:
        config: campaign configuration, as for :class:`Campaign`.
        built: optional pre-built benchmark, as for :class:`Campaign`.
        telemetry: optional recorder, as for :class:`Campaign`
            (telemetry stays entirely in the parent).
        workers: number of processes that compute each front, the
            parent included: ``workers - 1`` children are forked at the
            first window. ``1`` forks nothing and allocates no shared
            memory; it is the in-process front.

    Close explicitly (or use as a context manager): the shared-memory
    segments must be unlinked and the children joined.
    """

    def __init__(self, config: CampaignConfig,
                 built=None, telemetry=None, *, workers: int = 2) -> None:
        if workers < 1:
            raise CampaignConfigError(
                f"workers must be >= 1, got {workers}")
        super().__init__(config, built, telemetry)
        self.workers = workers
        self._ctx = get_context("fork")
        self._shm_segments: List[shared_memory.SharedMemory] = []
        self._procs: List = []
        self._conns: List = []
        self._closed = False
        if workers > 1:
            self._move_shared_state()

    # -- shared-memory plumbing ----------------------------------------

    def _shm_view(self, arr: np.ndarray) -> np.ndarray:
        """Copy ``arr`` into a fresh shm segment; return the view."""
        shm = shared_memory.SharedMemory(create=True,
                                         size=max(int(arr.nbytes), 1))
        self._shm_segments.append(shm)
        view = np.ndarray(arr.shape, dtype=arr.dtype, buffer=shm.buf)
        view[:] = arr
        return view

    def _move_shared_state(self) -> None:
        """Re-home the cross-process state into shared memory.

        Must happen before any fork. After this, the parent's writes
        go through the views, so no explicit publish step exists —
        except for ``used_key``, a plain int mirrored into a one-cell
        array right before each dispatch.
        """
        self.virgin.virgin = self._shm_view(self.virgin.virgin)
        if hasattr(self.coverage, "index"):
            self.coverage.index = self._shm_view(self.coverage.index)
        self._used_key_shm = self._shm_view(np.zeros(1, dtype=np.int64))

    def _start_workers(self) -> None:
        """Fork the ``workers - 1`` children (lazily, so they inherit
        started state); the parent is the pool's first worker."""
        for _ in range(self.workers - 1):
            parent_conn, child_conn = self._ctx.Pipe()
            proc = self._ctx.Process(target=_mp_worker_main,
                                     args=(self, child_conn),
                                     daemon=True)
            proc.start()
            child_conn.close()
            self._procs.append(proc)
            self._conns.append(parent_conn)

    # -- engine override -----------------------------------------------

    def _batch_front(self, specs) -> BatchFront:
        """Sharded batch front: deterministic split, ordered reduce.

        Sends each child the window's specs and width plus its
        contiguous row shard, computes shard 0 in the parent meanwhile,
        and concatenates the parent's part and the children's replies
        in shard order. Every child's reply is received even when the
        parent's shard raises, so the pipes stay in step with the
        windows.
        """
        w = self.workers
        if w > 1 and not self._procs:
            self._start_workers()
        if self._conns:
            self._used_key_shm[0] = getattr(self.coverage, "used_key", 0)
        width = max(self.mutator.width(data, partner)
                    for _, data, _, partner in specs)
        n = sum(energy for _, _, energy, _ in specs)
        for k, conn in enumerate(self._conns, start=1):
            conn.send(("front", specs, width, n * k // w,
                       n * (k + 1) // w))
        try:
            head = Campaign._batch_front(self, specs, width, 0, n // w)
        finally:
            tails = [conn.recv() for conn in self._conns]
        return _concat([head] + tails) if tails else head

    # -- lifecycle -----------------------------------------------------

    def close(self) -> None:
        """Stop workers, join them, release the shm segments."""
        if self._closed:
            return
        self._closed = True
        for conn in self._conns:
            try:
                conn.send(("stop",))
            except (OSError, ValueError):
                pass
        for proc in self._procs:
            proc.join(timeout=10)
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=10)
        for conn in self._conns:
            conn.close()
        self._conns = []
        self._procs = []
        if not self._shm_segments:
            return
        # Detach the parent-side views before releasing their buffers
        # (the arrays would otherwise keep the mappings pinned).
        self.virgin.virgin = self.virgin.virgin.copy()
        if hasattr(self.coverage, "index"):
            self.coverage.index = self.coverage.index.copy()
        self._used_key_shm = self._used_key_shm.copy()
        for shm in self._shm_segments:
            try:
                shm.close()
                shm.unlink()
            except FileNotFoundError:
                pass
        self._shm_segments = []

    def __enter__(self) -> "MPCampaign":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self) -> None:
        try:
            self.close()
        # A finalizer must never raise (the interpreter would print and
        # discard it mid-GC); close() is best-effort here and explicit
        # close()/context-manager exits surface real errors.
        except Exception:
            pass
