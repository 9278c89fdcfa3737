"""Shared-memory multiprocess execution backend for batched campaigns.

:class:`MPCampaign` runs the exact same batched engine as
:class:`~repro.fuzzer.campaign.Campaign` — same RNG stream, same
scheduling, same replay semantics — but computes the whole vectorized
*front* of every mega-batch (havoc apply, execute, key gather, fused
aggregate/classify/compare) across a pool of forked worker processes.

Design (mirrors the runner/measurer split of Klees et al.):

* **Shared state in shared memory.** The virgin map, the BigMap index
  table and the ``used_key`` counter live in
  :mod:`multiprocessing.shared_memory` segments created *before* the
  workers fork. The parent's own arrays are replaced by views into
  those segments, so every in-place write the parent makes — virgin
  merges during replays, index slot assignments, checkpoint restores
  (which deliberately restore with ``arr[:] = saved``) — is immediately
  visible to every worker with zero copies and no synchronization
  protocol: workers only ever *read* the shared segments, and only
  between windows-fronts, when the parent is blocked waiting for them.
* **Specs, not rows, go out.** The parent draws no havoc randomness.
  Scheduling takes one key per seed from the canonical RNG stream and
  pairs it with the seed and partner bytes and the energy: the draw's
  *spec* (:meth:`~repro.fuzzer.campaign.Campaign._collect_window`). A
  window of ``n`` rows is split into ``workers`` contiguous shards
  with bounds ``n * w // workers`` — a pure function of ``(n,
  workers)``, independent of timing — and each worker receives the
  window width, its bounds and the window's specs. It draws only the
  specs overlapping its shard
  (:meth:`~repro.fuzzer.mutation.Mutator.draw_rows`), cuts them to its
  rows, applies them at the window width and runs the in-process
  front.
* **Rows and sparse replay state come back.** Each worker returns its
  mutant rows, the per-trace arrays (traversals, unique-location
  counts, interest flags, crash marks) and *sparse replay state*: the
  trace and aggregated-key segments of the rows it flagged or saw
  crash, empty segments elsewhere, and the mask of kept rows
  (:class:`~repro.fuzzer.campaign.BatchFront`).
* **Fixed reduction order.** The parent collects shard results in
  worker-index order (a blocking ``recv`` per pipe, in order), then
  concatenates. A draw is a pure function of its spec, a row's
  mutant depends only on its own draw and the window width, and every
  front quantity is row/segment-local, so the concatenation is
  bit-identical to the in-process front no matter how many workers
  computed it — the equivalence contract of DESIGN.md §8.

Everything after the front — charging, hang prediction, stale-flag
downgrades, replays, admissions, checkpoints, telemetry — runs
unchanged in the parent, so campaign results are bit-identical for any
worker count, including the serial engine. Replays of kept rows reuse
the worker's trace; the rest (budget-driven hang replays and the one
map-repair row per window) re-execute, which the executor contract
makes bit-identical. Workers never mutate shared state and never touch
the parent's RNG.

The worker entry point :func:`_mp_worker_main` runs in forked
children, so module-level mutable state written on both sides of this
boundary would silently diverge. This module keeps all of its state on
the campaign object and in the explicit shm segments; the 1/2/4-worker
bit-identity tests in ``tests/fuzzer/test_batch_engine.py`` pin that.
"""

from __future__ import annotations

import dataclasses
from multiprocessing import get_context, shared_memory
from typing import List

import numpy as np

from ..core.errors import CampaignConfigError
from .campaign import BatchFront, Campaign, CampaignConfig


def _keep_segments(record, kept: np.ndarray, flat):
    """``record`` with every segment outside ``kept`` emptied; ``flat``
    names its per-entry arrays."""
    sizes = np.diff(record.offsets)
    take = np.repeat(kept, sizes)
    offsets = np.concatenate(
        ([0], np.cumsum(np.where(kept, sizes, 0), dtype=np.int64)))
    fields = {name: getattr(record, name)[take] for name in flat}
    return dataclasses.replace(record, offsets=offsets, **fields)


def _sparse_front(front: BatchFront) -> BatchFront:
    """A worker's reply: segments kept only for flagged/crashed rows."""
    kept = front.flags | front.crashes
    return dataclasses.replace(
        front, kept=kept,
        bres=_keep_segments(front.bres, kept, ("edges", "counts")),
        update=dataclasses.replace(
            _keep_segments(front.update, kept,
                           ("keys", "summed", "classified")),
            seg=None))


def _concat(parts):
    """Concatenate per-shard records in shard order, field by field.

    Covers every record a front is made of (:class:`BatchFront` and the
    mutant batch, trace and key records inside it): nested records
    recurse, arrays and lists concatenate, segment ``offsets`` are
    rebased, and absent (None) fields stay absent.
    """
    fields = {}
    for field in dataclasses.fields(parts[0]):
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
    it back with sparse replay state.
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
            front = Campaign._batch_front(campaign, specs, width, lo, hi)
            conn.send(_sparse_front(front))
    finally:
        conn.close()


class MPCampaign(Campaign):
    """Batched campaign whose batch front runs on a process pool.

    Args:
        config: campaign configuration, as for :class:`Campaign`.
        built: optional pre-built benchmark, as for :class:`Campaign`.
        telemetry: optional recorder, as for :class:`Campaign`
            (telemetry stays entirely in the parent).
        workers: number of worker processes. ``1`` is valid and useful:
            it exercises the full shm/fork/pipe path while trivially
            matching the in-process engine.

    Close explicitly (or use as a context manager): the shared-memory
    segments must be unlinked and the workers joined.
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
        """Fork the pool (lazily, so workers inherit started state)."""
        for _ in range(self.workers):
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

        Sends each worker the window's specs and width plus the
        worker's contiguous row shard, and concatenates the replies in
        worker order.
        """
        if not self._procs:
            self._start_workers()
        self._used_key_shm[0] = getattr(self.coverage, "used_key", 0)
        width = max(self.mutator.width(data, partner)
                    for _, data, _, partner in specs)
        n = sum(energy for _, _, energy, _ in specs)
        w = self.workers
        for k, conn in enumerate(self._conns):
            conn.send(("front", specs, width, n * k // w,
                       n * (k + 1) // w))
        return _concat([conn.recv() for conn in self._conns])

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
        except Exception:  # statlint: disable=ERR001 (finalizer)
            pass
