"""Shared-memory multiprocess execution backend for batched campaigns.

:class:`MPCampaign` runs the exact same batched engine as
:class:`~repro.fuzzer.campaign.Campaign` — same RNG stream, same
scheduling, same replay semantics — but computes the vectorized *front
half* of every mega-batch (execute, key gather, fused
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
* **Deterministic sharding.** A mega-batch of ``n`` rows is split into
  ``workers`` contiguous shards with bounds ``n * w // workers`` —
  a pure function of ``(n, workers)``, independent of timing.
* **Fixed reduction order.** The parent collects shard results in
  worker-index order (a blocking ``recv`` per pipe, in order), then
  concatenates. Every per-trace quantity the front produces
  (traversals, unique-location counts, interest flags, crash marks) is
  row/segment-local, so the concatenation is bit-identical to the
  in-process front no matter how many workers computed it — the
  equivalence contract of DESIGN.md §8.

Everything after the front — charging, hang prediction, replays,
admissions, checkpoints, telemetry — runs unchanged in the parent, so
campaign results are bit-identical for any worker count, including the
serial engine. Workers ship only four small arrays per shard; they
never send flat key arrays, mutate shared state, or touch the RNG.

The worker entry point :func:`_mp_worker_main` runs in forked
children, so module-level mutable state written on both sides of this
boundary would silently diverge. This module keeps all of its state on
the campaign object and in the explicit shm segments; the 1/2/4-worker
bit-identity tests in ``tests/fuzzer/test_batch_engine.py`` pin that.
"""

from __future__ import annotations

from multiprocessing import get_context, shared_memory
from typing import List, Optional

import numpy as np

from ..core.errors import CampaignConfigError
from .campaign import BatchFront, Campaign, CampaignConfig
from .mutation import MutantBatch


def _mp_worker_main(campaign: "MPCampaign", conn) -> None:
    """Worker loop: compute batch-front shards on request.

    Runs in a forked child. Reads the inherited (read-only for the
    worker) executor/instrumentation tables and the shared-memory
    virgin/index/used_key state; writes nothing but its reply pipe.
    One request computes one shard's front and ships back exactly the
    four per-trace arrays :class:`BatchFront` needs.
    """
    try:
        while True:
            msg = conn.recv()
            if msg[0] == "stop":
                break
            _, data, lengths = msg
            # Refresh the one scalar mirrored through shared memory
            # (arrays need no refresh: they *are* the shared segments).
            if hasattr(campaign.coverage, "used_key"):
                campaign.coverage.used_key = int(
                    campaign._used_key_shm[0])
            # The in-process front, bypassing this class's sharding
            # override.
            front = Campaign._batch_front(
                campaign, MutantBatch(data=data, lengths=lengths))
            conn.send((front.traversals, front.n_unique, front.flags,
                       front.crashes))
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

    def _batch_front(self, batch) -> BatchFront:
        """Sharded batch front: deterministic split, ordered reduce.

        Ships each worker its contiguous row shard over the pipe and
        concatenates the replies in worker order. ``bres``/``update``
        stay ``None`` — the flat arrays live in the workers — so
        replays in the parent re-execute scalar traces, which the
        executor contract makes bit-identical.
        """
        if not self._procs:
            self._start_workers()
        self._used_key_shm[0] = getattr(self.coverage, "used_key", 0)
        n = int(batch.lengths.size)
        w = self.workers
        cuts = [n * k // w for k in range(w + 1)]
        for k, conn in enumerate(self._conns):
            conn.send(("front", batch.data[cuts[k]:cuts[k + 1]],
                       batch.lengths[cuts[k]:cuts[k + 1]]))
        parts = [conn.recv() for conn in self._conns]
        return BatchFront(
            traversals=np.concatenate([p[0] for p in parts]),
            n_unique=np.concatenate([p[1] for p in parts]),
            flags=np.concatenate([p[2] for p in parts]),
            crashes=np.concatenate([p[3] for p in parts]))

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
