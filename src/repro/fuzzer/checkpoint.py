"""Campaign checkpointing: snapshot and restore of in-flight state.

A :class:`CampaignCheckpoint` captures everything a campaign needs to
resume *bit-identically* from a point in virtual time: the queue, the
virgin maps, the crash records, the RNG stream position, the clock and
every counter. Restoring one onto the campaign it came from and
re-running the same slice reproduces the original run exactly — the
property the parallel supervisor relies on when it restarts a crashed
instance, and the property ``tests/fuzzer/test_checkpoint.py`` pins.

Checkpoints are in-process value snapshots (copied arrays and records),
not serialized files: a supervised restart models a *process* respawn
in the simulated fleet, and the checkpoint plays the role of AFL's
on-disk queue/fuzzer_stats that survive the process.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, replace
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from ..core.errors import CheckpointError
from .seed import Seed
from .stats import RunningShape
from .triage import CrashRecord


def _copy_records(records: Dict[int, CrashRecord]) -> Dict[int, CrashRecord]:
    return {key: replace(record) for key, record in records.items()}


@dataclass
class CampaignCheckpoint:
    """Value snapshot of a started campaign (see module docstring)."""

    clock_cycles: float
    execs: int
    hangs: int
    unique_hangs: int
    next_seed_id: int
    stopped_by: str
    cycle_multiplier: float
    rng_state: Dict[str, Any]
    #: The pool as :meth:`SeedPool.capture` returns it; ``top_rated``
    #: maps location -> seed index in first-seen order. Restoring
    #: rebuilds the table from ``seeds``.
    seeds: List[Seed]
    top_rated: Dict[int, int]
    cull_pending: bool
    scheduler_cursor: int
    queue_cycles: int
    virgin: np.ndarray
    crash_records: Dict[int, CrashRecord]
    afl_crash_virgin: np.ndarray
    afl_unique_crashes: int
    tmout_virgin: np.ndarray
    tmout_unique_crashes: int
    shape_stats: RunningShape
    op_cycles: Dict[str, float]
    coverage_curve: List[Tuple[float, int]]
    next_sample: float
    coverage_state: Dict[str, Any]
    #: Value capture of the campaign's telemetry recorder (events,
    #: derived AFL artifacts, metrics, span profile); None when the
    #: campaign runs without telemetry. Restoring it is what keeps a
    #: resumed campaign's plot_data byte-identical to an uninterrupted
    #: run's.
    telemetry_state: Optional[Dict[str, Any]] = None

    @property
    def virtual_seconds(self) -> float:
        """Clock position of the checkpoint (needs the campaign's
        frequency only at restore time; stored cycles are canonical)."""
        return self.clock_cycles


def snapshot_campaign(campaign) -> CampaignCheckpoint:
    """Capture a resumable snapshot of ``campaign``.

    The campaign must have been started (model calibrated, curves
    initialized); snapshots are taken between executions, never with a
    pipeline in flight.
    """
    if campaign.model is None:
        raise CheckpointError(
            "cannot snapshot a campaign before start()")
    coverage = campaign.coverage
    if hasattr(coverage, "index"):        # BigMap: persistent key table
        coverage_state = {
            "index": coverage.index.copy(),
            "cov": coverage.cov.copy(),
            "used_key": coverage.used_key,
        }
    else:                                  # AFL: flat trace buffer
        coverage_state = {
            "trace": coverage.trace.copy(),
            "touched": [t.copy() for t in coverage._touched],
        }
    return CampaignCheckpoint(
        clock_cycles=campaign.clock.cycles,
        execs=campaign.execs,
        hangs=campaign.hangs,
        unique_hangs=campaign.unique_hangs,
        next_seed_id=campaign._next_seed_id,
        stopped_by=campaign.stopped_by,
        cycle_multiplier=campaign.cycle_multiplier,
        rng_state=copy.deepcopy(campaign.rng.bit_generator.state),
        **campaign.pool.capture(),
        scheduler_cursor=campaign.scheduler._cursor,
        queue_cycles=campaign.scheduler.queue_cycles,
        virgin=campaign.virgin.virgin.copy(),
        crash_records=_copy_records(campaign.crashwalk.records),
        afl_crash_virgin=campaign.afl_triage.virgin_crash.virgin.copy(),
        afl_unique_crashes=campaign.afl_triage.unique_crashes,
        tmout_virgin=campaign.tmout_triage.virgin_crash.virgin.copy(),
        tmout_unique_crashes=campaign.tmout_triage.unique_crashes,
        shape_stats=replace(campaign.shape_stats),
        op_cycles=dict(campaign.op_cycles),
        coverage_curve=list(campaign.coverage_curve),
        next_sample=campaign._next_sample,
        coverage_state=coverage_state,
        telemetry_state=(campaign.telemetry.snapshot_state()
                         if campaign.telemetry is not None else None))


def restore_campaign(campaign, checkpoint: CampaignCheckpoint) -> None:
    """Reset ``campaign`` to ``checkpoint``'s state, in place.

    The campaign keeps its identity (config, model, executor,
    instrumentation — all immutable after start); only mutable fuzzing
    state reverts. Supervision counters (``restarts``,
    ``faults_injected``) survive, matching their meaning: they count
    events in the instance's whole lifetime, not since the last
    checkpoint.
    """
    if campaign.model is None:
        raise CheckpointError(
            "cannot restore a campaign before start()")
    coverage = campaign.coverage
    state = checkpoint.coverage_state
    if hasattr(coverage, "index"):
        if "index" not in state:
            raise CheckpointError(
                "checkpoint was taken from an AFL campaign")
        coverage.index[:] = state["index"]
        coverage.cov[:] = state["cov"]
        coverage.used_key = state["used_key"]
    else:
        if "trace" not in state:
            raise CheckpointError(
                "checkpoint was taken from a BigMap campaign")
        coverage.trace[:] = state["trace"]
        coverage._touched = [t.copy() for t in state["touched"]]

    campaign.clock.cycles = checkpoint.clock_cycles
    campaign.execs = checkpoint.execs
    campaign.hangs = checkpoint.hangs
    campaign.unique_hangs = checkpoint.unique_hangs
    campaign._next_seed_id = checkpoint.next_seed_id
    campaign.stopped_by = checkpoint.stopped_by
    campaign.cycle_multiplier = checkpoint.cycle_multiplier
    campaign.fault_multiplier = 1.0
    campaign.rng.bit_generator.state = copy.deepcopy(checkpoint.rng_state)
    campaign.pool.restore(checkpoint.seeds, checkpoint.cull_pending)
    campaign.scheduler._cursor = checkpoint.scheduler_cursor
    campaign.scheduler.queue_cycles = checkpoint.queue_cycles
    campaign.virgin.virgin[:] = checkpoint.virgin
    campaign.crashwalk.records = _copy_records(checkpoint.crash_records)
    campaign.afl_triage.virgin_crash.virgin[:] = checkpoint.afl_crash_virgin
    campaign.afl_triage.unique_crashes = checkpoint.afl_unique_crashes
    campaign.tmout_triage.virgin_crash.virgin[:] = checkpoint.tmout_virgin
    campaign.tmout_triage.unique_crashes = checkpoint.tmout_unique_crashes
    campaign.shape_stats = replace(checkpoint.shape_stats)
    campaign.op_cycles = dict(checkpoint.op_cycles)
    campaign.coverage_curve = list(checkpoint.coverage_curve)
    campaign._next_sample = checkpoint.next_sample
    if (campaign.telemetry is not None and
            checkpoint.telemetry_state is not None):
        campaign.telemetry.restore_state(checkpoint.telemetry_state)
