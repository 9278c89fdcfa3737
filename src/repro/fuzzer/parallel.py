"""Parallel fuzzing sessions: master–secondary with corpus sync (§V-D).

Runs *k* campaign instances of the same configuration in interleaved
virtual-time slices. Between slices:

* **corpus synchronization** — each instance imports the queue entries
  its peers found since the last sync, executing each peer's fresh
  entries as one batch through its own pipeline, as AFL's ``-M``/``-S``
  sync does. Entries an instance already owns — its own exports echoed
  back through a peer, or the same entry offered by several peers — are
  skipped, mirroring AFL's ``id:...,sync:`` bookkeeping;
* **contention update** — the shared-LLC + DRAM-bandwidth model
  (:func:`repro.memsim.contention.solve_parallel`) recomputes each
  instance's slowdown from its current mean execution shape, and the
  slowdown scales every cycle charge in the next slice.

The paper runs one master (which would perform the deterministic stage)
and k−1 secondaries; since the evaluation skips the deterministic stage
(§V-A1), master and secondaries behave identically here apart from
their random streams.

**Fault tolerance.** Real fleets lose secondaries to OOM kills, target
hangs and corrupted sync directories. A session can therefore be driven
with a :class:`repro.faults.FaultPlan` — a deterministic virtual-time
schedule of ``crash`` / ``stall`` / ``slow`` / ``corrupt-sync`` events —
and a :class:`repro.faults.RestartPolicy`. A supervisor loop detects
dead or stalled instances through per-slice heartbeats (executions +
clock advance), restarts them from their last checkpoint
(:meth:`Campaign.snapshot`) with exponential backoff, quarantines
corrupt sync payloads, and recomputes contention over the surviving
instances only. An instance whose restart budget runs out is *lost*;
the session completes with the survivors and reports per-instance
fault/restart counts in the summary. With no plan and no policy, the
fault machinery is inert and sessions behave exactly as before —
except that an unplanned exception inside one instance quarantines that
instance instead of killing the whole session.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Set, Tuple

from ..core.errors import CampaignConfigError, InstanceFaultError
from ..faults import (CORRUPT_SYNC, CRASH, SLOW, STALL, FaultInjector,
                      FaultPlan, RestartPolicy, SessionSupervisor)
from ..faults.supervisor import DEAD, LOST, RUNNING
from ..memsim.contention import InstanceLoad, solve_parallel
from ..target import BuiltBenchmark, get_benchmark
from ..telemetry.recorder import SessionTelemetry
from .campaign import Campaign, CampaignConfig
from .stats import CampaignResult


@dataclass
class ParallelResultSummary:
    """Aggregate outcome of a k-instance session.

    Attributes:
        n_instances: number of co-running campaigns.
        per_instance: each instance's :class:`CampaignResult` (instances
            that failed before completing their seed dry-run are
            omitted).
        total_execs: executions across all instances.
        total_throughput: aggregate execs per virtual second.
        unique_crashes: Crashwalk-unique crashes across the session
            (union over instances).
        discovered_locations: max over instances after final sync (all
            instances converge once synced).
        mean_slowdown: average contention multiplier over the session.
        instance_faults: per-instance injected/observed fault counts.
        instance_restarts: per-instance supervised restart counts.
        lost_instances: indices of instances that were permanently lost
            (restart budget exhausted, or unrecoverable failure).
        quarantined_imports: sync payload entries dropped because the
            exporting instance's sync state was corrupt.
        unplanned_failures: descriptions of failures that were *not*
            injected by the fault plan (real exceptions).
    """

    n_instances: int
    per_instance: List[CampaignResult]
    total_execs: int
    total_throughput: float
    unique_crashes: int
    discovered_locations: int
    mean_slowdown: float
    instance_faults: List[int] = field(default_factory=list)
    instance_restarts: List[int] = field(default_factory=list)
    lost_instances: List[int] = field(default_factory=list)
    quarantined_imports: int = 0
    unplanned_failures: List[str] = field(default_factory=list)

    @property
    def total_restarts(self) -> int:
        return sum(self.instance_restarts)

    @property
    def total_faults(self) -> int:
        return sum(self.instance_faults)


class ParallelSession:
    """k interleaved campaign instances with sync and contention.

    Instances are homogeneous by default (the paper's §V-D setup: the
    same configuration replicated, differing only in random streams).
    Passing a *list* of configurations instead builds an **ensemble**
    session — e.g. one instance per coverage metric, cross-pollinating
    through the corpus sync, the alternative to metric *stacking* that
    the paper's related-work section contrasts BigMap against.

    Args:
        config: a :class:`CampaignConfig` (replicated ``n_instances``
            times) or a list of configurations (ensemble).
        n_instances: fleet size when ``config`` is a single
            configuration.
        built: pre-built benchmark shared by every instance.
        sync_interval: virtual seconds between corpus syncs (default:
            1/20 of the budget, at least 1 s); must be positive and
            finite.
        fault_plan: optional deterministic fault schedule
            (:class:`repro.faults.FaultPlan`).
        restart_policy: supervision policy for restarting failed
            instances (defaults to :class:`repro.faults.RestartPolicy`
            when a fault plan is given).
        telemetry: optional
            :class:`~repro.telemetry.SessionTelemetry`. Each instance
            gets its own recorder (per-instance ``fuzzer_stats`` /
            ``plot_data`` / event logs), and the supervisor emits
            session-level fault/restart/stall/quarantine events.
    """

    def __init__(self, config, n_instances: int = None, *,
                 built: Optional[BuiltBenchmark] = None,
                 sync_interval: float = None,
                 fault_plan: Optional[FaultPlan] = None,
                 restart_policy: Optional[RestartPolicy] = None,
                 telemetry: Optional[SessionTelemetry] = None) -> None:
        if sync_interval is not None and not (
                math.isfinite(sync_interval) and sync_interval > 0):
            raise CampaignConfigError(
                f"sync_interval must be positive and finite, got "
                f"{sync_interval}")
        configs = self._resolve_configs(config, n_instances)
        self.config = configs[0]
        self.n_instances = len(configs)
        if self.n_instances > self.config.machine.n_cores:
            raise CampaignConfigError(
                f"{self.n_instances} instances exceed the machine's "
                f"{self.config.machine.n_cores} cores")
        if built is None:
            built = get_benchmark(self.config.benchmark).build(
                self.config.scale, seed_scale=self.config.seed_scale)
        self.built = built
        self.telemetry = telemetry
        self.instances = [
            Campaign(c, built=built,
                     telemetry=(telemetry.for_instance(i)
                                if telemetry is not None else None))
            for i, c in enumerate(configs)]
        self.sync_interval = (
            max(self.config.virtual_seconds / 20.0, 1.0)
            if sync_interval is None else sync_interval)

        self.fault_plan = fault_plan if fault_plan else None
        if self.fault_plan is not None:
            self.fault_plan.validate_for(self.n_instances)
        #: Checkpoint/restart machinery engages when faults are planned
        #: or a policy is explicitly requested; otherwise sessions pay
        #: zero snapshot overhead and unplanned failures quarantine the
        #: instance instead of restarting it.
        self._checkpointing = (self.fault_plan is not None or
                               restart_policy is not None)
        self.restart_policy = restart_policy or RestartPolicy()
        self.supervisor = SessionSupervisor(self.n_instances,
                                            self.restart_policy,
                                            telemetry=telemetry)
        self._injector = FaultInjector(self.fault_plan)

        self._import_cursors: Dict[Tuple[int, int], int] = {}
        #: Per-instance set of input payloads already present in (or
        #: imported into) that instance's queue — the sync dedup that
        #: prevents O(k²) echo re-executions.
        self._seen: List[Set[bytes]] = [set()
                                        for _ in range(self.n_instances)]
        self._seen_cursor: List[int] = [0] * self.n_instances
        self._checkpoints: List[Optional[dict]] = [None] * self.n_instances
        self._slowdown_samples: List[float] = []
        self._unplanned: List[str] = []
        self._start_errors: List[Exception] = []

    @staticmethod
    def _resolve_configs(config, n_instances: int) -> List[CampaignConfig]:
        """Normalize the (config, n_instances) input into a config list."""
        if isinstance(config, CampaignConfig):
            if n_instances is None or n_instances < 1:
                raise CampaignConfigError(
                    f"need at least one instance, got {n_instances}")
            return [replace(config, rng_seed=config.rng_seed + 1000 * i)
                    for i in range(n_instances)]
        configs = list(config)
        if not configs:
            raise CampaignConfigError("need at least one instance")
        if n_instances is not None and n_instances != len(configs):
            raise CampaignConfigError(
                f"{len(configs)} configs but n_instances={n_instances}")
        first = configs[0]
        for other in configs[1:]:
            if (other.benchmark != first.benchmark or
                    other.scale != first.scale):
                raise CampaignConfigError(
                    "ensemble instances must share one target")
        return configs

    # -- contention ----------------------------------------------------

    def _update_contention(self) -> None:
        live = self.supervisor.live_indices()
        if not live:
            return
        insts = [self.instances[i] for i in live]
        loads = [InstanceLoad(inst.model, inst.shape_stats.mean_shape())
                 for inst in insts]
        solved = solve_parallel(loads, machine=self.config.machine)
        slowdowns = []
        for inst, load, contended in zip(insts, loads,
                                         solved.per_instance_rate):
            solo = inst.model.throughput(load.shape)
            multiplier = max(1.0, solo / max(contended, 1e-9))
            inst.cycle_multiplier = multiplier
            slowdowns.append(multiplier)
        self._slowdown_samples.append(sum(slowdowns) / len(slowdowns))

    # -- corpus sync ---------------------------------------------------

    def _refresh_seen(self, i: int) -> None:
        """Absorb instance *i*'s own new queue entries into its seen set."""
        seeds = self.instances[i].pool.seeds
        for seed in seeds[self._seen_cursor[i]:]:
            self._seen[i].add(seed.data)
        self._seen_cursor[i] = len(seeds)

    def _sync_corpora(self) -> None:
        live = self.supervisor.live_indices()
        sync_entry = sum(self.instances[i].clock.cycles for i in live)
        for i in live:
            self._refresh_seen(i)
        corrupt = {j: self.supervisor[j].corrupt_export for j in live}
        for i in live:
            dst = self.instances[i]
            for j in live:
                if i == j:
                    continue
                cursor = self._import_cursors.get((i, j), 0)
                src_seeds = self.instances[j].pool.seeds
                fresh = src_seeds[cursor:]
                self._import_cursors[(i, j)] = len(src_seeds)
                if corrupt[j]:
                    # Corrupt sync payload: quarantine, don't run.
                    if fresh:
                        self.supervisor.mark_quarantined(
                            i, j,
                            now=min(dst.clock.seconds, self._budget()),
                            entries=len(fresh))
                    continue
                # Our own entries echoed back, and duplicates a third
                # peer already delivered, are skipped: never re-executed.
                entries = []
                for seed in fresh:
                    if seed.data not in self._seen[i]:
                        self._seen[i].add(seed.data)
                        entries.append(seed.data)
                if entries:
                    self._guarded_import(i, entries)
                if not self.supervisor[i].live:
                    break
            if not self.supervisor[i].live:
                continue
            for j in live:
                if i != j and not corrupt[j]:
                    dst.crashwalk.merge_from(self.instances[j].crashwalk)
        for j in live:
            self.supervisor[j].corrupt_export = False
        if self.telemetry is not None:
            # Import executions charged during the sync, attributed to
            # the session-level sync span (virtual cycles, all
            # instances combined).
            # max(0): a failed import can restore an instance to an
            # older checkpoint, moving its clock backwards.
            spent = max(
                sum(self.instances[i].clock.cycles for i in live) -
                sync_entry, 0.0)
            self.telemetry.session.tracer.add("sync", spent)

    def _guarded_import(self, i: int, entries: List[bytes]) -> None:
        """Import one exporter's fresh entries into instance ``i`` as one
        batch. A failure part-way keeps the entries imported before it;
        the instance then restores its last checkpoint or is lost."""
        try:
            self.instances[i].import_inputs(entries)
        except Exception as exc:
            # Chained into the fault taxonomy, not swallowed: the
            # wrapped cause reaches the failure log and the summary.
            self._record_unplanned(
                i, InstanceFaultError.wrap(i, exc, during="sync-import"))

    # -- supervision ---------------------------------------------------

    def _budget(self) -> float:
        return self.config.virtual_seconds

    def _make_checkpoint(self, i: int) -> dict:
        return {
            "campaign": self.instances[i].snapshot(),
            "seen": set(self._seen[i]),
            "seen_cursor": self._seen_cursor[i],
            "cursors": {j: self._import_cursors.get((i, j), 0)
                        for j in range(self.n_instances)},
        }

    def _refresh_checkpoints(self) -> None:
        if not self._checkpointing:
            return
        for i in self.supervisor.live_indices():
            self._checkpoints[i] = self._make_checkpoint(i)

    def _record_unplanned(self, i: int,
                          fault: InstanceFaultError) -> None:
        """Account an unplanned instance failure.

        ``fault`` carries the original exception as ``__cause__``; its
        type and message flow into the supervisor's failure log and the
        summary's ``unplanned_failures`` so nothing is silently lost.
        """
        cause = fault.__cause__
        self._unplanned.append(f"instance {i}: {cause!r}")
        inst = self.instances[i]
        inst.faults_injected += 1
        self.supervisor[i].faults += 1
        self._fail(i, now=min(inst.clock.seconds, self._budget()),
                   reason=repr(cause),
                   restorable=self._checkpoints[i] is not None)

    def _fail(self, i: int, now: float, reason: str,
              restorable: bool = True) -> None:
        """An instance died or hung: restore its durable state and
        schedule a restart (or declare it lost)."""
        inst = self.instances[i]
        inst.fault_multiplier = 1.0
        if restorable and self._checkpoints[i] is None:
            restorable = False
        if not restorable:
            self.supervisor[i].failures.append(f"t={now:.3f}: {reason}")
            self.supervisor.mark_lost(i, now=now, reason=reason)
            return
        self.supervisor.mark_failed(i, now, reason)
        checkpoint = self._checkpoints[i]
        inst.restore(checkpoint["campaign"])
        self._seen[i] = set(checkpoint["seen"])
        self._seen_cursor[i] = checkpoint["seen_cursor"]
        for j, cursor in checkpoint["cursors"].items():
            self._import_cursors[(i, j)] = cursor
        # Peers' read cursors into the shrunk queue must not point past
        # its end, or regrown entries would be skipped silently.
        pool_len = len(inst.pool.seeds)
        for j in range(self.n_instances):
            if j != i and self._import_cursors.get((j, i), 0) > pool_len:
                self._import_cursors[(j, i)] = pool_len

    def _restart_instance(self, i: int) -> None:
        """Bring a DEAD instance back at its scheduled restart time."""
        inst = self.instances[i]
        health = self.supervisor[i]
        downtime = health.restart_at - inst.clock.seconds
        if downtime > 0:
            # Checkpoint-to-restart wall time passes without fuzzing.
            inst.clock.charge(downtime * inst.clock.frequency_hz)
        inst.restarts += 1
        self.supervisor.mark_restarted(
            i, now=min(inst.clock.seconds, self._budget()))
        # A freshly restored instance's counters are behind the slice's
        # heartbeat baseline; don't mistake the gap for a stall.
        self.supervisor[i].had_capacity = False

    def _idle_charge(self, i: int, until: float) -> None:
        """Advance a hung instance's clock without executing anything."""
        inst = self.instances[i]
        gap = min(until, self._budget()) - inst.clock.seconds
        if gap > 0:
            inst.clock.charge(gap * inst.clock.frequency_hz)

    def _step_instance(self, i: int, target: float) -> None:
        """Step one instance to ``target``, honoring slow-fault windows
        and converting exceptions into supervised failures."""
        inst = self.instances[i]
        health = self.supervisor[i]
        target = min(target, self._budget())
        try:
            if health.slow_until > inst.clock.seconds:
                inst.fault_multiplier = health.slow_factor
                inst.step_until(min(health.slow_until, target))
                if health.slow_until > target:
                    return
                health.slow_factor = 1.0
                health.slow_until = 0.0
            inst.fault_multiplier = 1.0
            inst.step_until(target)
        except Exception as exc:
            self._record_unplanned(
                i, InstanceFaultError.wrap(i, exc, during="step"))

    def _apply_event(self, i: int, event) -> None:
        inst = self.instances[i]
        health = self.supervisor[i]
        health.faults += 1
        inst.faults_injected += 1
        if event.kind == CRASH:
            self._fail(i, now=max(event.time, inst.clock.seconds),
                       reason="injected crash")
        elif event.kind == STALL:
            health.stalled_since = event.time
        elif event.kind == SLOW:
            health.slow_factor = event.magnitude
            health.slow_until = event.time + event.duration
        elif event.kind == CORRUPT_SYNC:
            health.corrupt_export = True

    def _maybe_restart(self, i: int, before: float) -> bool:
        """Restart a DEAD instance if its backoff expires before
        ``before``; returns whether the instance is now running."""
        health = self.supervisor[i]
        if health.status != DEAD:
            return health.status == RUNNING
        if health.restart_at < min(before, self._budget()):
            self._restart_instance(i)
            return True
        return False

    def _drive_slice(self, i: int, t0: float, t1: float) -> None:
        """Run instance *i* through the virtual window ``[t0, t1)``,
        injecting any planned faults that fall inside it."""
        inst = self.instances[i]
        health = self.supervisor[i]
        if health.status == LOST:
            return
        if health.status == DEAD and not self._maybe_restart(i, t1):
            return
        health.execs_at_slice_start = inst.execs
        health.had_capacity = (
            health.stalled_since is None and
            inst.clock.seconds < t1 and
            inst.execs < inst.config.max_real_execs)
        for event in self._injector.take(i, t0, t1):
            if health.status == LOST:
                return
            if health.status == DEAD and not self._maybe_restart(i, t1):
                # Remaining events hit a process that is already down.
                continue
            if health.stalled_since is None:
                self._step_instance(i, event.time)
            if health.status == RUNNING:
                self._apply_event(i, event)
        if health.status == DEAD:
            self._maybe_restart(i, t1)
        if health.status == RUNNING:
            if health.stalled_since is not None:
                self._idle_charge(i, t1)
            else:
                self._step_instance(i, t1)

    def _detect_stalls(self) -> None:
        """Per-slice heartbeat: an instance whose clock had room and
        whose exec counter did not move is hung — restart it."""
        for i in self.supervisor.live_indices():
            inst = self.instances[i]
            health = self.supervisor[i]
            stalled_by_plan = health.stalled_since is not None
            no_heartbeat = (health.had_capacity and
                            inst.execs <= health.execs_at_slice_start)
            if stalled_by_plan or no_heartbeat:
                now = min(inst.clock.seconds, self._budget())
                self.supervisor.mark_stalled(
                    i, now,
                    last_progress=(health.stalled_since
                                   if health.stalled_since is not None
                                   else now))
                self._fail(i, now=now,
                           reason="stall detected (heartbeat flat)",
                           restorable=self._checkpoints[i] is not None)

    def _work_remains(self) -> bool:
        budget = self._budget()
        for i, inst in enumerate(self.instances):
            health = self.supervisor[i]
            if health.status == LOST:
                continue
            if health.status == DEAD:
                if health.restart_at < budget:
                    return True
                continue
            if (inst.clock.before(budget) and
                    inst.execs < inst.config.max_real_execs):
                return True
        return False

    # -- main loop -----------------------------------------------------

    def _start_instances(self) -> None:
        for i, inst in enumerate(self.instances):
            try:
                inst.start()
            except Exception as exc:
                fault = InstanceFaultError.wrap(i, exc, during="start")
                self._start_errors.append(exc)
                self._unplanned.append(str(fault))
                self.supervisor[i].failures.append(
                    f"start: {fault.__cause__!r}")
                self.supervisor.mark_lost(
                    i, now=0.0, reason=f"start: {fault.__cause__!r}")
        if not self.supervisor.live_indices():
            raise self._start_errors[0]
        if self._checkpointing:
            for i in self.supervisor.live_indices():
                self._checkpoints[i] = self._make_checkpoint(i)

    def run(self) -> ParallelResultSummary:
        """Run all instances to the virtual deadline, supervised."""
        budget = self._budget()
        self._start_instances()
        self._update_contention()

        slice_start = 0.0
        deadline = self.sync_interval
        while self._work_remains():
            t1 = min(deadline, budget)
            for i in range(self.n_instances):
                self._drive_slice(i, slice_start, t1)
            self._detect_stalls()
            if self.n_instances > 1:
                self._sync_corpora()
                self._update_contention()
            self._refresh_checkpoints()
            if deadline >= budget:
                break
            slice_start = deadline
            deadline += self.sync_interval

        results = [inst.finish() for inst in self.instances
                   if inst.model is not None]
        total_execs = sum(r.execs for r in results)
        virtual = max(max(r.virtual_seconds for r in results), 1e-9)
        # Final dedup: the union of every instance's Crashwalk keys.
        crashes = len(set().union(*(inst.crashwalk.records
                                    for inst in self.instances)))
        return ParallelResultSummary(
            n_instances=self.n_instances,
            per_instance=results,
            total_execs=total_execs,
            total_throughput=total_execs / virtual,
            unique_crashes=crashes,
            discovered_locations=max(r.discovered_locations
                                     for r in results),
            mean_slowdown=(sum(self._slowdown_samples) /
                           len(self._slowdown_samples))
            if self._slowdown_samples else 1.0,
            instance_faults=[h.faults for h in self.supervisor.health],
            instance_restarts=[h.restarts
                               for h in self.supervisor.health],
            lost_instances=self.supervisor.lost_indices(),
            quarantined_imports=self.supervisor.quarantined_imports,
            unplanned_failures=list(self._unplanned))


def run_parallel(config, n_instances: int = None, *,
                 built: Optional[BuiltBenchmark] = None,
                 sync_interval: float = None,
                 fault_plan: Optional[FaultPlan] = None,
                 restart_policy: Optional[RestartPolicy] = None,
                 telemetry: Optional[SessionTelemetry] = None
                 ) -> ParallelResultSummary:
    """Convenience wrapper: construct and run a parallel session."""
    return ParallelSession(config, n_instances, built=built,
                           sync_interval=sync_interval,
                           fault_plan=fault_plan,
                           restart_policy=restart_policy,
                           telemetry=telemetry).run()


def run_ensemble(configs, *, built: Optional[BuiltBenchmark] = None,
                 sync_interval: float = None,
                 fault_plan: Optional[FaultPlan] = None,
                 restart_policy: Optional[RestartPolicy] = None,
                 telemetry: Optional[SessionTelemetry] = None
                 ) -> ParallelResultSummary:
    """Run a heterogeneous (one-config-per-instance) ensemble session.

    The corpus sync cross-pollinates inputs between metrics, as in
    ensemble fuzzing [Wang et al., RAID'19]; contrast with stacking the
    metrics into one instance (``metric='ngram3', lafintel=True``),
    which is what BigMap makes affordable (§V-C).
    """
    return ParallelSession(list(configs), built=built,
                           sync_interval=sync_interval,
                           fault_plan=fault_plan,
                           restart_policy=restart_policy,
                           telemetry=telemetry).run()
