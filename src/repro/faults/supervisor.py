"""Supervision policy and per-instance state for parallel sessions.

The supervisor is the bookkeeping half of fault tolerance: it tracks
each instance's liveness, decides when a dead or stalled instance may
be restarted (exponential backoff, retry cap), and accumulates the
fault/restart/quarantine counters the session reports. The *mechanics*
of restarting — checkpoint restore, clock adjustment — live in
:class:`repro.fuzzer.ParallelSession`, which owns the campaigns.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

#: Instance lifecycle states.
RUNNING = "running"
DEAD = "dead"          # awaiting a scheduled restart
LOST = "lost"          # retry budget exhausted; permanently excluded


@dataclass(frozen=True)
class RestartPolicy:
    """Exponential-backoff restart policy.

    Attributes:
        max_restarts: restarts allowed per instance before it is
            declared lost (0 disables restarting entirely).
        backoff_base: delay before the first restart, virtual seconds.
        backoff_factor: multiplier applied per successive restart.
        backoff_cap: upper bound on any single delay.
    """

    max_restarts: int = 3
    backoff_base: float = 0.25
    backoff_factor: float = 2.0
    backoff_cap: float = 30.0

    def backoff(self, prior_restarts: int) -> float:
        """Delay before restart number ``prior_restarts + 1``."""
        delay = self.backoff_base * (self.backoff_factor ** prior_restarts)
        return min(delay, self.backoff_cap)


@dataclass
class InstanceHealth:
    """Mutable supervision state of one instance."""

    status: str = RUNNING
    restarts: int = 0
    faults: int = 0
    restart_at: float = 0.0
    #: ``slow`` fault window: extra cycle multiplier until ``slow_until``.
    slow_factor: float = 1.0
    slow_until: float = 0.0
    #: Next sync export from this instance is corrupt (quarantined).
    corrupt_export: bool = False
    #: Virtual time the instance stopped making progress (stall fault).
    stalled_since: Optional[float] = None
    #: Heartbeat snapshot: execs at the start of the current slice.
    execs_at_slice_start: int = 0
    #: Whether the instance had room to make progress this slice (set
    #: false after a mid-slice restart so the heartbeat check does not
    #: misread the post-restore counters as a stall).
    had_capacity: bool = False
    failures: List[str] = field(default_factory=list)

    @property
    def live(self) -> bool:
        return self.status == RUNNING


class SessionSupervisor:
    """Tracks health and restart budgets for a fleet of instances.

    Args:
        n_instances: fleet size.
        policy: restart policy (defaults to :class:`RestartPolicy`).
        telemetry: optional
            :class:`~repro.telemetry.SessionTelemetry`; when given,
            every supervision decision — fault, restart, stall,
            quarantine — is emitted as a session-level event tagged
            with the affected instance.
    """

    def __init__(self, n_instances: int,
                 policy: Optional[RestartPolicy] = None,
                 telemetry=None) -> None:
        self.policy = policy or RestartPolicy()
        self.health: List[InstanceHealth] = [
            InstanceHealth() for _ in range(n_instances)]
        self.quarantined_imports = 0
        self.telemetry = telemetry

    def _emit(self, kind: str, t: float, instance: int,
              **payload) -> None:
        if self.telemetry is not None:
            self.telemetry.session.emit(kind, t, instance=instance,
                                        **payload)

    def __getitem__(self, i: int) -> InstanceHealth:
        return self.health[i]

    def live_indices(self) -> List[int]:
        return [i for i, h in enumerate(self.health) if h.live]

    def lost_indices(self) -> List[int]:
        return [i for i, h in enumerate(self.health) if h.status == LOST]

    def mark_failed(self, i: int, now: float, reason: str) -> str:
        """An instance died (crash fault, stall, or real exception).

        Schedules a restart with backoff if the retry budget allows,
        otherwise declares the instance lost. Returns the new status.
        """
        health = self.health[i]
        health.failures.append(f"t={now:.3f}: {reason}")
        health.stalled_since = None
        health.slow_factor = 1.0
        health.slow_until = 0.0
        if health.restarts >= self.policy.max_restarts:
            health.status = LOST
        else:
            health.status = DEAD
            health.restart_at = now + self.policy.backoff(health.restarts)
        self._emit("fault", now, i, status=health.status, reason=reason)
        return health.status

    def mark_restarted(self, i: int, now: float = 0.0) -> None:
        health = self.health[i]
        health.restarts += 1
        health.status = RUNNING
        self._emit("restart", now, i, restarts=health.restarts)

    def mark_stalled(self, i: int, now: float,
                     last_progress: float) -> None:
        """Record a detected stall (the failure itself follows via
        :meth:`mark_failed`; this event carries the heartbeat data)."""
        self._emit("stall", now, i, last_progress=last_progress)

    def mark_lost(self, i: int, now: float = 0.0,
                  reason: str = "unrecoverable") -> None:
        self.health[i].status = LOST
        self._emit("fault", now, i, status=LOST, reason=reason)

    def mark_quarantined(self, importer: int, exporter: int,
                         now: float = 0.0, entries: int = 1) -> None:
        """Corrupt sync payload dropped before reaching ``importer``."""
        self.quarantined_imports += entries
        self._emit("quarantine", now, importer,
                   exporter=exporter, entries=entries)

    @property
    def total_faults(self) -> int:
        return sum(h.faults for h in self.health)
