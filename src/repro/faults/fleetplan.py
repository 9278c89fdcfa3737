"""Deterministic fleet-level fault plans over a dispatch-tick timeline.

:class:`FaultPlan` (:mod:`repro.faults.plan`) schedules faults over the
*virtual* timeline of one parallel session. A :class:`FleetFaultPlan`
schedules them one layer up, over the tick timeline of a multi-trial
dispatch loop: events fire when the loop's cumulative tick counter
reaches their ``at_tick``.

Six kinds name the failure modes of a multi-trial runner:

* ``dispatcher-kill`` — the dispatch loop itself dies mid-run.
* ``worker-kill`` / ``worker-stall`` — one trial's worker dies or
  wedges after checkpoint segment ``at_segment``.
* ``artifact-corrupt`` / ``artifact-truncate`` — a trial's checkpoint
  is damaged on disk (flipped bytes / torn tail).
* ``store-lock`` — the results store's next ``lock_count`` writes fail
  with transient ``database is locked`` errors.

The multi-trial orchestrator that executed these plans was removed;
this module is kept, with its tests, as a standalone schema until its
own deletion (ROADMAP). Nothing outside its tests imports it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Sequence, Tuple

import numpy as np

from ..core.errors import FaultPlanError

#: Fleet fault kinds (see module docstring for semantics).
DISPATCHER_KILL = "dispatcher-kill"
WORKER_KILL = "worker-kill"
WORKER_STALL = "worker-stall"
ARTIFACT_CORRUPT = "artifact-corrupt"
ARTIFACT_TRUNCATE = "artifact-truncate"
STORE_LOCK = "store-lock"
FLEET_FAULT_KINDS: Tuple[str, ...] = (
    DISPATCHER_KILL, WORKER_KILL, WORKER_STALL,
    ARTIFACT_CORRUPT, ARTIFACT_TRUNCATE, STORE_LOCK)

#: Kinds that target one trial (``trial`` must be set).
TRIAL_SCOPED: Tuple[str, ...] = (
    WORKER_KILL, WORKER_STALL, ARTIFACT_CORRUPT, ARTIFACT_TRUNCATE)


@dataclass(frozen=True)
class FleetFaultEvent:
    """One scheduled fleet-level fault.

    Attributes:
        at_tick: cumulative dispatch-loop tick at which the fault
            fires (ticks keep counting across dispatcher restarts).
        kind: one of :data:`FLEET_FAULT_KINDS`.
        trial: targeted trial id (trial-scoped kinds; -1 otherwise).
        at_segment: for worker faults, the checkpoint segment after
            which the worker dies/stalls.
        lock_count: for ``store-lock``, how many consecutive store
            operations fail before succeeding (must stay below the
            store's retry budget for the fleet to survive — that *is*
            the assertion).
    """

    at_tick: int
    kind: str
    trial: int = -1
    at_segment: int = 1
    lock_count: int = 1

    def __post_init__(self) -> None:
        if self.kind not in FLEET_FAULT_KINDS:
            raise FaultPlanError(
                f"unknown fleet fault kind {self.kind!r}; known: "
                f"{', '.join(FLEET_FAULT_KINDS)}")
        if self.at_tick < 0:
            raise FaultPlanError(
                f"at_tick must be >= 0, got {self.at_tick}")
        if self.kind in TRIAL_SCOPED and self.trial < 0:
            raise FaultPlanError(
                f"{self.kind} events must name a trial (got "
                f"{self.trial})")
        if self.at_segment < 0:
            raise FaultPlanError("at_segment must be >= 0")
        if self.lock_count < 1:
            raise FaultPlanError("lock_count must be >= 1")


class FleetFaultPlan:
    """An immutable, tick-ordered schedule of :class:`FleetFaultEvent`.

    The empty plan is the identity: a fleet driven with it behaves
    exactly like one driven without chaos at all.
    """

    def __init__(self, events: Iterable[FleetFaultEvent] = ()) -> None:
        self.events: Tuple[FleetFaultEvent, ...] = tuple(
            sorted(events, key=lambda e: (e.at_tick, e.kind, e.trial)))

    def __len__(self) -> int:
        return len(self.events)

    def __bool__(self) -> bool:
        return bool(self.events)

    def __iter__(self):
        return iter(self.events)

    def worker_faults(self) -> List[FleetFaultEvent]:
        """The worker-kill/stall events (lowered onto spec faults)."""
        return [e for e in self.events
                if e.kind in (WORKER_KILL, WORKER_STALL)]

    def at(self, tick: int) -> List[FleetFaultEvent]:
        """Events scheduled exactly at ``tick``."""
        return [e for e in self.events if e.at_tick == tick]

    def max_trial(self) -> int:
        """Highest trial id any event addresses (-1 if none)."""
        return max((e.trial for e in self.events), default=-1)

    def validate_for(self, n_trials: int) -> None:
        """Reject events addressed beyond the fleet's expansion."""
        if self.max_trial() >= n_trials:
            raise FaultPlanError(
                f"plan addresses trial {self.max_trial()} but the "
                f"fleet expands to {n_trials} trials")

    @classmethod
    def generate(cls, *, seed: int, n_trials: int, horizon: int,
                 n_events: int,
                 kinds: Sequence[str] = FLEET_FAULT_KINDS,
                 max_segment: int = 2) -> "FleetFaultPlan":
        """Draw a random plan, deterministically from ``seed``.

        Args:
            seed: RNG seed; equal seeds give equal plans.
            n_trials: fleet size trial-scoped events are spread over.
            horizon: tick range events fall within (``[1, horizon]`` —
                tick 0 is skipped so every run makes *some* progress
                before the first fault).
            n_events: exact number of events to draw.
            kinds: fault kinds to draw from (uniformly).
            max_segment: worker faults fire after a segment drawn from
                ``[0, max_segment]``.
        """
        if n_trials < 1:
            raise FaultPlanError("need at least one trial")
        if horizon < 1:
            raise FaultPlanError("horizon must be >= 1")
        if n_events < 0:
            raise FaultPlanError("n_events must be >= 0")
        for kind in kinds:
            if kind not in FLEET_FAULT_KINDS:
                raise FaultPlanError(
                    f"unknown fleet fault kind {kind!r}")
        rng = np.random.default_rng(seed)
        events: List[FleetFaultEvent] = []
        for _ in range(n_events):
            kind = kinds[int(rng.integers(0, len(kinds)))]
            events.append(FleetFaultEvent(
                at_tick=int(rng.integers(1, horizon + 1)),
                kind=kind,
                trial=(int(rng.integers(0, n_trials))
                       if kind in TRIAL_SCOPED else -1),
                at_segment=int(rng.integers(0, max_segment + 1)),
                lock_count=int(rng.integers(1, 3))))
        return cls(events)
