"""Deterministic fault plans: virtual-time fault schedules.

A :class:`FaultPlan` is a fixed schedule of fault events over the
*virtual* timeline of a parallel session — the same timeline the cost
model advances (:mod:`repro.fuzzer.clock`). Because events are pure
virtual-time data (no wall clocks, no OS signals), a session replayed
with the same plan and RNG seeds is bit-identical, faults included;
this is what makes fault-tolerance experiments repeatable in the sense
Klees et al. demand of fuzzing evaluations.

Four fault kinds model the failure modes real ``-M``/``-S`` fleets see:

* ``crash`` — the instance process dies (OOM kill, target wedging the
  fork server). All in-memory state is lost; the supervisor restarts it
  from its last checkpoint after a backoff.
* ``stall`` — the instance stops making progress while staying alive
  (a hung target without a working timeout). Wall time keeps passing;
  the supervisor detects the flat heartbeat and restarts it.
* ``slow`` — the instance keeps running but every execution costs
  ``magnitude``× the modeled cycles for ``duration`` virtual seconds
  (noisy neighbours, thermal throttling).
* ``corrupt-sync`` — the instance's next sync export is corrupt; peers
  quarantine the payload instead of importing it (truncated queue
  files, torn writes in the sync directory).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, List, Sequence, Tuple

import numpy as np

from ..core.errors import FaultPlanError

#: Fault kinds (see module docstring for semantics).
CRASH = "crash"
STALL = "stall"
SLOW = "slow"
CORRUPT_SYNC = "corrupt-sync"
FAULT_KINDS: Tuple[str, ...] = (CRASH, STALL, SLOW, CORRUPT_SYNC)


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault.

    Attributes:
        time: virtual seconds into the session at which the fault fires.
        instance: index of the targeted instance.
        kind: one of :data:`FAULT_KINDS`.
        duration: virtual seconds the effect lasts (``slow`` only;
            ``stall`` lasts until the supervisor intervenes and the
            other kinds are instantaneous).
        magnitude: cycle-cost multiplier while a ``slow`` fault is
            active (must be >= 1).
    """

    time: float
    instance: int
    kind: str
    duration: float = 0.0
    magnitude: float = 2.0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise FaultPlanError(
                f"unknown fault kind {self.kind!r}; known: "
                f"{', '.join(FAULT_KINDS)}")
        # Chained comparisons are False for NaN, so each check also
        # rejects NaN and infinity (an event at time NaN never fires).
        if not 0 <= self.time < math.inf:
            raise FaultPlanError(
                f"event time must be finite and >= 0, got {self.time}")
        if self.instance < 0:
            raise FaultPlanError(
                f"instance index must be >= 0, got {self.instance}")
        if not 0 <= self.duration < math.inf:
            raise FaultPlanError(
                f"duration must be finite and >= 0, got {self.duration}")
        if not 1.0 <= self.magnitude < math.inf:
            raise FaultPlanError(
                f"slow magnitude must be finite and >= 1, "
                f"got {self.magnitude}")


class FaultPlan:
    """An immutable, time-ordered schedule of :class:`FaultEvent`.

    The empty plan is the identity: a session driven with it behaves
    exactly like one driven without fault injection at all.
    """

    def __init__(self, events: Iterable[FaultEvent] = ()) -> None:
        self.events: Tuple[FaultEvent, ...] = tuple(
            sorted(events, key=lambda e: (e.time, e.instance)))

    def __len__(self) -> int:
        return len(self.events)

    def __bool__(self) -> bool:
        # An empty plan is falsy so ``session(fault_plan=FaultPlan())``
        # takes the exact no-injection code path.
        return bool(self.events)

    def __iter__(self):
        return iter(self.events)

    def max_instance(self) -> int:
        """Highest instance index any event addresses (-1 if empty)."""
        return max((e.instance for e in self.events), default=-1)

    def validate_for(self, n_instances: int) -> None:
        """Reject events addressed beyond the session's fleet."""
        if self.max_instance() >= n_instances:
            raise FaultPlanError(
                f"plan addresses instance {self.max_instance()} but the "
                f"session has only {n_instances} instances")

    def events_in(self, instance: int, start: float,
                  end: float) -> List[FaultEvent]:
        """Events for ``instance`` with ``start <= time < end``."""
        return [e for e in self.events
                if e.instance == instance and start <= e.time < end]

    @classmethod
    def generate(cls, *, seed: int, n_instances: int, horizon: float,
                 rate: float, kinds: Sequence[str] = FAULT_KINDS,
                 mean_duration: float = 0.0,
                 slow_magnitude: float = 3.0) -> "FaultPlan":
        """Draw a random plan, deterministically from ``seed``.

        Args:
            seed: RNG seed; equal seeds give equal plans.
            n_instances: fleet size events are spread over.
            horizon: virtual session length the events fall within.
            rate: expected number of events *per instance* over the
                horizon (Poisson).
            kinds: fault kinds to draw from (uniformly).
            mean_duration: mean ``slow`` window (exponential); 0 means
                one tenth of the horizon.
            slow_magnitude: magnitude for generated ``slow`` events.
        """
        if n_instances < 1:
            raise FaultPlanError("need at least one instance")
        if not 0 < horizon < math.inf:
            raise FaultPlanError(
                f"horizon must be finite and positive, got {horizon}")
        if not 0 <= rate < math.inf:
            raise FaultPlanError(f"rate must be finite and >= 0, got {rate}")
        if not 0 <= mean_duration < math.inf:
            raise FaultPlanError(
                f"mean_duration must be finite and >= 0, "
                f"got {mean_duration}")
        for kind in kinds:
            if kind not in FAULT_KINDS:
                raise FaultPlanError(f"unknown fault kind {kind!r}")
        rng = np.random.default_rng(seed)
        mean_dur = mean_duration or horizon / 10.0
        events: List[FaultEvent] = []
        for instance in range(n_instances):
            for _ in range(int(rng.poisson(rate))):
                kind = kinds[int(rng.integers(0, len(kinds)))]
                events.append(FaultEvent(
                    time=float(rng.uniform(0.0, horizon)),
                    instance=instance, kind=kind,
                    duration=float(rng.exponential(mean_dur))
                    if kind == SLOW else 0.0,
                    magnitude=slow_magnitude))
        return cls(events)
