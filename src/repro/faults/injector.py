"""Fault injector: feeds a plan's events to a running session.

The injector is the session-facing view of a :class:`FaultPlan`: the
supervisor asks it, once per instance per slice, which events fire in
the slice's virtual-time window. Every event fires exactly once —
restarted instances whose clocks jump backwards (checkpoint restore)
never replay a fault they already suffered, which keeps a plan's event
count equal to the number of injected faults regardless of restart
history.
"""

from __future__ import annotations

from typing import List, Optional, Set

from .plan import FaultEvent, FaultPlan


class FaultInjector:
    """Stateful cursor over a :class:`FaultPlan`."""

    def __init__(self, plan: Optional[FaultPlan]) -> None:
        self.plan = plan or FaultPlan()
        #: Positions in ``plan.events`` already fired. Positions, not
        #: events: two equal events in one plan are two faults.
        self._fired: Set[int] = set()

    def take(self, instance: int, start: float,
             end: float) -> List[FaultEvent]:
        """Unfired events for ``instance`` in ``[start, end)``.

        Returned events are marked fired — a second call over an
        overlapping window yields nothing.
        """
        out = []
        for pos, event in enumerate(self.plan.events):
            if (event.instance == instance and start <= event.time < end
                    and pos not in self._fired):
                self._fired.add(pos)
                out.append(event)
        return out

    @property
    def fired_events(self) -> int:
        return len(self._fired)
