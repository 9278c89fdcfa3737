"""Host wall-time measurement shim — the only sanctioned clock access.

Determinism invariant (DET001): simulated results must be a function
of configuration alone. Campaign time is *virtual*
(:class:`repro.fuzzer.clock.VirtualClock`, charged from the cost
model); host wall time may influence nothing but operator-facing
telemetry, such as how long an experiment harness took to regenerate a
report. That legitimate use is isolated here, on the monotonic
``perf_counter`` (immune to NTP steps and calendar jumps, unlike
``time.time``). The DET001 check under ``tests/statlint`` exempts
exactly this module; any other wall-clock read in the tree fails
tier-1 unless ``test_real_tree.py`` allow-lists its site (the benches
that report host throughput).
"""

from __future__ import annotations

import time


def wall_now() -> float:
    """Monotonic host-clock reading, for elapsed-time measurement only."""
    return time.perf_counter()


class Stopwatch:
    """Measures elapsed host seconds (never feeds simulated state).

    ::

        watch = Stopwatch()
        run_expensive_thing()
        print(f"took {watch.elapsed():.1f}s")
    """

    def __init__(self) -> None:
        self._start = wall_now()

    def elapsed(self) -> float:
        """Seconds since construction (or the last :meth:`restart`)."""
        return wall_now() - self._start

    def restart(self) -> float:
        """Reset the origin; returns the elapsed time it closed out."""
        elapsed = self.elapsed()
        self._start = wall_now()
        return elapsed
