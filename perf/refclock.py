"""Host time scaled to a reference host speed.

A shared virtual machine (the 2-vCPU VM of the baseline in
perf/README.md) changes speed by up to 1.6x from one minute to the next,
as other tenants compete for its cores, caches and memory bandwidth, so
raw host times of the same code spread far wider than any bound worth
setting. A fixed reference operation, timed between
units of work, measures the host's current speed; a unit's host time is
multiplied by ``REF_NOMINAL_S`` over the mean of the reference times
taken just before and just after it. Reported host times are therefore
*reference-speed* seconds: what the unit would have taken on a host
where the reference operation takes ``REF_NOMINAL_S``.

The reference operation uses only NumPy and the interpreter, never the
program under test, so a change to the program cannot move it. It mixes
the work the campaigns do: random gathers from a table larger than the
L2 cache, a sort, a scattered write into a byte matrix and an
interpreter loop.
"""

from __future__ import annotations

import time
from contextlib import nullcontext

import numpy as np

#: Reference-operation time that defines reference speed (about what
#: the operation takes on a quiet 2-core host of the kind the baseline
#: in perf/README.md was measured on).
REF_NOMINAL_S = 0.010


class RefClock:
    """Samples the host's speed and turns host seconds into
    reference-speed seconds."""

    def __init__(self, recorder=None) -> None:
        rng = np.random.default_rng(0x5EED)
        self._table = rng.integers(0, 1 << 20, size=1 << 20)
        self._index = rng.integers(0, 1 << 20, size=1 << 16)
        self._matrix = rng.integers(0, 256, size=(2048, 128),
                                    dtype=np.uint8)
        self._recorder = recorder
        self.samples = []
        self._last = self.sample()

    def _op(self) -> int:
        acc = 0
        for i in range(10_000):
            acc += i & 7
        gathered = self._table[self._index]
        np.unique(gathered & 0xFFFF)
        matrix = self._matrix.copy()
        matrix[self._index[:2048] & 2047, self._index[2048:4096] & 127] = 1
        return acc + int(np.cumsum(gathered)[-1]) + int(matrix[0, 0])

    def sample(self) -> float:
        """Time the reference operation now."""
        region = (self._recorder.region("perf.ref") if self._recorder
                  else nullcontext())
        with region:
            begun = time.perf_counter()
            self._op()
            ref = time.perf_counter() - begun
        self.samples.append(ref)
        return ref

    def factor(self) -> float:
        """Scale for the host time spent since the previous call: the
        nominal reference time over the mean of the reference times
        measured before and after that stretch."""
        before, self._last = self._last, self.sample()
        return REF_NOMINAL_S / ((before + self._last) / 2.0)
