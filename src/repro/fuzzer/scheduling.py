"""Seed scheduling: skip probabilities and energy assignment.

Follows AFL's queue walk: cycle through the pool; favored entries are
always fuzzed, non-favored ones are skipped with high probability
(higher still while unfuzzed favored entries are pending). A selected
seed receives an *energy* (AFL's ``perf_score``-scaled havoc budget):
faster-executing, broader-coverage, deeper seeds get more mutations.

The paper's approach is orthogonal to all of this (§II-A1) — the same
scheduler drives both AFL and BigMap campaigns, so throughput and
coverage differences come only from the map structure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

import numpy as np

from .pool import SeedPool
from .seed import Seed

#: AFL's skip probabilities (queue_cur not favored).
SKIP_WITH_PENDING_FAVORED = 0.99
SKIP_FUZZED_NO_FAVORED = 0.95
SKIP_UNFUZZED_NO_FAVORED = 0.75


@dataclass(frozen=True)
class EnergyPolicy:
    """Havoc-budget parameters (AFL's ``calculate_score`` simplified).

    Attributes:
        base_energy: mutations for an average seed.
        min_energy / max_energy: clamp bounds.
    """

    base_energy: int = 64
    min_energy: int = 16
    max_energy: int = 512

    def energy_for(self, seed: Seed, pool_mean_cycles: float,
                   max_locations: int) -> int:
        """Mutation budget for one selected seed."""
        score = float(self.base_energy)
        # Faster-than-average execution earns up to 3x, slower down to
        # 0.25x (AFL uses the same bounds).
        if pool_mean_cycles > 0 and seed.exec_cycles > 0:
            ratio = pool_mean_cycles / seed.exec_cycles
            score *= float(np.clip(ratio, 0.25, 3.0))
        # Broad coverage earns up to 2x.
        if max_locations > 0:
            score *= 1.0 + seed.n_locations / max_locations
        # Depth bonus: later generations get a boost, as in AFL.
        score *= min(1.0 + seed.depth * 0.1, 2.0)
        return int(np.clip(score, self.min_energy, self.max_energy))


class Scheduler:
    """Cycles the queue, yielding seeds to fuzz with their energy."""

    def __init__(self, pool: SeedPool, rng: np.random.Generator,
                 policy: Optional[EnergyPolicy] = None) -> None:
        self.pool = pool
        self.rng = rng
        self.policy = policy or EnergyPolicy()
        self._cursor = 0
        self.queue_cycles = 0  # completed passes over the queue

    def _should_skip(self, seed: Seed, pending_favored: int) -> bool:
        if seed.favored:
            return False
        if pending_favored > 0:
            return self.rng.random() < SKIP_WITH_PENDING_FAVORED
        if seed.fuzzed:
            return self.rng.random() < SKIP_FUZZED_NO_FAVORED
        return self.rng.random() < SKIP_UNFUZZED_NO_FAVORED

    def next_seed(self) -> Seed:
        """Select the next seed to fuzz (always terminates).

        Walks the queue applying skip probabilities; if an entire pass
        skips everything, the entry under the cursor is used anyway
        (AFL's behaviour after a full skip cycle).
        """
        if not self.pool.seeds:
            raise RuntimeError("cannot schedule from an empty seed pool")
        pending = self.pool.pending_favored()
        n = len(self.pool.seeds)
        for _ in range(n):
            if self._cursor >= len(self.pool.seeds):
                self._cursor = 0
                self.queue_cycles += 1
            seed = self.pool.seeds[self._cursor]
            self._cursor += 1
            if not self._should_skip(seed, pending):
                return seed
        # Full pass skipped everything: fuzz the entry under the cursor
        # anyway, and *advance past it* so the next call starts from the
        # following entry (and wrap-arounds keep counting queue cycles).
        if self._cursor >= len(self.pool.seeds):
            self._cursor = 0
            self.queue_cycles += 1
        seed = self.pool.seeds[self._cursor]
        self._cursor += 1
        return seed

    def energy_for(self, seed: Seed) -> int:
        return self.policy.energy_for(seed, self.pool.mean_exec_cycles(),
                                      self.pool.max_locations)

    def iterate(self) -> Iterator:
        """Endless stream of ``(seed, energy)`` pairs."""
        while True:
            seed = self.next_seed()
            yield seed, self.energy_for(seed)
