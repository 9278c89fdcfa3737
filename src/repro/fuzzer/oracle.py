"""Reference implementations kept only as test oracles.

:class:`SerialCampaign` walks every mutant of a collected window through
the scalar pipeline, one at a time — the classic AFL inner loop. The
batch equivalence tests (DESIGN.md §8) import it by name and check that
:class:`Campaign` and :class:`~repro.fuzzer.mp.MPCampaign` produce
bit-identical campaigns.

:class:`DictSeedPool` is the per-location dict form of
:class:`~repro.fuzzer.pool.SeedPool`; a property test checks that the
array pool gives the same top-rated table, favored set and splice picks.

Neither is ever selected by configuration.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional

import numpy as np

from .campaign import Campaign
from .seed import Seed


class SerialCampaign(Campaign):
    """A :class:`Campaign` whose window runner is the scalar loop."""

    def _run_window(self, window, deadline: float) -> None:
        specs, seeds, bounds = window
        mega = self.mutator.havoc_apply(self.mutator.draw_rows(specs))
        for k, seed in enumerate(seeds):
            with self._span_run_one:
                for i in range(int(bounds[k]), int(bounds[k + 1])):
                    if self._exhausted(deadline):
                        return
                    self._run_mutant(mega.tobytes(i), seed)
                    self._record_curve()


class DictSeedPool:
    """Queue of seeds plus the top-rated index for culling."""

    def __init__(self) -> None:
        self.seeds: List[Seed] = []
        # map location -> index into self.seeds of the current top entry
        self._top_rated: Dict[int, int] = {}
        self._cull_pending = False

    def __len__(self) -> int:
        return len(self.seeds)

    def __iter__(self) -> Iterator[Seed]:
        return iter(self.seeds)

    def add(self, seed: Seed) -> None:
        """Admit a seed and update the top-rated table."""
        idx = len(self.seeds)
        self.seeds.append(seed)
        score = seed.cull_score()
        for loc in seed.covered_locations.tolist():
            best = self._top_rated.get(loc)
            if best is None or score < self.seeds[best].cull_score():
                self._top_rated[loc] = idx
        self._cull_pending = True

    def cull(self) -> int:
        """Recompute favored flags; returns the number of favored seeds.

        Greedy set cover: walk the locations in first-seen order, and
        for any location not yet covered by a favored entry, favor its
        top-rated seed (which then accounts for all its locations).
        """
        if not self._cull_pending:
            return sum(1 for s in self.seeds if s.favored)
        for seed in self.seeds:
            seed.favored = False
        covered: set = set()
        for loc, idx in self._top_rated.items():
            if loc in covered:
                continue
            winner = self.seeds[idx]
            if not winner.favored:
                winner.favored = True
            covered.update(winner.covered_locations.tolist())
        self._cull_pending = False
        return sum(1 for s in self.seeds if s.favored)

    def pending_favored(self) -> int:
        """Favored entries that have not been fuzzed yet."""
        self.cull()
        return sum(1 for s in self.seeds if s.favored and not s.fuzzed)

    def mean_exec_cycles(self) -> float:
        if not self.seeds:
            return 0.0
        return float(np.mean([s.exec_cycles for s in self.seeds]))

    def pick_splice_partner(self, rng: np.random.Generator,
                            exclude_id: int) -> Optional[Seed]:
        """A random other seed for havoc splicing, or None."""
        candidates = [s for s in self.seeds if s.seed_id != exclude_id]
        if not candidates:
            return None
        return candidates[int(rng.integers(0, len(candidates)))]
