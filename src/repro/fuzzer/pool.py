"""Seed pool with AFL's favored-entry culling.

AFL keeps, for every map location, the "top rated" queue entry covering
it — the one minimizing ``exec_time × input_len`` — and marks a minimal
winner set as *favored*; the scheduler then strongly prefers favored
entries (``update_bitmap_score`` / ``cull_queue``). The same mechanism
is implemented here over structure-native location indices: the AFL
map index, or BigMap's condensed slot below ``used_key``.

The top-rated table uses the paper's own two-level layout, BigMap's
index/condensed split applied to the pool. A location gets a dense
*slot* the first time any seed covers it, found by one
``searchsorted`` over the sorted array of known locations (the index
level); the per-slot top-rated array (the condensed level) is touched
only up to its live prefix and grows with the pool's coverage, never
with ``map_size``. Admission is a few vector operations over a seed's
slots; the cull loops over winners, not locations.

One deliberate deviation from AFL: ``cull_queue`` walks locations in
map-index order, while :meth:`SeedPool.cull` walks slots, i.e. the
order in which locations were first covered. Both are valid greedy
covers; the slot order is kept because switching would move every
campaign's favored set, and with it every RNG stream downstream.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any, Dict, Iterator, List, Optional

import numpy as np

from .seed import Seed


def _copy_seed(seed: Seed) -> Seed:
    """Value copy of a queue entry (its location array included)."""
    return replace(seed, covered_locations=seed.covered_locations.copy())


def _room(arr: np.ndarray, need: int) -> np.ndarray:
    """``arr``, or a doubled copy of it, holding at least ``need`` items."""
    if need <= arr.size:
        return arr
    out = np.empty(max(need, 2 * arr.size), dtype=arr.dtype)
    out[:arr.size] = arr
    return out


class SeedPool:
    """Queue of seeds plus the top-rated table for culling.

    ``seeds`` is the queue. Favored flags live on the seeds, but only
    :meth:`cull` sets them; the per-seed arrays (cull score, exec
    cycles, seed id) mirror the queue for the vectorized paths.
    """

    def __init__(self) -> None:
        self.seeds: List[Seed] = []
        self.max_locations = 0      # max n_locations over the queue
        # Index level: known locations, sorted, and the slot of each.
        self._known = np.empty(0, dtype=np.int64)
        self._known_slot = np.empty(0, dtype=np.int32)
        # Condensed level: slot -> index of its top-rated seed; slots
        # are numbered in first-seen order, live below _n_slots.
        self._top = np.empty(64, dtype=np.int32)
        self._n_slots = 0
        # Per seed (queue order): cull score, exec cycles, id, slots.
        self._score = np.empty(64, dtype=np.float64)
        self._exec = np.empty(64, dtype=np.float64)
        self._ids = np.empty(64, dtype=np.int64)
        self._seed_slots: List[np.ndarray] = []
        self._favored: List[int] = []   # queue indices of the winners
        self._cull_pending = False

    def __len__(self) -> int:
        return len(self.seeds)

    def __iter__(self) -> Iterator[Seed]:
        return iter(self.seeds)

    def _slots_for(self, locations: np.ndarray) -> np.ndarray:
        """Slots of ``locations``' distinct values, assigning fresh ones.

        A location seen for the first time gets the next slot; several
        new ones in one seed are numbered in the order the seed lists
        them, which keeps slot order equal to first-seen order.
        """
        locs = np.asarray(locations, dtype=np.int64)
        first = None
        if locs.size > 1 and not (locs[1:] > locs[:-1]).all():
            locs, first = np.unique(locs, return_index=True)
        if not self._known.size:
            pos = np.zeros(locs.size, dtype=np.intp)
            new = np.ones(locs.size, dtype=bool)
            slots = np.empty(locs.size, dtype=np.int32)
        else:
            pos = np.searchsorted(self._known, locs)
            new = self._known.take(pos, mode="clip") != locs
            slots = self._known_slot.take(pos, mode="clip")
        n_new = int(np.count_nonzero(new))
        if n_new:
            fresh = np.flatnonzero(new)
            if first is not None:
                fresh = fresh[np.argsort(first[fresh], kind="stable")]
            slots[fresh] = np.arange(self._n_slots, self._n_slots + n_new,
                                     dtype=np.int32)
            self._known = np.insert(self._known, pos[new], locs[new])
            self._known_slot = np.insert(self._known_slot, pos[new],
                                         slots[new])
            self._n_slots += n_new
        return slots

    def add(self, seed: Seed) -> None:
        """Admit a seed and update the top-rated table.

        The seed takes its new slots, and takes a known slot from the
        incumbent only with a strictly lower cull score, so ties keep
        the earlier entry.
        """
        idx = len(self.seeds)
        self.seeds.append(seed)
        score = seed.cull_score()
        self._score = _room(self._score, idx + 1)
        self._exec = _room(self._exec, idx + 1)
        self._ids = _room(self._ids, idx + 1)
        self._score[idx] = score
        self._exec[idx] = seed.exec_cycles
        self._ids[idx] = seed.seed_id
        self.max_locations = max(self.max_locations, seed.n_locations)

        n_old = self._n_slots
        slots = self._slots_for(seed.covered_locations)
        self._seed_slots.append(slots)
        self._top = _room(self._top, self._n_slots)
        self._top[n_old:self._n_slots] = idx
        incumbent = self._score.take(self._top.take(slots))
        self._top[slots[score < incumbent]] = idx
        self._cull_pending = True

    def cull(self) -> int:
        """Recompute favored flags; returns the number of favored seeds.

        Greedy set cover in AFL's style: walk the slots in first-seen
        order, and for the next slot not yet covered by a favored entry,
        favor its top-rated seed (which then covers all its slots). The
        loop runs once per winner, at most the pool size.
        """
        if not self._cull_pending:
            return len(self._favored)
        for i in self._favored:
            self.seeds[i].favored = False
        covered = np.zeros(self._n_slots, dtype=bool)
        winners: List[int] = []
        p = 0
        while p < covered.size:
            p += int(covered[p:].argmin())
            if covered[p]:
                break
            w = int(self._top[p])
            winners.append(w)
            self.seeds[w].favored = True
            covered[self._seed_slots[w]] = True
        self._favored = winners
        self._cull_pending = False
        return len(winners)

    def pending_favored(self) -> int:
        """Favored entries that have not been fuzzed yet."""
        self.cull()
        return sum(1 for i in self._favored if not self.seeds[i].fuzzed)

    def mean_exec_cycles(self) -> float:
        if not self.seeds:
            return 0.0
        return float(np.mean(self._exec[:len(self.seeds)]))

    def pick_splice_partner(self, rng: np.random.Generator,
                            exclude_id: int) -> Optional[Seed]:
        """A random other seed for havoc splicing, or None.

        One draw over the queue minus the seeds with ``exclude_id``,
        mapped past the excluded positions.
        """
        n = len(self.seeds)
        excluded = np.flatnonzero(self._ids[:n] == exclude_id).tolist()
        if n == len(excluded):
            return None
        r = int(rng.integers(0, n - len(excluded)))
        for e in excluded:
            if r >= e:
                r += 1
        return self.seeds[r]

    def top_rated(self) -> Dict[int, int]:
        """``{location: top-rated seed index}`` in first-seen order."""
        locs = np.empty(self._n_slots, dtype=np.int64)
        locs[self._known_slot] = self._known
        return dict(zip(locs.tolist(),
                        self._top[:self._n_slots].tolist()))

    def capture(self) -> Dict[str, Any]:
        """Value copy of the pool for a checkpoint: ``seeds``,
        ``top_rated`` and ``cull_pending``."""
        return {"seeds": [_copy_seed(s) for s in self.seeds],
                "top_rated": self.top_rated(),
                "cull_pending": self._cull_pending}

    def restore(self, seeds: List[Seed], cull_pending: bool) -> None:
        """Reset the pool to copies of ``seeds``, as captured.

        The table is a function of the admission sequence, so it is
        rebuilt by re-admitting the seeds in queue order; their favored
        flags come back as captured.
        """
        self.__init__()
        for seed in seeds:
            self.add(_copy_seed(seed))
        self._favored = [i for i, s in enumerate(self.seeds) if s.favored]
        self._cull_pending = cull_pending
