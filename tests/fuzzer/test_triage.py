"""Unit tests for crash triage: Crashwalk dedup and AFL's map bias."""

import numpy as np

from repro.core import VirginMap
from repro.fuzzer import AflCrashTriager, CrashwalkTriager
from repro.target.crashes import CrashInfo


def crash(site_id, stack=(1, 2, 3), address=None):
    return CrashInfo(site_id=site_id, edge_index=site_id, stack=stack,
                     fault_address=address if address is not None
                     else 0x400000 + site_id * 0x40)


class TestCrashwalk:
    def test_first_sighting_is_new(self):
        triager = CrashwalkTriager()
        assert triager.observe(crash(1), 10.0)
        assert triager.unique_crashes == 1

    def test_duplicates_counted_not_added(self):
        triager = CrashwalkTriager()
        triager.observe(crash(1), 10.0)
        assert not triager.observe(crash(1), 20.0)
        assert triager.unique_crashes == 1
        record = next(iter(triager.records.values()))
        assert record.n_seen == 2

    def test_distinct_stacks_are_distinct_crashes(self):
        triager = CrashwalkTriager()
        triager.observe(crash(1, stack=(1, 2)), 0.0)
        triager.observe(crash(1, stack=(9, 2)), 0.0)
        assert triager.unique_crashes == 2

    def test_dedup_is_map_size_independent(self):
        """The reason the paper uses Crashwalk: identical crashes dedup
        identically regardless of any map configuration."""
        a, b = CrashwalkTriager(), CrashwalkTriager()
        for c in (crash(1), crash(2), crash(1)):
            a.observe(c, 0.0)
            b.observe(c, 0.0)
        assert a.unique_crashes == b.unique_crashes == 2

    def test_merge_from_unions(self):
        a, b = CrashwalkTriager(), CrashwalkTriager()
        a.observe(crash(1), 5.0)
        b.observe(crash(1), 2.0)
        b.observe(crash(2), 3.0)
        new = a.merge_from(b)
        assert new == 1
        assert a.unique_crashes == 2
        # Earliest sighting wins.
        key = crash(1).crashwalk_key()
        assert a.records[key].found_at == 2.0

    def test_curve_is_cumulative(self):
        triager = CrashwalkTriager()
        triager.observe(crash(1), 5.0)
        triager.observe(crash(2), 2.0)
        assert triager.curve() == [(2.0, 1), (5.0, 2)]


class TestAflTriage:
    def _trace(self, size, locations):
        trace = np.zeros(size, dtype=np.uint8)
        trace[list(locations)] = 1
        return trace

    def _observe(self, triager, trace):
        idx = np.flatnonzero(trace)
        return triager.observe(idx, trace[idx])

    def test_new_edge_crash_is_unique(self):
        triager = AflCrashTriager(256)
        assert self._observe(triager, self._trace(256, [5]))
        assert not self._observe(triager, self._trace(256, [5]))
        assert self._observe(triager, self._trace(256, [9]))
        assert triager.unique_crashes == 2

    def test_sparse_observe_equivalent(self):
        """The sparse observe merges exactly like ``VirginMap.merge``
        on the dense trace: same verdicts and the same virgin bytes,
        including new hit-count buckets and a ``limit``-bounded
        prefix."""
        rng = np.random.default_rng(0)
        sparse = AflCrashTriager(256)
        dense = VirginMap(256)
        for step in range(60):
            trace = np.zeros(256, dtype=np.uint8)
            locs = rng.integers(0, 256, size=int(rng.integers(0, 6)))
            trace[locs] = rng.choice([1, 2, 4, 8, 16, 32, 64, 128],
                                     size=locs.size)
            limit = int(rng.integers(1, 257)) if step % 2 else None
            if limit is not None:
                trace[limit:] = 0
            verdict = dense.merge(trace, limit=limit).interesting
            assert self._observe(sparse, trace) == verdict, f"step {step}"
            assert np.array_equal(sparse.virgin_crash.virgin,
                                  dense.virgin), f"step {step}"

    def test_map_size_bias(self):
        """The bias the paper avoids: with a tiny map, distinct crash
        sites collide and are undercounted; a big map counts more."""
        tiny, big = AflCrashTriager(4), AflCrashTriager(1 << 12)
        rng = np.random.default_rng(0)
        sites = rng.integers(0, 1 << 12, size=40)
        for site in sites:
            self._observe(tiny, self._trace(4, [int(site) % 4]))
            self._observe(big, self._trace(1 << 12, [int(site)]))
        assert tiny.unique_crashes < big.unique_crashes
