"""Unit tests for the seed pool, favored culling, and scheduler."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fuzzer import EnergyPolicy, Scheduler, Seed, SeedPool
from repro.fuzzer.oracle import DictSeedPool


def make_seed(seed_id, locations, exec_cycles=1000.0, data=b"xxxx",
              **kwargs):
    return Seed(seed_id=seed_id, data=data, exec_cycles=exec_cycles,
                coverage_hash=seed_id,
                covered_locations=np.asarray(locations, dtype=np.int64),
                **kwargs)


class TestSeedPool:
    def test_cull_favors_minimal_cover(self):
        pool = SeedPool()
        pool.add(make_seed(0, [1, 2, 3], exec_cycles=100))
        pool.add(make_seed(1, [3], exec_cycles=50))
        pool.add(make_seed(2, [4], exec_cycles=100))
        pool.cull()
        favored = {s.seed_id for s in pool if s.favored}
        # Seed 0 covers 1,2; seed 1 is the cheaper cover for 3; seed 2
        # uniquely covers 4.
        assert 0 in favored and 2 in favored

    def test_cheaper_seed_takes_over_location(self):
        pool = SeedPool()
        pool.add(make_seed(0, [7], exec_cycles=1000, data=b"A" * 64))
        pool.add(make_seed(1, [7], exec_cycles=10, data=b"B"))
        pool.cull()
        favored = {s.seed_id for s in pool if s.favored}
        assert favored == {1}

    def test_pending_favored_counts_unfuzzed(self):
        pool = SeedPool()
        pool.add(make_seed(0, [1]))
        assert pool.pending_favored() == 1
        pool.seeds[0].fuzzed = True
        pool._cull_pending = True
        assert pool.pending_favored() == 0

    def test_splice_partner_excludes_self(self):
        pool = SeedPool()
        pool.add(make_seed(0, [1]))
        rng = np.random.default_rng(0)
        assert pool.pick_splice_partner(rng, 0) is None
        pool.add(make_seed(1, [2]))
        partner = pool.pick_splice_partner(rng, 0)
        assert partner.seed_id == 1

    def test_cull_score_prefers_short_fast(self):
        fast_short = make_seed(0, [1], exec_cycles=10, data=b"ab")
        slow_long = make_seed(1, [1], exec_cycles=100, data=b"ab" * 50)
        assert fast_short.cull_score() < slow_long.cull_score()


class TestScheduler:
    def _pool(self, n_favored=1, n_plain=5):
        pool = SeedPool()
        for i in range(n_favored):
            pool.add(make_seed(i, [i]))
        for i in range(n_plain):
            # Same location: only the first (cheaper) stays favored.
            pool.add(make_seed(100 + i, [0], exec_cycles=10_000.0,
                               data=b"y" * 200))
        pool.cull()
        return pool

    def test_empty_pool_rejected(self):
        scheduler = Scheduler(SeedPool(), np.random.default_rng(0))
        with pytest.raises(RuntimeError):
            scheduler.next_seed()

    def test_favored_strongly_preferred(self):
        pool = self._pool(n_favored=1, n_plain=8)
        scheduler = Scheduler(pool, np.random.default_rng(1))
        picks = [scheduler.next_seed().favored for _ in range(50)]
        assert sum(picks) > 40

    def test_always_terminates(self):
        pool = SeedPool()
        pool.add(make_seed(0, [1]))
        pool.seeds[0].favored = False
        pool._cull_pending = False
        scheduler = Scheduler(pool, np.random.default_rng(2))
        # A single non-favored seed must still be schedulable.
        assert scheduler.next_seed() is pool.seeds[0]

    def test_energy_bounds(self):
        policy = EnergyPolicy()
        pool = self._pool()
        scheduler = Scheduler(pool, np.random.default_rng(3),
                              policy=policy)
        for seed in pool:
            energy = scheduler.energy_for(seed)
            assert policy.min_energy <= energy <= policy.max_energy

    def test_fast_seed_gets_more_energy(self):
        policy = EnergyPolicy()
        fast = make_seed(0, [1, 2, 3], exec_cycles=100)
        slow = make_seed(1, [1, 2, 3], exec_cycles=10_000)
        e_fast = policy.energy_for(fast, pool_mean_cycles=1_000,
                                   max_locations=3)
        e_slow = policy.energy_for(slow, pool_mean_cycles=1_000,
                                   max_locations=3)
        assert e_fast > e_slow

    def test_broad_coverage_gets_more_energy(self):
        policy = EnergyPolicy()
        broad = make_seed(0, list(range(100)))
        narrow = make_seed(1, [1])
        e_broad = policy.energy_for(broad, 1_000, 100)
        e_narrow = policy.energy_for(narrow, 1_000, 100)
        assert e_broad > e_narrow

    def test_iterate_yields_pairs(self):
        pool = self._pool()
        scheduler = Scheduler(pool, np.random.default_rng(4))
        stream = scheduler.iterate()
        seed, energy = next(stream)
        assert isinstance(energy, int)
        assert seed in pool.seeds


class _AlwaysSkipRNG:
    """Stub generator whose skip rolls always land below the threshold."""

    def random(self):
        return 0.0


class TestFullSkipFallback:
    def _pool_of_unfavorables(self, n=3):
        pool = SeedPool()
        for i in range(n):
            pool.add(make_seed(i, []))  # no coverage → never favored
        pool.cull()
        assert not any(s.favored for s in pool)
        return pool

    def test_fallback_walks_the_queue(self):
        """When every seed is skipped, successive calls must still walk
        the queue instead of pinning the same entry forever."""
        pool = self._pool_of_unfavorables()
        scheduler = Scheduler(pool, _AlwaysSkipRNG())
        ids = [scheduler.next_seed().seed_id for _ in range(6)]
        assert ids == [0, 1, 2, 0, 1, 2]

    def test_fallback_counts_queue_cycles(self):
        pool = self._pool_of_unfavorables()
        scheduler = Scheduler(pool, _AlwaysSkipRNG())
        for _ in range(6):
            scheduler.next_seed()
        # Six full-skip selections walk the queue at least six times.
        assert scheduler.queue_cycles >= 6

    def test_fallback_distributes_energy_evenly(self):
        pool = self._pool_of_unfavorables(4)
        scheduler = Scheduler(pool, _AlwaysSkipRNG())
        counts = {i: 0 for i in range(4)}
        for _ in range(40):
            counts[scheduler.next_seed().seed_id] += 1
        assert all(c == 10 for c in counts.values())


class TestCullInvariants:
    """Invariants the favored cull must hold for any pool.

    The scheduler starves non-favored seeds, so a cull that drops a
    location (or flaps between equally-good covers) silently loses
    coverage from the fuzzing rotation.
    """

    def _random_pool(self, rng, n_seeds=40, n_locations=64):
        pool = SeedPool()
        for i in range(n_seeds):
            n_loc = int(rng.integers(1, 9))
            locations = rng.choice(n_locations, size=n_loc,
                                   replace=False)
            pool.add(make_seed(
                i, sorted(int(x) for x in locations),
                exec_cycles=float(rng.integers(10, 10_000)),
                data=b"x" * int(rng.integers(1, 200))))
        return pool

    def test_every_discovered_location_has_a_favored_cover(self):
        for trial in range(20):
            rng = np.random.default_rng(trial)
            pool = self._random_pool(rng)
            pool.cull()
            all_locations = set()
            favored_locations = set()
            for seed in pool:
                all_locations.update(seed.covered_locations.tolist())
                if seed.favored:
                    favored_locations.update(
                        seed.covered_locations.tolist())
            assert favored_locations == all_locations

    def test_repeated_cull_is_stable(self):
        rng = np.random.default_rng(7)
        pool = self._random_pool(rng)
        first = pool.cull()
        baseline = [s.favored for s in pool]
        for _ in range(3):
            # Force a full recompute: the favored set must not flap.
            pool._cull_pending = True
            assert pool.cull() == first
            assert [s.favored for s in pool] == baseline

    def test_cull_count_matches_flags(self):
        rng = np.random.default_rng(11)
        pool = self._random_pool(rng)
        count = pool.cull()
        assert count == sum(1 for s in pool if s.favored)

    def test_favored_survive_checkpoint_restore(self):
        """Restoring a campaign checkpoint must reproduce the favored
        set exactly — the scheduler's rotation depends on it."""
        from repro.fuzzer import Campaign, CampaignConfig
        from repro.target import get_benchmark
        built = get_benchmark("zlib").build(scale=0.2, seed_scale=1.0)
        config = CampaignConfig(
            benchmark="zlib", fuzzer="bigmap", map_size=1 << 16,
            scale=0.2, seed_scale=1.0, virtual_seconds=0.4,
            max_real_execs=2_000, rng_seed=5)
        campaign = Campaign(config, built=built)
        campaign.run()
        campaign.pool.cull()
        snap = campaign.snapshot()

        resumed = Campaign(config, built=built)
        resumed.start()
        resumed.restore(snap)
        resumed.pool.cull()
        assert [s.seed_id for s in resumed.pool] == \
            [s.seed_id for s in campaign.pool]
        assert [s.favored for s in resumed.pool] == \
            [s.favored for s in campaign.pool]
        assert list(resumed.pool.top_rated().items()) == \
            list(campaign.pool.top_rated().items())


#: Small ids re-cover each other's locations; large ones span the AFL
#: 8 MB map's index range.
_LOCATION = st.one_of(st.integers(0, 7), st.integers(0, (1 << 23) - 1))
#: Few distinct exec costs and lengths, so cull scores tie often
#: (lengths 0 and 1 score alike).
_ADD = st.tuples(st.just("add"), st.lists(_LOCATION, max_size=10),
                 st.sampled_from([1.0, 2.0]), st.integers(0, 2),
                 st.integers(0, 6))
_OPS = st.lists(st.one_of(
    _ADD,
    st.tuples(st.just("fuzz"), st.integers(0, 63)),
    st.tuples(st.just("force")),
    st.tuples(st.just("cull")),
    st.tuples(st.just("restore")),
    st.tuples(st.just("splice"), st.integers(0, 6),
              st.integers(0, 2**32 - 1))), max_size=40)


def _position(pool, seed):
    return next(i for i, s in enumerate(pool.seeds) if s is seed)


class TestArrayPoolMatchesDictOracle:
    """The array pool must reproduce the per-location dict pool exactly:
    same top-rated table in the same first-seen order, same favored set
    and counts, and the same splice pick from the same RNG state — also
    after a checkpoint capture/restore round trip."""

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(ops=_OPS)
    def test_random_admission_sequences(self, ops):
        oracle, pool = DictSeedPool(), SeedPool()
        for op in ops:
            kind = op[0]
            if kind == "add":
                _, locations, cycles, length, seed_id = op
                for target in (oracle, pool):
                    target.add(make_seed(seed_id, locations,
                                         exec_cycles=cycles,
                                         data=b"d" * length))
            elif kind == "fuzz" and pool.seeds:
                i = op[1] % len(pool.seeds)
                oracle.seeds[i].fuzzed = pool.seeds[i].fuzzed = True
            elif kind == "force":
                oracle._cull_pending = pool._cull_pending = True
            elif kind == "cull":
                assert pool.cull() == oracle.cull()
            elif kind == "restore":
                state = pool.capture()
                pool.restore(state["seeds"], state["cull_pending"])
                assert list(pool.top_rated().items()) == \
                    list(state["top_rated"].items())
            elif kind == "splice":
                _, exclude_id, rng_seed = op
                rngs = [np.random.default_rng(rng_seed) for _ in "ab"]
                want = oracle.pick_splice_partner(rngs[0], exclude_id)
                got = pool.pick_splice_partner(rngs[1], exclude_id)
                assert (got is None) == (want is None)
                if want is not None:
                    assert _position(pool, got) == \
                        _position(oracle, want)
                assert rngs[0].bit_generator.state == \
                    rngs[1].bit_generator.state

        assert list(pool.top_rated().items()) == \
            list(oracle._top_rated.items())
        assert pool.pending_favored() == oracle.pending_favored()
        assert pool.cull() == oracle.cull()
        assert [s.favored for s in pool] == [s.favored for s in oracle]
        assert pool.mean_exec_cycles() == oracle.mean_exec_cycles()
        assert pool.max_locations == max(
            (s.n_locations for s in oracle), default=0)
