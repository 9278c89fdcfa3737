"""Integration tests for parallel fuzzing sessions."""

import pytest

from repro.core.errors import CampaignConfigError
from repro.fuzzer import CampaignConfig, ParallelSession, run_parallel
from repro.target import get_benchmark


@pytest.fixture(scope="module")
def built():
    return get_benchmark("libpng").build(scale=0.25, seed_scale=1.0)


def config(**kwargs):
    defaults = dict(benchmark="libpng", fuzzer="bigmap",
                    map_size=1 << 18, scale=0.25, seed_scale=1.0,
                    virtual_seconds=0.4, max_real_execs=800, rng_seed=3)
    defaults.update(kwargs)
    return CampaignConfig(**defaults)


class TestSessionValidation:
    def test_needs_instances(self, built):
        with pytest.raises(CampaignConfigError):
            ParallelSession(config(), 0, built=built)

    def test_core_limit(self, built):
        with pytest.raises(CampaignConfigError):
            ParallelSession(config(), 13, built=built)

    @pytest.mark.parametrize("interval", [0.0, -1.0, float("nan"),
                                          float("inf")])
    def test_sync_interval_must_be_positive_and_finite(self, built,
                                                       interval):
        # A non-positive interval never advances the slice deadline,
        # so the session would loop forever; reject it up front.
        with pytest.raises(CampaignConfigError, match="sync_interval"):
            ParallelSession(config(), 2, built=built,
                            sync_interval=interval)


class TestSessionRuns:
    def test_single_instance_equals_campaign_shape(self, built):
        summary = run_parallel(config(), 1, built=built)
        assert summary.n_instances == 1
        assert summary.total_execs > 0
        assert summary.mean_slowdown == pytest.approx(1.0, abs=0.1)

    def test_two_instances_do_more_total_work(self, built):
        one = run_parallel(config(), 1, built=built)
        two = run_parallel(config(), 2, built=built)
        assert two.total_execs > one.total_execs * 1.4

    def test_instances_have_distinct_random_streams(self, built):
        summary = run_parallel(config(), 2, built=built)
        a, b = summary.per_instance
        assert a.execs != b.execs or \
            a.discovered_locations != b.discovered_locations

    def test_corpus_sync_spreads_discoveries(self, built):
        """After syncs, instances' global coverage converges: each
        instance knows at least as much as it could alone."""
        session = ParallelSession(config(virtual_seconds=0.6), 2,
                                  built=built)
        summary = session.run()
        discovered = [r.discovered_locations for r in
                      summary.per_instance]
        # Synced instances should be within a few percent of each other.
        assert min(discovered) > 0.7 * max(discovered)

    def test_crash_union(self, built):
        crashy = get_benchmark("bloaty").build(scale=0.25,
                                               seed_scale=0.5)
        summary = run_parallel(
            config(benchmark="bloaty", scale=0.25, seed_scale=0.5,
                   virtual_seconds=1.0, max_real_execs=1_500),
            2, built=crashy)
        per_instance_max = max(r.unique_crashes
                               for r in summary.per_instance)
        assert summary.unique_crashes >= per_instance_max

    def test_afl_slows_more_than_bigmap_under_contention(self, built):
        afl = run_parallel(config(fuzzer="afl", map_size=1 << 21), 4,
                           built=built)
        big = run_parallel(config(fuzzer="bigmap", map_size=1 << 21), 4,
                           built=built)
        assert afl.mean_slowdown >= big.mean_slowdown


class TestEnsembleValidation:
    def test_empty_config_list_rejected(self, built):
        with pytest.raises(CampaignConfigError):
            ParallelSession([], built=built)

    def test_n_instances_config_list_mismatch_rejected(self, built):
        with pytest.raises(CampaignConfigError):
            ParallelSession([config(), config()], 3, built=built)

    def test_mixed_benchmark_ensemble_rejected(self, built):
        with pytest.raises(CampaignConfigError):
            ParallelSession([config(),
                             config(benchmark="bloaty", seed_scale=0.5)],
                            built=built)

    def test_mixed_scale_ensemble_rejected(self, built):
        with pytest.raises(CampaignConfigError):
            ParallelSession([config(), config(scale=0.5)], built=built)

    def test_ensemble_larger_than_machine_rejected(self, built):
        with pytest.raises(CampaignConfigError):
            ParallelSession([config(rng_seed=i) for i in range(13)],
                            built=built)


class TestSessionEdgeCases:
    def test_single_instance_never_syncs(self, built):
        session = ParallelSession(config(), 1, built=built,
                                  sync_interval=0.05)
        summary = session.run()
        assert session._import_cursors == {}
        assert summary.quarantined_imports == 0
        assert summary.total_execs == summary.per_instance[0].execs

    def test_contention_multiplier_floors_at_one(self, built):
        """The contention model may predict a *faster* shared rate at
        low load; sessions must never credit instances with a
        below-solo cost."""
        session = ParallelSession(config(), 2, built=built,
                                  sync_interval=0.1)
        summary = session.run()
        assert all(s >= 1.0 for s in session._slowdown_samples)
        assert summary.mean_slowdown >= 1.0
        for inst in session.instances:
            assert inst.cycle_multiplier >= 1.0


class TestSyncDedup:
    def test_sync_never_reimports_known_payloads(self, built):
        """Regression for the sync echo bug: instance i's exports came
        back from every peer on the next sync and were re-executed,
        O(k^2) duplicate work. Every import must be a payload the
        destination has never held."""
        session = ParallelSession(config(virtual_seconds=0.8,
                                         max_real_execs=2_000), 3,
                                  built=built, sync_interval=0.1)
        imports = {i: [] for i in range(3)}
        for i, inst in enumerate(session.instances):
            original = inst.import_inputs

            def wrapped(entries, _original=original, _inst=inst, _i=i):
                held = {s.data for s in _inst.pool.seeds}
                for data in entries:
                    assert data not in held, "echoed payload re-imported"
                    imports[_i].append(data)
                return _original(entries)

            inst.import_inputs = wrapped
        session.run()
        for payloads in imports.values():
            # ... and never imports the same payload twice, even when
            # two peers both offer it.
            assert len(payloads) == len(set(payloads))
