"""Smoke tests for the extension experiments (collafl, dedup-bias,
ensemble)."""

import pytest

from repro.experiments.common import BenchmarkCache, Profile

MICRO = Profile(name="micro", scale=0.03, seed_scale=0.02,
                throughput_execs=120, campaign_virtual_seconds=0.6,
                campaign_max_execs=900, composition_scale=0.02,
                replicas=1)


@pytest.fixture(scope="module")
def cache():
    return BenchmarkCache()


class TestCollAflExtension:
    def test_combination_wins(self, cache):
        from repro.experiments.extra_collafl import compute
        data = compute(MICRO, cache)
        assert data["collafl_direct_collisions"] == 0
        # BigMap on the CollAFL-sized map must beat the flat map.
        assert data["throughput_bigmap"] > data["throughput_afl"]
        # The hash scheme collides where CollAFL doesn't.
        assert data["hash_realized_distinct"] <= data["edges"]
        assert data["collafl_distinct"] >= \
            data["hash_realized_distinct"]

    def test_report_renders(self, cache):
        from repro.experiments.extra_collafl import run
        report = run(MICRO, cache)
        assert "CollAFL" in report and "speedup" in report


class TestDedupBiasExtension:
    def test_both_counters_reported(self, cache):
        from repro.experiments.extra_dedup_bias import compute
        rows = compute(MICRO, cache, benchmarks=["licm"])
        assert len(rows) == 4  # four map sizes
        for row in rows:
            assert row["crashwalk"] >= 0
            assert row["afl_dedup"] >= 0

    def test_report_renders(self, cache):
        from repro.experiments.extra_dedup_bias import run
        assert "dedup" in run(MICRO, cache)


class TestEnsembleExtension:
    @pytest.fixture(scope="class")
    def ensemble(self, cache):
        """One ensemble comparison, shared: ``run`` is ``render`` over
        the same ``compute`` result."""
        from repro.experiments.extra_ensemble import compute
        return compute(MICRO, cache)

    def test_both_strategies_run(self, ensemble):
        for label in ("stacked", "ensemble"):
            assert ensemble[label]["execs"] > 0
            assert ensemble[label]["true_coverage"] > 0

    def test_report_renders(self, ensemble):
        from repro.experiments.extra_ensemble import render
        report = render(ensemble)
        assert "stacked" in report and "ensemble" in report


class TestRunnerKnowsExtensions:
    def test_registered(self):
        from repro.experiments.runner import EXPERIMENTS, ORDER
        for name in ("collafl", "dedup-bias", "ensemble"):
            assert name in EXPERIMENTS
            assert name in ORDER
