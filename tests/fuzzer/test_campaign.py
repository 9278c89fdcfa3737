"""Integration tests: end-to-end fuzzing campaigns."""

import numpy as np
import pytest

from repro.core.errors import CampaignConfigError, KeyRangeError
from repro.fuzzer import Campaign, CampaignConfig, run_campaign
from repro.target import get_benchmark


@pytest.fixture(scope="module")
def built_small():
    return get_benchmark("libpng").build(scale=0.3, seed_scale=1.0)


def config(fuzzer="bigmap", **kwargs):
    defaults = dict(benchmark="libpng", fuzzer=fuzzer, map_size=1 << 16,
                    scale=0.3, seed_scale=1.0, virtual_seconds=0.5,
                    max_real_execs=1_500, rng_seed=5)
    defaults.update(kwargs)
    return CampaignConfig(**defaults)


class TestConfigValidation:
    def test_unknown_fuzzer(self):
        with pytest.raises(CampaignConfigError):
            config(fuzzer="libfuzzer")

    def test_nonpositive_budget(self):
        with pytest.raises(CampaignConfigError):
            config(virtual_seconds=0)

    def test_nonpositive_exec_cap(self):
        with pytest.raises(CampaignConfigError):
            config(max_real_execs=0)


class TestKeyRangeCheck:
    @pytest.mark.parametrize("fuzzer", ["afl", "bigmap"])
    def test_out_of_range_key_raises(self, built_small, fuzzer):
        """A metric that emits a key outside ``[0, map_size)`` fails
        loudly at the first window instead of aliasing to the end of
        the map: the campaign's map always range-checks keys."""
        campaign = Campaign(config(fuzzer, max_real_execs=300),
                            built=built_small)
        campaign.instrumentation.edge_keys[0] = -1
        with pytest.raises(KeyRangeError):
            campaign.run()


class TestCampaignRuns:
    @pytest.mark.parametrize("fuzzer", ["afl", "bigmap"])
    def test_basic_campaign(self, built_small, fuzzer):
        result = run_campaign(config(fuzzer=fuzzer), built=built_small)
        assert result.execs > len(built_small.seeds)
        assert result.throughput > 0
        assert result.discovered_locations > 0
        assert result.corpus_size >= len(built_small.seeds)
        assert result.stopped_by in ("budget", "execs")
        assert result.virtual_seconds <= 0.6 or \
            result.stopped_by == "execs"

    def test_coverage_grows_over_campaign(self, built_small):
        result = run_campaign(config(), built=built_small)
        values = [v for _, v in result.coverage_curve]
        assert values, "curve must have samples"
        assert values[-1] >= values[0]
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_deterministic_given_seed(self, built_small):
        a = run_campaign(config(rng_seed=9), built=built_small)
        b = run_campaign(config(rng_seed=9), built=built_small)
        assert a.execs == b.execs
        assert a.discovered_locations == b.discovered_locations
        assert a.unique_crashes == b.unique_crashes

    def test_different_replicas_differ(self, built_small):
        a = run_campaign(config(rng_seed=1), built=built_small)
        b = run_campaign(config(rng_seed=2), built=built_small)
        assert a.discovered_locations != b.discovered_locations or \
            a.execs != b.execs

    def test_used_key_only_for_bigmap(self, built_small):
        big = run_campaign(config(fuzzer="bigmap"), built=built_small)
        afl = run_campaign(config(fuzzer="afl"), built=built_small)
        assert big.used_key is not None and big.used_key > 0
        assert afl.used_key is None

    def test_bigmap_used_bounded_by_discoveries(self, built_small):
        result = run_campaign(config(fuzzer="bigmap"),
                              built=built_small)
        assert result.used_key >= result.discovered_locations * 0.5

    def test_op_cycles_accumulated(self, built_small):
        result = run_campaign(config(), built=built_small)
        assert set(result.op_cycles) == {"execution", "reset",
                                         "classify", "compare", "hash",
                                         "others"}
        assert result.op_cycles["execution"] > 0
        shares = result.op_time_share()
        assert sum(shares.values()) == pytest.approx(1.0)

    def test_exec_cap_stops_campaign(self, built_small):
        result = run_campaign(
            config(max_real_execs=len(built_small.seeds) + 50,
                   virtual_seconds=1e9),
            built=built_small)
        assert result.stopped_by == "execs"
        assert result.execs == len(built_small.seeds) + 50

    def test_true_coverage_computed_on_request(self, built_small):
        result = run_campaign(config(compute_true_coverage=True),
                              built=built_small)
        assert result.true_edge_coverage is not None
        assert 0 < result.true_edge_coverage <= \
            built_small.program.n_edges

    def test_throughput_drops_with_map_size_for_afl(self, built_small):
        small = run_campaign(config(fuzzer="afl", map_size=1 << 16),
                             built=built_small)
        large = run_campaign(config(fuzzer="afl", map_size=1 << 23),
                             built=built_small)
        assert large.throughput < small.throughput / 5

    def test_bigmap_throughput_stable_across_map_sizes(self,
                                                       built_small):
        small = run_campaign(config(map_size=1 << 16), built=built_small)
        large = run_campaign(config(map_size=1 << 23), built=built_small)
        assert large.throughput > small.throughput * 0.8


class TestCrashFinding:
    @pytest.fixture(scope="class")
    def crashy(self):
        # bloaty has planted crash sites.
        return get_benchmark("bloaty").build(scale=0.3, seed_scale=0.5)

    def test_crashes_found_and_deduplicated(self, crashy):
        result = run_campaign(CampaignConfig(
            benchmark="bloaty", fuzzer="bigmap", map_size=1 << 18,
            scale=0.3, seed_scale=0.5, virtual_seconds=3.0,
            max_real_execs=6_000, rng_seed=1), built=crashy)
        # Crash sites exist; the campaign may or may not trigger them,
        # but the counters must be consistent either way.
        assert result.unique_crashes >= 0
        assert result.unique_crashes <= crashy.program.n_crash_sites
        assert len(result.crash_curve) == result.unique_crashes

    def test_crashing_inputs_not_added_to_corpus(self, crashy):
        campaign = Campaign(CampaignConfig(
            benchmark="bloaty", fuzzer="bigmap", map_size=1 << 18,
            scale=0.3, seed_scale=0.5, virtual_seconds=2.0,
            max_real_execs=4_000, rng_seed=2), built=crashy)
        result = campaign.run()
        executor = campaign.executor
        for data in result.corpus:
            assert executor.execute(data).crash is None
