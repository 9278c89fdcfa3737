"""Telemetry overhead benches: the disabled path must be free.

Telemetry is opt-in; the contract that lets it ride inside the hot loop
is that a campaign built *without* a recorder pays (near) nothing for
the instrumentation points — the null tracer hands every call site one
shared no-op span. These benches time the same short campaign with
telemetry off and on, assert the off path stays within a small guard of
the historical plain-loop cost, and report the enabled-path cost as
``extra_info`` for trend-watching.

The guard compares medians of interleaved repeats (not single shots) so
host noise doesn't flake CI; every run's whole ``CampaignResult`` is
also checked equal across modes, which is the other half of the
"observability changes nothing" contract.
"""

import pytest

from repro.core.walltime import Stopwatch
from repro.fuzzer import Campaign, CampaignConfig
from repro.target import get_benchmark
from repro.telemetry.recorder import TelemetryRecorder

#: Tolerated regression of the telemetry-disabled hot path relative to
#: the telemetry-enabled one (the enabled path does strictly more work,
#: so disabled must not be slower than enabled times this slack).
DISABLED_OVERHEAD_GUARD = 1.02

REPEATS = 5


@pytest.fixture(scope="module")
def built():
    return get_benchmark("libpng").build(scale=0.25, seed_scale=1.0)


def config():
    return CampaignConfig(
        benchmark="libpng", fuzzer="bigmap", map_size=1 << 18,
        scale=0.25, seed_scale=1.0, virtual_seconds=2.0,
        max_real_execs=8_000, rng_seed=11)


def timed_run(built, telemetry):
    watch = Stopwatch()
    result = Campaign(config(), built=built, telemetry=telemetry).run()
    return watch.elapsed(), result


def median(values):
    ordered = sorted(values)
    return ordered[len(ordered) // 2]


class TestDisabledOverhead:
    def test_disabled_within_guard_of_enabled(self, built, benchmark):
        """Interleaved A/B: the disabled path must not regress past the
        guard relative to the enabled path. Enabled does strictly more
        work, so this bounds the *absolute* cost of the disabled
        instrumentation points at ~the guard margin."""
        off_times, on_times = [], []
        results = []
        for _ in range(REPEATS):
            elapsed, result = timed_run(built, None)
            off_times.append(elapsed)
            results.append(result)
            elapsed, result = timed_run(built, TelemetryRecorder(0))
            on_times.append(elapsed)
            results.append(result)
        off, on = median(off_times), median(on_times)
        benchmark.extra_info["disabled_median_s"] = round(off, 4)
        benchmark.extra_info["enabled_median_s"] = round(on, 4)
        benchmark.extra_info["enabled_over_disabled"] = \
            round(on / off, 3) if off else float("inf")
        benchmark(lambda: None)
        assert all(r == results[0] for r in results), \
            "telemetry changed campaign results"
        assert off <= on * DISABLED_OVERHEAD_GUARD, (
            f"telemetry-disabled run ({off:.4f}s) slower than "
            f"{DISABLED_OVERHEAD_GUARD}x the enabled run ({on:.4f}s); "
            f"the null-tracer path has grown a real cost")


class TestEnabledCost:
    def test_enabled_run_reports_profile(self, built, benchmark):
        recorder = TelemetryRecorder(0)
        _, result = timed_run(built, recorder)
        profile = recorder.tracer.profile()
        benchmark.extra_info["spans"] = {
            name: profile[name]["calls"] for name in sorted(profile)
            if not name.startswith("op.")}
        benchmark.extra_info["events"] = len(recorder.events)
        benchmark(lambda: None)
        assert profile["execute"]["calls"] == result.execs
