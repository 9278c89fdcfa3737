"""Live-server overhead bench: tailing must not tax the workload.

The dashboard contract (DESIGN.md §10) is that the server is a pure
reader — the campaign thread writes the same JSONL artifacts with or
without a server attached, and the server's poll task reads them from
its own thread. This bench runs the identical flush-as-you-go workload
with and without a :class:`BackgroundServer` tailing the directory,
interleaved A/B with median comparison (the PR4 methodology from
``test_bench_telemetry.py``), and pins the with-server cost within a
small guard of the without-server cost.
"""

import os

import pytest

from repro.core.walltime import Stopwatch
from repro.fuzzer import Campaign, CampaignConfig
from repro.target import get_benchmark
from repro.telemetry.recorder import TelemetryRecorder
from repro.telemetry.serve.background import BackgroundServer

#: Tolerated slowdown of the workload while a server tails its
#: artifacts (the ≤2% acceptance bound, with the same slack the
#: telemetry-disabled guard uses).
SERVE_OVERHEAD_GUARD = 1.02

REPEATS = 5


@pytest.fixture(scope="module")
def built():
    return get_benchmark("libpng").build(scale=0.25, seed_scale=1.0)


def config():
    return CampaignConfig(
        benchmark="libpng", fuzzer="bigmap", map_size=1 << 18,
        scale=0.25, seed_scale=1.0, virtual_seconds=2.0,
        max_real_execs=8_000, rng_seed=11)


def timed_run(built, directory):
    """One telemetry-enabled campaign that flushes its artifacts."""
    recorder = TelemetryRecorder(0)
    watch = Stopwatch()
    result = Campaign(config(), built=built,
                      telemetry=recorder).run()
    recorder.flush(directory)
    return watch.elapsed(), result


def median(values):
    ordered = sorted(values)
    return ordered[len(ordered) // 2]


class TestServeOverhead:
    def test_workload_within_guard_while_served(self, built, benchmark,
                                                tmp_path):
        plain_dir = tmp_path / "plain"
        served_dir = tmp_path / "served"
        os.makedirs(plain_dir)
        os.makedirs(served_dir)
        plain_times, served_times = [], []
        results = set()
        with BackgroundServer(str(served_dir),
                              poll_interval=0.05) as server:
            for _ in range(REPEATS):
                elapsed, result = timed_run(built, str(plain_dir))
                plain_times.append(elapsed)
                results.add((result.execs,
                             result.discovered_locations))
                elapsed, result = timed_run(built, str(served_dir))
                served_times.append(elapsed)
                results.add((result.execs,
                             result.discovered_locations))
            url = server.url
        plain, served = median(plain_times), median(served_times)
        benchmark.extra_info["plain_median_s"] = round(plain, 4)
        benchmark.extra_info["served_median_s"] = round(served, 4)
        benchmark.extra_info["served_over_plain"] = \
            round(served / plain, 3) if plain else float("inf")
        benchmark.extra_info["url"] = url
        benchmark(lambda: None)
        assert len(results) == 1, "serving changed campaign results"
        assert served <= plain * SERVE_OVERHEAD_GUARD, (
            f"campaign under a tailing server ({served:.4f}s) slower "
            f"than {SERVE_OVERHEAD_GUARD}x the unserved run "
            f"({plain:.4f}s); the server is taxing the workload")
