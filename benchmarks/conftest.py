"""Shared fixtures and profiles for the benchmark suite.

Two kinds of benchmarks live here:

* **host micro-benchmarks** (``test_bench_core_ops``, ``..._executor``)
  time the real numpy data structures on the host — AFL's full-map
  sweeps in literal (dense) mode genuinely cost ~128x more wall time at
  8 MB than at 64 kB, demonstrating the paper's point on any machine;
* **harness benchmarks** (``test_bench_fig*``, ``..._table*``) time the
  experiment pipelines at a micro profile and, more importantly, print
  the paper-shape metrics they produce (speedups, crash gains) via
  ``benchmark.extra_info``.

Run with: ``pytest benchmarks/ --benchmark-only``.
"""

import time

import pytest

from repro.experiments.common import BenchmarkCache, Profile

try:
    import pytest_benchmark  # noqa: F401
    _HAVE_PYTEST_BENCHMARK = True
except ImportError:  # pragma: no cover - exercised in minimal CI envs
    _HAVE_PYTEST_BENCHMARK = False


class _FallbackBenchmark:
    """Single-shot stand-in for pytest-benchmark's ``benchmark`` fixture.

    Lets the suite *run* (not just collect) in environments where only
    numpy and pytest are installed, e.g. the CI image. One timed call,
    no statistics — good enough for the harness benches, whose value is
    the paper-shape metrics they print via ``extra_info``.
    """

    def __init__(self):
        self.extra_info = {}
        self.elapsed = None

    def __call__(self, fn, *args, **kwargs):
        # Host micro-benchmarks measure host wall time by design; this
        # is the intentional exception to the repro.core.walltime rule.
        start = time.perf_counter()
        result = fn(*args, **kwargs)
        self.elapsed = time.perf_counter() - start
        return result

    def pedantic(self, fn, args=(), kwargs=None, rounds=1,
                 iterations=1):
        """Single-shot mirror of pytest-benchmark's ``pedantic``."""
        return self(fn, *args, **(kwargs or {}))


if not _HAVE_PYTEST_BENCHMARK:
    @pytest.fixture
    def benchmark():
        return _FallbackBenchmark()

#: Micro profile used by harness benches: small enough for CI.
BENCH_PROFILE = Profile(
    name="bench", scale=0.04, seed_scale=0.02, throughput_execs=150,
    campaign_virtual_seconds=0.8, campaign_max_execs=1_200,
    composition_scale=0.02, replicas=1)


@pytest.fixture(scope="session")
def profile():
    return BENCH_PROFILE


@pytest.fixture(scope="session")
def cache():
    return BenchmarkCache()
