"""Figure 10: unique crashes with parallel fuzzing (2 MB map).

Real multi-instance sessions (corpus sync + contention) on the LLVM
benchmarks at 1/4/8/12 instances. The paper: BigMap finds 20% / 36% /
49% more unique crashes than AFL at 4 / 8 / 12 instances, because AFL's
per-instance throughput collapses under contention while BigMap's
smaller effective footprint keeps scaling.
"""

from __future__ import annotations

from typing import Dict, Sequence

from ..analysis.reporting import render_table
from ..analysis.throughput import arithmetic_mean
from ..fuzzer import CampaignConfig, ParallelSession
from ..target.benchmarks import FIG8_BENCHMARK_NAMES
from .common import BenchmarkCache, Profile, get_profile

#: Runner registry id for this experiment (tests/statlint/
#: test_project_rules.py keeps the module, the registry and ORDER
#: consistent).
EXPERIMENT_ID = "fig10"

FIG10_MAP_SIZE = 1 << 21
INSTANCE_COUNTS: Sequence[int] = (1, 4, 8, 12)


def compute(profile: Profile, cache: BenchmarkCache = None,
            benchmarks=None,
            instance_counts: Sequence[int] = INSTANCE_COUNTS
            ) -> Dict[str, Dict[str, Dict[int, float]]]:
    """Unique crashes per benchmark/fuzzer/instance count."""
    cache = cache or BenchmarkCache()
    names = benchmarks or FIG8_BENCHMARK_NAMES
    out: Dict[str, Dict[str, Dict[int, float]]] = {}
    for name in names:
        built = cache.get(name, profile.scale, profile.seed_scale)
        out[name] = {"afl": {}, "bigmap": {}}
        for fuzzer in ("afl", "bigmap"):
            for k in instance_counts:
                counts = []
                for replica in range(profile.replicas):
                    config = CampaignConfig(
                        benchmark=name, fuzzer=fuzzer,
                        map_size=FIG10_MAP_SIZE, scale=profile.scale,
                        seed_scale=profile.seed_scale,
                        virtual_seconds=profile.campaign_virtual_seconds,
                        max_real_execs=max(
                            profile.campaign_max_execs // max(k, 1), 500),
                        rng_seed=replica)
                    summary = ParallelSession(config, k,
                                              built=built).run()
                    counts.append(float(summary.unique_crashes))
                out[name][fuzzer][k] = arithmetic_mean(counts)
    return out


def run(profile: Profile, cache: BenchmarkCache = None,
        instance_counts: Sequence[int] = INSTANCE_COUNTS) -> str:
    data = compute(profile, cache, instance_counts=instance_counts)
    rows = []
    for name, fuzzers in data.items():
        for fuzzer in ("afl", "bigmap"):
            rows.append([f"{name} ({fuzzer})"] +
                        [f"{fuzzers[fuzzer][k]:.1f}"
                         for k in instance_counts])
    report = render_table(
        ["Benchmark (fuzzer)"] + [f"k={k}" for k in instance_counts],
        rows,
        title="Figure 10 — unique crashes vs instance count (2MB map)")
    gains = {}
    for k in instance_counts:
        ratio = []
        for fuzzers in data.values():
            if fuzzers["afl"][k] > 0:
                ratio.append(fuzzers["bigmap"][k] / fuzzers["afl"][k])
        gains[k] = 100.0 * (arithmetic_mean(ratio) - 1.0) if ratio else 0.0
    report += ("\n\nBigMap crash advantage: " +
               ", ".join(f"k={k}: {gains[k]:+.0f}%"
                         for k in instance_counts if k > 1) +
               "   (paper: k=4: +20%, k=8: +36%, k=12: +49%)")
    return report


def main() -> None:
    print(run(get_profile("default")))


if __name__ == "__main__":
    main()
