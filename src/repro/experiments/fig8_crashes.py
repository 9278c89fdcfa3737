"""Figure 8: unique crashes vs map size on the LLVM benchmarks.

Crash counts (Crashwalk-deduplicated) from budgeted campaigns on the
six LLVM Table II benchmarks, for AFL and BigMap across the four map
sizes. The paper's shape:

* AFL peaks at **256 kB** — 64 kB loses crashes to collisions, 2 MB and
  8 MB lose them to throughput collapse;
* BigMap has no such trade-off (big map, no penalty), so it dominates
  at large sizes, making the "optimal map size oracle" unnecessary.
"""

from __future__ import annotations

from typing import Dict

from ..analysis.reporting import render_table
from ..analysis.throughput import arithmetic_mean
from ..target.benchmarks import FIG8_BENCHMARK_NAMES
from .common import (MAP_SIZE_LABELS, MAP_SIZES, BenchmarkCache, Profile,
                     discovery_campaign, get_profile)

#: Runner registry id for this experiment (tests/statlint/
#: test_project_rules.py keeps the module, the registry and ORDER
#: consistent).
EXPERIMENT_ID = "fig8"


def compute(profile: Profile, cache: BenchmarkCache = None,
            benchmarks=None) -> Dict[str, Dict[str, Dict[str, float]]]:
    """Unique crashes per benchmark/fuzzer/size (replica-averaged)."""
    cache = cache or BenchmarkCache()
    names = benchmarks or FIG8_BENCHMARK_NAMES
    out: Dict[str, Dict[str, Dict[str, float]]] = {}
    for name in names:
        built = cache.get(name, profile.scale, profile.seed_scale)
        out[name] = {"afl": {}, "bigmap": {}}
        for fuzzer in ("afl", "bigmap"):
            for size in MAP_SIZES:
                counts = []
                for replica in range(profile.replicas):
                    result = discovery_campaign(
                        name, fuzzer, size, built, profile,
                        rng_seed=replica)
                    counts.append(float(result.unique_crashes))
                out[name][fuzzer][MAP_SIZE_LABELS[size]] = \
                    arithmetic_mean(counts)
    return out


def run(profile: Profile, cache: BenchmarkCache = None) -> str:
    data = compute(profile, cache)
    labels = list(MAP_SIZE_LABELS.values())
    rows = []
    for name, fuzzers in data.items():
        for fuzzer in ("afl", "bigmap"):
            rows.append([f"{name} ({fuzzer})"] +
                        [f"{fuzzers[fuzzer][lbl]:.1f}" for lbl in labels])
    report = render_table(
        ["Benchmark (fuzzer)"] + labels, rows,
        title="Figure 8 — unique crashes (Crashwalk dedup) vs map size, "
              "LLVM benchmarks")
    afl_avg = {lbl: arithmetic_mean([f["afl"][lbl]
                                     for f in data.values()])
               for lbl in labels}
    big_avg = {lbl: arithmetic_mean([f["bigmap"][lbl]
                                     for f in data.values()])
               for lbl in labels}
    best_afl = max(afl_avg, key=afl_avg.get)
    report += (f"\n\nAFL average crashes per size: " +
               ", ".join(f"{l}={afl_avg[l]:.1f}" for l in labels) +
               f"  (best at {best_afl}; paper: best at 256k)")
    report += ("\nBigMap average crashes per size: " +
               ", ".join(f"{l}={big_avg[l]:.1f}" for l in labels))
    return report


def main() -> None:
    print(run(get_profile("default")))


if __name__ == "__main__":
    main()
