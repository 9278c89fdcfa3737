"""Figure 7: edge coverage vs map size.

Campaigns under a fixed virtual budget, coverage measured by the
*bias-free independent evaluation* (re-running each final corpus with
collision-free edge accounting, §V-A3). The paper's findings:

* BigMap plateaus everywhere within the budget;
* AFL matches it on small benchmarks but falls short on
  large-discoverable-edge benchmarks at 2 MB/8 MB because its
  throughput collapses;
* edge coverage is comparatively insensitive to collisions (the 64 kB
  runs do about as well as the rest where throughput allows).
"""

from __future__ import annotations

from typing import Dict, List

from ..analysis.reporting import render_table
from ..analysis.throughput import arithmetic_mean
from .common import (MAP_SIZE_LABELS, MAP_SIZES, BenchmarkCache, Profile,
                     discovery_campaign, get_profile)

#: Runner registry id for this experiment (tests/statlint/
#: test_project_rules.py keeps the module, the registry and ORDER
#: consistent).
EXPERIMENT_ID = "fig7"

#: A readability subset, like the paper's ("not all benchmarks shown"):
#: two small, one medium, two large.
FIG7_BENCHMARKS = ("libpng", "proj4", "sqlite3", "gvn", "instcombine")


def compute(profile: Profile, cache: BenchmarkCache = None,
            benchmarks=None) -> Dict[str, Dict[str, Dict[str, float]]]:
    """True-edge coverage per benchmark/fuzzer/size (replica-averaged)."""
    cache = cache or BenchmarkCache()
    names = benchmarks or FIG7_BENCHMARKS
    out: Dict[str, Dict[str, Dict[str, float]]] = {}
    for name in names:
        built = cache.get(name, profile.scale, profile.seed_scale)
        out[name] = {"afl": {}, "bigmap": {}}
        for fuzzer in ("afl", "bigmap"):
            for size in MAP_SIZES:
                values = []
                for replica in range(profile.replicas):
                    result = discovery_campaign(
                        name, fuzzer, size, built, profile,
                        rng_seed=replica, compute_true_coverage=True)
                    values.append(float(result.true_edge_coverage))
                out[name][fuzzer][MAP_SIZE_LABELS[size]] = \
                    arithmetic_mean(values)
    return out


def run(profile: Profile, cache: BenchmarkCache = None) -> str:
    data = compute(profile, cache)
    labels = list(MAP_SIZE_LABELS.values())
    rows = []
    for name, fuzzers in data.items():
        for fuzzer in ("afl", "bigmap"):
            rows.append([f"{name} ({fuzzer})"] +
                        [f"{fuzzers[fuzzer][lbl]:,.0f}"
                         for lbl in labels])
    report = render_table(
        ["Benchmark (fuzzer)"] + labels, rows,
        title="Figure 7 — true edge coverage vs map size "
              "(bias-free re-evaluation)")
    # Shape check: AFL's large-map deficit on big benchmarks.
    deficits = []
    for name, fuzzers in data.items():
        big_8m = fuzzers["bigmap"]["8M"]
        afl_8m = fuzzers["afl"]["8M"]
        if big_8m > 0:
            deficits.append((name, 100.0 * (1 - afl_8m / big_8m)))
    report += "\n\nAFL coverage deficit at 8M vs BigMap:"
    for name, deficit in deficits:
        report += f"\n  {name:<14} {deficit:6.1f}%"
    return report


def main() -> None:
    print(run(get_profile("default")))


if __name__ == "__main__":
    main()
