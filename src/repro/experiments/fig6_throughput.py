"""Figure 6: test-case generation throughput, AFL vs BigMap, 4 map sizes.

The paper's headline: AFL collapses as the map grows (4,400/s at 64 kB
to 125/s at 8 MB on average) while BigMap stays flat; average speedups
0.98x / 1.4x / 4.5x / 33.1x for 64 kB / 256 kB / 2 MB / 8 MB.
"""

from __future__ import annotations

from typing import Dict, List

from ..analysis.reporting import render_table
from ..analysis.throughput import arithmetic_mean
from ..target import TABLE2_BENCHMARKS
from .common import (MAP_SIZE_LABELS, MAP_SIZES, PAPER_FIG6_AVG_SPEEDUPS,
                     BenchmarkCache, Profile, get_profile,
                     throughput_probe)

#: Runner registry id for this experiment (tests/statlint/
#: test_project_rules.py keeps the module, the registry and ORDER
#: consistent).
EXPERIMENT_ID = "fig6"


def compute(profile: Profile, cache: BenchmarkCache = None,
            benchmarks: List[str] = None) -> Dict[str, Dict[str, Dict[str, float]]]:
    """Throughput per benchmark/fuzzer/size.

    Returns ``{benchmark: {fuzzer: {size_label: execs_per_sec}}}``,
    averaged over ``profile.replicas`` runs.
    """
    cache = cache or BenchmarkCache()
    names = benchmarks or [b.name for b in TABLE2_BENCHMARKS]
    out: Dict[str, Dict[str, Dict[str, float]]] = {}
    for name in names:
        built = cache.get(name, profile.scale, profile.seed_scale)
        out[name] = {"afl": {}, "bigmap": {}}
        for fuzzer in ("afl", "bigmap"):
            for size in MAP_SIZES:
                rates = [
                    throughput_probe(name, fuzzer, size, built, profile,
                                     rng_seed=replica).throughput
                    for replica in range(profile.replicas)]
                out[name][fuzzer][MAP_SIZE_LABELS[size]] = \
                    arithmetic_mean(rates)
    return out


def speedup_summary(data: Dict) -> Dict[str, float]:
    """Average BigMap/AFL speedup per map size (the paper's headline)."""
    sums: Dict[str, List[float]] = {label: [] for label in
                                    MAP_SIZE_LABELS.values()}
    for name, fuzzers in data.items():
        for label in sums:
            afl = fuzzers["afl"].get(label, 0.0)
            big = fuzzers["bigmap"].get(label, 0.0)
            if afl > 0:
                sums[label].append(big / afl)
    return {label: arithmetic_mean(vals) for label, vals in sums.items()}


def run(profile: Profile, cache: BenchmarkCache = None,
        benchmarks: List[str] = None) -> str:
    data = compute(profile, cache, benchmarks)
    labels = list(MAP_SIZE_LABELS.values())
    rows = []
    for name, fuzzers in data.items():
        rows.append([name] +
                    [f"{fuzzers['afl'][lbl]:,.0f}" for lbl in labels] +
                    [f"{fuzzers['bigmap'][lbl]:,.0f}" for lbl in labels])
    report = render_table(
        ["Benchmark"] + [f"AFL {l}" for l in labels] +
        [f"BigMap {l}" for l in labels],
        rows,
        title="Figure 6 — throughput (execs/sec), AFL vs BigMap")

    speeds = speedup_summary(data)
    afl_avg = {lbl: arithmetic_mean([f["afl"][lbl]
                                     for f in data.values()])
               for lbl in labels}
    big_avg = {lbl: arithmetic_mean([f["bigmap"][lbl]
                                     for f in data.values()])
               for lbl in labels}
    report += "\n\nAverage speedups (BigMap over AFL):"
    for lbl in labels:
        report += (f"\n  {lbl:>5}: measured {speeds[lbl]:6.2f}x   "
                   f"paper {PAPER_FIG6_AVG_SPEEDUPS[lbl]:5.2f}x   "
                   f"(AFL avg {afl_avg[lbl]:8,.0f}/s, BigMap avg "
                   f"{big_avg[lbl]:8,.0f}/s)")
    return report


def main() -> None:
    print(run(get_profile("default")))


if __name__ == "__main__":
    main()
