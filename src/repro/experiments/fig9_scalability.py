"""Figure 9: throughput scalability with concurrent instances (2 MB map).

(a) per-benchmark throughput normalized to the single-instance run, for
1–12 instances — both fuzzers fall short of 1:1 scaling with a 2 MB
map, and AFL's total throughput *decreases* beyond 4 instances
(capacity-share eviction + bandwidth saturation);
(b) BigMap's speedup over AFL at equal instance counts — super-linear
in the instance count because AFL degrades as BigMap holds
(paper averages: 4.9x / 9.2x / 13.8x at 4 / 8 / 12).

The steady-state execution *shapes* come from real single-instance
campaigns; the contended rates come from the shared-LLC + bandwidth
fixpoint (:func:`repro.memsim.contention.solve_parallel`), evaluated at
every instance count — the same separation the paper's hardware imposes
(one fuzzing process per core, contention only through the uncore).
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from ..analysis.reporting import render_table
from ..analysis.throughput import arithmetic_mean
from ..memsim.contention import InstanceLoad, solve_parallel
from ..target import TABLE2_BENCHMARKS
from .common import BenchmarkCache, Profile, get_profile, throughput_probe

#: Runner registry id for this experiment (tests/statlint/
#: test_project_rules.py keeps the module, the registry and ORDER
#: consistent).
EXPERIMENT_ID = "fig9"

#: Figure 9 fixes the map at 2 MB.
FIG9_MAP_SIZE = 1 << 21
INSTANCE_COUNTS: Sequence[int] = tuple(range(1, 13))
SPEEDUP_COUNTS = (1, 4, 8, 12)


def compute(profile: Profile, cache: BenchmarkCache = None,
            benchmarks: List[str] = None) -> Dict[str, dict]:
    """Per-benchmark scaling curves.

    Returns ``{benchmark: {fuzzer: {k: total_rate}}}``.
    """
    cache = cache or BenchmarkCache()
    names = benchmarks or [b.name for b in TABLE2_BENCHMARKS]
    out: Dict[str, dict] = {}
    for name in names:
        built = cache.get(name, profile.scale, profile.seed_scale)
        out[name] = {}
        for fuzzer in ("afl", "bigmap"):
            probe = throughput_probe(name, fuzzer, FIG9_MAP_SIZE, built,
                                     profile)
            # Recover the campaign's calibrated model for the load.
            from ..fuzzer import Campaign, CampaignConfig
            campaign = Campaign(CampaignConfig(
                benchmark=name, fuzzer=fuzzer, map_size=FIG9_MAP_SIZE,
                scale=profile.scale, seed_scale=profile.seed_scale,
                virtual_seconds=1.0, max_real_execs=1), built=built)
            campaign.start()
            load = InstanceLoad(campaign.model, probe.mean_shape)
            rates = {}
            for k in INSTANCE_COUNTS:
                solved = solve_parallel([load] * k,
                                        machine=campaign.model.machine)
                rates[k] = solved.total_rate
            out[name][fuzzer] = rates
    return out


def run(profile: Profile, cache: BenchmarkCache = None,
        benchmarks: List[str] = None) -> str:
    data = compute(profile, cache, benchmarks)
    # (a) normalized average scaling curves.
    lines = ["Figure 9(a) — total throughput normalized to 1 instance "
             "(2MB map)", f"{'k':>3}  {'BigMap avg':>11}  "
             f"{'AFL avg':>11}  {'1:1':>5}"]
    norm: Dict[str, Dict[int, float]] = {}
    for fuzzer in ("bigmap", "afl"):
        norm[fuzzer] = {}
        for k in INSTANCE_COUNTS:
            ratios = [bench[fuzzer][k] / bench[fuzzer][1]
                      for bench in data.values() if bench[fuzzer][1] > 0]
            norm[fuzzer][k] = arithmetic_mean(ratios)
    for k in INSTANCE_COUNTS:
        lines.append(f"{k:>3}  {norm['bigmap'][k]:>11.2f}  "
                     f"{norm['afl'][k]:>11.2f}  {float(k):>5.1f}")
    report = "\n".join(lines)

    # (b) BigMap speedup over AFL at equal instance counts.
    rows = []
    for name, bench in data.items():
        rows.append([name] + [f"{bench['bigmap'][k] / bench['afl'][k]:.1f}"
                              for k in SPEEDUP_COUNTS])
    report += "\n\n" + render_table(
        ["Benchmark"] + [f"k={k}" for k in SPEEDUP_COUNTS], rows,
        title="Figure 9(b) — BigMap speedup over AFL (2MB map)")
    avgs = {k: arithmetic_mean([bench["bigmap"][k] / bench["afl"][k]
                                for bench in data.values()])
            for k in SPEEDUP_COUNTS}
    report += ("\n\nAverage speedups: " +
               ", ".join(f"k={k}: {avgs[k]:.1f}x" for k in SPEEDUP_COUNTS)
               + "   (paper: k=4: 4.9x, k=8: 9.2x, k=12: 13.8x)")
    afl_peak = max(range(1, 13), key=lambda k: norm["afl"][k])
    report += (f"\nAFL total throughput peaks at k={afl_peak} "
               "(paper: negative slope above 4 instances).")
    return report


def main() -> None:
    print(run(get_profile("default")))


if __name__ == "__main__":
    main()
