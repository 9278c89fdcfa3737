"""Figure 3: runtime composition of vanilla AFL with growing maps.

For six benchmarks (libpng, sqlite3, gvn, bloaty, openssl, php) and
three map sizes (64 kB, 2 MB, 8 MB), reports how the time to generate
one million test cases splits across Execution / Map Classify / Map
Compare / Map Reset / Map Hash / Others. The paper's observation: the
map operations are negligible at 64 kB and dominate at 8 MB.

Vanilla-AFL setting: classify and compare are *separate* passes here
(the merged §IV-E optimization is what the evaluation applies later)
and resets are ordinary stores.
"""

from __future__ import annotations

from typing import Dict, List

from ..analysis.reporting import render_table
from ..target.benchmarks import FIG3_BENCHMARK_NAMES
from .common import BenchmarkCache, Profile, get_profile

#: Runner registry id for this experiment (tests/statlint/
#: test_project_rules.py keeps the module, the registry and ORDER
#: consistent).
EXPERIMENT_ID = "fig3"

#: Figure 3's map sizes.
FIG3_MAP_SIZES = (1 << 16, 1 << 21, 1 << 23)
_SIZE_LABELS = {1 << 16: "64k", 1 << 21: "2M", 1 << 23: "8M"}

#: One million generated test cases, as in the figure's caption.
N_TESTCASES = 1_000_000

_CATEGORIES = ("execution", "classify", "compare", "reset", "hash",
               "others")


def compute(profile: Profile,
            cache: BenchmarkCache = None) -> Dict[str, Dict[str, Dict[str, float]]]:
    """Hours per category for 1M test cases.

    Returns ``{benchmark: {size_label: {category: hours}}}``.
    """
    from ..fuzzer import Campaign, CampaignConfig
    cache = cache or BenchmarkCache()
    out: Dict[str, Dict[str, Dict[str, float]]] = {}
    for name in FIG3_BENCHMARK_NAMES:
        built = cache.get(name, profile.scale, profile.seed_scale)
        out[name] = {}
        for size in FIG3_MAP_SIZES:
            config = CampaignConfig(
                benchmark=name, fuzzer="afl", map_size=size,
                scale=profile.scale, seed_scale=profile.seed_scale,
                virtual_seconds=1e9,
                max_real_execs=profile.throughput_execs,
                merged_classify_compare=False,
                non_temporal_reset=False)
            result = Campaign(config, built=built).run()
            per_exec = {cat: result.op_cycles[cat] / max(result.execs, 1)
                        for cat in _CATEGORIES}
            frequency = config.machine.frequency_hz
            out[name][_SIZE_LABELS[size]] = {
                cat: per_exec[cat] * N_TESTCASES / frequency / 3600.0
                for cat in _CATEGORIES}
    return out


def run(profile: Profile, cache: BenchmarkCache = None) -> str:
    data = compute(profile, cache)
    headers = ["Benchmark/size"] + [c.capitalize() for c in _CATEGORIES] \
        + ["Total (h)"]
    rows: List[list] = []
    for name, sizes in data.items():
        for size_label, cats in sizes.items():
            total = sum(cats.values())
            rows.append([f"{name} {size_label}"] +
                        [f"{cats[c]:.3f}" for c in _CATEGORIES] +
                        [f"{total:.3f}"])
    report = render_table(
        headers, rows,
        title=f"Figure 3 — runtime composition (hours per {N_TESTCASES:,}"
              " test cases), vanilla AFL")
    # Shape check the paper makes: map-op share at 64k vs 8M.
    shares = []
    for name, sizes in data.items():
        for label in ("64k", "8M"):
            cats = sizes[label]
            total = sum(cats.values())
            map_ops = total - cats["execution"] - cats["others"]
            shares.append((name, label,
                           100.0 * map_ops / total if total else 0.0))
    small = [s for _, l, s in shares if l == "64k"]
    big = [s for _, l, s in shares if l == "8M"]
    report += (f"\n\nMap-operation share of runtime: 64k avg "
               f"{sum(small) / len(small):.1f}% (paper: negligible), "
               f"8M avg {sum(big) / len(big):.1f}% (paper: dominant).")
    return report


def main() -> None:
    print(run(get_profile("default")))


if __name__ == "__main__":
    main()
