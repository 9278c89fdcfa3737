"""Extension experiment: AFL's crash dedup is biased by map size (§V-A3).

The paper replaces AFL's built-in unique-crash counting with Crashwalk
because the built-in mechanism "requires maintaining a local and global
crash-coverage bitmap, making it inherently biased towards larger
maps". This harness runs the same campaigns at several map sizes and
reports both counters side by side: the Crashwalk count reflects actual
distinct bugs; AFL's count inflates/deflates with the map.
"""

from __future__ import annotations

from typing import Dict, List

from ..analysis.reporting import render_table
from .common import (MAP_SIZE_LABELS, MAP_SIZES, BenchmarkCache, Profile,
                     discovery_campaign, get_profile)

#: Runner registry id for this experiment (tests/statlint/
#: test_project_rules.py keeps the module, the registry and ORDER
#: consistent).
EXPERIMENT_ID = "dedup-bias"

BENCHMARKS = ("licm", "gvn")


def compute(profile: Profile, cache: BenchmarkCache = None,
            benchmarks=None) -> List[Dict]:
    cache = cache or BenchmarkCache()
    rows: List[Dict] = []
    for name in benchmarks or BENCHMARKS:
        built = cache.get(name, profile.scale, profile.seed_scale)
        for size in MAP_SIZES:
            result = discovery_campaign(name, "bigmap", size, built,
                                        profile)
            rows.append({
                "benchmark": name,
                "map": MAP_SIZE_LABELS[size],
                "crashwalk": result.unique_crashes,
                "afl_dedup": result.afl_unique_crashes,
                "bias": (result.afl_unique_crashes -
                         result.unique_crashes),
            })
    return rows


def render(rows: List[Dict]) -> str:
    """The report for :func:`compute`'s rows."""
    report = render_table(
        ["Benchmark", "Map", "Crashwalk unique", "AFL dedup", "Bias"],
        [[r["benchmark"], r["map"], r["crashwalk"], r["afl_dedup"],
          f"{r['bias']:+d}"] for r in rows],
        title="Extension — crash-dedup bias vs map size "
              "(same campaigns, two counters)")
    report += ("\n\nReading: the Crashwalk column depends only on which "
               "bugs were hit; the AFL column additionally depends on "
               "the map, which is why the paper does not use it for "
               "cross-map comparisons.")
    return report


def run(profile: Profile, cache: BenchmarkCache = None) -> str:
    return render(compute(profile, cache))


def main() -> None:
    print(run(get_profile("default")))


if __name__ == "__main__":
    main()
