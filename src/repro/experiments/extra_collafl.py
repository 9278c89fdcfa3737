"""Extension experiment: CollAFL alone vs CollAFL + BigMap (§VI).

The paper's related-work claim: CollAFL eliminates collisions by sizing
the map to the *static* edge count, which makes AFL's full-map sweeps
expensive on large binaries — but BigMap "can be used in combination
with CollAFL to completely eliminate collisions while providing more
efficient access". This harness quantifies both halves on an LLVM
benchmark:

* collision counts: afl-edge hashing vs CollAFL static assignment;
* throughput at the CollAFL-required map size: flat AFL vs BigMap.
"""

from __future__ import annotations

from typing import Dict

from ..analysis.collision import collision_rate
from ..analysis.reporting import render_table
from ..fuzzer import Campaign, CampaignConfig
from ..instrumentation import (CollAflInstrumentation,
                               build_instrumentation, required_map_size)
from .common import BenchmarkCache, Profile, get_profile

#: Runner registry id for this experiment (tests/statlint/
#: test_project_rules.py keeps the module, the registry and ORDER
#: consistent).
EXPERIMENT_ID = "collafl"

BENCHMARK = "licm"


def compute(profile: Profile, cache: BenchmarkCache = None) -> Dict:
    cache = cache or BenchmarkCache()
    built = cache.get(BENCHMARK, profile.scale, profile.seed_scale)
    program = built.program

    # CollAFL needs the map sized to the static assignment. At reduced
    # scale we size to the materialized program (the full-scale LLVM
    # binary would demand 1 MB+ for its 978k static edges).
    needed = max(program.n_edges, 1)
    collafl_map = 1
    while collafl_map < needed:
        collafl_map <<= 1

    afl_hash = build_instrumentation("afl-edge", program, collafl_map)
    collafl = CollAflInstrumentation(program, collafl_map)

    out: Dict = {
        "benchmark": BENCHMARK,
        "map_size": collafl_map,
        "edges": program.n_edges,
        "hash_expected_collision_pct":
            100 * collision_rate(collafl_map, program.n_edges),
        "hash_realized_distinct": afl_hash.distinct_keys_possible(),
        "collafl_direct_collisions": collafl.direct_collision_count(),
        "collafl_distinct": collafl.distinct_keys_possible(),
    }

    for fuzzer in ("afl", "bigmap"):
        result = Campaign(CampaignConfig(
            benchmark=BENCHMARK, fuzzer=fuzzer, map_size=collafl_map,
            metric="collafl", scale=profile.scale,
            seed_scale=profile.seed_scale, virtual_seconds=1e9,
            max_real_execs=profile.throughput_execs),
            built=built).run()
        out[f"throughput_{fuzzer}"] = result.throughput
    return out


def run(profile: Profile, cache: BenchmarkCache = None) -> str:
    data = compute(profile, cache)
    rows = [
        ["map size (fits static assignment)", f"{data['map_size']:,} B"],
        ["materialized edges", f"{data['edges']:,}"],
        ["afl-edge hashing: expected collision",
         f"{data['hash_expected_collision_pct']:.2f}%"],
        ["afl-edge hashing: distinct keys",
         f"{data['hash_realized_distinct']:,}"],
        ["CollAFL: direct-edge collisions",
         f"{data['collafl_direct_collisions']:,}"],
        ["CollAFL: distinct keys", f"{data['collafl_distinct']:,}"],
        ["CollAFL on flat AFL map: throughput",
         f"{data['throughput_afl']:,.0f}/s"],
        ["CollAFL + BigMap: throughput",
         f"{data['throughput_bigmap']:,.0f}/s"],
        ["combination speedup",
         f"{data['throughput_bigmap'] / data['throughput_afl']:.1f}x"],
    ]
    report = render_table(
        ["Quantity", "Value"], rows,
        title=f"Extension — CollAFL vs CollAFL+BigMap on {BENCHMARK} "
              "(paper §VI)")
    report += ("\n\nReading: CollAFL removes the collisions but forces "
               "a static-assignment-sized map; BigMap removes that "
               "map's per-execution cost. Orthogonal, as the paper "
               "argues.")
    return report


def main() -> None:
    print(run(get_profile("default")))


if __name__ == "__main__":
    main()
