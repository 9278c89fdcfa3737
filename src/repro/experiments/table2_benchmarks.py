"""Table II: benchmark characteristics.

Reports, for the 19 benchmarks: seed-corpus size, discoverable edges,
the 64 kB collision rate (Equation 1 on the discoverable-edge count,
matching the paper's footnote 2), and static edges. At ``scale=1.0``
the numbers match the paper's table by construction (they parameterize
the generator); the harness also *measures* the discoverable count on
the materialized program to show construction and measurement agree.
"""

from __future__ import annotations

from typing import List

from ..analysis.collision import collision_rate
from ..analysis.reporting import render_table
from ..target import TABLE2_BENCHMARKS, generate_program
from .common import Profile, get_profile

#: Runner registry id for this experiment (tests/statlint/
#: test_project_rules.py keeps the module, the registry and ORDER
#: consistent).
EXPERIMENT_ID = "table2"


def compute(profile: Profile) -> List[dict]:
    rows = []
    for config in TABLE2_BENCHMARKS:
        spec = config.spec(profile.scale)
        program = generate_program(spec)
        measured = int(program.practically_discoverable_mask().sum())
        configured = config.discovered_edges
        scaled = int(round(configured * profile.scale))
        rows.append({
            "benchmark": config.name,
            "n_seeds": config.n_seeds,
            "discovered_edges": configured,
            "measured_discoverable": measured,
            "scaled_target": scaled,
            "collision_rate_64k": 100.0 * collision_rate(1 << 16,
                                                         configured),
            "static_edges": config.static_edges,
            "version": config.version,
        })
    return rows


def run(profile: Profile) -> str:
    rows = compute(profile)
    table_rows = [[r["benchmark"], r["n_seeds"], r["discovered_edges"],
                   f"{r['collision_rate_64k']:.2f}", r["static_edges"],
                   r["version"], r["measured_discoverable"]]
                  for r in rows]
    report = render_table(
        ["Benchmark", "Seeds", "Discovered edges¹", "Collision %²",
         "Static edges", "Version", f"Materialized@{profile.scale:g}"],
        table_rows,
        title="Table II — benchmark characteristics "
              "(¹ paper value = generator target; ² Equation 1, 64 kB)")
    report += ("\n\nPaper checkpoints: sqlite3 25.64%, instcombine "
               "56.90% collision at 64 kB; measured: "
               f"sqlite3 {100 * collision_rate(1 << 16, 40_948):.2f}%, "
               f"instcombine {100 * collision_rate(1 << 16, 131_677):.2f}%.")
    return report


def main() -> None:
    print(run(get_profile("default")))


if __name__ == "__main__":
    main()
