"""Figure 2: hash collision rate vs bitmap size (Equation 1).

Pure math — no simulation. Regenerates the paper's grid: bitmap sizes
64 kB–32 MB against 5 k–1 M drawn keys, as collision-rate percentages.
"""

from __future__ import annotations

from typing import List, Tuple

from ..analysis.collision import collision_rate
from ..analysis.reporting import render_table
from .common import Profile, get_profile

#: Runner registry id for this experiment (tests/statlint/
#: test_project_rules.py keeps the module, the registry and ORDER
#: consistent).
EXPERIMENT_ID = "fig2"

#: The figure's axes.
BITMAP_SIZES: Tuple[int, ...] = tuple(1 << p for p in range(16, 26))
KEY_COUNTS: Tuple[int, ...] = (5_000, 10_000, 20_000, 50_000, 100_000,
                               200_000, 500_000, 1_000_000)

_SIZE_LABELS = ["64k", "128k", "256k", "512k", "1M", "2M", "4M", "8M",
                "16M", "32M"]


def compute() -> List[List[float]]:
    """Collision-rate grid (%), rows = key counts, cols = map sizes."""
    return [[100.0 * collision_rate(size, keys) for size in BITMAP_SIZES]
            for keys in KEY_COUNTS]


def run(profile: Profile = None) -> str:
    """Render the figure as a table (profile is irrelevant: exact math)."""
    grid = compute()
    rows = []
    for keys, row in zip(KEY_COUNTS, grid):
        rows.append([f"{keys:,} keys"] + [f"{v:.1f}" for v in row])
    report = render_table(
        ["No. of keys"] + _SIZE_LABELS, rows,
        title="Figure 2 — collision rate (%) vs bitmap size "
              "(Equation 1)")
    # The paper's spot checks: ~30% at 64 kB for real-world key counts
    # (1k-50k) and the need for >64 kB beyond 500k keys.
    report += (
        "\n\nPaper checkpoints: 50k keys @64k -> "
        f"{100 * collision_rate(1 << 16, 50_000):.1f}% (paper: ~30%); "
        f"500k keys @64k -> "
        f"{100 * collision_rate(1 << 16, 500_000):.1f}%.")
    return report


def main() -> None:
    print(run(get_profile("default")))


if __name__ == "__main__":
    main()
