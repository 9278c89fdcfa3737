"""Multi-trial comparison statistics for fuzzer experiments.

Klees et al. (*Evaluating Fuzz Testing*, CCS'18) is the contract here:
single fuzzing runs are noise, so multi-trial comparisons must carry

* **Mann–Whitney U** — a rank test for "does fuzzer A stochastically
  dominate fuzzer B?", robust to the heavy-tailed, non-normal outcome
  distributions fuzzing produces;
* **Vargha–Delaney Â₁₂** — the effect size the same paper recommends:
  the probability a random A-trial beats a random B-trial (0.5 = no
  effect, 1.0 = total dominance);
* **bootstrap confidence intervals** — percentile CIs on medians (and
  median differences) from seeded resampling, so every interval is
  reproducible bit-for-bit.

Everything is implemented on numpy alone (no scipy dependency); the
Mann–Whitney p-value uses the tie-corrected normal approximation with
continuity correction — the same ``method="asymptotic"`` formulation
scipy uses, which ``tests/analysis/test_rank_stats.py`` pins against
precomputed scipy golden values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence, Tuple

import numpy as np

__all__ = [
    "rank_with_ties", "mann_whitney_u", "MannWhitneyResult",
    "vargha_delaney_a12", "bootstrap_ci", "bootstrap_diff_ci",
]

ALTERNATIVES = ("two-sided", "greater", "less")


def rank_with_ties(values: Sequence[float]) -> np.ndarray:
    """Mid-ranks (1-based); tied values share the average rank."""
    arr = np.asarray(values, dtype=np.float64)
    order = np.argsort(arr, kind="stable")
    ranks = np.empty(arr.size, dtype=np.float64)
    sorted_vals = arr[order]
    i = 0
    while i < arr.size:
        j = i
        while j + 1 < arr.size and sorted_vals[j + 1] == sorted_vals[i]:
            j += 1
        # Ranks i+1 .. j+1 (1-based) share their mean.
        ranks[order[i:j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    return ranks


def _normal_sf(z: float) -> float:
    """Standard-normal survival function via erfc (no scipy)."""
    return 0.5 * math.erfc(z / math.sqrt(2.0))


@dataclass(frozen=True)
class MannWhitneyResult:
    """Outcome of one Mann–Whitney U test.

    Attributes:
        u1: U statistic of the first sample (concordant pairs + half
            the ties).
        u2: U statistic of the second sample (``u1 + u2 = m * n``).
        p_value: tie-corrected normal-approximation p-value with
            continuity correction; 1.0 when the variance degenerates
            (every observation tied).
        alternative: the tested alternative hypothesis.
    """

    u1: float
    u2: float
    p_value: float
    alternative: str


def mann_whitney_u(x: Sequence[float], y: Sequence[float],
                   alternative: str = "two-sided") -> MannWhitneyResult:
    """Mann–Whitney U test of ``x`` vs ``y`` (see module docstring).

    ``alternative="greater"`` tests whether ``x`` tends to exceed
    ``y``. Degenerate inputs are defined, not errors: with every
    observation tied (including identical samples) the variance is
    zero and the p-value is 1.0.
    """
    if alternative not in ALTERNATIVES:
        raise ValueError(f"unknown alternative {alternative!r}; "
                         f"known: {', '.join(ALTERNATIVES)}")
    xa = np.asarray(x, dtype=np.float64)
    ya = np.asarray(y, dtype=np.float64)
    m, n = xa.size, ya.size
    if m == 0 or n == 0:
        raise ValueError("mann_whitney_u needs non-empty samples")
    combined = np.concatenate([xa, ya])
    ranks = rank_with_ties(combined)
    r1 = float(ranks[:m].sum())
    u1 = r1 - m * (m + 1) / 2.0
    u2 = m * n - u1

    total = m + n
    mu = m * n / 2.0
    # Tie correction: sum(t^3 - t) over tie groups of the pooled sample.
    _, counts = np.unique(combined, return_counts=True)
    tie_term = float((counts.astype(np.float64) ** 3 - counts).sum())
    variance = (m * n / 12.0) * (
        (total + 1) - tie_term / (total * (total - 1))
    ) if total > 1 else 0.0
    if variance <= 0:
        return MannWhitneyResult(u1=u1, u2=u2, p_value=1.0,
                                 alternative=alternative)
    sigma = math.sqrt(variance)
    if alternative == "greater":
        p = _normal_sf((u1 - mu - 0.5) / sigma)
    elif alternative == "less":
        p = 1.0 - _normal_sf((u1 - mu + 0.5) / sigma)
    else:
        p = 2.0 * _normal_sf((abs(u1 - mu) - 0.5) / sigma)
    return MannWhitneyResult(u1=u1, u2=u2,
                             p_value=min(max(p, 0.0), 1.0),
                             alternative=alternative)


def vargha_delaney_a12(x: Sequence[float],
                       y: Sequence[float]) -> float:
    """Vargha–Delaney Â₁₂ effect size: P(X > Y) + 0.5·P(X = Y).

    0.5 means no effect; >0.71 is conventionally a large effect.
    Computed from the exact pairwise definition (trial sample sizes
    make the O(m·n) cost irrelevant).
    """
    xa = np.asarray(x, dtype=np.float64)
    ya = np.asarray(y, dtype=np.float64)
    if xa.size == 0 or ya.size == 0:
        raise ValueError("vargha_delaney_a12 needs non-empty samples")
    diff = xa[:, None] - ya[None, :]
    greater = np.count_nonzero(diff > 0)
    ties = np.count_nonzero(diff == 0)
    return float((greater + 0.5 * ties) / (xa.size * ya.size))


def _percentile_interval(stats: np.ndarray,
                         confidence: float) -> Tuple[float, float]:
    alpha = (1.0 - confidence) / 2.0
    lo, hi = np.quantile(stats, [alpha, 1.0 - alpha])
    return float(lo), float(hi)


def bootstrap_ci(values: Sequence[float],
                 stat: Callable[[np.ndarray], float] = np.median,
                 n_resamples: int = 2000,
                 confidence: float = 0.95,
                 seed: int = 0) -> Tuple[float, float]:
    """Seeded percentile-bootstrap CI of ``stat`` over ``values``.

    The resampling stream comes from a seeded PCG64 generator, so the
    interval is a pure function of (values, stat, n_resamples,
    confidence, seed) — reports regenerate bit-identically. With a
    single observation the interval collapses to a point.
    """
    arr = np.asarray(values, dtype=np.float64)
    if arr.size == 0:
        raise ValueError("bootstrap_ci needs a non-empty sample")
    if n_resamples < 1:
        raise ValueError(
            f"n_resamples must be >= 1, got {n_resamples} (an empty "
            f"resample set has no percentiles)")
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must be in (0, 1), "
                         f"got {confidence}")
    if arr.size == 1:
        point = float(stat(arr))
        return point, point
    rng = np.random.default_rng(np.random.PCG64(seed))
    picks = rng.integers(0, arr.size, size=(n_resamples, arr.size))
    stats = np.apply_along_axis(stat, 1, arr[picks])
    return _percentile_interval(stats, confidence)


def bootstrap_diff_ci(x: Sequence[float], y: Sequence[float],
                      stat: Callable[[np.ndarray], float] = np.median,
                      n_resamples: int = 2000,
                      confidence: float = 0.95,
                      seed: int = 0) -> Tuple[float, float]:
    """Seeded bootstrap CI of ``stat(x*) - stat(y*)`` (independent
    resamples per side). An interval excluding 0 corroborates a
    significant Mann–Whitney verdict."""
    xa = np.asarray(x, dtype=np.float64)
    ya = np.asarray(y, dtype=np.float64)
    if xa.size == 0 or ya.size == 0:
        raise ValueError("bootstrap_diff_ci needs non-empty samples")
    if n_resamples < 1:
        raise ValueError(
            f"n_resamples must be >= 1, got {n_resamples} (an empty "
            f"resample set has no percentiles)")
    if xa.size == 1 and ya.size == 1:
        point = float(stat(xa)) - float(stat(ya))
        return point, point
    rng = np.random.default_rng(np.random.PCG64(seed))
    xp = rng.integers(0, xa.size, size=(n_resamples, xa.size))
    yp = rng.integers(0, ya.size, size=(n_resamples, ya.size))
    stats = (np.apply_along_axis(stat, 1, xa[xp]) -
             np.apply_along_axis(stat, 1, ya[yp]))
    return _percentile_interval(stats, confidence)
