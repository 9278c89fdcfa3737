"""Reference-value tests for repro.analysis.stats.

The Mann-Whitney and A12 golden values below were computed offline
with scipy 1.17.1 (``scipy.stats.mannwhitneyu(x, y,
method="asymptotic")``, i.e. the tie-corrected normal approximation
with continuity correction) and are hardcoded so the runtime
implementation stays numpy-only. Bootstrap CIs are pinned against
analytic edge cases and seeded-reproducibility invariants rather than
scipy (scipy's BCa interval is a different estimator by design).
"""

import math

import numpy as np
import pytest

from repro.analysis.stats import (bootstrap_ci, bootstrap_diff_ci,
                                  mann_whitney_u, rank_with_ties,
                                  vargha_delaney_a12)

# Each case: (x, y, U1, p_two_sided, p_greater, p_less, A12), with the
# p-values from scipy.stats.mannwhitneyu(method="asymptotic") and A12
# from the counting definition.
GOLDEN = {
    "no_ties": (
        [9.1, 8.4, 10.2, 7.7, 9.8], [7.2, 6.9, 8.1, 7.5, 6.4],
        24.0, 0.021571747948, 0.010785873974, 0.993907109822, 0.96),
    "ties": (
        [1, 2, 2, 3, 5], [2, 2, 3, 3, 4],
        10.0, 0.662311002998, 0.743794152655, 0.331155501499, 0.40),
    "larger": (
        [12, 15, 11, 19, 14, 16, 13, 18, 17, 20],
        [10, 13, 9, 12, 11, 14, 8, 15, 12, 13],
        83.5, 0.012247014938, 0.006123507469, 0.995072177040, 0.835),
    "overlap": (
        [3.0, 1.0, 4.0, 1.5, 5.0, 9.0, 2.6],
        [2.0, 7.0, 1.8, 2.8, 1.0, 8.0],
        22.5, 0.886247707270, 0.443123853635, 0.612602129625,
        0.535714285714),
    "n1": ([5.0], [3.0], 1.0, 1.0, 0.5, 0.977249868052, 1.0),
    "n1_tie": ([5.0], [5.0], 0.5, 1.0, 1.0, 1.0, 0.5),
}


class TestRanks:
    def test_no_ties_is_ordinal(self):
        assert list(rank_with_ties([30.0, 10.0, 20.0])) == \
            [3.0, 1.0, 2.0]

    def test_ties_get_midranks(self):
        assert list(rank_with_ties([1.0, 2.0, 2.0, 3.0])) == \
            [1.0, 2.5, 2.5, 4.0]

    def test_all_tied(self):
        assert list(rank_with_ties([7.0, 7.0, 7.0])) == \
            [2.0, 2.0, 2.0]


class TestMannWhitneyGolden:
    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_u_statistic(self, name):
        x, y, u1, _, _, _, _ = GOLDEN[name]
        result = mann_whitney_u(x, y)
        assert result.u1 == pytest.approx(u1, abs=1e-12)
        assert result.u2 == pytest.approx(len(x) * len(y) - u1,
                                          abs=1e-12)

    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_two_sided_matches_scipy(self, name):
        x, y, _, p2, _, _, _ = GOLDEN[name]
        result = mann_whitney_u(x, y, alternative="two-sided")
        assert result.p_value == pytest.approx(p2, rel=1e-9)

    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_greater_matches_scipy(self, name):
        x, y, _, _, pg, _, _ = GOLDEN[name]
        result = mann_whitney_u(x, y, alternative="greater")
        assert result.p_value == pytest.approx(pg, rel=1e-9)

    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_less_matches_scipy(self, name):
        x, y, _, _, _, pl, _ = GOLDEN[name]
        result = mann_whitney_u(x, y, alternative="less")
        assert result.p_value == pytest.approx(pl, rel=1e-9)

    def test_symmetry_two_sided(self):
        x, y = GOLDEN["larger"][0], GOLDEN["larger"][1]
        assert mann_whitney_u(x, y).p_value == pytest.approx(
            mann_whitney_u(y, x).p_value, rel=1e-12)

    def test_identical_samples_degenerate(self):
        values = [4.0, 4.0, 4.0, 4.0, 4.0]
        result = mann_whitney_u(values, values)
        assert result.p_value == 1.0
        assert result.u1 == pytest.approx(12.5)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            mann_whitney_u([], [1.0])
        with pytest.raises(ValueError):
            mann_whitney_u([1.0], [])

    def test_rejects_bad_alternative(self):
        with pytest.raises(ValueError):
            mann_whitney_u([1.0], [2.0], alternative="sideways")

    def test_p_value_bounded(self):
        rng = np.random.Generator(np.random.PCG64(5))
        for _ in range(20):
            x = rng.normal(size=rng.integers(1, 9)).tolist()
            y = rng.normal(size=rng.integers(1, 9)).tolist()
            for alt in ("two-sided", "greater", "less"):
                p = mann_whitney_u(x, y, alternative=alt).p_value
                assert 0.0 <= p <= 1.0


class TestVarghaDelaney:
    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_golden(self, name):
        x, y, _, _, _, _, a12 = GOLDEN[name]
        assert vargha_delaney_a12(x, y) == pytest.approx(a12,
                                                         abs=1e-12)

    def test_complement(self):
        x, y = GOLDEN["overlap"][0], GOLDEN["overlap"][1]
        assert vargha_delaney_a12(x, y) + vargha_delaney_a12(y, x) \
            == pytest.approx(1.0)

    def test_stochastic_dominance_is_one(self):
        assert vargha_delaney_a12([10, 11, 12], [1, 2, 3]) == 1.0

    def test_identical_is_half(self):
        assert vargha_delaney_a12([3.0, 3.0], [3.0, 3.0]) == 0.5


class TestBootstrap:
    def test_constant_sample_is_point_interval(self):
        lo, hi = bootstrap_ci([7.0, 7.0, 7.0, 7.0])
        assert lo == hi == 7.0

    def test_single_observation_is_point_interval(self):
        lo, hi = bootstrap_ci([42.0])
        assert lo == hi == 42.0

    def test_interval_brackets_statistic_support(self):
        values = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0]
        lo, hi = bootstrap_ci(values, seed=11)
        assert min(values) <= lo <= hi <= max(values)

    def test_seeded_reproducibility(self):
        values = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0]
        assert bootstrap_ci(values, seed=3) == bootstrap_ci(values,
                                                            seed=3)
        assert bootstrap_ci(values, seed=3) != bootstrap_ci(values,
                                                            seed=4)

    def test_mean_statistic_converges_to_clt(self):
        # For a large-ish sample, the bootstrap percentile CI of the
        # mean should approximate mean +/- 1.96 se.
        rng = np.random.Generator(np.random.PCG64(0))
        values = rng.normal(loc=10.0, scale=2.0, size=200).tolist()
        lo, hi = bootstrap_ci(values, stat=np.mean,
                              n_resamples=4000, seed=1)
        mean = float(np.mean(values))
        se = float(np.std(values, ddof=1)) / math.sqrt(len(values))
        assert lo == pytest.approx(mean - 1.96 * se, abs=0.5 * se)
        assert hi == pytest.approx(mean + 1.96 * se, abs=0.5 * se)

    def test_confidence_widens_interval(self):
        values = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0]
        lo90, hi90 = bootstrap_ci(values, confidence=0.90, seed=2)
        lo99, hi99 = bootstrap_ci(values, confidence=0.99, seed=2)
        assert lo99 <= lo90 and hi90 <= hi99

    def test_diff_ci_sign_separates_shifted_samples(self):
        x = [10.0, 11.0, 12.0, 13.0, 14.0]
        y = [1.0, 2.0, 3.0, 4.0, 5.0]
        lo, hi = bootstrap_diff_ci(x, y, seed=0)
        assert lo > 0.0 and hi >= lo

    def test_diff_ci_identical_samples_is_zero(self):
        values = [5.0, 5.0, 5.0]
        assert bootstrap_diff_ci(values, values, seed=0) == (0.0, 0.0)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            bootstrap_ci([])
