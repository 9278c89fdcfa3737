"""Degenerate statistics inputs, pinned to golden values.

Multi-trial comparisons legitimately produce tiny or constant samples
(every trial but one lost, all replicas tied); the report must render
defined numbers for them, not NaNs or exceptions. These pins define
the edge-case contract: zero-variance and single-trial inputs are
*data*, an empty bootstrap resample set is an *error*.
"""

import pytest

from repro.analysis.stats import (bootstrap_ci, bootstrap_diff_ci,
                                  mann_whitney_u, vargha_delaney_a12)


class TestMannWhitneyDegenerate:
    def test_all_ties_is_no_evidence(self):
        # Zero variance in both groups: the tie-corrected normal
        # approximation divides 0 by 0 conceptually; defined as p=1.
        result = mann_whitney_u([5.0] * 4, [5.0] * 4)
        assert result.u1 == 8.0
        assert result.u2 == 8.0
        assert result.p_value == 1.0

    def test_single_trial_each_is_no_evidence(self):
        # One observation per side can never reach significance.
        result = mann_whitney_u([3.0], [5.0])
        assert result.u1 == 0.0
        assert result.u2 == 1.0
        assert result.p_value == 1.0

    def test_all_ties_unbalanced_groups(self):
        result = mann_whitney_u([2.0] * 3, [2.0] * 4)
        assert result.u1 == 6.0
        assert result.u2 == 6.0
        assert result.p_value == 1.0

    def test_empty_group_rejected(self):
        with pytest.raises(ValueError):
            mann_whitney_u([], [1.0])


class TestA12Degenerate:
    def test_all_ties_is_half(self):
        assert vargha_delaney_a12([5.0] * 4, [5.0] * 4) == 0.5

    def test_single_trials_are_zero_or_one(self):
        assert vargha_delaney_a12([3.0], [5.0]) == 0.0
        assert vargha_delaney_a12([5.0], [3.0]) == 1.0


class TestBootstrapDegenerate:
    def test_single_value_collapses_to_point_interval(self):
        # Every resample of a one-element sample is that element.
        assert bootstrap_ci([7.0]) == (7.0, 7.0)

    def test_zero_variance_collapses_to_point_interval(self):
        assert bootstrap_ci([5.0] * 4, seed=0) == (5.0, 5.0)

    def test_zero_variance_diff_is_zero_width_at_zero(self):
        assert bootstrap_diff_ci([5.0] * 3, [5.0] * 3, seed=0) == \
            (0.0, 0.0)

    def test_empty_resample_set_is_an_error(self):
        with pytest.raises(ValueError, match="n_resamples"):
            bootstrap_ci([1.0, 2.0], n_resamples=0)
        with pytest.raises(ValueError, match="n_resamples"):
            bootstrap_diff_ci([1.0], [2.0], n_resamples=0)

    def test_empty_sample_rejected(self):
        with pytest.raises(ValueError):
            bootstrap_ci([])
