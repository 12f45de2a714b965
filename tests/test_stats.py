"""Unit tests for the statistics substrate (Mann-Whitney U, CIs)."""

import math
import random
import subprocess
import sys

import pytest
import scipy.stats as sps

from repro.stats.descriptive import mean_ci, sample_mean, sample_std
from repro.stats.mannwhitney import mann_whitney_u, u_statistic


class TestDescriptive:
    def test_package_import_leaves_scipy_stats_unloaded(self):
        """Only ``mean_ci`` needs ``scipy.stats``; importing the simulation,
        service and allocation packages must not pay for loading it."""
        script = (
            "import sys, repro.sim, repro.service, repro.allocation\n"
            "print(sorted(m for m in sys.modules if m.startswith('scipy.stats')))"
        )
        child = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, check=True,
        )
        assert child.stdout.strip() == "[]"

    def test_mean_ci_basic(self):
        ci = mean_ci([1.0, 2.0, 3.0])
        assert ci.mean == pytest.approx(2.0)
        assert ci.low < 2.0 < ci.high
        assert ci.n == 3

    def test_single_value_has_zero_width(self):
        ci = mean_ci([5.0])
        assert ci.half_width == 0.0

    def test_matches_scipy_t_interval(self):
        values = [3.1, 2.7, 4.2, 3.8, 2.9]
        ci = mean_ci(values)
        low, high = sps.t.interval(
            0.95, df=len(values) - 1, loc=ci.mean, scale=sps.sem(values)
        )
        assert ci.low == pytest.approx(low)
        assert ci.high == pytest.approx(high)

    def test_empty_sample_rejected(self):
        with pytest.raises(ValueError):
            mean_ci([])
        with pytest.raises(ValueError):
            sample_mean([])
        with pytest.raises(ValueError):
            sample_std([1.0])

    def test_invalid_confidence_rejected(self):
        with pytest.raises(ValueError):
            mean_ci([1.0, 2.0], confidence=1.0)

    def test_sample_std(self):
        assert sample_std([1.0, 3.0]) == pytest.approx(math.sqrt(2.0))


class TestUStatistic:
    def test_complete_separation(self):
        # All of sample 1 above sample 2: U = n1 * n2.
        assert u_statistic([10, 11, 12], [1, 2]) == 6.0

    def test_complete_reversal(self):
        assert u_statistic([1, 2], [10, 11, 12]) == 0.0

    def test_symmetry_identity(self):
        u1 = u_statistic([1, 5, 7], [2, 3])
        u2 = u_statistic([2, 3], [1, 5, 7])
        assert u1 + u2 == 3 * 2

    def test_empty_sample_rejected(self):
        with pytest.raises(ValueError):
            u_statistic([], [1])


class TestMannWhitneyAgainstScipy:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    @pytest.mark.parametrize("alternative", ["two-sided", "less", "greater"])
    def test_exact_small_samples_match_scipy(self, seed, alternative):
        rng = random.Random(seed)
        sample1 = [rng.random() for _ in range(8)]
        sample2 = [rng.random() for _ in range(9)]
        ours = mann_whitney_u(sample1, sample2, alternative=alternative)
        theirs = sps.mannwhitneyu(
            sample1, sample2, alternative=alternative, method="exact"
        )
        assert ours.method == "exact"
        assert ours.u_statistic == pytest.approx(theirs.statistic)
        assert ours.p_value == pytest.approx(theirs.pvalue, rel=1e-9)

    @pytest.mark.parametrize("seed", [10, 11])
    def test_normal_approximation_close_to_scipy(self, seed):
        rng = random.Random(seed)
        sample1 = [rng.gauss(0, 1) for _ in range(30)]
        sample2 = [rng.gauss(0.5, 1) for _ in range(28)]
        ours = mann_whitney_u(sample1, sample2)
        theirs = sps.mannwhitneyu(sample1, sample2, alternative="two-sided")
        assert ours.method == "normal"
        assert ours.p_value == pytest.approx(theirs.pvalue, rel=1e-6)

    def test_ties_use_corrected_normal(self):
        sample1 = [1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7]
        sample2 = [2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7, 7, 8]
        ours = mann_whitney_u(sample1, sample2)
        theirs = sps.mannwhitneyu(sample1, sample2, alternative="two-sided")
        assert ours.method == "normal"
        assert ours.p_value == pytest.approx(theirs.pvalue, rel=1e-6)

    def test_identical_samples_pvalue_one(self):
        result = mann_whitney_u([3.0] * 30, [3.0] * 30)
        assert result.p_value == 1.0

    def test_table3_style_constant_sample2(self):
        # Sample 2 constant (stage_rounds / 2), like the paper's Table III.
        defects = [0, 1, 2, 0, 3, 1, 0, 2, 1, 0, 4, 1, 0, 2, 1, 3, 0, 1, 2, 0]
        baseline = [8.0] * 20
        result = mann_whitney_u(defects, baseline)
        assert result.p_value < 0.0001

    def test_invalid_alternative_rejected(self):
        with pytest.raises(ValueError):
            mann_whitney_u([1], [2], alternative="sideways")

    def test_empty_samples_rejected(self):
        with pytest.raises(ValueError):
            mann_whitney_u([], [1])
