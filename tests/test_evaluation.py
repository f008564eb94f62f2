"""Metrics, agreement statistics, and comparison tables."""

import math

import numpy as np
import numpy.testing as npt
import pytest

from splinecfr.evaluation import (
    aggregate,
    cohen_kappa,
    count_beyond_training_max,
    kappa_agreement_label,
    mean_relative_error,
    rank_matrix,
    rmse,
    threshold_counts,
    top_k_table,
)


class TestBasicMetrics:
    def test_rmse_frozen(self):
        assert rmse(np.array([0.0, 2.0]), np.zeros(2)) == pytest.approx(math.sqrt(2.0), abs=1e-15)

    def test_rmse_zero_on_exact(self):
        assert rmse(np.array([1.0, -3.0, 7.0]), np.array([1.0, -3.0, 7.0])) == 0.0

    def test_mre_frozen(self):
        # |100-90|/100 = 0.1 and |200-220|/200 = 0.1, mean 0.1.
        mre = mean_relative_error(np.array([100.0, 200.0]), np.array([90.0, 220.0]))
        assert mre == pytest.approx(0.1)

    def test_mre_rejects_zero_truth_naming_index(self):
        with pytest.raises(ValueError, match="zero at index 1"):
            mean_relative_error(np.array([1.0, 0.0, 2.0]), np.array([1.0, 1.0, 2.0]))

    def test_threshold_boundary_counts_as_positive(self):
        pos, neg = threshold_counts(np.array([88.9, 89.0, 89.1, 10.0]), 89.0)
        assert (pos, neg) == (2, 2)

    def test_threshold_counts_sum_to_n(self):
        rng = np.random.default_rng(3)
        p = rng.normal(size=57)
        pos, neg = threshold_counts(p, 0.2)
        assert pos + neg == 57

    def test_beyond_training_max_is_strict(self):
        assert count_beyond_training_max(np.array([1.0, 2.0, 2.0, 3.0]), 2.0) == 1


class TestCohenKappa:
    def test_frozen_half(self):
        # p_o = 3/4; marginals give p_e = 0.5*0.25 + 0.5*0.75 = 0.5;
        # kappa = (0.75 - 0.5) / 0.5 = 0.5, exact in binary floats.
        a = np.array(["P", "P", "N", "N"])
        b = np.array(["P", "N", "N", "N"])
        assert cohen_kappa(a, b) == 0.5

    def test_symmetric(self):
        rng = np.random.default_rng(11)
        a = rng.integers(0, 2, size=200)
        b = rng.integers(0, 2, size=200)
        assert cohen_kappa(a, b) == cohen_kappa(b, a)

    def test_perfect_agreement(self):
        a = np.array([0, 1, 0, 1, 1])
        assert cohen_kappa(a, a) == 1.0

    def test_identical_constant_raters(self):
        # p_e = 1; the degenerate case is defined as perfect agreement.
        a = np.array(["P"] * 6)
        assert cohen_kappa(a, a.copy()) == 1.0

    def test_disjoint_constant_raters(self):
        a = np.array(["P"] * 6)
        b = np.array(["N"] * 6)
        assert cohen_kappa(a, b) == 0.0

    def test_bounded_above_by_one(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            a = rng.integers(0, 3, size=40)
            b = rng.integers(0, 3, size=40)
            assert cohen_kappa(a, b) <= 1.0 + 1e-12

    @pytest.mark.parametrize(
        "value, label",
        [
            (-0.3, "none"),
            (0.0, "none-to-slight"),
            (0.20, "none-to-slight"),
            (0.21, "fair"),
            (0.40, "fair"),
            (0.55, "moderate"),
            (0.666457, "substantial"),
            (0.80, "substantial"),
            (0.81, "almost-perfect"),
            (1.0, "almost-perfect"),
        ],
    )
    def test_agreement_bands(self, value, label):
        assert kappa_agreement_label(value) == label


class TestTopK:
    def test_frozen_small_table(self):
        y_true, y_pred = np.array([10.0, 20.0, 30.0]), np.array([1.0, 9.0, 8.0])
        rows, (mean_true, mean_pred, mre, subset_rmse) = top_k_table(y_true, y_pred, k=2)
        assert rows == [(1, 1, 20.0, 9.0), (2, 2, 30.0, 8.0)]
        assert mean_true == 25.0
        assert mean_pred == 8.5
        assert subset_rmse == pytest.approx(math.sqrt((11.0**2 + 22.0**2) / 2.0))
        assert mre == pytest.approx((11.0 / 20.0 + 22.0 / 30.0) / 2.0)

    def test_ties_resolve_to_lower_index(self):
        rows, _ = top_k_table(np.array([1.0, 2.0, 3.0]), np.array([5.0, 5.0, 3.0]), k=2)
        assert [row[1] for row in rows] == [0, 1]

    def test_k_out_of_range(self):
        with pytest.raises(ValueError, match=r"k must be in \[1, 3\]"):
            top_k_table(np.ones(3), np.ones(3), k=4)
        with pytest.raises(ValueError, match="k must be"):
            top_k_table(np.ones(3), np.ones(3), k=0)


class TestAggregate:
    def test_median_and_population_std(self):
        # One (median, std, runs) per column, in column order.
        summaries = aggregate(np.array([[1.0, 2.0], [2.0, 4.0], [3.0, 6.0]]))
        assert summaries == [(2.0, math.sqrt(2.0 / 3.0), 3), (4.0, math.sqrt(8.0 / 3.0), 3)]


class TestRankMatrix:
    def test_two_methods_two_runs(self):
        # Columns: fast, slow; rows: runs 0 and 1.
        matrix = rank_matrix(np.array([[1.0, 2.0], [5.0, 4.0]]))
        npt.assert_array_equal(matrix, [[1.0, 2.0], [2.0, 1.0]])

    def test_ties_share_average_rank(self):
        npt.assert_array_equal(rank_matrix(np.array([[1.0, 1.0]])), [[1.5, 1.5]])

    def test_rows_sum_to_constant(self):
        rng = np.random.default_rng(19)
        matrix = rank_matrix(rng.uniform(1.0, 9.0, size=(12, 4)))
        npt.assert_allclose(matrix.sum(axis=1), np.full(12, 10.0))

    def test_ties_against_the_loop_oracle(self):
        # Rank runs of equal values by walking the sorted order.
        def average_ranks(values):
            order = sorted(range(len(values)), key=lambda k: values[k])
            ranks = [0.0] * len(values)
            i = 0
            while i < len(order):
                j = i
                while j + 1 < len(order) and values[order[j + 1]] == values[order[i]]:
                    j += 1
                for k in order[i : j + 1]:
                    ranks[k] = (i + j) / 2.0 + 1.0
                i = j + 1
            return ranks

        rng = np.random.default_rng(23)
        for _ in range(50):
            values = rng.choice([0.0, 1.0, 2.5, 3.0], size=rng.integers(1, 9)).tolist()
            matrix = rank_matrix(np.array([values]))
            assert matrix[0].tolist() == average_ranks(values)
