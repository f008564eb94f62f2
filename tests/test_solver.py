"""Solvers against hand values and an explicit normal-equation oracle."""

import numpy as np
import numpy.testing as npt
import pytest

from splinecfr import solver
from splinecfr.solver import JITTER, least_squares, penalized_least_squares
from splinecfr.spline_basis import penalty_block


def oracle_solution(A, y, lam=0.0, penalties=(), lead=None):
    """Direct inversion of the jittered normal equations (small systems)."""
    A = np.asarray(A, float)
    y = np.asarray(y, float)
    p = A.shape[1]
    m = A.T @ A + JITTER * np.eye(p)
    if lead is None:
        lead = p - sum(pen.shape[0] for pen in penalties)
    col = lead
    for pen in penalties:
        k = pen.shape[0]
        m[col : col + k, col : col + k] += lam * pen
        col += k
    return np.linalg.inv(m) @ (A.T @ y)


def augmented_least_squares(A, y):
    """(A'A + 1e-10 I) beta = A'y through the augmented system [A; sqrt(jitter) I],
    solved by an orthogonal factorization (``lstsq``) instead of the normal
    equations."""
    A = np.asarray(A, float)
    p = A.shape[1]
    aug = np.vstack([A, np.sqrt(JITTER) * np.eye(p)])
    beta, *_ = np.linalg.lstsq(aug, np.concatenate([y, np.zeros(p)]), rcond=None)
    return beta


class TestLeastSquares:
    def test_mean(self):
        npt.assert_allclose(least_squares([[1.0], [1.0]], [2.0, 4.0]), [3.0], atol=1e-8)

    def test_identity(self):
        npt.assert_allclose(
            least_squares(np.eye(3), [1.0, 2.0, 3.0]), [1.0, 2.0, 3.0], atol=1e-8
        )

    def test_collinear_columns_still_fit(self):
        A = np.array([[1.0, 0.0], [1.0, 0.0]])
        beta = least_squares(A, [1.0, 1.0])
        assert np.isfinite(beta).all()
        npt.assert_allclose(A @ beta, [1.0, 1.0], atol=1e-6)

    def test_matches_oracle_on_random_instances(self):
        rng = np.random.default_rng(99)
        for _ in range(50):
            n, p = rng.integers(6, 30), rng.integers(1, 7)
            A = rng.normal(size=(n, p))
            y = rng.normal(size=n)
            npt.assert_allclose(least_squares(A, y), oracle_solution(A, y), atol=1e-8)

    def test_counted_solve_equals_the_expanded_one(self):
        for seed in range(20):
            B, counts, group, t, _ = TestCounts.system(seed)
            sums = np.bincount(group, weights=t, minlength=B.shape[0])
            weighted = B @ least_squares(B, sums, counts)
            expanded = B @ least_squares(B[group], t)
            npt.assert_allclose(weighted, expanded, rtol=0.0,
                                atol=1e-12 * np.abs(expanded).max())

    def test_shape_errors(self):
        with pytest.raises(ValueError, match="rows"):
            least_squares(np.eye(3), [1.0, 2.0])
        with pytest.raises(ValueError, match="non-finite"):
            least_squares([[np.nan], [1.0]], [1.0, 2.0])
        for A, y, match in [
            (np.ones((2, 2, 2)), np.ones(2), "2-D, got ndim=3"),
            (np.ones((2, 2)), np.ones((2, 1)), "1-D, got ndim=2"),
            (np.ones((0, 2)), np.ones(0), "empty system"),
            (np.ones((2, 0)), np.ones(2), "empty system"),
            (np.eye(2), np.array([1.0, np.nan]), "target contains non-finite"),
        ]:
            with pytest.raises(ValueError, match=match):
                penalized_least_squares(A, y, 1.0, [])

    def test_is_the_penalized_solve_without_blocks(self):
        for seed in range(5):
            B, counts, group, t, _ = TestCounts.system(seed)
            sums = np.bincount(group, weights=t, minlength=B.shape[0])
            for c in (None, counts):
                npt.assert_array_equal(
                    least_squares(B, sums, c), penalized_least_squares(B, sums, 0.0, [], c)
                )


class TestPenalizedLeastSquares:
    def test_zero_lambda_equals_ols(self):
        rng = np.random.default_rng(5)
        B = np.hstack([np.ones((20, 1)), rng.normal(size=(20, 4))])
        y = rng.normal(size=20)
        pens = [penalty_block(4)]
        npt.assert_allclose(
            penalized_least_squares(B, y, 0.0, pens), least_squares(B, y), atol=1e-8
        )

    def test_huge_lambda_flattens_coefficients(self):
        # Identity design, no intercept column: the penalty null space is
        # the equal-coefficient direction, and y = (0, 2) projects onto it
        # as (1, 1).
        pens = [np.array([[1.0, -1.0], [-1.0, 1.0]])]
        beta = penalized_least_squares(np.eye(2), [0.0, 2.0], 1e9, pens)
        npt.assert_allclose(beta, [1.0, 1.0], atol=1e-6)

    def test_unit_ridge(self):
        pens = [np.eye(2)]
        beta = penalized_least_squares(np.eye(2), [1.0, 1.0], 1.0, pens)
        npt.assert_allclose(beta, [0.5, 0.5], atol=1e-8)

    def test_matches_oracle_with_intercept(self):
        rng = np.random.default_rng(17)
        for _ in range(30):
            n = rng.integers(10, 40)
            k = rng.integers(3, 6)
            B = np.hstack([np.ones((n, 1)), rng.normal(size=(n, k))])
            y = rng.normal(size=n)
            lam = rng.uniform(0, 5)
            pens = [penalty_block(k)]
            npt.assert_allclose(
                penalized_least_squares(B, y, lam, pens),
                oracle_solution(B, y, lam, pens, lead=1),
                atol=1e-8,
            )

    def test_penalty_monotone_in_lambda(self):
        rng = np.random.default_rng(23)
        B = np.hstack([np.ones((30, 1)), rng.normal(size=(30, 5))])
        y = rng.normal(size=30)
        pens = [penalty_block(5)]
        previous = None
        for lam in (0.0, 0.1, 1.0, 10.0):
            beta = penalized_least_squares(B, y, lam, pens)
            block = beta[1:]
            amount = block @ pens[0] @ block
            if previous is not None:
                assert amount <= previous + 1e-10
            previous = amount

    def test_residual_orthogonality_at_zero_lambda(self):
        rng = np.random.default_rng(31)
        B = np.hstack([np.ones((40, 1)), rng.normal(size=(40, 4))])
        y = rng.normal(size=40)
        beta = penalized_least_squares(B, y, 0.0, [penalty_block(4)])
        assert np.abs(B.T @ (y - B @ beta)).max() < 1e-6

    def test_block_layout_mismatch(self):
        B = np.ones((5, 4))
        with pytest.raises(ValueError, match="tile"):
            penalized_least_squares(B, np.ones(5), 1.0, [penalty_block(6)])
        with pytest.raises(ValueError, match="tile"):
            # two leading unpenalized columns is not a supported layout
            penalized_least_squares(
                np.ones((5, 5)), np.ones(5), 1.0, [penalty_block(3)]
            )

    def test_no_blocks_is_ordinary_least_squares(self):
        # The one-leading-column rule holds only when blocks are given.
        rng = np.random.default_rng(8)
        A = rng.normal(size=(20, 4))
        y = rng.normal(size=20)
        npt.assert_allclose(
            penalized_least_squares(A, y, 2.0, []), oracle_solution(A, y), atol=1e-8
        )

    def test_negative_lambda(self):
        with pytest.raises(ValueError, match="non-negative"):
            penalized_least_squares(np.eye(2), [1.0, 1.0], -0.5, [])

    def test_singular_fallback_warns_and_solves(self, monkeypatch):
        rng = np.random.default_rng(41)
        B = np.hstack([np.ones((25, 1)), rng.normal(size=(25, 4))])
        y = rng.normal(size=25)
        pens = [penalty_block(4)]
        expected = oracle_solution(B, y, 0.3, pens, lead=1)

        def singular(*args, **kwargs):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr(np.linalg, "solve", singular)
        with pytest.warns(RuntimeWarning, match="5 columns"):
            beta = penalized_least_squares(B, y, 0.3, pens)
        npt.assert_allclose(beta, expected, atol=1e-8)
        with pytest.warns(RuntimeWarning, match="5 columns"):
            beta = least_squares(B, y)
        npt.assert_allclose(beta, oracle_solution(B, y), atol=1e-8)


class TestCounts:
    """Counted rows against the design with every row repeated."""

    @staticmethod
    def system(seed):
        rng = np.random.default_rng(seed)
        n, k = rng.integers(8, 30), rng.integers(3, 7)
        B = np.hstack([np.ones((n, 1)), rng.normal(size=(n, k))])
        counts = rng.integers(1, 5, size=n)
        group = rng.permutation(np.repeat(np.arange(n), counts))
        t = rng.normal(size=group.size)
        return B, counts, group, t, [penalty_block(k)]

    def test_weighted_solve_equals_the_expanded_one(self):
        for seed in range(20):
            B, counts, group, t, pens = self.system(seed)
            sums = np.bincount(group, weights=t, minlength=B.shape[0])
            weighted = penalized_least_squares(B, sums, 0.7, pens, counts=counts)
            expanded = penalized_least_squares(B[group], t, 0.7, pens)
            npt.assert_allclose(weighted, expanded, rtol=0.0,
                                atol=1e-10 * np.abs(expanded).max())

    def test_gram_accumulates_over_row_blocks(self, monkeypatch):
        B, counts, group, t, pens = self.system(3)
        sums = np.bincount(group, weights=t, minlength=B.shape[0])
        one_block = penalized_least_squares(B, sums, 0.7, pens, counts=counts)
        monkeypatch.setattr(solver, "_GRAM_BLOCK_CELLS", 3 * B.shape[1])
        npt.assert_allclose(
            penalized_least_squares(B, sums, 0.7, pens, counts=counts), one_block,
            rtol=0.0, atol=1e-12 * np.abs(one_block).max(),
        )

    def test_unit_counts_equal_no_counts(self):
        B, _, _, _, pens = self.system(5)
        y = np.arange(B.shape[0], dtype=float)
        npt.assert_allclose(
            penalized_least_squares(B, y, 0.7, pens, counts=np.ones(B.shape[0])),
            penalized_least_squares(B, y, 0.7, pens),
            rtol=1e-12,
        )

    @pytest.mark.parametrize(
        "counts, match",
        [
            (np.ones((4, 1)), "1-D"),
            (np.ones(3), "4 entries"),
            (np.ones(5), "4 entries"),
            (np.array([1.0, 2.0, np.nan, 1.0]), "finite"),
            (np.array([1.0, 2.0, np.inf, 1.0]), "finite"),
            (np.array([1.0, 0.5, 1.0, 1.0]), "at least 1"),
            (np.array([1, 0, 1, 1]), "at least 1"),
            (np.array([1.0, -2.0, 1.0, 1.0]), "at least 1"),
        ],
    )
    def test_bad_counts_raise(self, counts, match):
        B = np.hstack([np.ones((4, 1)), np.eye(4)[:, :3]])
        with pytest.raises(ValueError, match=match):
            penalized_least_squares(B, np.ones(4), 1.0, [penalty_block(3)], counts=counts)
