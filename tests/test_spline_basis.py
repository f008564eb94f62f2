"""Knot vectors, basis evaluation, design matrices, penalties."""

import math

import numpy as np
import numpy.testing as npt
import pytest

from splinecfr.spline_basis import (
    DEGREE,
    KnotVector,
    build_knot_vector,
    design_matrix,
    penalty_block,
)


def eval_basis_matrix(kv, x):
    """One variable's basis block, one row per point."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    return design_matrix(x[:, None], [kv])[:, 1:]


def basis_row(kv, x):
    return eval_basis_matrix(kv, np.array([float(x)]))[0]


def bernstein_row(x):
    # Independent closed form: with no interior knots the clamped cubic
    # basis on [0, 1] is the Bernstein basis of degree 3.
    return np.array([math.comb(3, i) * x**i * (1 - x) ** (3 - i) for i in range(4)])


def random_knot_vector(rng):
    lo, width = rng.uniform(-5, 5), rng.uniform(0.5, 10)
    hi = lo + width
    q = rng.integers(0, 6)
    interior = np.sort(rng.uniform(lo + 1e-3 * width, hi - 1e-3 * width, q))
    interior = np.unique(interior)
    return build_knot_vector(interior, lo, hi)


def recurrence_rows(t, degree, pts):
    """Dense Cox-de Boor at ``degree`` on knot vector ``t``: every basis
    function at every point, points outside [t[0], t[-1]] on the end spans."""
    count = len(t) - degree - 1
    n = pts.shape[0]
    last = int(np.searchsorted(t, t[-1], side="left")) - 1
    mu = np.clip(np.searchsorted(t, pts, side="right") - 1, degree, last)
    vals = np.zeros((n, degree + 1))
    vals[:, 0] = 1.0
    left = np.zeros((n, degree + 1))
    right = np.zeros((n, degree + 1))
    for j in range(1, degree + 1):
        left[:, j] = pts - t[mu + 1 - j]
        right[:, j] = t[mu + j] - pts
        saved = np.zeros(n)
        for r in range(j):
            den = right[:, r + 1] + left[:, j - r]
            temp = np.divide(vals[:, r], den, out=np.zeros(n), where=den != 0.0)
            vals[:, r] = saved + right[:, r + 1] * temp
            saved = left[:, j - r] * temp
        vals[:, j] = saved
    out = np.zeros((n, count))
    cols = mu[:, None] - degree + np.arange(degree + 1)[None, :]
    np.put_along_axis(out, cols, vals, axis=1)
    return out


def recurrence_end_slopes(kv):
    """Derivatives of every basis function at lo and hi (one row each), from
    the recurrence one degree lower: basis function i has derivative
    p*N_i/a - p*N_{i+1}/b over the degree p-1 basis N, with
    a = t[i+p] - t[i] and b = t[i+p+1] - t[i+1] (a term with a zero-width
    support drops out). At lo and hi this is the one-sided derivative from
    inside [lo, hi]."""
    t, p = kv.augmented, DEGREE
    lower = recurrence_rows(t, p - 1, np.array([kv.lo, kv.hi]))
    a = t[p:-1] - t[: -p - 1]
    b = t[p + 1 :] - t[1:-p]
    der = np.divide(p * lower[:, :-1], a, out=np.zeros((2, kv.basis_count)), where=a > 0.0)
    der -= np.divide(p * lower[:, 1:], b, out=np.zeros_like(der), where=b > 0.0)
    return der


def closed_form_end_slopes(kv):
    """Closed form of the clamped end derivatives: only the two outermost
    basis functions move, by -+p over the width of the end span."""
    t, p, n = kv.augmented, DEGREE, kv.basis_count
    der = np.zeros((2, n))
    der[0, [0, 1]] = [-p / (t[p + 1] - kv.lo), p / (t[p + 1] - kv.lo)]
    der[1, [n - 2, n - 1]] = [-p / (kv.hi - t[n - 1]), p / (kv.hi - t[n - 1])]
    return der


def oracle_basis(kv, x):
    """Dense reference: every basis function at every point. Rows inside
    (lo, hi) come from the recurrence; rows at or outside an end continue the
    end rows linearly with the closed-form end values and slopes."""
    n = kv.basis_count
    val = np.eye(n)[[0, n - 1]]
    der = closed_form_end_slopes(kv)
    x = np.atleast_1d(np.asarray(x, dtype=float))
    out = np.zeros((x.shape[0], n))
    below = x <= kv.lo
    above = x >= kv.hi
    inside = ~(below | above)
    if inside.any():
        out[inside] = recurrence_rows(kv.augmented, DEGREE, x[inside])
    if below.any():
        out[below] = val[0] + (x[below] - kv.lo)[:, None] * der[0]
    if above.any():
        out[above] = val[1] + (x[above] - kv.hi)[:, None] * der[1]
    return out


def oracle_design(X, bases):
    """Intercept plus one dense basis block per variable, stacked."""
    blocks = [np.ones((X.shape[0], 1))]
    blocks += [oracle_basis(kv, X[:, j]) for j, kv in enumerate(bases)]
    return np.hstack(blocks)


def oracle_cases():
    """(knot vectors, points) pairs for the oracle comparison."""
    rng = np.random.default_rng(20201206)
    plain = build_knot_vector([], -1.0, 2.0)
    grid = build_knot_vector([1.0, 2.0, 3.0, 4.0, 5.0, 6.0], 0.0, 7.0)
    rand = random_knot_vector(rng)
    rand2 = build_knot_vector(np.sort(rng.uniform(0.1, 9.9, 11)), 0.0, 10.0)

    def spread(kv, n):
        width = kv.hi - kv.lo
        return rng.uniform(kv.lo - width, kv.hi + width, n)

    ties = rng.integers(-2, 10, 300).astype(float)
    knots_hit = np.concatenate([[kv.lo, kv.hi, *kv.interior] for kv in (plain, grid, rand)])
    return {
        "no_interior": ([plain], spread(plain, 200)[:, None]),
        "integer_grid_ties": ([grid], ties[:, None]),
        "random_knots": ([rand, rand2], np.column_stack([spread(rand, 300), spread(rand2, 300)])),
        "on_bounds_and_knots": (
            [plain, grid, rand],
            np.column_stack([rng.choice(knots_hit, 120) for _ in range(3)]),
        ),
        "out_of_box_both_sides": (
            [plain, grid, rand2],
            np.column_stack(
                [
                    np.concatenate([kv.lo - rng.uniform(0, 5, 50), kv.hi + rng.uniform(0, 5, 50)])
                    for kv in (plain, grid, rand2)
                ]
            ),
        ),
        "zero_rows": ([plain, grid], np.zeros((0, 2))),
        "one_row": ([plain, grid, rand], np.array([[0.5, -3.0, rand.hi + 1.0]])),
        "zero_variables": ([], np.zeros((7, 0))),
        # A knot next to an end: the recurrence's slope there misses the
        # closed form in the last bit.
        "knot_next_to_an_end": (
            [build_knot_vector([0.0025], 0.0, 2.5)],
            np.array([[-2.5], [2.5], [5.0]]),
        ),
        # More points than one block of the design, mixed in and out of box.
        "many_rows": ([grid, rand2], np.column_stack([spread(grid, 12000), spread(rand2, 12000)])),
    }


ORACLE_CASES = oracle_cases()


class TestBuildKnotVector:
    def test_augments_with_four_copies_of_each_bound(self):
        kv = build_knot_vector([0.5], 0.0, 1.0)
        npt.assert_array_equal(kv.augmented, [0, 0, 0, 0, 0.5, 1, 1, 1, 1])
        assert kv.basis_count == 5

    def test_augmented_is_built_once_and_read_only(self):
        kv = build_knot_vector([0.5], 0.0, 1.0)
        assert kv.augmented is kv.augmented
        with pytest.raises(ValueError, match="read-only"):
            kv.augmented[0] = -1.0
        # The cache rides on the knot vector, not on its identity as a key.
        assert kv == build_knot_vector([0.5], 0.0, 1.0)

    def test_no_interior_knots(self):
        kv = build_knot_vector([], 0.0, 1.0)
        assert kv.basis_count == 4

    def test_two_interior_knots(self):
        kv = build_knot_vector([0.2, 0.8], 0.0, 1.0)
        assert kv.basis_count == 6

    def test_degenerate_domain(self):
        with pytest.raises(ValueError, match="degenerate"):
            build_knot_vector([], 1.0, 1.0)
        with pytest.raises(ValueError, match="degenerate"):
            build_knot_vector([], 2.0, 1.0)

    def test_interior_out_of_range_names_index(self):
        with pytest.raises(ValueError, match="knot 1"):
            build_knot_vector([0.5, 1.5], 0.0, 1.0)
        # Boundary values are not interior.
        with pytest.raises(ValueError, match="knot 0"):
            build_knot_vector([0.0], 0.0, 1.0)

    def test_unsorted_or_duplicate(self):
        with pytest.raises(ValueError, match="sorted"):
            build_knot_vector([0.8, 0.2], 0.0, 1.0)
        with pytest.raises(ValueError, match="distinct"):
            build_knot_vector([0.5, 0.5], 0.0, 1.0)


class TestEvalBasis:
    def test_bernstein_midpoint(self):
        kv = build_knot_vector([], 0.0, 1.0)
        npt.assert_allclose(basis_row(kv, 0.5), [0.125, 0.375, 0.375, 0.125], atol=1e-12)

    def test_bernstein_everywhere(self):
        kv = build_knot_vector([], 0.0, 1.0)
        for x in np.linspace(0, 1, 23):
            npt.assert_allclose(basis_row(kv, x), bernstein_row(x), atol=1e-12)

    def test_clamped_ends(self):
        kv = build_knot_vector([0.3, 0.7], 0.0, 1.0)
        row_lo = basis_row(kv, 0.0)
        row_hi = basis_row(kv, 1.0)
        npt.assert_allclose(row_lo, [1, 0, 0, 0, 0, 0], atol=1e-12)
        npt.assert_allclose(row_hi, [0, 0, 0, 0, 0, 1], atol=1e-12)

    def test_partition_of_unity_random(self):
        rng = np.random.default_rng(20240817)
        for _ in range(1000):
            kv = random_knot_vector(rng)
            x = rng.uniform(kv.lo, kv.hi)
            row = basis_row(kv, x)
            assert (row >= -1e-12).all()
            assert abs(row.sum() - 1.0) < 1e-9

    def test_local_support(self):
        rng = np.random.default_rng(7)
        kv = build_knot_vector([0.2, 0.4, 0.6, 0.8], 0.0, 1.0)
        t = kv.augmented
        for _ in range(200):
            x = rng.uniform(0, 1)
            row = basis_row(kv, x)
            for k in range(kv.basis_count):
                if not (t[k] <= x <= t[k + 4]):
                    assert row[k] == 0.0

    def test_matrix_matches_scalar(self):
        rng = np.random.default_rng(3)
        kv = build_knot_vector([1.0, 2.5], 0.0, 4.0)
        xs = rng.uniform(-2, 6, 50)  # includes out-of-domain points
        mat = eval_basis_matrix(kv, xs)
        for i, x in enumerate(xs):
            npt.assert_allclose(mat[i], basis_row(kv, x), atol=1e-12)


class TestExtrapolation:
    @pytest.mark.parametrize(
        "interior, lo, hi",
        [
            pytest.param([], 0.0, 1.0, id="interior0"),
            pytest.param([0.3], 0.0, 1.0, id="interior1"),
            pytest.param([0.25, 0.5, 0.75], 0.0, 1.0, id="interior2"),
            # Knots on an integer grid, as a discrete feature produces them.
            pytest.param([1.0, 2.0, 3.0, 4.0, 5.0, 6.0], 0.0, 7.0, id="integer_grid"),
        ],
    )
    def test_value_and_slope_continuous_at_bounds(self, interior, lo, hi):
        kv = build_knot_vector(interior, lo, hi)
        n = kv.basis_count
        val_lo, val_hi = eval_basis_matrix(kv, [lo, hi])
        npt.assert_array_equal(val_lo, np.eye(n)[0])
        npt.assert_array_equal(val_hi, np.eye(n)[n - 1])
        # The design extends with the closed-form slopes; the recurrence one
        # degree lower derives them independently.
        npt.assert_allclose(
            recurrence_end_slopes(kv), closed_form_end_slopes(kv), rtol=1e-12, atol=0.0
        )
        h = 1e-6
        for bound in (lo, hi):
            inside = basis_row(kv, bound)
            outside = basis_row(kv, bound - h if bound == lo else bound + h)
            npt.assert_allclose(outside, inside, atol=1e-4)
            # one-sided slopes on both sides of the boundary agree
            if bound == lo:
                slope_out = (inside - basis_row(kv, lo - h)) / h
                slope_in = (basis_row(kv, lo + h) - inside) / h
            else:
                slope_out = (basis_row(kv, hi + h) - inside) / h
                slope_in = (inside - basis_row(kv, hi - h)) / h
            npt.assert_allclose(slope_out, slope_in, atol=1e-4)

    @pytest.mark.parametrize("seed", range(8))
    def test_recurrence_slopes_match_closed_form(self, seed):
        # Random knots, some near an end. Here the recurrence's end values
        # need not be exactly 0 and 1, and a narrow end span curves too fast
        # for the finite differences above, so only the slopes are compared.
        kv = random_knot_vector(np.random.default_rng(seed))
        npt.assert_allclose(
            recurrence_end_slopes(kv), closed_form_end_slopes(kv), rtol=1e-12, atol=0.0
        )

    def test_ends_are_exact_unit_rows(self):
        # A point exactly at lo or hi takes the closed form, so the
        # recurrence cannot miss the exact 0 and 1 in the last bit (seed 2
        # gave 0.9999999999999999 at hi when it did).
        for seed in range(2000):
            kv = random_knot_vector(np.random.default_rng(seed))
            unit = np.eye(kv.basis_count)[[0, -1]]
            assert eval_basis_matrix(kv, [kv.lo, kv.hi]).tobytes() == unit.tobytes(), seed

    def test_linear_outside(self):
        kv = build_knot_vector([0.4], 0.0, 1.0)
        for a, b in ((-3.0, -1.0), (2.0, 5.0)):
            ra, rb = basis_row(kv, a), basis_row(kv, b)
            mid = basis_row(kv, (a + b) / 2)
            npt.assert_allclose(mid, (ra + rb) / 2, atol=1e-12)

    def test_partition_of_unity_survives_extension(self):
        kv = build_knot_vector([0.2, 0.9], 0.0, 1.0)
        for x in (-10.0, -0.5, 1.5, 25.0):
            assert abs(basis_row(kv, x).sum() - 1.0) < 1e-9


class TestDesignMatrix:
    def test_intercept_and_clamped_row(self):
        kv = build_knot_vector([], 0.0, 1.0)
        mat = design_matrix(np.array([[0.0], [1.0]]), [kv])
        npt.assert_allclose(mat[0], [1, 1, 0, 0, 0], atol=1e-12)
        npt.assert_allclose(mat[1], [1, 0, 0, 0, 1], atol=1e-12)

    def test_column_count(self):
        kvs = [build_knot_vector([], 0.0, 1.0), build_knot_vector([0.5], 0.0, 1.0)]
        X = np.random.default_rng(0).uniform(0, 1, (7, 2))
        assert design_matrix(X, kvs).shape == (7, 1 + 4 + 5)

    def test_dimension_mismatch(self):
        kv = build_knot_vector([], 0.0, 1.0)
        with pytest.raises(ValueError, match="columns"):
            design_matrix(np.zeros((3, 2)), [kv])

    @pytest.mark.parametrize("case", list(ORACLE_CASES))
    def test_matches_dense_oracle_bit_for_bit(self, case):
        bases, X = ORACLE_CASES[case]
        expected = oracle_design(X, bases)
        got = design_matrix(X, bases)
        assert got.shape == expected.shape
        assert got.tobytes() == expected.tobytes()
        for j, kv in enumerate(bases):
            assert eval_basis_matrix(kv, X[:, j]).tobytes() == oracle_basis(kv, X[:, j]).tobytes()


class TestPenaltyBlock:
    def test_smallest_block(self):
        pb = penalty_block(3)
        npt.assert_array_equal(pb, [[1, -2, 1], [-2, 4, -2], [1, -2, 1]])

    def test_affine_sequences_are_free(self):
        pb = penalty_block(6)
        for seq in (np.ones(6), np.arange(6.0), 3.0 - 0.5 * np.arange(6)):
            assert seq @ pb @ seq == pytest.approx(0.0, abs=1e-12)

    def test_curved_sequences_pay(self):
        pb = penalty_block(5)
        seq = np.array([0.0, 0.0, 1.0, 0.0, 0.0])
        assert seq @ pb @ seq > 0.0

    def test_rank(self):
        assert np.linalg.matrix_rank(penalty_block(4)) == 2

    def test_symmetric_psd(self):
        rng = np.random.default_rng(11)
        for size in (3, 4, 7, 12):
            m = penalty_block(size)
            npt.assert_array_equal(m, m.T)
            eigs = np.linalg.eigvalsh(m)
            assert eigs.min() >= -1e-10
            v = rng.normal(size=size)
            assert v @ m @ v >= -1e-10

    def test_too_small(self):
        with pytest.raises(ValueError, match="at least 3"):
            penalty_block(2)
