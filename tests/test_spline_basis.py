"""Knot vectors, basis evaluation, design matrices, penalties."""

import math
import re

import numpy as np
import numpy.testing as npt
import pytest

from reference_model import closed_form_end_slopes, oracle_basis, oracle_design, recurrence_rows
from splinecfr.cfr_core import AdditiveSplineModel, CFracModel, LinearModel
from splinecfr.spline_basis import (
    _BLOCK_POINTS,
    DEGREE,
    KnotVector,
    LayerBases,
    build_knot_vector,
    design_matrix,
    penalty_block,
)


def eval_basis_matrix(kv, x):
    """One variable's basis block, one row per point."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    return design_matrix(x[:, None], LayerBases([kv]))[:, 1:]


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


def clip_to_ends(X, bases):
    """X with every cell moved onto its knot vector's [lo, hi]."""
    lo = np.array([kv.lo for kv in bases])
    hi = np.array([kv.hi for kv in bases])
    return np.clip(X, lo, hi)


def first_beyond(X, bases):
    """(row, column) of the first cell, row by row, outside its [lo, hi], or None."""
    for i, row in enumerate(X):
        for j, (v, kv) in enumerate(zip(row, bases)):
            if not kv.lo <= v <= kv.hi:
                return i, j
    return None


def spline_model(kv, coefficients):
    """A model whose one spline layer is the term on ``kv`` with intercept
    and ``coefficients``, read from its only feature."""
    layer = AdditiveSplineModel((0,), LayerBases([kv]), np.asarray(coefficients, dtype=float))
    linear = LinearModel(np.zeros(2))
    return CFracModel(1.0, (linear, layer), np.array([[kv.lo, kv.hi]]), training_target_max=1.0)


def spline_values(kv, coefficients, x):
    """The spline layer of :func:`spline_model` at the points x."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    return spline_model(kv, coefficients).layer_values(x[:, None])[1]


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

    def unsearched_across_blocks(ends, mixed):
        block_rows = _BLOCK_POINTS // 2
        n = block_rows + 2000
        width = ends.hi - ends.lo
        beyond = np.where(
            rng.random(n) < 0.5,
            ends.lo - rng.uniform(0, width, n),
            ends.hi + rng.uniform(0, width, n),
        )
        beyond[rng.choice(n, 200, replace=False)] = rng.choice([ends.lo, ends.hi], 200)
        across = spread(mixed, n)
        across[block_rows:] = mixed.hi + rng.uniform(0, 1, n - block_rows)
        across[rng.choice(block_rows, 50, replace=False)] = mixed.lo
        return np.column_stack([beyond, across])

    def dense_next_to_bare(bare, dense):
        # A 0-knot variable beside one with many: the padded knot table is
        # all +inf in the first column. The first block of rows lies at or
        # beyond the ends, so the knots are counted from the second block,
        # which hits every knot and end of both variables.
        block_rows = _BLOCK_POINTS // 2
        n = block_rows + 3000
        X = np.column_stack([spread(bare, n), spread(dense, n)])
        for j, kv in enumerate((bare, dense)):
            width = kv.hi - kv.lo
            X[:block_rows, j] = np.where(
                rng.random(block_rows) < 0.5,
                kv.lo - rng.uniform(0, width, block_rows),
                kv.hi + rng.uniform(0, width, block_rows),
            )
            hits = [kv.lo, kv.hi, *kv.interior]
            at = block_rows + rng.choice(n - block_rows, 3 * len(hits), replace=False)
            X[at, j] = np.repeat(hits, 3)
        return X

    def strictly_inside(kv, n):
        x = rng.uniform(kv.lo, kv.hi, n)
        x[rng.choice(n, len(kv.interior), replace=False)] = kv.interior
        assert ((x > kv.lo) & (x < kv.hi)).all()
        return x

    ties = rng.integers(-2, 10, 300).astype(float)
    dense = build_knot_vector(np.unique(rng.uniform(0.0, 10.0, 37)), 0.0, 10.0)
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
        # More points than one block, with one variable at or beyond its ends
        # in every row, so it is never searched. The other spans its box in
        # the first block only, so the last block has no in-box point.
        "unsearched_across_blocks": ([grid, rand2], unsearched_across_blocks(grid, rand2)),
        "dense_next_to_bare": ([plain, dense], dense_next_to_bare(plain, dense)),
        # More points than one block, none at or beyond an end: no block
        # writes out of its box, and every point is searched.
        "strictly_inside": (
            [grid, rand2],
            np.column_stack([strictly_inside(grid, 12000), strictly_inside(rand2, 12000)]),
        ),
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
        xs = np.concatenate([rng.uniform(0, 4, 50), [0.0, 1.0, 2.5, 4.0]])  # ends and knots
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
        # The line beyond an end takes the closed-form slopes; the recurrence
        # one degree lower derives them independently.
        npt.assert_allclose(
            recurrence_end_slopes(kv), closed_form_end_slopes(kv), rtol=1e-12, atol=0.0
        )
        # Rows just beyond an end come from the oracle (a design refuses
        # them), rows at and inside it from the design.
        h = 1e-6
        for bound, out in ((lo, -h), (hi, h)):
            with pytest.raises(ValueError, match="lies outside"):
                basis_row(kv, bound + out)
            at, inside = eval_basis_matrix(kv, [bound, bound - out])
            beyond = oracle_basis(kv, bound + out)[0]
            npt.assert_allclose(beyond, at, atol=1e-4)
            # one-sided slopes on both sides of the boundary agree
            npt.assert_allclose((beyond - at) / out, (at - inside) / out, atol=1e-4)
        # A model's spline layer, which adds the line beyond the box itself,
        # is as smooth across the ends.
        c = np.random.default_rng(n).normal(size=n + 1)
        for bound, out in ((lo, -h), (hi, h)):
            beyond, at, inside = spline_values(kv, c, [bound + out, bound, bound - out])
            slopes = (beyond - at) / out, (at - inside) / out
            npt.assert_allclose(*slopes, atol=1e-4 * np.abs(c).sum())

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
        c = np.random.default_rng(4).normal(size=kv.basis_count + 1)
        for a, b in ((-3.0, -1.0), (2.0, 5.0)):
            for x in (a, b, (a + b) / 2):
                with pytest.raises(ValueError, match="lies outside"):
                    basis_row(kv, x)
            ra, mid, rb = oracle_basis(kv, [a, (a + b) / 2, b])
            npt.assert_allclose(mid, (ra + rb) / 2, atol=1e-12)
            va, vmid, vb = spline_values(kv, c, [a, (a + b) / 2, b])
            npt.assert_allclose(vmid, (va + vb) / 2, atol=1e-12 * np.abs(c).sum() * abs(b))

    def test_partition_of_unity_survives_extension(self):
        kv = build_knot_vector([0.2, 0.9], 0.0, 1.0)
        xs = [-10.0, -0.5, 1.5, 25.0]
        for x in xs:
            with pytest.raises(ValueError, match="lies outside"):
                basis_row(kv, x)
        assert (np.abs(oracle_basis(kv, xs).sum(axis=1) - 1.0) < 1e-9).all()
        # Equal coefficients make a flat term, so its line beyond the box is flat too.
        flat = spline_values(kv, np.r_[0.0, np.ones(kv.basis_count)], xs)
        assert (np.abs(flat - 1.0) < 1e-9).all()


class TestDesignMatrix:
    def test_intercept_and_clamped_row(self):
        kv = build_knot_vector([], 0.0, 1.0)
        mat = design_matrix(np.array([[0.0], [1.0]]), LayerBases([kv]))
        npt.assert_allclose(mat[0], [1, 1, 0, 0, 0], atol=1e-12)
        npt.assert_allclose(mat[1], [1, 0, 0, 0, 1], atol=1e-12)

    def test_column_count(self):
        kvs = [build_knot_vector([], 0.0, 1.0), build_knot_vector([0.5], 0.0, 1.0)]
        X = np.random.default_rng(0).uniform(0, 1, (7, 2))
        assert design_matrix(X, LayerBases(kvs)).shape == (7, 1 + 4 + 5)

    def test_dimension_mismatch(self):
        kv = build_knot_vector([], 0.0, 1.0)
        with pytest.raises(ValueError, match="columns"):
            design_matrix(np.zeros((3, 2)), LayerBases([kv]))

    @pytest.mark.parametrize("wrap", [list, tuple])
    def test_bases_must_be_layer_bases(self, wrap):
        kv = build_knot_vector([0.5], 0.0, 1.0)
        with pytest.raises(TypeError, match="LayerBases"):
            design_matrix(np.zeros((3, 1)), wrap([kv]))

    @pytest.mark.parametrize(
        "out", [np.zeros((3, 6)), np.zeros((3, 5), dtype=np.float32), np.zeros((5, 3)).T]
    )
    def test_out_must_be_a_contiguous_design(self, out):
        kv = build_knot_vector([], 0.0, 1.0)
        with pytest.raises(ValueError, match=r"out must be a C-contiguous float64 array"):
            design_matrix(np.zeros((3, 1)), LayerBases([kv]), out=out)

    @pytest.mark.parametrize("row", [0, 5, _BLOCK_POINTS // 2 + 7])
    @pytest.mark.parametrize("column", [0, 1])
    def test_nan_names_its_row_and_column(self, row, column):
        # NaN, the infinities, the float just below lo and a point above hi.
        kvs = [build_knot_vector([0.5], 0.0, 1.0), build_knot_vector([], -1.0, 1.0)]
        lo, hi = kvs[column].lo, kvs[column].hi
        for value in (np.nan, np.inf, -np.inf, np.nextafter(lo, -np.inf), hi + 0.25):
            X = np.random.default_rng(1).uniform(0.0, 1.0, (_BLOCK_POINTS // 2 + 9, 2))
            X[row, column] = value
            if np.isfinite(value):
                message = re.escape(f"{float(value)!r} lies outside [{lo!r}, {hi!r}]")
            else:
                message = f"non-finite value {value!r}"
            with pytest.raises(ValueError, match=rf"^X row {row}, column {column}: {message}$"):
                design_matrix(X, LayerBases(kvs))

    @pytest.mark.parametrize("case", list(ORACLE_CASES))
    def test_matches_dense_oracle_bit_for_bit(self, case):
        # A cell beyond an end is moved onto it, so those cells take the
        # end's unit row.
        bases, X = ORACLE_CASES[case]
        X = clip_to_ends(X, bases)
        expected = oracle_design(X, bases)
        got = design_matrix(X, LayerBases(bases))
        assert got.shape == expected.shape
        assert got.tobytes() == expected.tobytes()
        # A reused buffer is cleared before it is written.
        out = np.full(expected.shape, np.nan)
        assert design_matrix(X, LayerBases(bases), out=out) is out
        assert out.tobytes() == expected.tobytes()
        for j, kv in enumerate(bases):
            assert eval_basis_matrix(kv, X[:, j]).tobytes() == oracle_basis(kv, X[:, j]).tobytes()

    @pytest.mark.parametrize(
        "case", [case for case, (b, X) in ORACLE_CASES.items() if first_beyond(X, b)]
    )
    def test_refuses_the_first_point_beyond_an_end(self, case):
        bases, X = ORACLE_CASES[case]
        i, j = first_beyond(X, bases)
        value = re.escape(repr(float(X[i, j])))
        with pytest.raises(ValueError, match=rf"^X row {i}, column {j}: {value} lies outside"):
            design_matrix(X, LayerBases(bases))


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
