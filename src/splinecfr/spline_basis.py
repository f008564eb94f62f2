"""Clamped cubic B-spline bases, design matrices, and difference penalties.

Basis values inside the training domain come from the Cox-de Boor recurrence.
Outside [lo, hi] every basis function is continued linearly from the nearest
boundary (boundary value plus one-sided derivative), so spline terms
extrapolate as straight lines instead of dropping to zero. The boundary
derivative comes from the same recurrence one degree lower.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np

DEGREE = 3
# Two candidate knot positions closer than this (in raw feature units) are
# treated as the same knot.
KNOT_DEDUP_TOL = 1e-12


@dataclass(frozen=True)
class KnotVector:
    """Clamped cubic knot vector on [lo, hi].

    ``interior`` holds the strictly interior knots, sorted and pairwise
    distinct. Construct through :func:`build_knot_vector`, which validates.
    """

    interior: tuple[float, ...]
    lo: float
    hi: float
    degree: int = DEGREE

    @property
    def augmented(self) -> np.ndarray:
        """Full knot vector with degree+1 copies of each boundary."""
        return _augmented(self)

    @property
    def basis_count(self) -> int:
        return len(self.interior) + self.degree + 1


@lru_cache(maxsize=None)
def _augmented(kv: KnotVector) -> np.ndarray:
    ends = kv.degree + 1
    t = np.array((kv.lo,) * ends + kv.interior + (kv.hi,) * ends, dtype=float)
    t.setflags(write=False)
    return t


def build_knot_vector(interior: Iterable[float], lo: float, hi: float) -> KnotVector:
    """Validate and build a clamped cubic knot vector.

    Raises ValueError if the domain is degenerate (lo >= hi), if any interior
    knot falls outside the open interval (lo, hi), or if the interior knots
    are not sorted and pairwise distinct.
    """
    lo = float(lo)
    hi = float(hi)
    if not lo < hi:
        raise ValueError(f"degenerate domain: lo={lo!r} must be strictly below hi={hi!r}")
    vals = tuple(float(v) for v in interior)
    for idx, v in enumerate(vals):
        if not lo < v < hi:
            raise ValueError(
                f"interior knot {idx} ({v!r}) lies outside the open interval ({lo!r}, {hi!r})"
            )
    if any(b <= a for a, b in zip(vals, vals[1:])):
        raise ValueError("interior knots must be sorted and pairwise distinct")
    return KnotVector(vals, lo, hi)


def _rows_in_domain(t: np.ndarray, degree: int, x: np.ndarray) -> np.ndarray:
    """Vectorized Cox-de Boor: every basis value of ``degree`` over knot
    vector ``t``, one row per point of ``x`` inside [t[0], t[-1]]."""
    p = degree
    count = len(t) - p - 1
    n = x.shape[0]
    # Clip to the last non-empty span: a degree below the knot vector's
    # multiplicity would otherwise land on a zero-width span at t[-1].
    last = int(np.searchsorted(t, t[-1], side="left")) - 1
    mu = np.clip(np.searchsorted(t, x, side="right") - 1, p, last)
    vals = np.zeros((n, p + 1))
    vals[:, 0] = 1.0
    left = np.zeros((n, p + 1))
    right = np.zeros((n, p + 1))
    for j in range(1, p + 1):
        left[:, j] = x - t[mu + 1 - j]
        right[:, j] = t[mu + j] - x
        saved = np.zeros(n)
        for r in range(j):
            den = right[:, r + 1] + left[:, j - r]
            temp = np.divide(vals[:, r], den, out=np.zeros(n), where=den != 0.0)
            vals[:, r] = saved + right[:, r + 1] * temp
            saved = left[:, j - r] * temp
        vals[:, j] = saved
    out = np.zeros((n, count))
    cols = mu[:, None] - p + np.arange(p + 1)[None, :]
    np.put_along_axis(out, cols, vals, axis=1)
    return out


@lru_cache(maxsize=None)
def _boundary_extension(kv: KnotVector):
    """Cached (value row, derivative row) at each boundary, for extrapolation.

    The derivative of basis function i is p*N_i/a - p*N_{i+1}/b over the
    degree p-1 basis N, with a = t[i+p] - t[i] and b = t[i+p+1] - t[i+1]
    (a term with a zero-width support drops out).
    """
    t = kv.augmented
    p = kv.degree
    ends = np.array([kv.lo, kv.hi])
    val = _rows_in_domain(t, p, ends)
    lower = _rows_in_domain(t, p - 1, ends)
    a = t[p:-1] - t[: -p - 1]
    b = t[p + 1 :] - t[1:-p]
    der = np.divide(p * lower[:, :-1], a, out=np.zeros_like(val), where=a > 0.0)
    der -= np.divide(p * lower[:, 1:], b, out=np.zeros_like(val), where=b > 0.0)
    val.setflags(write=False)
    der.setflags(write=False)
    return (val[0], der[0]), (val[1], der[1])


def eval_basis_matrix(kv: KnotVector, x) -> np.ndarray:
    """Basis values for an array of points, one row per point.

    Inside [lo, hi] rows are non-negative and sum to one. Outside, each basis
    function continues linearly from the nearest boundary; the rows still sum
    to one because the boundary derivatives sum to zero.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    out = np.zeros((x.shape[0], kv.basis_count))
    below = x < kv.lo
    above = x > kv.hi
    inside = ~(below | above)
    if inside.any():
        out[inside] = _rows_in_domain(kv.augmented, kv.degree, x[inside])
    if below.any():
        val, der = _boundary_extension(kv)[0]
        out[below] = val + (x[below] - kv.lo)[:, None] * der
    if above.any():
        val, der = _boundary_extension(kv)[1]
        out[above] = val + (x[above] - kv.hi)[:, None] * der
    return out


def design_matrix(X, bases: Sequence[KnotVector]) -> np.ndarray:
    """Stack an intercept column and one basis block per variable.

    ``X`` must have exactly one column per knot vector in ``bases``. The
    result has 1 + sum(basis_count) columns.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise ValueError(f"expected a 2-D feature matrix, got ndim={X.ndim}")
    if X.shape[1] != len(bases):
        raise ValueError(
            f"feature matrix has {X.shape[1]} columns but {len(bases)} knot vectors were given"
        )
    n = X.shape[0]
    blocks = [np.ones((n, 1))]
    for j, kv in enumerate(bases):
        blocks.append(eval_basis_matrix(kv, X[:, j]))
    return np.hstack(blocks)


@lru_cache(maxsize=None)
def penalty_block(basis_count: int) -> np.ndarray:
    """P = D'D where D takes second differences of the coefficients.

    Affine coefficient sequences pay zero penalty; anything with curvature
    pays a positive amount. Needs at least three coefficients. The matrix is
    cached per size and read-only.
    """
    if basis_count < 3:
        raise ValueError(
            f"second-difference penalty needs at least 3 coefficients, got {basis_count}"
        )
    d = np.zeros((basis_count - 2, basis_count))
    idx = np.arange(basis_count - 2)
    d[idx, idx] = 1.0
    d[idx, idx + 1] = -2.0
    d[idx, idx + 2] = 1.0
    m = d.T @ d
    m.setflags(write=False)
    return m
