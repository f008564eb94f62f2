"""Clamped cubic B-spline bases, design matrices, and difference penalties.

Basis values strictly inside (lo, hi) come from the Cox-de Boor recurrence.
At and beyond lo and hi every basis function is continued linearly from the
nearest boundary (boundary value plus one-sided derivative), so spline terms
extrapolate as straight lines instead of dropping to zero. The boundary
values and derivatives have a closed form at a clamped end: the outermost
basis function is 1 there, and only the two outermost functions have a
slope, -p/w and +p/w for degree p and end span width w.

Designs are assembled from local support. At any point at most degree+1 = 4
basis functions of a variable are nonzero: those of the knot span ``mu`` that
holds the point, columns ``mu-3 .. mu`` of the variable's block. One kernel
(``_span_index`` and ``_span_values``) finds the span and those four values.
``design_matrix`` allocates the final matrix once and, one block of rows at a
time with all variables together, writes each point's four values into it.
A point x at or outside an end writes two cells of its end span from that
closed form, with slope s = p/w and step = x - end: at or below lo the first
two take 1 - s*step and s*step, at or above hi the last two take -s*step and
1 + s*step, so a point at an end gets an exact unit row. Every other entry
stays zero, exactly as a dense evaluation of every basis function would
leave it.

The module keeps no state between calls except the read-only penalty
matrices, cached per size. A knot vector caches its own read-only augmented
array, and each ``design_matrix`` call computes the end slopes of its
variables from their knots, so nothing keyed on a knot vector outlives the
models that use it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
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

    @cached_property
    def augmented(self) -> np.ndarray:
        """Full knot vector with DEGREE+1 copies of each boundary (read-only)."""
        ends = DEGREE + 1
        t = np.array((self.lo,) * ends + self.interior + (self.hi,) * ends)
        t.setflags(write=False)
        return t

    @cached_property
    def basis_count(self) -> int:
        return len(self.interior) + DEGREE + 1


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


def _span_index(knots: Sequence[np.ndarray], X: np.ndarray) -> np.ndarray:
    """Index mu of the knot span [t[mu], t[mu+1]] of each point, one row per variable.

    ``knots[j]`` is the clamped knot vector t of column j of ``X``. Points
    below t[0] land on the first span and points at or above t[-1] on the
    last non-empty one. The spans of all variables are clipped in one call,
    since one clip per variable cost more than its search.
    """
    mu = np.empty((len(knots), X.shape[0]), dtype=np.intp)
    for j, t in enumerate(knots):
        mu[j] = t.searchsorted(X[:, j], side="right")
    mu -= 1
    last = np.array([t.size - DEGREE - 2 for t in knots])
    return np.clip(mu, DEGREE, last[:, None], out=mu)


def _span_values(t: np.ndarray, x: np.ndarray, mu: np.ndarray) -> list[np.ndarray]:
    """Vectorized Cox-de Boor: the DEGREE+1 basis values that can be nonzero
    at each point ``x[i]`` of span ``mu[i]`` (see :func:`_span_index`).

    Entry k of the returned list holds, for every point, the value of basis
    function ``mu - DEGREE + k``. ``t`` may hold several knot vectors back to
    back, with ``mu`` indexing into the whole array. Every denominator is
    positive: it is the distance from x to a knot at or above t[mu+1] plus
    the distance to a knot at or below t[mu], and the span is not empty.
    """
    p = DEGREE
    base = mu - p
    vals = [np.ones(x.shape[0])]
    left = [None]
    right = [None]
    for j in range(1, p + 1):
        # t[mu + 1 - j] and t[mu + j], gathered through offset views.
        left.append(x - t[p + 1 - j :][base])
        right.append(t[p + j :][base] - x)
        saved = 0.0
        for r in range(j):
            temp = vals[r] / (right[r + 1] + left[j - r])
            vals[r] = saved + right[r + 1] * temp
            saved = left[j - r] * temp
        vals.append(saved)
    return vals


# Points (row, variable) per block of the design. All variables of a row
# are written together, so the scattered writes of one block stay inside a
# few MB of the design.
_BLOCK_POINTS = 20480


def design_matrix(X, bases: Sequence[KnotVector]) -> np.ndarray:
    """An intercept column followed by one basis block per variable.

    ``X`` must have exactly one column per knot vector in ``bases``. The
    result has 1 + sum(basis_count) columns and is allocated once; each
    point writes only the degree+1 values of its span in each block. A point
    at or outside an end writes the values at the nearest boundary plus its
    distance to it times the boundary derivative: two cells of that end span.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise ValueError(f"expected a 2-D feature matrix, got ndim={X.ndim}")
    if X.shape[1] != len(bases):
        raise ValueError(
            f"feature matrix has {X.shape[1]} columns but {len(bases)} knot vectors were given"
        )
    n, m = X.shape
    out = np.zeros((n, 1 + sum(kv.basis_count for kv in bases)))
    out[:, 0] = 1.0
    if n == 0 or m == 0:
        return out
    p = DEGREE
    knots = [kv.augmented for kv in bases]
    t = np.concatenate(knots)
    edge = np.array([(kv.lo, kv.hi) for kv in bases])
    lo, hi = edge[:, 0], edge[:, 1]
    block_col = 1 + np.cumsum([0] + [kv.basis_count for kv in bases[:-1]])
    knot_start = np.cumsum([0] + [len(tj) for tj in knots[:-1]])
    # Column of each point's first value, one row per variable. The span
    # index of a point into ``t`` is its column plus ``to_knot``.
    first = _span_index(knots, X)
    first += (block_col - p)[:, None]
    to_knot = knot_start - block_col + p
    # Entry 2j + side is variable j at lo (side 0) or hi: the end, and the
    # slope p/w of its two outermost basis functions, w the end span's width.
    edge = edge.ravel()
    slope = np.ravel([(p / (tj[p + 1] - tj[0]), p / (tj[-1] - tj[-p - 2])) for tj in knots])
    width = out.shape[1]
    flat = out.reshape(-1)
    rows = max(1, _BLOCK_POINTS // m)
    for r0 in range(0, n, rows):
        x = X[r0 : r0 + rows]
        col = first[:, r0 : r0 + x.shape[0]].T
        pos = ((np.arange(r0, r0 + x.shape[0]) * width)[:, None] + col).ravel()
        above = (x >= hi).ravel()
        outside = (x <= lo).ravel() | above
        if outside.any():
            beyond = np.flatnonzero(outside)
            side = above[beyond]
            row = 2 * (beyond % m) + side
            rise = slope[row] * (x.ravel()[beyond] - edge[row])
            # Below lo the span's first two cells take (1 - rise, rise), above
            # hi its last two take (-rise, 1 + rise); the other two stay zero.
            at = pos[beyond] + (p - 1) * side
            flat[at] = (1.0 - side) - rise
            flat[at + 1] = side + rise
            within = np.flatnonzero(~outside)
            pos = pos[within]
        else:
            within = slice(None)
        span = (col + to_knot).ravel()[within]
        vals = _span_values(t, x.ravel()[within], span)
        for k in range(p + 1):
            flat[pos + k] = vals[k]
    return out


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
