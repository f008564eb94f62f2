"""Clamped cubic B-spline bases, design matrices, and difference penalties.

A design covers only its knot ends' box: every point lies in [lo, hi] of its
variable. Beyond an end a spline term is the line along its end tangent,
which ``CFracModel`` adds from the closed-form slopes in ``LayerBases``: only
the two outermost basis functions have one, -p/w and +p/w (w the end span).

Designs are assembled from local support. At any point at most degree+1 = 4
basis functions of a variable are nonzero: those of the knot span ``mu`` that
holds the point, columns ``mu-3 .. mu`` of the variable's block. For a point
strictly inside (lo, hi) the span follows from how many interior knots lie at
or below it, counted for all variables of a call at once against a padded
knot table, and ``_span_values`` runs the Cox-de Boor recurrence there,
returning the values of all points as one (degree+1, N) array.
``design_matrix`` allocates the final matrix once and, one block of rows at
a time with all variables together, writes every in-box point's four cells
with one assignment, through a view of the matrix whose row i holds the four
cells from flat index i. A point at an end writes the 1 of its exact unit
row, in its block's first or last column. A point beyond an end, infinite or
NaN raises ValueError naming its row and column; only the points at or
beyond an end, and the NaNs among the rest, are tested for it. Every other
entry stays zero, as a dense evaluation of every basis function leaves it.

The module keeps no state between calls except the read-only penalty
matrices, cached per size. A knot vector caches its own read-only augmented
array, and a ``LayerBases`` (one layer's knot vectors) holds the tables
``design_matrix`` reads. ``design_matrix`` takes only a ``LayerBases``, so
those tables are built once per layer, never per call. Both are freed with
the models that hold them, so nothing keyed on a knot vector outlives them.

Only ``cfr_core`` calls ``design_matrix``: ``fit`` and predict pass a
C-contiguous float64 ``X`` with one column per knot vector and an ``out``
that is None or a C-contiguous float64 array of the design's shape, so
nothing here checks them again; the points themselves are checked, as above.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterable

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


def _frozen(values) -> np.ndarray:
    a = np.asarray(values)
    a.setflags(write=False)
    return a


class LayerBases(tuple):
    """One layer's knot vectors, one per variable in design column order.

    It iterates as the tuple of its ``KnotVector``s and holds read-only
    tables, built here once: the design ``width``; ``knots``, the augmented
    knot vectors back to back; ``interior``, (kmax, m) with variable j's
    interior knots in column j, then +inf; each variable's ``first_col`` and
    the index of its first span in ``knots``, ``span_offset``. Entry 2j +
    side of ``edge``, ``slope`` and ``end_col`` is variable j at lo (side 0)
    or hi: the end, the slope p/w of the two outermost basis functions (w
    the end span's width), and the first of their two columns. They are
    built with the tuple, not on first use: a table allocated between two
    designs would sit in the space the first one freed, and the next design
    could not reuse it.
    """

    def __new__(cls, bases: Iterable[KnotVector]):
        self = super().__new__(cls, bases)
        p, t = DEGREE, [kv.augmented for kv in self]
        counts = np.array([kv.basis_count for kv in self], dtype=np.intp)
        self.width = 1 + int(counts.sum())
        self.knots = _frozen(np.concatenate([np.empty(0)] + t))
        interior = np.full((max([len(kv.interior) for kv in self] + [0]), len(self)), np.inf)
        for j, kv in enumerate(self):
            interior[: len(kv.interior), j] = kv.interior
        self.interior = _frozen(interior)
        self.first_col = _frozen(1 + np.cumsum(counts) - counts)
        self.span_offset = _frozen(np.cumsum([p] + [len(tj) for tj in t])[:-1])
        self.edge = _frozen([end for kv in self for end in (kv.lo, kv.hi)])
        self.slope = _frozen([p / w for tj in t for w in (tj[p + 1] - tj[0], tj[-1] - tj[-p - 2])])
        end_col = np.repeat(self.first_col, 2)
        end_col[1::2] += counts - 2
        self.end_col = _frozen(end_col)
        return self


def _span_values(t: np.ndarray, x: np.ndarray, mu: np.ndarray) -> np.ndarray:
    """Vectorized Cox-de Boor: the DEGREE+1 basis values that can be nonzero
    at each point ``x[i]`` of span ``mu[i]``.

    Row k of the returned (DEGREE+1, N) array holds, for every point, the
    value of basis function ``mu - DEGREE + k``. ``t`` may hold several knot
    vectors back to back, with ``mu`` indexing into the whole array. Every
    denominator is positive: it is the distance from x to a knot at or above
    t[mu+1] plus the distance to a knot at or below t[mu], and the span is
    not empty.
    """
    p = DEGREE
    base = mu - p
    vals = np.empty((p + 1, x.shape[0]))
    vals[0] = 1.0
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
        vals[j] = saved
    return vals


def _raise_outside(x: np.ndarray, r0: int, lo: np.ndarray, hi: np.ndarray) -> None:
    """Name the first cell of the block ``x``, rows from ``r0``, outside [lo, hi]."""
    i, j = np.argwhere(~((x >= lo) & (x <= hi)))[0]
    v, ends = float(x[i, j]), [float(lo[j]), float(hi[j])]
    what = f"{v!r} lies outside {ends}" if math.isfinite(v) else f"non-finite value {v!r}"
    raise ValueError(f"X row {r0 + i}, column {j}: {what}")


# Points (row, variable) per block of the design. All variables of a row
# are written together, so the scattered writes of one block stay inside a
# few MB of the design.
_BLOCK_POINTS = 20480


def design_matrix(X: np.ndarray, bases: LayerBases, out: np.ndarray | None = None) -> np.ndarray:
    """An intercept column followed by one basis block per variable.

    ``X`` holds one column per knot vector of ``bases``, whose tables are
    read as they are. The result has 1 + sum(basis_count) columns and is
    allocated once, or is ``out`` cleared and written over. Each point must
    lie in its variable's [lo, hi] and writes only the degree+1 values of its
    span in each block, its exact unit row at an end. A cell beyond an end,
    infinite or NaN raises ValueError naming its row and column.
    """
    n, m = X.shape
    width = bases.width
    if out is None:
        out = np.zeros((n, width))
    else:
        out.fill(0.0)
    out[:, 0] = 1.0
    if n == 0 or m == 0:
        return out
    lo, hi = bases.edge[0::2], bases.edge[1::2]
    # The interior knots at or below each point, counted for the whole call
    # before any block's temporaries exist. A point strictly inside (lo, hi)
    # has its first value in column first_col + count, from the knot span
    # span_offset + count: searchsorted(side="right") - 1, with no clip.
    count = np.zeros((n, m), dtype=np.min_scalar_type(bases.interior.shape[0]))
    for knot in bases.interior:
        count += X >= knot
    rows = max(1, _BLOCK_POINTS // m)
    flat = out.reshape(-1)
    # Row i of this view of ``out`` is flat[i : i + DEGREE + 1], the cells of
    # a span whose first column is at flat index i. Built directly: numpy's
    # sliding_window_view gives the same view for about 10 us a call, against
    # about 70 us for a whole one-row design of 81 variables.
    window = np.ndarray((flat.size - DEGREE, DEGREE + 1), flat.dtype, flat, 0, flat.strides * 2)
    for r0 in range(0, n, rows):
        x = X[r0 : r0 + rows]
        above = (x >= hi).ravel()
        ends = (x <= lo).ravel() | above
        if ends.any():
            at = np.flatnonzero(ends)
            side = above[at]
            row = 2 * (at % m) + side
            if (x.ravel()[at] != bases.edge[row]).any():
                _raise_outside(x, r0, lo, hi)
            # The unit row of the end: a 1 in the block's first or last column.
            flat[(r0 + at // m) * width + bases.end_col[row] + side] = 1.0
            del at, side, row  # freed before the in-box work
        within = np.flatnonzero(~ends)
        if within.size == 0:
            continue
        xin = x.ravel()[within]
        if np.isnan(xin).any():
            _raise_outside(x, r0, lo, hi)
        cnt = count[r0 : r0 + x.shape[0]]
        row_at = (np.arange(r0, r0 + x.shape[0]) * width)[:, None]
        pos = (row_at + bases.first_col + cnt).ravel()[within]
        vals = _span_values(bases.knots, xin, (cnt + bases.span_offset).ravel()[within])
        window[pos] = vals.T  # the point's DEGREE+1 cells in one write
    return out


@lru_cache(maxsize=None)
def penalty_block(basis_count: int) -> np.ndarray:
    """P = D'D where D takes second differences of the coefficients.

    Affine coefficient sequences pay zero penalty; anything with curvature
    pays a positive amount. Needs at least three coefficients. The matrix is
    cached per size and read-only.
    """
    d = np.zeros((basis_count - 2, basis_count))
    idx = np.arange(basis_count - 2)
    d[idx, idx] = 1.0
    d[idx, idx + 1] = -2.0
    d[idx, idx + 2] = 1.0
    m = d.T @ d
    m.setflags(write=False)
    return m
