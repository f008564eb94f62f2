"""Continued-fraction regression with additive penalized-spline layers.

The model is a simple continued fraction

    f(x) = norm * ( g_0(x) - C_0 + 1 / ( g_1(x) - C_1 + 1 / ( ... + 1/g_d(x) )))

where g_0 is linear in the features and every deeper g_i is an additive
cubic-spline model. A layer is its additive model g_i (``LinearModel`` or
``AdditiveSplineModel``) carrying its offset C_i as ``offset``. Layers are
fit one depth at a time: after fitting g_i, its residuals are shifted
positive by C_i and inverted to become the next layer's training target. The
deepest layer's offset is dropped at evaluation time (see
``literal_final_offset`` to keep it). ``fit`` grows the model it returns one
layer per depth and scores each depth with that model's ``_fold``, the one
fold for training values and predictions alike.

Spline layer values are computed once per distinct full feature row, in
``fit`` and ``predict`` alike, and gathered back to every row that repeats
it; the linear layer is computed on every row as it is. Each is one row-wise
product whose summation order is fixed per row (``_row_dot``), so a row's
prediction does not depend on the batch it is predicted in.

Beyond an end of the training box every spline term is a straight line, so
a spline layer's value at a row outside the box is its value at the row
clipped to the box plus one boundary slope per feature (``_end_slopes``)
times the distance to the box. This is the one place that line is computed:
``design_matrix`` refuses a point beyond a knot end. ``predict`` therefore
builds spline designs for the distinct rows inside the box and for the
distinct clipped copies of the rows outside it: rows that clip to the same
point share one design row. Every batch takes this one path, and a model
without a spline layer takes no box pass. Spline layers that read the same
variables in the same order (all of them, in a fitted model) share one pass
over those rows: each block of rows is gathered from X and clipped to the
knot ends once, and every such layer writes its design from that block into
one reused buffer and takes its product there. The knot ends equal the box,
so rows inside the box take the design and product of their own bytes, as
in ``fit``. No clipped copy of the whole batch is held.
"""

from __future__ import annotations

import bisect
import json
import math
import numbers
import warnings
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import ModelFormatError, TrainingRmseWarning
from .evaluation import rmse
from .solver import least_squares, penalized_least_squares
from .spline_basis import (
    KNOT_DEDUP_TOL,
    KnotVector,
    LayerBases,
    build_knot_vector,
    design_matrix,
    penalty_block,
)

MODEL_FORMAT = "spline-cfr-model/1"

# Design cells (rows x columns) built per block of rows when predicting: 8
# MB, below glibc's 32 MB ceiling for its mmap threshold, so a freed block's
# memory is reused by the next one instead of being mapped and faulted in
# again. Layers that share a block take its rows from the widest of them. It
# bounds memory only; no output bit depends on it. Smaller blocks cost time:
# each design_matrix call has a fixed cost, about 0.07 ms for one row of 81
# variables (2-vCPU Xeon, numpy 2.4.6, median of 20 rounds of 100 calls).
_BLOCK_CELLS = 2**20
# Bytes of rows read at a time by the row passes: comparing sorted rows when
# finding the distinct rows, marking the rows outside the training box, and
# the boundary-slope pass over those rows (whose distances take 2 cells a
# feature, so it reads a third as many rows).
_COMPARE_BYTES = 2**20


def _row_dot(A: np.ndarray, c: np.ndarray) -> np.ndarray:
    """``A @ c``, each row summed in an order fixed by the row alone.

    BLAS orders ``A @ c`` by the shape and thread split; einsum runs one dot
    kernel per row of a C-contiguous matrix of two or more rows. A lone row
    is stacked on a copy of itself, since its buffered loop would split a long row.
    """
    A = np.ascontiguousarray(A)
    twin = np.concatenate((A, A)) if A.shape[0] == 1 else A
    return np.einsum("ij,j->i", twin, c)[: A.shape[0]]


def _require_integers(config, *names: str) -> None:
    """Reject a field of ``config`` that is not an integer (bools included)."""
    for name in names:
        value = getattr(config, name)
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise ValueError(f"{name} must be an integer, got {value!r}")


def _require_finite(path: str, values: np.ndarray) -> None:
    """Raise ValueError naming the first non-finite entry, as ``path[i][j]``."""
    bad = ~np.isfinite(values)
    if bad.any():
        at = tuple(np.argwhere(bad)[0])
        index = "".join(f"[{i}]" for i in at)
        raise ValueError(f"{path}{index}: expected a finite number, got {values[at]}")


@dataclass(frozen=True)
class FitConfig:
    """Hyperparameters for :func:`fit`.

    lam: roughness penalty weight shared by all spline blocks.
    knots_per_depth: how many new knot sites each depth may add per variable.
    norm: the target is divided by this before fitting and predictions are
        scaled back up; keeps the inverted residual targets in a tame range.
    max_depth: number of spline layers stacked under the linear layer.
    auto_depth: when True, stop after the first depth whose training error
        is worse than the depth above it, and keep only the layers above it.
    offset_epsilon: slack added to each residual offset so inverted targets
        stay strictly positive and bounded by 1/offset_epsilon.
    denom_floor: denominators inside the fraction are pushed away from zero
        to this magnitude (sign preserved) during evaluation.
    literal_final_offset: subtract the deepest layer's offset as well, i.e.
        evaluate the fraction exactly as the fitting recursion wrote it.
    """

    lam: float = 0.5
    knots_per_depth: int = 5
    norm: float = 1000.0
    max_depth: int = 5
    auto_depth: bool = False
    offset_epsilon: float = 1e-3
    denom_floor: float = 1e-6
    literal_final_offset: bool = False

    def __post_init__(self) -> None:
        _require_integers(self, "knots_per_depth", "max_depth")
        for name in ("auto_depth", "literal_final_offset"):
            if not isinstance(getattr(self, name), bool):
                raise ValueError(f"{name} must be a boolean, got {getattr(self, name)!r}")
        for name, rule, ok in (
            ("lam", "finite and non-negative", self.lam >= 0),
            ("knots_per_depth", "at least 1", self.knots_per_depth >= 1),
            ("norm", "finite and positive", self.norm > 0),
            ("max_depth", "non-negative", self.max_depth >= 0),
            ("offset_epsilon", "finite and positive", self.offset_epsilon > 0),
            ("denom_floor", "finite and positive", self.denom_floor > 0),
        ):
            value = getattr(self, name)
            if isinstance(value, bool) or not (ok and math.isfinite(value)):
                raise ValueError(f"{name} must be {rule}, got {value}")


@dataclass(frozen=True, eq=False)
class LinearModel:
    """Intercept-first linear model over all feature columns; ``fit`` gives 0 to constant ones."""

    coefficients: np.ndarray
    offset: float = 0.0

    def evaluate(self, X: np.ndarray) -> np.ndarray:
        """Values on the rows of X."""
        return self.coefficients[0] + _row_dot(X, self.coefficients[1:])


@dataclass(frozen=True, eq=False)
class AdditiveSplineModel:
    """Sum of one cubic-spline term per (non-constant) variable plus intercept.

    ``variable_ids`` are column indices into the full feature matrix;
    ``coefficients`` holds the intercept followed by one block per variable,
    block j having ``bases[j].basis_count`` entries. ``bases`` is the
    ``LayerBases`` that ``fit`` or ``deserialize`` built, so every design of
    the layer reads the same tables.
    """

    variable_ids: tuple[int, ...]
    bases: LayerBases
    coefficients: np.ndarray
    offset: float = 0.0


@dataclass(frozen=True, eq=False)
class CFracModel:
    """A fitted continued-fraction regressor.

    ``layers`` holds one additive model g_i per layer, each carrying its offset
    C_i as ``offset``; ``layers[0]`` is linear, deeper entries are spline layers.
    ``feature_bounds`` records the training min/max of every feature column
    (constant columns included). ``feature_names``/``target_name`` are
    optional metadata used by the CLI to match CSV columns.

    ``training_rmse`` is the fit's own record: entry d is the RMSE on the
    training rows of the fraction cut back to ``layers[: d + 1]``, in
    original target units, one entry per layer. :func:`fit` fills it; it is
    not part of the model document, so a model read by :func:`deserialize`
    has an empty record.

    However it is built (:func:`fit`, ``dataclasses.replace``, by hand or
    :func:`deserialize`), a model keeps the rules of its document: ``norm``
    and ``denom_floor`` finite and positive, ``training_target_max`` and each
    layer's offset and coefficients finite, ``literal_final_offset`` a bool,
    ``feature_bounds`` an (m, 2) array of finite rows with lo <= hi, distinct
    string feature names and a string target name that is none of them, a
    linear first layer, each layer's coefficient count, one knot vector per
    spline variable, and each spline variable a feature index once per layer,
    its knot ends that feature's bounds. A broken rule raises ValueError
    naming its field, so a model that builds saves a document that loads.
    """

    norm: float
    layers: tuple[LinearModel | AdditiveSplineModel, ...]
    feature_bounds: np.ndarray
    training_target_max: float
    denom_floor: float = 1e-6
    literal_final_offset: bool = False
    feature_names: tuple[str, ...] | None = None
    target_name: str | None = None
    training_rmse: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        # fit checks these at every depth and deserialize at every load: each is
        # one pass over its field, and the index at fault is sought only on failure.
        scalars = (("norm", True), ("denom_floor", True), ("training_target_max", False))
        for name, positive in scalars:
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name}: expected a finite number, got {value}")
            if positive and not value > 0:
                raise ValueError(f"{name}: expected a positive number, got {value}")
        if not isinstance(self.literal_final_offset, bool):
            raise ValueError("literal_final_offset: expected a boolean")
        bounds = self.feature_bounds
        if not isinstance(bounds, np.ndarray) or bounds.shape[1:] != (2,):
            raise ValueError(
                f"feature_bounds: expected rows of [lo, hi], got shape {np.shape(bounds)}"
            )
        _require_finite("feature_bounds", bounds)
        m = self.feature_count
        lo, hi = bounds.T
        if (lo > hi).any():
            i = int(np.argmax(lo > hi))
            raise ValueError(f"feature_bounds[{i}]: lo {lo[i]} lies above hi {hi[i]}")
        names = self.feature_names
        not_str = [i for i, nm in enumerate(names or ()) if not isinstance(nm, str)]
        if not_str:
            raise ValueError(f"feature_names[{not_str[0]}]: expected a string")
        if not isinstance(self.target_name, (str, type(None))):
            raise ValueError("target_name: expected a string")
        if names is not None and len(names) != m:
            raise ValueError(
                f"feature_names: expected one name per feature_bounds row ({m}), got {len(names)}"
            )
        if names is not None and len(set(names)) < m:
            repeated = sorted({nm for nm in names if names.count(nm) > 1})
            raise ValueError(f"feature_names: repeated names {repeated}")
        if self.target_name is not None and self.target_name in (names or ()):
            raise ValueError(f"target_name: {self.target_name!r} is also a feature name")
        if not self.layers:
            raise ValueError("layers: expected at least one layer")
        if not isinstance(self.layers[0], LinearModel):
            raise ValueError("layers[0]: the first layer must be linear")
        for d, g in enumerate(self.layers):
            if not math.isfinite(g.offset):
                raise ValueError(f"layers[{d}].offset: expected a finite number, got {g.offset}")
            width = 1 + m if isinstance(g, LinearModel) else g.bases.width
            if g.coefficients.shape[0] != width:
                raise ValueError(
                    f"layers[{d}].coefficients: expected {width} entries, "
                    f"got {g.coefficients.shape[0]}"
                )
            _require_finite(f"layers[{d}].coefficients", g.coefficients)
            if isinstance(g, AdditiveSplineModel):
                self._check_variables(f"layers[{d}].variables", g.variable_ids, g.bases)

    def _check_variables(self, path: str, ids: tuple[int, ...], bases: LayerBases) -> None:
        """Distinct feature indices, one per knot vector, whose knot ends are their bounds."""
        if len(ids) != len(bases):
            raise ValueError(f"{path}: {len(ids)} ids for {len(bases)} knot vectors")
        m = self.feature_count
        if ids and not 0 <= min(ids) <= max(ids) < m:
            j = next(j for j, vid in enumerate(ids) if not 0 <= vid < m)
            raise ValueError(f"{path}[{j}].id: expected a feature index in [0, {m}), got {ids[j]}")
        if len(set(ids)) < len(ids):
            j = next(j for j, vid in enumerate(ids) if vid in ids[:j])
            raise ValueError(f"{path}[{j}].id: feature {ids[j]} is already in this layer")
        # predict clips each layer's design rows to its knot ends and measures
        # the line beyond them from feature_bounds, so the two must agree.
        bad = (np.reshape(bases.edge, (-1, 2)) != self.feature_bounds[list(ids)]).any(1)
        if bad.any():
            j = int(np.argmax(bad))
            raise ValueError(f"{path}[{j}]: lo and hi differ from feature_bounds[{ids[j]}]")

    @property
    def depth(self) -> int:
        return len(self.layers) - 1

    @property
    def feature_count(self) -> int:
        return self.feature_bounds.shape[0]

    @cached_property
    def _end_slopes(self) -> dict[int, np.ndarray]:
        """Each spline layer's term slopes below every feature's lo, then
        above every feature's hi (0 for a feature the layer does not use).

        At a clamped end only the outermost basis functions, in columns a and
        a + 1 (``end_col``), have slopes, -s and +s with s = p/w (``slope``,
        w the end span's width): beyond the end a term with coefficients c
        is its value there plus s * (c[a + 1] - c[a]) * (x - end).
        """
        m = self.feature_count
        slopes = {}
        for d, g in enumerate(self.layers):
            if isinstance(g, AdditiveSplineModel):
                b, c = g.bases, g.coefficients
                s = b.slope * (c[b.end_col + 1] - c[b.end_col])
                ids = np.array(g.variable_ids, dtype=np.intp)
                slopes[d] = np.zeros(2 * m)
                slopes[d][ids], slopes[d][m + ids] = s[0::2], s[1::2]
        return slopes

    def _feature_matrix(self, X) -> np.ndarray:
        """X as a float matrix with one column per feature, or ValueError."""
        X = np.asarray(X, dtype=float)
        if X.ndim != 2 or X.shape[1] != self.feature_count:
            raise ValueError(
                f"expected a 2-D matrix with {self.feature_count} feature columns, "
                f"got shape {X.shape}"
            )
        return X

    def layer_values(self, X: np.ndarray) -> list[np.ndarray]:
        """Evaluate every layer's additive model on X (before folding).

        Each spline layer is evaluated once per distinct row of X (rows
        compared by their bytes) and its values are gathered back to every
        row. A distinct row with a cell outside ``feature_bounds``
        (``outside_box``) takes, in each spline layer, the value at its copy
        clipped to the box, built once per distinct clipped copy, plus its
        distances beyond the box times ``_end_slopes``. Linear layers read
        every row as it is, and a model without a spline layer groups and
        marks no row. A NaN or infinite cell raises ValueError naming its
        row and column.
        """
        X = self._feature_matrix(X)
        if not np.isfinite(X).all():
            i, j = np.argwhere(~np.isfinite(X))[0]
            raise ValueError(f"X row {i}, column {j}: non-finite value {float(X[i, j])!r}")
        if not self._end_slopes:  # no spline layer, so no row is grouped
            return [g.evaluate(X) for g in self.layers]
        first, group, _ = _distinct_rows(X)
        # Inside rows stay their own representatives; the moved rows are
        # grouped by the bytes of their clipped copies.
        outside = self.outside_box(X)[first]
        moved, inside = np.flatnonzero(outside), np.flatnonzero(~outside)
        lo, hi = self.feature_bounds.T
        box = X[first[moved]]
        rep, slot, _ = _distinct_rows(np.clip(box, lo, hi, out=box))
        del box
        rows = np.concatenate([first[inside], first[moved][rep]])
        slot_of = np.empty(first.shape[0], dtype=np.intp)
        slot_of[inside] = np.arange(inside.shape[0])
        slot_of[moved] = inside.shape[0] + slot
        values = {d: v[slot_of] for d, v in self._spline_values(X, rows).items()}
        self._add_end_slopes(X, first[moved], moved, values)
        return [
            values[d][group] if d in values else g.evaluate(X) for d, g in enumerate(self.layers)
        ]

    def _spline_values(self, X: np.ndarray, rows: np.ndarray) -> dict[int, np.ndarray]:
        """Each spline layer d's values on the rows ``X[rows]`` clipped to its
        knot ends, keyed by d.

        Layers that read the same variables, in the same order, share each
        block of rows: it is gathered and clipped once, its row count set by
        the widest of them, and each layer writes its design from it into
        the group's one buffer in turn.
        """
        groups: dict[tuple[int, ...], dict[int, AdditiveSplineModel]] = {}
        for d, g in enumerate(self.layers):
            if isinstance(g, AdditiveSplineModel):
                groups.setdefault(g.variable_ids, {})[d] = g
        values = {}
        for ids, layers in groups.items():
            # Every layer's knot ends are its variables' feature_bounds rows.
            lo, hi = self.feature_bounds[list(ids)].T
            at, cols = rows[:, None], np.array(ids, dtype=np.intp)
            widest = max(g.bases.width for g in layers.values())
            step = max(1, _BLOCK_CELLS // widest)
            # Every design of the group is written into the head of one buffer.
            # Allocated per call, designs of several widths landed wherever the
            # heap had room: perfbench's predict_extrapolate peak RSS read
            # 80-82 MB in 8 of 12 runs from checkouts at 6 paths, against
            # 71-77 MB at one buffer and before the blocks were shared.
            space = np.empty(min(step, rows.shape[0]) * widest)
            values.update((d, np.empty(rows.shape[0])) for d in layers)
            for r0 in range(0, rows.shape[0], step):
                block = X[at[r0 : r0 + step], cols]
                np.minimum(np.maximum(block, lo, out=block), hi, out=block)
                for d, g in layers.items():
                    design = space[: block.shape[0] * g.bases.width].reshape(block.shape[0], -1)
                    design_matrix(block, g.bases, out=design)
                    values[d][r0 : r0 + step] = _row_dot(design, g.coefficients)
        return values

    def outside_box(self, X: np.ndarray) -> np.ndarray:
        """Whether each row of X has a cell strictly outside ``feature_bounds``,
        marked a block of rows at a time."""
        X = self._feature_matrix(X)
        lo, hi = self.feature_bounds.T
        outside = np.empty(X.shape[0], dtype=bool)
        step = max(1, _COMPARE_BYTES // (X.itemsize * max(1, X.shape[1])))
        for r0 in range(0, X.shape[0], step):
            block = X[r0 : r0 + step]
            outside[r0 : r0 + step] = ((block < lo) | (block > hi)).any(axis=1)
        return outside

    def _add_end_slopes(
        self, X: np.ndarray, rows: np.ndarray, at: np.ndarray, values: dict[int, np.ndarray]
    ) -> None:
        """Add to ``values[d][at]`` the boundary-slope terms of the rows
        ``X[rows]`` in every spline layer d, a block of rows at a time."""
        lo, hi = self.feature_bounds.T
        m = self.feature_count
        step = max(1, _COMPARE_BYTES // (X.itemsize * max(1, 3 * m)))
        for r0 in range(0, rows.shape[0], step):
            block = X[rows[r0 : r0 + step]]
            beyond = np.empty((block.shape[0], 2 * m))
            np.minimum(np.subtract(block, lo, out=beyond[:, :m]), 0.0, out=beyond[:, :m])
            np.maximum(np.subtract(block, hi, out=beyond[:, m:]), 0.0, out=beyond[:, m:])
            for d, slopes in self._end_slopes.items():
                values[d][at[r0 : r0 + step]] += _row_dot(beyond, slopes)

    def predict(self, X: np.ndarray) -> np.ndarray:
        return self._fold(self.layer_values(X))

    def _fold(self, values: Sequence[np.ndarray]) -> np.ndarray:
        """Predictions of the fraction cut back to the first len(values) layers."""
        layers = self.layers[: len(values)]
        acc = values[-1]
        if self.literal_final_offset:
            acc = acc - layers[-1].offset
        floor = self.denom_floor
        for g, layer in zip(values[-2::-1], layers[-2::-1]):
            # |den| below the floor goes out to +-floor; zero counts as positive.
            acc = np.where(np.abs(acc) < floor, np.where(acc < 0.0, -floor, floor), acc)
            acc = g - layer.offset + 1.0 / acc
        return self.norm * acc


def select_knots(residuals, k: int) -> list[int]:
    """Pick up to ``k`` sample indices for new knots from a residual vector.

    Samples are visited in order of decreasing |residual| (ties resolved
    toward the lower index). The first is always taken; after that a sample
    is taken only when its residual sign differs from the previously taken
    one, zero counting as positive. The walk stops after k picks.
    """
    r = np.asarray(residuals, dtype=float)
    order = np.argsort(-np.abs(r), kind="stable")
    # A sample differs in sign from the last one taken exactly when it
    # differs from the one just before it in this order.
    pos = r[order] >= 0.0
    return order[np.flatnonzero(np.r_[True, pos[1:] != pos[:-1]])[:k]].tolist()


def compute_offset(residuals, offset_epsilon: float) -> float:
    """|min residual| plus slack; added before inverting residuals."""
    return abs(float(np.min(residuals))) + offset_epsilon


def _distinct_rows(X: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The distinct rows of X: each one's first row index, each row's group, and counts.

    Rows of the float64 matrix X are keyed by their bytes, which equal bytes
    always give equal layer values (-0.0 and 0.0 stay apart, a NaN matches
    only the same NaN). Groups are numbered in order of first occurrence. A
    matrix of one row, or with no columns and some rows, has one group. The
    keys are argsorted, not sorted, and adjacent rows in that order are
    gathered and compared ``_COMPARE_BYTES`` at a time, so a C-contiguous X
    is never copied.
    """
    n, m = X.shape
    if m == 0 or n <= 1:
        first = np.arange(min(n, 1))
        return first, np.zeros(n, dtype=np.intp), np.full(first.size, n)
    X = np.ascontiguousarray(X)
    # A stable sort puts each group's first occurrence at the head of its run.
    order = np.argsort(X.view(np.dtype((np.void, X.itemsize * m))).ravel(), kind="stable")
    words = X.view(np.uint64)
    starts = np.ones(n, dtype=bool)
    step = max(1, _COMPARE_BYTES // (X.itemsize * m))
    for s0 in range(1, n, step):
        block = words[order[s0 - 1 : s0 + step]]
        starts[s0 : s0 + step] = (block[1:] != block[:-1]).any(axis=1)
    heads = np.flatnonzero(starts)
    first = order[heads]
    counts = np.diff(np.append(heads, n))
    by_first = np.argsort(first)
    rank = np.empty_like(by_first)
    rank[by_first] = np.arange(by_first.size)
    group = np.empty(n, dtype=np.intp)
    group[order] = rank[np.cumsum(starts) - 1]
    return first[by_first], group, counts[by_first]


def _insert_knot(knots: list[float], value: float, lo: float, hi: float) -> None:
    """Insert a knot position, skipping boundary hits and near-duplicates, so
    that ``knots`` stays a valid interior of a knot vector on [lo, hi]."""
    if value - lo <= KNOT_DEDUP_TOL or hi - value <= KNOT_DEDUP_TOL:
        return
    i = bisect.bisect_left(knots, value)
    if i > 0 and value - knots[i - 1] <= KNOT_DEDUP_TOL:
        return
    if i < len(knots) and knots[i] - value <= KNOT_DEDUP_TOL:
        return
    knots.insert(i, value)


def _require_finite_depth(depth: int, values: np.ndarray, y0: np.ndarray) -> None:
    """Name the depth whose residuals (depth 0) or inverted target are not finite."""
    if not np.isfinite(values).all():
        raise ValueError(
            f"depth {depth}: residuals or their inverses are not finite at target scale "
            f"{np.abs(y0).max():.3g} (max |y| / norm); a larger norm shrinks it"
        )


def fit(X, y, config: FitConfig | None = None) -> CFracModel:
    """Fit a continued-fraction model, one layer per depth.

    The target is scaled by 1/norm. The linear layer is the least-squares fit
    on the intercept and the columns that vary on the training rows; a
    constant column gets coefficient 0. Each further depth fits a penalized
    additive spline to the inverted, offset residuals of the depth above: it
    keeps all earlier knots and adds up to ``knots_per_depth`` sites chosen
    from the residuals. Every layer is solved on the distinct rows, weighted
    by their counts when rows repeat. Training values are the row-wise products
    ``predict`` takes, so it recomputes them bit for bit. The procedure is
    deterministic. Each kept depth whose training RMSE is above the one
    before it raises a TrainingRmseWarning.
    """
    if config is None:
        config = FitConfig()
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if X.ndim != 2:
        raise ValueError(f"X must be 2-D, got ndim={X.ndim}")
    if y.ndim != 1 or y.shape[0] != X.shape[0]:
        raise ValueError(f"y must be 1-D with {X.shape[0]} entries, got shape {y.shape}")
    n, m = X.shape
    if n < 2:
        raise ValueError(f"need at least 2 training rows, got {n}")
    if not np.isfinite(X).all():
        raise ValueError("X contains non-finite values")
    if not np.isfinite(y).all():
        raise ValueError("y contains non-finite values")

    # Overflow is named by the checks below, not by numpy warnings first.
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        lo = X.min(axis=0)
        hi = X.max(axis=0)
        span = hi - lo
        if not np.isfinite(span).all():
            j = int(np.argmax(~np.isfinite(span)))
            raise ValueError(f"X column {j}: its range {lo[j]} to {hi[j]} overflows float64")
        spline_vars = [j for j in range(m) if span[j] > KNOT_DEDUP_TOL]

        first, group, counts = _distinct_rows(X)
        counts = counts if first.size < n else None
        X_spline = X[np.ix_(first, spline_vars)]
        y0 = y / config.norm
        # Solve on the varying columns mapped onto [0, 1]; map the coefficients back.
        shift, scale = lo[spline_vars], span[spline_vars]
        design = np.ones((first.size, 1 + len(spline_vars)))
        np.divide(np.subtract(X_spline, shift, out=design[:, 1:]), scale, out=design[:, 1:])
        beta = least_squares(design, np.bincount(group, weights=y0, minlength=first.size), counts)
        coefficients = np.zeros(1 + m)  # a column constant on the training rows keeps 0
        coefficients[1:][spline_vars] = beta[1:] / scale
        coefficients[0] = beta[0] - coefficients[1:][spline_vars] @ shift
        values = [LinearModel(coefficients).evaluate(X)]
        resid = y0 - values[0]
        _require_finite_depth(0, resid, y0)
        model = CFracModel(
            norm=config.norm,
            layers=(LinearModel(coefficients, compute_offset(resid, config.offset_epsilon)),),
            feature_bounds=np.column_stack([lo, hi]),
            training_target_max=float(y.max()),
            denom_floor=config.denom_floor,
            literal_final_offset=config.literal_final_offset,
        )
        knots: dict[int, list[float]] = {j: [] for j in spline_vars}
        ends = {j: (float(lo[j]), float(hi[j])) for j in spline_vars}

        train_pred = model._fold(values)
        rmses = [rmse(y, train_pred)]
        for depth in range(1, config.max_depth + 1):
            target = 1.0 / (resid + model.layers[-1].offset)
            _require_finite_depth(depth, target, y0)
            for p in select_knots(resid, config.knots_per_depth):
                for j in spline_vars:
                    _insert_knot(knots[j], float(X[p, j]), *ends[j])
            bases = LayerBases(KnotVector(tuple(knots[j]), *ends[j]) for j in spline_vars)
            design = design_matrix(X_spline, bases)
            penalties = [penalty_block(kv.basis_count) for kv in bases]
            # Each group's target sum; a group of one row sums to its target exactly.
            sums = np.bincount(group, weights=target, minlength=first.size)
            beta = penalized_least_squares(design, sums, config.lam, penalties, counts)
            values.append(_row_dot(design, beta)[group])
            # One design at a time: the next depth's is larger.
            del design
            resid = target - values[-1]
            offset = compute_offset(resid, config.offset_epsilon)
            layer = AdditiveSplineModel(tuple(spline_vars), bases, beta, offset)
            deeper = replace(model, layers=model.layers + (layer,))
            train_pred = deeper._fold(values)
            depth_rmse = rmse(y, train_pred)
            if depth_rmse > rmses[-1]:
                if config.auto_depth:
                    break  # keep only the depths above the first worse one
                warnings.warn(
                    f"depth {depth} raises the training RMSE from {rmses[-1]:.6g} "
                    f"to {depth_rmse:.6g}; auto depth keeps only the depths above it",
                    TrainingRmseWarning,
                    stacklevel=2,
                )
            model = deeper
            rmses.append(depth_rmse)

        if not np.isfinite(train_pred).all():
            raise ArithmeticError("training predictions are not finite")
        return replace(model, training_rmse=tuple(rmses))


def training_rmse_by_depth(model: CFracModel, X, y) -> list[float]:
    """RMSE of each truncation of ``model`` on (X, y), original target units.

    On the training rows this recomputes ``model.training_rmse``.
    """
    values = model.layer_values(X)
    y = np.asarray(y, dtype=float)
    if y.shape != values[0].shape:
        raise ValueError(f"y must be 1-D with {values[0].shape[0]} entries, got shape {y.shape}")
    return [rmse(y, model._fold(values[: d + 1])) for d in range(len(values))]


# ---------------------------------------------------------------------------
# Serialization. Plain JSON: Python renders doubles with shortest round-trip
# decimals, so coefficients survive a save/load cycle bit for bit.
# ---------------------------------------------------------------------------


def _layer_to_doc(layer: LinearModel | AdditiveSplineModel) -> dict:
    linear = isinstance(layer, LinearModel)
    doc = {
        "kind": "linear" if linear else "additive_spline",
        "offset": layer.offset,
        "coefficients": layer.coefficients.tolist(),
    }
    if not linear:
        doc["variables"] = [
            {"id": vid, "lo": kv.lo, "hi": kv.hi, "interior": list(kv.interior)}
            for vid, kv in zip(layer.variable_ids, layer.bases)
        ]
    return doc


def serialize(model: CFracModel) -> str:
    """Render a model as a JSON document (see MODEL_FORMAT)."""
    doc = {
        "format": MODEL_FORMAT,
        "norm": model.norm,
        "denom_floor": model.denom_floor,
        "literal_final_offset": model.literal_final_offset,
        "training_target_max": model.training_target_max,
        "feature_bounds": model.feature_bounds.tolist(),
        "feature_names": list(model.feature_names) if model.feature_names else None,
        "target_name": model.target_name,
        "layers": [_layer_to_doc(layer) for layer in model.layers],
    }
    return json.dumps(doc, indent=2, allow_nan=False) + "\n"


class _DocReader:
    """Schema walker that names the offending field on failure."""

    def __init__(self, doc, path: str):
        self.doc = doc
        self.path = path

    def child(self, key: str) -> "_DocReader":
        if not isinstance(self.doc, dict):
            raise ModelFormatError(f"{self.path}: expected an object")
        if key not in self.doc:
            raise ModelFormatError(f"{self.path}: missing field {key!r}")
        return _DocReader(self.doc[key], f"{self.path}.{key}")

    def number(self) -> float:
        if not isinstance(self.doc, (int, float)) or isinstance(self.doc, bool):
            raise ModelFormatError(f"{self.path}: expected a number")
        try:
            value = float(self.doc)
        except OverflowError:  # an integer beyond the float range
            value = math.inf
        if not math.isfinite(value):
            raise ModelFormatError(f"{self.path}: expected a finite number, got {value}")
        return value

    def integer(self) -> int:
        if not isinstance(self.doc, int) or isinstance(self.doc, bool):
            raise ModelFormatError(f"{self.path}: expected an integer")
        return self.doc

    def string(self) -> str:
        if not isinstance(self.doc, str):
            raise ModelFormatError(f"{self.path}: expected a string")
        return self.doc

    def array(self) -> list["_DocReader"]:
        if not isinstance(self.doc, list):
            raise ModelFormatError(f"{self.path}: expected an array")
        return [_DocReader(v, f"{self.path}[{i}]") for i, v in enumerate(self.doc)]

    def numbers(self) -> np.ndarray:
        # A list of JSON numbers alone is read in one pass. Anything else, a
        # non-finite value or an integer beyond the float range goes item by
        # item, so its message names the item at fault.
        if isinstance(self.doc, list) and set(map(type, self.doc)) <= {int, float}:
            try:
                values = np.array(self.doc, dtype=float)
            except OverflowError:
                values = None
            if values is not None and np.isfinite(values).all():
                return values
        return np.array([item.number() for item in self.array()], dtype=float)


def _layer_from_doc(reader: _DocReader) -> LinearModel | AdditiveSplineModel:
    kind = reader.child("kind").string()
    offset = reader.child("offset").number()
    coefficients = reader.child("coefficients").numbers()
    if kind == "linear":
        return LinearModel(coefficients, offset)
    if kind == "additive_spline":
        ids = []
        bases = []
        for var in reader.child("variables").array():
            ids.append(var.child("id").integer())
            try:
                kv = build_knot_vector(
                    var.child("interior").numbers(),
                    var.child("lo").number(),
                    var.child("hi").number(),
                )
            except ValueError as exc:
                raise ModelFormatError(f"{var.path}: {exc}") from exc
            bases.append(kv)
        return AdditiveSplineModel(tuple(ids), LayerBases(bases), coefficients, offset)
    raise ModelFormatError(f"{reader.path}.kind: unknown layer kind {kind!r}")


def deserialize(text: str) -> CFracModel:
    """Parse a model document; raises ModelFormatError naming the bad field.

    It reads the format tag, the JSON objects, arrays and numbers, rows of
    [lo, hi] and knot vectors; the other rules, the types of names and flags
    among them, are :class:`CFracModel`'s, named here by ``model.`` path.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ModelFormatError(
            f"invalid model document: {exc.msg} at line {exc.lineno} column {exc.colno}"
        ) from exc
    root = _DocReader(doc, "model")
    fmt = root.child("format").string()
    if fmt != MODEL_FORMAT:
        raise ModelFormatError(f"model.format: expected {MODEL_FORMAT!r}, got {fmt!r}")
    bounds_rows = [row.numbers() for row in root.child("feature_bounds").array()]
    if any(row.shape != (2,) for row in bounds_rows):
        raise ModelFormatError("model.feature_bounds: expected rows of [lo, hi]")
    names_reader = root.child("feature_names")
    fields = dict(
        norm=root.child("norm").number(),
        layers=tuple(_layer_from_doc(r) for r in root.child("layers").array()),
        feature_bounds=np.array(bounds_rows, dtype=float).reshape(-1, 2),
        training_target_max=root.child("training_target_max").number(),
        denom_floor=root.child("denom_floor").number(),
        literal_final_offset=root.child("literal_final_offset").doc,
        feature_names=None
        if names_reader.doc is None
        else tuple(item.doc for item in names_reader.array()),
        target_name=root.child("target_name").doc,
    )
    try:
        return CFracModel(**fields)
    except ValueError as exc:  # a rule of the model, named by its field
        raise ModelFormatError(f"model.{exc}") from exc
