"""Continued-fraction regression with additive penalized-spline layers.

The model is a simple continued fraction

    f(x) = norm * ( g_0(x) - C_0 + 1 / ( g_1(x) - C_1 + 1 / ( ... + 1/g_d(x) )))

where g_0 is linear in the features and every deeper g_i is an additive
cubic-spline model. Layers are fit one depth at a time: after fitting g_i,
its residuals are shifted positive by an offset C_i and inverted to become
the next layer's training target. The deepest layer's offset is dropped at
evaluation time (see ``literal_final_offset`` to keep it). ``fit`` grows the
model it returns one layer per depth and scores each depth with that model's
``_fold``, the one fold for training values and predictions alike.

Layer values are computed once per distinct full feature row, in ``fit``
and ``predict`` alike, by one row-wise product whose summation order is fixed
per row (``_row_dot``), and gathered back to every row that repeats it. A
row's prediction thus does not depend on the batch it is predicted in.
"""

from __future__ import annotations

import bisect
import json
import math
import numbers
import warnings
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .errors import ModelFormatError, TrainingRmseWarning
from .evaluation import rmse
from .solver import least_squares, penalized_least_squares
from .spline_basis import (
    KNOT_DEDUP_TOL,
    KnotVector,
    build_knot_vector,
    design_matrix,
    penalty_block,
)

MODEL_FORMAT = "spline-cfr-model/1"

# Design cells (rows x columns) built per block of rows when predicting: 8
# MB, below glibc's 32 MB ceiling for its mmap threshold, so a freed block's
# memory is reused by the next one instead of being mapped and faulted in
# again. It bounds memory only; no output bit depends on it. Smaller blocks
# cost time: each design_matrix call has a fixed cost, about 0.6 ms for 81
# variables.
_BLOCK_CELLS = 2**20
# Bytes of sorted rows compared at a time when finding the distinct rows.
_COMPARE_BYTES = 2**20


def _row_dot(A: np.ndarray, c: np.ndarray) -> np.ndarray:
    """``A @ c``, each row summed in an order fixed by the row alone.

    BLAS orders ``A @ c`` by the shape and thread split; einsum runs one dot
    kernel per row of a C-contiguous matrix of two or more rows. A lone row
    gets a stride-0 twin, since its buffered loop would split a long row.
    """
    A = np.ascontiguousarray(A)
    twin = np.broadcast_to(A, (2, A.shape[1])) if A.shape[0] == 1 else A
    return np.einsum("ij,j->i", twin, c)[: A.shape[0]]


def _require_integers(config, *names: str) -> None:
    """Reject a field of ``config`` that is not an integer (bools included)."""
    for name in names:
        value = getattr(config, name)
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise ValueError(f"{name} must be an integer, got {value!r}")


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
        for name, rule, ok in (
            ("lam", "finite and non-negative", self.lam >= 0),
            ("knots_per_depth", "at least 1", self.knots_per_depth >= 1),
            ("norm", "finite and positive", self.norm > 0),
            ("max_depth", "non-negative", self.max_depth >= 0),
            ("offset_epsilon", "finite and positive", self.offset_epsilon > 0),
            ("denom_floor", "finite and positive", self.denom_floor > 0),
        ):
            value = getattr(self, name)
            if not (ok and math.isfinite(value)):
                raise ValueError(f"{name} must be {rule}, got {value}")


@dataclass(frozen=True, eq=False)
class LinearModel:
    """Intercept-first linear model over all feature columns; ``fit`` gives 0 to constant ones."""

    coefficients: np.ndarray

    def evaluate(self, X: np.ndarray, first: np.ndarray) -> np.ndarray:
        """Values on the rows ``X[first]``."""
        return self.coefficients[0] + _row_dot(X[first], self.coefficients[1:])


@dataclass(frozen=True, eq=False)
class AdditiveSplineModel:
    """Sum of one cubic-spline term per (non-constant) variable plus intercept.

    ``variable_ids`` are column indices into the full feature matrix;
    ``coefficients`` holds the intercept followed by one block per variable,
    block j having ``bases[j].basis_count`` entries.
    """

    variable_ids: tuple[int, ...]
    bases: tuple[KnotVector, ...]
    coefficients: np.ndarray

    def evaluate(self, X: np.ndarray, first: np.ndarray) -> np.ndarray:
        """Values on the rows ``X[first]``, one design block of rows at a time."""
        ids = list(self.variable_ids)
        out = np.empty(first.shape[0])
        step = max(1, _BLOCK_CELLS // self.coefficients.shape[0])
        for r0 in range(0, first.shape[0], step):
            rows = np.ix_(first[r0 : r0 + step], ids)
            # No name holds the block, so it is freed before the next is built.
            out[r0 : r0 + step] = _row_dot(design_matrix(X[rows], self.bases), self.coefficients)
        return out


@dataclass(frozen=True, eq=False)
class DepthLayer:
    model: LinearModel | AdditiveSplineModel
    offset: float


@dataclass(frozen=True, eq=False)
class CFracModel:
    """A fitted continued-fraction regressor.

    ``layers[0]`` is the linear layer; deeper entries are spline layers.
    ``feature_bounds`` records the training min/max of every feature column
    (constant columns included). ``feature_names``/``target_name`` are
    optional metadata used by the CLI to match CSV columns.

    ``training_rmse`` is the fit's own record: entry d is the RMSE on the
    training rows of the fraction cut back to ``layers[: d + 1]``, in
    original target units, one entry per layer. :func:`fit` fills it; it is
    not part of the model document, so a model read by :func:`deserialize`
    has an empty record.
    """

    norm: float
    layers: tuple[DepthLayer, ...]
    feature_bounds: np.ndarray
    training_target_max: float
    denom_floor: float = 1e-6
    literal_final_offset: bool = False
    feature_names: tuple[str, ...] | None = None
    target_name: str | None = None
    training_rmse: tuple[float, ...] = ()

    @property
    def depth(self) -> int:
        return len(self.layers) - 1

    @property
    def feature_count(self) -> int:
        return self.feature_bounds.shape[0]

    def layer_values(self, X: np.ndarray) -> list[np.ndarray]:
        """Evaluate every layer's additive model on X (before folding).

        Each layer is evaluated once per distinct row of X (rows compared by
        their bytes) and its values are gathered back to every row.
        """
        X = np.asarray(X, dtype=float)
        if X.ndim != 2 or X.shape[1] != self.feature_count:
            raise ValueError(
                f"expected a 2-D matrix with {self.feature_count} feature columns, "
                f"got shape {X.shape}"
            )
        first, group, _ = _distinct_rows(X)
        return [layer.model.evaluate(X, first)[group] for layer in self.layers]

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
    if r.ndim != 1 or r.size == 0:
        raise ValueError("residuals must be a non-empty 1-D vector")
    if k < 1:
        raise ValueError(f"k must be at least 1, got {k}")
    order = np.argsort(-np.abs(r), kind="stable")
    # A sample differs in sign from the last one taken exactly when it
    # differs from the one just before it in this order.
    pos = r[order] >= 0.0
    return order[np.flatnonzero(np.r_[True, pos[1:] != pos[:-1]])[:k]].tolist()


def compute_offset(residuals, offset_epsilon: float) -> float:
    """|min residual| plus slack; added before inverting residuals."""
    r = np.asarray(residuals, dtype=float)
    if r.ndim != 1 or r.size == 0:
        raise ValueError("residuals must be a non-empty 1-D vector")
    if offset_epsilon <= 0:
        raise ValueError(f"offset_epsilon must be positive, got {offset_epsilon}")
    return abs(float(r.min())) + offset_epsilon


def _distinct_rows(X: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The distinct rows of X: each one's first row index, each row's group, and counts.

    Rows of the float64 matrix X are keyed by their bytes, which equal bytes
    always give equal layer values (-0.0 and 0.0 stay apart, a NaN matches
    only the same NaN). Groups are numbered in order of first occurrence. A
    matrix with no columns and some rows has one group. The keys are
    argsorted, not sorted, and adjacent rows in that order are gathered and
    compared ``_COMPARE_BYTES`` at a time, so a C-contiguous X is never copied.
    """
    n, m = X.shape
    if m == 0:
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
    """Insert a knot position, skipping boundary hits and near-duplicates."""
    if value - lo <= KNOT_DEDUP_TOL or hi - value <= KNOT_DEDUP_TOL:
        return
    i = bisect.bisect_left(knots, value)
    if i > 0 and value - knots[i - 1] <= KNOT_DEDUP_TOL:
        return
    if i < len(knots) and knots[i] - value <= KNOT_DEDUP_TOL:
        return
    knots.insert(i, value)


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

    lo = X.min(axis=0)
    hi = X.max(axis=0)
    spline_vars = [j for j in range(m) if hi[j] - lo[j] > KNOT_DEDUP_TOL]

    first, group, counts = _distinct_rows(X)
    counts = counts if first.size < n else None
    X_spline = X[np.ix_(first, spline_vars)]
    y0 = y / config.norm
    # Solve on the varying columns mapped onto [0, 1]; map the coefficients back.
    shift, scale = lo[spline_vars], hi[spline_vars] - lo[spline_vars]
    design = np.ones((first.size, 1 + len(spline_vars)))
    np.divide(np.subtract(X_spline, shift, out=design[:, 1:]), scale, out=design[:, 1:])
    beta = least_squares(design, np.bincount(group, weights=y0, minlength=first.size), counts)
    coefficients = np.zeros(1 + m)  # a column constant on the training rows keeps 0
    coefficients[1:][spline_vars] = beta[1:] / scale
    coefficients[0] = beta[0] - coefficients[1:][spline_vars] @ shift
    linear = LinearModel(coefficients)
    values = [linear.evaluate(X, first)[group]]
    resid = y0 - values[0]
    model = CFracModel(
        norm=config.norm,
        layers=(DepthLayer(linear, compute_offset(resid, config.offset_epsilon)),),
        feature_bounds=np.column_stack([lo, hi]),
        training_target_max=float(y.max()),
        denom_floor=config.denom_floor,
        literal_final_offset=config.literal_final_offset,
    )
    knots: dict[int, list[float]] = {j: [] for j in spline_vars}

    train_pred = model._fold(values)
    rmses = [rmse(y, train_pred)]
    for depth in range(1, config.max_depth + 1):
        target = 1.0 / (resid + model.layers[-1].offset)
        for p in select_knots(resid, config.knots_per_depth):
            for j in spline_vars:
                _insert_knot(knots[j], float(X[p, j]), lo[j], hi[j])
        bases = tuple(build_knot_vector(knots[j], lo[j], hi[j]) for j in spline_vars)
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
        layer = DepthLayer(AdditiveSplineModel(tuple(spline_vars), bases, beta), offset)
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
    return [rmse(y, model._fold(values[: d + 1])) for d in range(len(values))]


# ---------------------------------------------------------------------------
# Serialization. Plain JSON: Python renders doubles with shortest round-trip
# decimals, so coefficients survive a save/load cycle bit for bit.
# ---------------------------------------------------------------------------


def _layer_to_doc(layer: DepthLayer) -> dict:
    model = layer.model
    linear = isinstance(model, LinearModel)
    doc = {
        "kind": "linear" if linear else "additive_spline",
        "offset": layer.offset,
        "coefficients": model.coefficients.tolist(),
    }
    if not linear:
        doc["variables"] = [
            {"id": vid, "lo": kv.lo, "hi": kv.hi, "interior": list(kv.interior)}
            for vid, kv in zip(model.variable_ids, model.bases)
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

    def positive(self) -> float:
        value = self.number()
        if value <= 0:
            raise ModelFormatError(f"{self.path}: expected a positive number, got {value}")
        return value

    def integer(self) -> int:
        if not isinstance(self.doc, int) or isinstance(self.doc, bool):
            raise ModelFormatError(f"{self.path}: expected an integer")
        return self.doc

    def boolean(self) -> bool:
        if not isinstance(self.doc, bool):
            raise ModelFormatError(f"{self.path}: expected a boolean")
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
        return np.array([item.number() for item in self.array()], dtype=float)


def _check_count(reader: _DocReader, values: np.ndarray, expected: int) -> None:
    if values.shape[0] != expected:
        raise ModelFormatError(
            f"{reader.path}: expected {expected} entries, got {values.shape[0]}"
        )


def _layer_from_doc(reader: _DocReader, feature_count: int) -> DepthLayer:
    kind = reader.child("kind").string()
    offset = reader.child("offset").number()
    coef_reader = reader.child("coefficients")
    coefficients = coef_reader.numbers()
    if kind == "linear":
        _check_count(coef_reader, coefficients, 1 + feature_count)
        return DepthLayer(LinearModel(coefficients), offset)
    if kind == "additive_spline":
        ids = []
        bases = []
        for var in reader.child("variables").array():
            id_reader = var.child("id")
            vid = id_reader.integer()
            if not 0 <= vid < feature_count:
                raise ModelFormatError(
                    f"{id_reader.path}: expected a feature index in [0, {feature_count}), "
                    f"got {vid}"
                )
            ids.append(vid)
            try:
                kv = build_knot_vector(
                    var.child("interior").numbers(),
                    var.child("lo").number(),
                    var.child("hi").number(),
                )
            except ValueError as exc:
                raise ModelFormatError(f"{var.path}: {exc}") from exc
            bases.append(kv)
        _check_count(coef_reader, coefficients, 1 + sum(kv.basis_count for kv in bases))
        return DepthLayer(AdditiveSplineModel(tuple(ids), tuple(bases), coefficients), offset)
    raise ModelFormatError(f"{reader.path}.kind: unknown layer kind {kind!r}")


def deserialize(text: str) -> CFracModel:
    """Parse a model document; raises ModelFormatError naming the bad field."""
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
    bounds_rows = root.child("feature_bounds").array()
    bounds = np.array([[v.number() for v in row.array()] for row in bounds_rows], dtype=float)
    if bounds.size and (bounds.ndim != 2 or bounds.shape[1] != 2):
        raise ModelFormatError("model.feature_bounds: expected rows of [lo, hi]")
    bounds = bounds.reshape(-1, 2)
    names_reader = root.child("feature_names")
    feature_names = (
        None
        if names_reader.doc is None
        else tuple(item.string() for item in names_reader.array())
    )
    if feature_names is not None:
        if len(feature_names) != bounds.shape[0]:
            raise ModelFormatError(
                f"{names_reader.path}: expected one name per feature_bounds row "
                f"({bounds.shape[0]}), got {len(feature_names)}"
            )
        repeated = sorted({nm for nm in feature_names if feature_names.count(nm) > 1})
        if repeated:
            raise ModelFormatError(f"{names_reader.path}: repeated names {repeated}")
    target_reader = root.child("target_name")
    target_name = None if target_reader.doc is None else target_reader.string()
    if target_name is not None and target_name in (feature_names or ()):
        raise ModelFormatError(f"{target_reader.path}: {target_name!r} is also a feature name")
    layer_readers = root.child("layers").array()
    if not layer_readers:
        raise ModelFormatError("model.layers: expected at least one layer")
    layers = tuple(_layer_from_doc(r, bounds.shape[0]) for r in layer_readers)
    if not isinstance(layers[0].model, LinearModel):
        raise ModelFormatError("model.layers[0]: the first layer must be linear")
    return CFracModel(
        norm=root.child("norm").positive(),
        layers=layers,
        feature_bounds=bounds,
        training_target_max=root.child("training_target_max").number(),
        denom_floor=root.child("denom_floor").positive(),
        literal_final_offset=root.child("literal_final_offset").boolean(),
        feature_names=feature_names,
        target_name=target_name,
    )
