"""Error metrics, agreement statistics, and cross-method comparison tables."""

from __future__ import annotations

import numpy as np


def _paired(y_true, y_pred) -> tuple[np.ndarray, np.ndarray]:
    t = np.asarray(y_true, dtype=float)
    p = np.asarray(y_pred, dtype=float)
    if t.ndim != 1 or p.ndim != 1 or t.shape != p.shape:
        raise ValueError(f"expected equal-length 1-D vectors, got {t.shape} and {p.shape}")
    if t.shape[0] == 0:
        raise ValueError("empty vectors")
    return t, p


def rmse(y_true, y_pred) -> float:
    t, p = _paired(y_true, y_pred)
    return float(np.sqrt(np.mean((t - p) ** 2)))


def mean_relative_error(y_true, y_pred) -> float:
    """Mean of |true - pred| / |true|; zero true values are rejected."""
    t, p = _paired(y_true, y_pred)
    zeros = np.flatnonzero(t == 0.0)
    if zeros.size:
        raise ValueError(
            f"mean relative error undefined: y_true is zero at index {int(zeros[0])}"
        )
    return float(np.mean(np.abs(t - p) / np.abs(t)))


def threshold_counts(y_pred, threshold: float) -> tuple[int, int]:
    """(count >= threshold, count below); the boundary counts as positive."""
    p = np.asarray(y_pred, dtype=float)
    if p.ndim != 1 or p.shape[0] == 0:
        raise ValueError("y_pred must be a non-empty 1-D vector")
    pos = int(np.count_nonzero(p >= threshold))
    return pos, p.shape[0] - pos


def count_beyond_training_max(y_pred, training_target_max: float) -> int:
    """How many predictions exceed (strictly) the largest training target."""
    p = np.asarray(y_pred, dtype=float)
    if p.ndim != 1:
        raise ValueError("y_pred must be 1-D")
    return int(np.count_nonzero(p > training_target_max))


def cohen_kappa(labels_a, labels_b) -> float:
    """Chance-corrected agreement between two label vectors.

    kappa = (p_o - p_e) / (1 - p_e) with p_o the observed agreement rate and
    p_e the agreement expected from the two marginal label distributions.
    When both raters assign one identical label throughout (p_e = 1) the
    agreement is perfect by construction and kappa is defined as 1.
    """
    a = np.asarray(labels_a)
    b = np.asarray(labels_b)
    if a.ndim != 1 or b.ndim != 1 or a.shape != b.shape:
        raise ValueError(f"expected equal-length 1-D label vectors, got {a.shape} and {b.shape}")
    if a.shape[0] == 0:
        raise ValueError("empty label vectors")
    p_o = float(np.mean(a == b))
    labels = np.unique(np.concatenate([a, b]))
    p_e = float(sum(np.mean(a == lab) * np.mean(b == lab) for lab in labels))
    if p_e >= 1.0:
        return 1.0
    return (p_o - p_e) / (1.0 - p_e)


def kappa_agreement_label(kappa: float) -> str:
    """Conventional verbal band for a kappa value."""
    if kappa < 0.0:
        return "none"
    bands = ((0.20, "none-to-slight"), (0.40, "fair"), (0.60, "moderate"), (0.80, "substantial"))
    return next((label for top, label in bands if kappa <= top), "almost-perfect")


def top_k_table(
    y_true, y_pred, k: int = 20
) -> tuple[list[tuple[int, int, float, float]], tuple[float, float, float, float]]:
    """The k samples with the largest predicted values, plus subset metrics.

    Returns the rows (rank, row index, y_true, y_pred), rank 1 first, and the
    subset's (mean true, mean predicted, mean relative error, RMSE). Sorted by
    predicted value, descending; ties resolve toward the lower sample index.
    """
    t, p = _paired(y_true, y_pred)
    n = p.shape[0]
    if not 1 <= k <= n:
        raise ValueError(f"k must be in [1, {n}], got {k}")
    order = np.argsort(-p, kind="stable")[:k]
    t, p = t[order], p[order]
    rows = [
        (rank, int(i), float(a), float(b))
        for rank, (i, a, b) in enumerate(zip(order, t, p), start=1)
    ]
    return rows, (float(t.mean()), float(p.mean()), mean_relative_error(t, p), rmse(t, p))


def aggregate(table: np.ndarray) -> list[tuple[float, float, int]]:
    """(median, population standard deviation, run count) of each column of
    a runs x methods RMSE table."""
    return [(float(np.median(col)), float(np.std(col)), col.size) for col in table.T]


def _average_ranks(values: np.ndarray) -> np.ndarray:
    """Rank 1 = smallest; tied values share the average of their ranks."""
    _, inverse, counts = np.unique(values, return_inverse=True, return_counts=True)
    last = np.cumsum(counts)  # the rank of each distinct value's last copy
    return (last - (counts - 1) / 2.0)[inverse]


def rank_matrix(table: np.ndarray) -> np.ndarray:
    """Per-run RMSE ranks across methods.

    ``table[i, j]`` is method j's RMSE in run i, and the result's [i, j] is
    its rank in that run, rank 1 being the lowest RMSE. Each row sums to
    M(M+1)/2 for M methods.
    """
    return np.array([_average_ranks(row) for row in table])
