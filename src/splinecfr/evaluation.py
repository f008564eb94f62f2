"""Error metrics, agreement statistics, and cross-method comparison tables.

The callers build every vector these functions take (``cfr_core`` from the
targets it checked, ``bench`` from its splits and the prediction files it
matched to them, ``cli``'s report from those files), so nothing here checks
them again: each is a non-empty 1-D numpy array of float64 values or boolean
labels, and paired vectors have one length. What is checked here is the
data (a zero true value has no relative error) and ``top_k_table``'s ``k``,
set by a user.
"""

from __future__ import annotations

import numpy as np


def rmse(y_true: np.ndarray, y_pred: np.ndarray) -> float:
    return float(np.sqrt(np.mean((y_true - y_pred) ** 2)))


def mean_relative_error(y_true: np.ndarray, y_pred: np.ndarray) -> float:
    """Mean of |true - pred| / |true|; zero true values are rejected."""
    zeros = np.flatnonzero(y_true == 0.0)
    if zeros.size:
        raise ValueError(
            f"mean relative error undefined: y_true is zero at index {int(zeros[0])}"
        )
    return float(np.mean(np.abs(y_true - y_pred) / np.abs(y_true)))


def threshold_counts(y_pred: np.ndarray, threshold: float) -> tuple[int, int]:
    """(count >= threshold, count below); the boundary counts as positive."""
    pos = int(np.count_nonzero(y_pred >= threshold))
    return pos, y_pred.shape[0] - pos


def count_beyond_training_max(y_pred: np.ndarray, training_target_max: float) -> int:
    """How many predictions exceed (strictly) the largest training target."""
    return int(np.count_nonzero(y_pred > training_target_max))


def cohen_kappa(labels_a: np.ndarray, labels_b: np.ndarray) -> float:
    """Chance-corrected agreement between two label vectors.

    kappa = (p_o - p_e) / (1 - p_e) with p_o the observed agreement rate and
    p_e the agreement expected from the two marginal label distributions.
    When both raters assign one identical label throughout (p_e = 1) the
    agreement is perfect by construction and kappa is defined as 1.
    """
    p_o = float(np.mean(labels_a == labels_b))
    labels = np.unique(np.concatenate([labels_a, labels_b]))
    p_e = float(sum(np.mean(labels_a == lab) * np.mean(labels_b == lab) for lab in labels))
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
    y_true: np.ndarray, y_pred: np.ndarray, k: int = 20
) -> tuple[list[tuple[int, int, float, float]], tuple[float, float, float, float]]:
    """The k samples with the largest predicted values, plus subset metrics.

    Returns the rows (rank, row index, y_true, y_pred), rank 1 first, and the
    subset's (mean true, mean predicted, mean relative error, RMSE). Sorted by
    predicted value, descending; ties resolve toward the lower sample index.
    """
    n = y_pred.shape[0]
    if not 1 <= k <= n:
        raise ValueError(f"k must be in [1, {n}], got {k}")
    order = np.argsort(-y_pred, kind="stable")[:k]
    t, p = y_true[order], y_pred[order]
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
