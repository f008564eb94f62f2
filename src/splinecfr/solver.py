"""Ordinary and block-penalized least squares through one normal-equation path.

Both solvers form the normal equations B'CB beta = B'y with a fixed 1e-10
ridge on the diagonal; the penalized one adds its penalty matrices (see
``spline_basis.penalty_block``) along the diagonal in blocks. The jitter
makes rank-deficient designs solvable without data-dependent branching. A
system that is singular all the same is solved by ``lstsq``, with a warning.

Forming B'B squares the condition number of B, and the jitter acts in the
units of the columns, so ``cfr_core.fit`` maps each linear column onto [0, 1]
by its training range before the solve and maps the coefficients back.

C = diag(counts), the identity without counts: design row i may stand for
``counts[i]`` identical rows, and its target entry is then the sum of their
targets, so a design of the distinct rows gives the normal equations of the
full one exactly (Wood, Goude and Shaw, "Generalized additive models for
large data sets", JRSS C 2015, with exact counts in place of bins).
"""

from __future__ import annotations

import warnings
from typing import Sequence

import numpy as np

JITTER = 1e-10

# Design cells scaled by sqrt(counts) at a time while the weighted Gram is
# accumulated (16 MB), so no second design-sized array is made. Unlike
# predict's design block it stays at 16 MB: half that made a 1238-column
# Gram about 15% slower.
_GRAM_BLOCK_CELLS = 2**21


def _check_system(A, y) -> tuple[np.ndarray, np.ndarray]:
    A = np.asarray(A, dtype=float)
    y = np.asarray(y, dtype=float)
    if A.ndim != 2:
        raise ValueError(f"design matrix must be 2-D, got ndim={A.ndim}")
    if y.ndim != 1:
        raise ValueError(f"target must be 1-D, got ndim={y.ndim}")
    if A.shape[0] != y.shape[0]:
        raise ValueError(f"design has {A.shape[0]} rows but target has {y.shape[0]}")
    if A.shape[0] == 0 or A.shape[1] == 0:
        raise ValueError("empty system")
    if not np.isfinite(A).all():
        raise ValueError("design matrix contains non-finite values")
    if not np.isfinite(y).all():
        raise ValueError("target contains non-finite values")
    return A, y


def _weighted_gram(B: np.ndarray, counts) -> np.ndarray:
    """B' diag(counts) B, from sqrt(counts)-scaled blocks of rows."""
    c = np.asarray(counts, dtype=float)
    if c.ndim != 1 or c.shape[0] != B.shape[0]:
        raise ValueError(f"counts must be 1-D with {B.shape[0]} entries, got shape {c.shape}")
    if not (np.isfinite(c) & (c >= 1.0)).all():
        raise ValueError("counts must be finite and at least 1")
    g = np.zeros((B.shape[1], B.shape[1]))
    w = np.sqrt(c)
    step = max(1, _GRAM_BLOCK_CELLS // B.shape[1])
    for r0 in range(0, B.shape[0], step):
        block = B[r0 : r0 + step] * w[r0 : r0 + step, None]
        g += block.T @ block
    return g


def _solve_normal(B, y, counts, lead: int = 0, blocks: Sequence[np.ndarray] = ()) -> np.ndarray:
    """Solve (B'CB + blockdiag(0, blocks) + 1e-10 I) beta = B'y, blocks from column ``lead``."""
    g = B.T @ B if counts is None else _weighted_gram(B, counts)
    g[np.diag_indices_from(g)] += JITTER
    col = lead
    for block in blocks:
        g[col : col + block.shape[0], col : col + block.shape[0]] += block
        col += block.shape[0]
    rhs = B.T @ y
    try:
        return np.linalg.solve(g, rhs)
    except np.linalg.LinAlgError:
        # Possible only when huge diagonal entries swallow the jitter.
        warnings.warn(
            f"normal equations with {g.shape[0]} columns are singular; "
            "solved by least squares instead",
            RuntimeWarning,
            stacklevel=3,
        )
        beta, *_ = np.linalg.lstsq(g, rhs, rcond=None)
        return beta


def least_squares(A, y, counts=None) -> np.ndarray:
    """Solve (A'CA + 1e-10 I) beta = A'y, C = diag(counts) as in the module docstring."""
    A, y = _check_system(A, y)
    return _solve_normal(A, y, counts)


def penalized_least_squares(
    B, y, lam: float, penalties: Sequence[np.ndarray], counts=None
) -> np.ndarray:
    """Solve (B'CB + lam * blockdiag(0, P_1..P_m) + 1e-10 I) beta = B'y.

    ``penalties`` are the square matrices P_1..P_m. They tile the trailing
    columns of ``B``, each covering as many columns as it has rows; at most
    one leading column (the intercept) may be left unpenalized.

    With counts, the solution is the one of the design with every row
    repeated as many times as it is counted.
    """
    B, y = _check_system(B, y)
    if lam < 0:
        raise ValueError(f"penalty weight must be non-negative, got {lam}")
    lead = B.shape[1] - sum(pen.shape[0] for pen in penalties)
    if lead not in (0, 1):
        raise ValueError(
            f"penalty blocks cover {B.shape[1] - lead} columns but the design has "
            f"{B.shape[1]}; expected them to tile all columns or all but an intercept"
        )
    return _solve_normal(B, y, counts, lead, [lam * pen for pen in penalties])
