"""Block-penalized least squares; ordinary least squares is its unpenalized case.

One function, ``penalized_least_squares``, forms and solves the normal
equations B'CB beta = B'y with a fixed 1e-10 ridge on the diagonal and the
penalty matrices (see ``spline_basis.penalty_block``) added along it in
blocks; ``least_squares`` is that call with no blocks. The jitter
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

``cfr_core.fit`` is the one caller, and it checks the table and the config
before any solve, so nothing here checks them again. Short of overflow in
fit's own arithmetic (a feature range or an inverted residual beyond the
float64 range), every call receives a finite float64 design of at least one
row, a finite target with one entry per row, a finite ``lam >= 0``, blocks
that tile every column but the intercept, and counts that are None or
integers >= 1, one per row.
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


def _weighted_gram(B: np.ndarray, counts) -> np.ndarray:
    """B' diag(counts) B, from sqrt(counts)-scaled blocks of rows."""
    g = np.zeros((B.shape[1], B.shape[1]))
    w = np.sqrt(counts)
    step = max(1, _GRAM_BLOCK_CELLS // B.shape[1])
    for r0 in range(0, B.shape[0], step):
        block = B[r0 : r0 + step] * w[r0 : r0 + step, None]
        g += block.T @ block
    return g


def penalized_least_squares(
    B, y, lam: float, penalties: Sequence[np.ndarray], counts=None
) -> np.ndarray:
    """Solve (B'CB + lam * blockdiag(0, P_1..P_m) + 1e-10 I) beta = B'y.

    ``penalties`` are the square matrices P_1..P_m. They tile the trailing
    columns of ``B``, each covering as many columns as it has rows; at most
    one leading column (the intercept) may be left unpenalized. With no
    blocks this is ordinary least squares.

    With counts, the solution is the one of the design with every row
    repeated as many times as it is counted.
    """
    col = B.shape[1] - sum(pen.shape[0] for pen in penalties)
    g = B.T @ B if counts is None else _weighted_gram(B, counts)
    g[np.diag_indices_from(g)] += JITTER
    for pen in penalties:
        g[col : col + pen.shape[0], col : col + pen.shape[0]] += lam * pen
        col += pen.shape[0]
    rhs = B.T @ y
    try:
        return np.linalg.solve(g, rhs)
    except np.linalg.LinAlgError:
        # Possible only when huge diagonal entries swallow the jitter.
        warnings.warn(
            f"normal equations with {g.shape[0]} columns are singular; "
            "solved by least squares instead",
            RuntimeWarning,
            stacklevel=2,
        )
        beta, *_ = np.linalg.lstsq(g, rhs, rcond=None)
        return beta


def least_squares(A, y, counts=None) -> np.ndarray:
    """Solve (A'CA + 1e-10 I) beta = A'y, C = diag(counts) as in the module docstring."""
    return penalized_least_squares(A, y, 0.0, [], counts)
