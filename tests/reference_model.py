"""Reference evaluator of a model document, sharing no code with ``predict``.

Basis rows come from a dense Cox-de Boor recurrence inside a knot vector's
ends and, at and beyond an end, from the closed-form clamped end values and
slopes: the outermost basis function is 1 at its end, and only the two
outermost ones have a slope there, -p/w and +p/w for degree p and end span
width w. Beyond an end every basis function continues along that tangent.

``layer_terms`` evaluates every layer of a model document (the parsed JSON
``serialize`` writes) on a batch through these dense rows, and ``predict``
folds the layer values one row at a time, as the fraction is written:

    f(x) = norm * (g_0(x) - C_0 + 1 / (g_1(x) - C_1 + 1 / (... + 1 / g_d(x))))

with every denominator pushed out to at least ``denom_floor`` in magnitude
(zero counting as positive) and C_d subtracted only under
``literal_final_offset``. A knot vector here is anything with ``interior``,
``lo`` and ``hi``; the augmented knots are built from those alone.
"""

from typing import NamedTuple

import numpy as np

DEGREE = 3


class Knots(NamedTuple):
    interior: tuple[float, ...]
    lo: float
    hi: float


def augmented(kv) -> np.ndarray:
    """The clamped knot vector: DEGREE + 1 copies of each end around the interior."""
    ends = DEGREE + 1
    return np.array([kv.lo] * ends + list(kv.interior) + [kv.hi] * ends, dtype=float)


def recurrence_rows(t, degree, pts):
    """Dense Cox-de Boor at ``degree`` on knot vector ``t``: every basis
    function at every point, points outside [t[0], t[-1]] on the end spans."""
    count = len(t) - degree - 1
    n = pts.shape[0]
    last = int(np.searchsorted(t, t[-1], side="left")) - 1
    mu = np.clip(np.searchsorted(t, pts, side="right") - 1, degree, last)
    vals = np.zeros((n, degree + 1))
    vals[:, 0] = 1.0
    left = np.zeros((n, degree + 1))
    right = np.zeros((n, degree + 1))
    for j in range(1, degree + 1):
        left[:, j] = pts - t[mu + 1 - j]
        right[:, j] = t[mu + j] - pts
        saved = np.zeros(n)
        for r in range(j):
            den = right[:, r + 1] + left[:, j - r]
            temp = np.divide(vals[:, r], den, out=np.zeros(n), where=den != 0.0)
            vals[:, r] = saved + right[:, r + 1] * temp
            saved = left[:, j - r] * temp
        vals[:, j] = saved
    out = np.zeros((n, count))
    cols = mu[:, None] - degree + np.arange(degree + 1)[None, :]
    np.put_along_axis(out, cols, vals, axis=1)
    return out


def closed_form_end_slopes(kv):
    """Closed form of the clamped end derivatives: only the two outermost
    basis functions move, by -+p over the width of the end span."""
    t, p = augmented(kv), DEGREE
    n = len(t) - p - 1
    der = np.zeros((2, n))
    der[0, [0, 1]] = [-p / (t[p + 1] - kv.lo), p / (t[p + 1] - kv.lo)]
    der[1, [n - 2, n - 1]] = [-p / (kv.hi - t[n - 1]), p / (kv.hi - t[n - 1])]
    return der


def oracle_basis(kv, x):
    """Dense reference: every basis function at every point. Rows inside
    (lo, hi) come from the recurrence; rows at or outside an end continue the
    end rows linearly with the closed-form end values and slopes."""
    t = augmented(kv)
    n = len(t) - DEGREE - 1
    val = np.eye(n)[[0, n - 1]]
    der = closed_form_end_slopes(kv)
    x = np.atleast_1d(np.asarray(x, dtype=float))
    out = np.zeros((x.shape[0], n))
    below = x <= kv.lo
    above = x >= kv.hi
    inside = ~(below | above)
    if inside.any():
        out[inside] = recurrence_rows(t, DEGREE, x[inside])
    if below.any():
        out[below] = val[0] + (x[below] - kv.lo)[:, None] * der[0]
    if above.any():
        out[above] = val[1] + (x[above] - kv.hi)[:, None] * der[1]
    return out


def oracle_design(X, bases):
    """Intercept plus one dense basis block per variable, stacked."""
    blocks = [np.ones((X.shape[0], 1))]
    blocks += [oracle_basis(kv, X[:, j]) for j, kv in enumerate(bases)]
    return np.hstack(blocks)


def layer_terms(doc, X):
    """For each layer of the model document ``doc``: its value at every row
    of X and the row's term size, the sum of |coefficient * column|."""
    X = np.asarray(X, dtype=float)
    terms = []
    for layer in doc["layers"]:
        c = np.array(layer["coefficients"], dtype=float)
        if layer["kind"] == "linear":
            design = np.column_stack([np.ones(X.shape[0]), X])
        else:
            variables = layer["variables"]
            bases = [Knots(tuple(v["interior"]), v["lo"], v["hi"]) for v in variables]
            design = oracle_design(X[:, [v["id"] for v in variables]], bases)
        terms.append((design @ c, np.abs(design) @ np.abs(c)))
    return terms


def predict(doc, X):
    """Each row's prediction from the model document ``doc``, and its size:
    the magnitude of every quantity the fold adds, each carried up through
    the denominators it sits under (1/a moves by d/a**2 when a moves by d)."""
    layers = doc["layers"]
    floor, norm = doc["denom_floor"], doc["norm"]
    terms = layer_terms(doc, X)

    def fraction(i, row):
        """g_i - C_i + 1 / fraction(i + 1), and its size, at one row."""
        g, size = float(terms[i][0][row]), float(terms[i][1][row])
        c = layers[i]["offset"]
        if i == len(layers) - 1:
            if doc["literal_final_offset"]:
                return g - c, size + abs(c)
            return g, size
        below, below_size = fraction(i + 1, row)
        if abs(below) < floor:
            below = -floor if below < 0.0 else floor
        return g - c + 1.0 / below, size + abs(c) + (abs(below) + below_size) / below**2

    rows = [fraction(0, row) for row in range(np.shape(X)[0])]
    pred = np.array([norm * value for value, _ in rows])
    return pred, np.array([norm * size for _, size in rows])
