"""Seeded synthetic table with the shape of the UCI superconductivity data.

The UCI table has 21263 materials, 81 features and the target
``critical_temp``. Its features are ten statistics (mean, weighted mean,
geometric means, entropies, ranges, standard deviations) of eight element
properties over the elements of each material, plus the element count. This
generator rebuilds that structure from a random "periodic table": materials
are drawn from a finite pool of formulas, so identical formulas repeat and
many columns hold tied, discrete values (element counts, integer valences),
which exercises knot de-duplication the way the real table does.

The target is a nonlinear additive function of a few feature columns plus
row-level noise, so a spline layer improves on the linear layer. Nothing here
is tuned to make the deep default fit behave well; whatever the fit does on
this table is what the benchmark reports.
"""

from __future__ import annotations

import hashlib

import numpy as np

ROWS = 21263
TARGET = "critical_temp"
PROPERTIES = (
    "atomic_mass",
    "fie",
    "atomic_radius",
    "Density",
    "ElectronAffinity",
    "FusionHeat",
    "ThermalConductivity",
    "Valence",
)
STATISTICS = (
    "mean",
    "wtd_mean",
    "gmean",
    "wtd_gmean",
    "entropy",
    "wtd_entropy",
    "range",
    "wtd_range",
    "std",
    "wtd_std",
)
FEATURES = ("number_of_elements",) + tuple(
    f"{stat}_{prop}" for prop in PROPERTIES for stat in STATISTICS
)

_ELEMENTS = 86
_MAX_PARTS = 9
# (log-median, log-sd) per property; valence is drawn separately as 1..7.
_PROPERTY_SCALE = {
    "atomic_mass": (4.3, 0.8),
    "fie": (6.6, 0.4),
    "atomic_radius": (5.0, 0.4),
    "Density": (8.0, 1.5),
    "ElectronAffinity": (3.5, 1.0),
    "FusionHeat": (2.0, 1.2),
    "ThermalConductivity": (3.0, 1.5),
}


def _element_properties(rng: np.random.Generator) -> np.ndarray:
    props = np.empty((_ELEMENTS, len(PROPERTIES)))
    for k, name in enumerate(PROPERTIES):
        if name == "Valence":
            props[:, k] = rng.integers(1, 8, _ELEMENTS)
        else:
            mu, sd = _PROPERTY_SCALE[name]
            # Rounded to one decimal, like tabulated element data.
            props[:, k] = np.round(np.exp(rng.normal(mu, sd, _ELEMENTS)), 1)
    return np.maximum(props, 0.1)


def _formula_stats(values: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Ten statistics of one property over the parts of each formula.

    ``values`` and ``counts`` are (formulas, parts); all formulas in a call
    have the same number of parts.
    """
    w = counts / counts.sum(axis=1, keepdims=True)
    mean = values.mean(axis=1)
    wtd_mean = (w * values).sum(axis=1)
    logs = np.log(values)
    gmean = np.exp(logs.mean(axis=1))
    wtd_gmean = np.exp((w * logs).sum(axis=1))

    def entropy(a: np.ndarray) -> np.ndarray:
        share = a / a.sum(axis=1, keepdims=True)
        return -(share * np.log(share)).sum(axis=1)

    wv = w * values
    return np.column_stack(
        [
            mean,
            wtd_mean,
            gmean,
            wtd_gmean,
            entropy(values),
            entropy(wv),
            values.max(axis=1) - values.min(axis=1),
            wv.max(axis=1) - wv.min(axis=1),
            values.std(axis=1),
            np.sqrt((w * (values - wtd_mean[:, None]) ** 2).sum(axis=1)),
        ]
    )


def _formula_features(rng: np.random.Generator, formulas: int) -> np.ndarray:
    props = _element_properties(rng)
    # A few elements (the oxygens and coppers of this table) are far more
    # common than the rest.
    popularity = rng.pareto(1.2, _ELEMENTS) + 0.05
    popularity /= popularity.sum()
    parts = np.minimum(1 + rng.poisson(2.8, formulas), _MAX_PARTS)
    out = np.empty((formulas, len(FEATURES)))
    out[:, 0] = parts
    for k in range(1, _MAX_PARTS + 1):
        idx = np.flatnonzero(parts == k)
        if idx.size == 0:
            continue
        # k distinct elements per formula, drawn in order of popularity
        # without replacement (Gumbel top-k).
        keys = np.log(popularity) + rng.gumbel(size=(idx.size, _ELEMENTS))
        elems = np.argsort(-keys, axis=1)[:, :k]
        counts = rng.integers(1, 8, (idx.size, k)).astype(float)
        for j in range(len(PROPERTIES)):
            cols = slice(1 + j * len(STATISTICS), 1 + (j + 1) * len(STATISTICS))
            out[idx, cols] = _formula_stats(props[elems, j], counts)
    return out


def _standardized(col: np.ndarray) -> np.ndarray:
    sd = col.std()
    return (col - col.mean()) / (sd if sd > 0 else 1.0)


def make_table(seed: int, rows: int = ROWS) -> tuple[np.ndarray, np.ndarray]:
    """Return (features, target): a ``rows`` x 81 matrix and its target.

    The same seed always gives the same table, bit for bit.
    """
    if rows < 10:
        raise ValueError(f"need at least 10 rows, got {rows}")
    rng = np.random.default_rng(seed)
    pool = _formula_features(rng, max(8, (rows * 2) // 5))
    # Materials repeat: a row picks a formula with a skewed probability.
    weight = rng.pareto(2.0, pool.shape[0]) + 0.1
    X = pool[rng.choice(pool.shape[0], rows, p=weight / weight.sum())]

    col = {name: X[:, i] for i, name in enumerate(FEATURES)}
    z = {name: _standardized(np.log1p(v)) for name, v in col.items()}
    signal = (
        28.0 / (1.0 + np.exp(-2.5 * z["wtd_mean_atomic_mass"]))
        + 9.0 * np.sin(1.7 * z["wtd_entropy_atomic_radius"])
        + 5.0 * np.clip(z["range_ThermalConductivity"], -2.5, 2.5) ** 2
        + 6.0 * np.tanh(z["wtd_gmean_Valence"])
        + 4.0 * z["std_Density"]
        + 2.0 * col["number_of_elements"]
    )
    noise = rng.normal(0.0, 3.0, rows)
    # A small share of samples measure far below what their formula
    # predicts, like the near-zero critical temperatures in the UCI data.
    low = rng.random(rows) < 0.02
    noise[low] -= rng.uniform(20.0, 60.0, int(low.sum()))
    y = 1.6 * (signal - np.percentile(signal, 1)) + noise
    return X, np.maximum(np.round(y, 4), 0.00021)


def table_digest(X: np.ndarray, y: np.ndarray) -> str:
    """SHA-256 over the raw bytes of the feature matrix and the target."""
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(X, dtype="<f8").tobytes())
    h.update(np.ascontiguousarray(y, dtype="<f8").tobytes())
    return h.hexdigest()
