"""Acceptance gate: one test per shipped guarantee.

Run with ``pytest tests/test_acceptance.py -v`` to get a pass/fail line per
guarantee. The superconductivity benchmarks need the UCI table (a CSV with 81
feature columns and a ``critical_temp`` target, 21263 rows); those tests skip
with a pointer to the README when the file is absent. Point the suite at the
file with the SPLINECFR_UCI_CSV environment variable or place it at
``data/train.csv`` under the repository root. With the table present the
full-scale fits take a few minutes in total.
"""

import os
import time
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest

from splinecfr.bench import ExperimentConfig, run_benchmark, write_bench_outputs
from splinecfr.cfr_core import (
    AdditiveSplineModel,
    CFracModel,
    FitConfig,
    LinearModel,
    deserialize,
    fit,
    select_knots,
    serialize,
    training_rmse_by_depth,
)
from splinecfr.data_io import (
    Dataset,
    gen_gamma,
    load_csv,
    split_out_of_domain,
    split_out_of_sample,
)
from splinecfr.evaluation import (
    cohen_kappa,
    rank_matrix,
    rmse,
    threshold_counts,
)
from splinecfr.fileio import csv_text
from splinecfr.solver import JITTER, least_squares, penalized_least_squares
from splinecfr.spline_basis import LayerBases, build_knot_vector, design_matrix, penalty_block

DATA_ENV = "SPLINECFR_UCI_CSV"
OLS_CONFIG = FitConfig(lam=0.0, knots_per_depth=1, norm=1.0, max_depth=0)


def reference_data_path() -> str | None:
    path = os.environ.get(DATA_ENV)
    if path:
        return path
    fallback = Path(__file__).resolve().parent.parent / "data" / "train.csv"
    if fallback.exists():
        return str(fallback)
    return None


needs_reference_data = pytest.mark.skipif(
    reference_data_path() is None,
    reason=(
        "superconductivity table not found; set SPLINECFR_UCI_CSV or place it "
        "at data/train.csv (download instructions in the README)"
    ),
)


@pytest.fixture(scope="module")
def uci():
    ds = load_csv(reference_data_path(), "critical_temp")
    assert ds.features.shape == (21263, 81), "unexpected table shape; wrong file?"
    return ds


@pytest.fixture(scope="module")
def ols_oos_rmses(uci):
    """Baseline out-of-sample RMSE over 20 seeded shuffled splits."""
    values = []
    for seed in range(20):
        split = split_out_of_sample(uci, seed)
        model = fit(split.train.features, split.train.target, OLS_CONFIG)
        values.append(rmse(split.test.target, model.predict(split.test.features)))
    return values


@needs_reference_data
def test_baseline_linear_oos_error_band(ols_oos_rmses):
    """Plain least squares on shuffled 2/3-1/3 splits lands in a narrow,
    implementation-independent error band."""
    median = float(np.median(ols_oos_rmses))
    assert 17.1 <= median <= 18.2, f"baseline median RMSE {median:.3f} outside [17.1, 18.2]"


@needs_reference_data
def test_spline_oos_beats_baseline(uci, ols_oos_rmses):
    """Default spline continued fraction halves the baseline's out-of-sample
    error. Expect roughly a minute per run at full scale."""
    spline = []
    for seed in range(10):
        split = split_out_of_sample(uci, seed)
        model = fit(split.train.features, split.train.target, FitConfig())
        spline.append(rmse(split.test.target, model.predict(split.test.features)))
    median = float(np.median(spline))
    baseline = float(np.median(ols_oos_rmses))
    assert median <= 13.0, f"spline median RMSE {median:.3f} exceeds 13.0"
    assert median < baseline, f"spline median {median:.3f} not below baseline {baseline:.3f}"


@needs_reference_data
def test_spline_ood_beats_baseline_and_flags_high_targets(uci):
    """Trained only on the low-target 90%, the spline model extrapolates with
    lower error than the linear baseline and predicts values at or above the
    split threshold at least 50 times in at least half the runs."""
    spline_rmses, ols_rmses, big_counts = [], [], []
    for seed in range(10):
        split = split_out_of_domain(uci, quantile=0.9, seed=seed)
        spline = fit(split.train.features, split.train.target, FitConfig())
        ols = fit(split.train.features, split.train.target, OLS_CONFIG)
        spline_pred = spline.predict(split.test.features)
        spline_rmses.append(rmse(split.test.target, spline_pred))
        ols_rmses.append(rmse(split.test.target, ols.predict(split.test.features)))
        p_count, _ = threshold_counts(spline_pred, split.threshold)
        big_counts.append(p_count)
    spline_median = float(np.median(spline_rmses))
    ols_median = float(np.median(ols_rmses))
    assert spline_median < ols_median, (
        f"spline median {spline_median:.3f} not below baseline {ols_median:.3f}"
    )
    hits = sum(1 for c in big_counts if c >= 50)
    assert hits >= len(big_counts) / 2, (
        f"only {hits}/{len(big_counts)} runs predicted >= 50 high-target values: {big_counts}"
    )


def test_synthetic_gamma_deeper_fits_train_better():
    """On the noisy gamma curve, depth 15 reaches lower training error than
    depth 3 (same knot budget per depth), and the fit stays under 5 seconds."""
    ds = gen_gamma(120, seed=5)
    config = FitConfig(lam=0.1, knots_per_depth=3, norm=1.0, max_depth=15)
    start = time.perf_counter()
    model = fit(ds.features, ds.target, config)
    seconds = time.perf_counter() - start
    rmses = training_rmse_by_depth(model, ds.features, ds.target)
    assert rmses[15] < rmses[3], f"depth 15 RMSE {rmses[15]:.4f} >= depth 3 RMSE {rmses[3]:.4f}"
    assert seconds < 5.0, f"fit took {seconds:.2f}s"


def _sign_walk_oracle(residuals, k):
    """Brute-force restatement of the knot selection rule: walk samples by
    descending |residual| (ties toward the lower index), accept the first,
    then accept only sign changes; zero residuals count as positive."""
    order = sorted(range(len(residuals)), key=lambda i: (-abs(residuals[i]), i))
    picked: list[int] = []
    last = 0
    for i in order:
        if len(picked) == k:
            break
        sign = 1 if residuals[i] >= 0 else -1
        if not picked or sign != last:
            picked.append(i)
            last = sign
    return picked


def test_property_battery(tmp_path):
    """Exhaustive desk-scale properties, all in one sweep."""
    rng = np.random.default_rng(2024)

    # Basis functions sum to one on [lo, hi], its ends included.
    for _ in range(1000):
        interior = tuple(
            float(v) for v in np.unique(rng.uniform(0.05, 0.95, size=rng.integers(0, 8)))
        )
        kv = build_knot_vector(interior, 0.0, 1.0)
        x = min(max(float(rng.uniform(-0.25, 1.25)), 0.0), 1.0)
        total = design_matrix(np.array([[x]]), LayerBases([kv]))[0, 1:].sum()
        assert abs(total - 1.0) < 1e-9, f"partition of unity off by {total - 1.0:.2e} at {x}"

    # So a spline layer with equal coefficients inside each block is flat,
    # its end slopes are 0, and rows pushed out of the box predict what
    # their copies clipped to it do.
    flat_rng = np.random.default_rng(2025)
    for _ in range(50):
        m = int(flat_rng.integers(1, 4))
        bounds = np.sort(flat_rng.uniform(-5.0, 5.0, (m, 2)), axis=1)
        lo, hi = bounds.T
        knots = lo + (hi - lo) * np.sort(flat_rng.uniform(0.05, 0.95, (4, m)), axis=0)
        bases = LayerBases(map(build_knot_vector, knots.T, lo, hi))
        levels = flat_rng.uniform(0.5, 2.0, m)
        blocks = [np.full(kv.basis_count, level) for kv, level in zip(bases, levels)]
        c = np.concatenate([flat_rng.uniform(0.0, 1.0, 1), *blocks])
        spline = AdditiveSplineModel(tuple(range(m)), bases, c)
        model = CFracModel(1.0, (LinearModel(np.zeros(m + 1)), spline), bounds, 1.0)
        inside = lo + (hi - lo) * flat_rng.random((20, m))
        pushed = inside + (hi - lo) * flat_rng.uniform(-3.0, 3.0, (20, m))
        assert model.outside_box(pushed).any()
        npt.assert_allclose(
            model.predict(pushed),
            model.predict(np.clip(pushed, lo, hi)),
            rtol=1e-12,
            atol=0.0,
            err_msg="a flat spline layer is not flat beyond the box",
        )

    # Penalized solve at lambda 0 is ordinary least squares, and for small
    # systems it matches explicit inversion of the regularized normal matrix.
    for _ in range(50):
        size = int(rng.integers(3, 6))
        lead = int(rng.integers(0, 2))
        p = lead + size
        n = int(rng.integers(p + 2, 30))
        A = rng.normal(size=(n, p))
        y = rng.normal(size=n)
        block = penalty_block(size)
        npt.assert_allclose(
            penalized_least_squares(A, y, 0.0, [block]),
            least_squares(A, y),
            atol=1e-8,
            err_msg="lambda 0 is not plain least squares",
        )
        lam = float(rng.uniform(0.0, 5.0))
        g = A.T @ A + JITTER * np.eye(p)
        g[lead:, lead:] += lam * block
        npt.assert_allclose(
            penalized_least_squares(A, y, lam, [block]),
            np.linalg.inv(g) @ A.T @ y,
            atol=1e-8,
            err_msg="penalized solve disagrees with explicit inversion",
        )

    # Depth 0 is exactly norm-scaled least squares.
    X = rng.normal(size=(60, 3))
    y = X @ np.array([2.0, -1.0, 0.5]) + 3.0 + rng.normal(0.0, 0.1, size=60)
    depth0 = fit(X, y, FitConfig(lam=0.0, knots_per_depth=1, norm=7.0, max_depth=0))
    beta = least_squares(np.column_stack([np.ones(60), X]), y)
    npt.assert_allclose(
        depth0.predict(X), beta[0] + X @ beta[1:], atol=1e-10,
        err_msg="depth 0 is not the scaled linear fit",
    )

    # A constant target is recovered exactly at any depth, even off the grid.
    y_const = np.full(60, 4.25)
    X_new = rng.normal(size=(20, 3))
    for depth in (0, 2, 5):
        model = fit(X, y_const, FitConfig(max_depth=depth))
        npt.assert_allclose(model.predict(X_new), 4.25, atol=1e-8,
                            err_msg=f"constant target lost at depth {depth}")

    # Knot selection matches the brute-force sign-walk oracle.
    for _ in range(1000):
        n = int(rng.integers(1, 51))
        r = rng.normal(size=n)
        if rng.random() < 0.5:
            r = np.round(r, 1)  # provoke ties and exact zeros
        k = int(rng.integers(1, 6))
        assert select_knots(r, k) == _sign_walk_oracle(r, k), "knot selection diverged"

    # Agreement statistic: symmetry, upper bound, and the hand-checked case.
    a = rng.integers(0, 2, size=300)
    b = rng.integers(0, 2, size=300)
    assert cohen_kappa(a, b) == cohen_kappa(b, a)
    assert cohen_kappa(a, b) <= 1.0
    assert cohen_kappa(np.array(["P", "P", "N", "N"]), np.array(["P", "N", "N", "N"])) == 0.5

    # Rank matrix rows always sum to M(M+1)/2.
    ranks = rank_matrix(rng.uniform(1, 9, size=(8, 3)))
    npt.assert_allclose(ranks.sum(axis=1), np.full(8, 6.0))

    # Serialized models predict bit-for-bit identically.
    model = fit(X, y, FitConfig(max_depth=2, knots_per_depth=2))
    clone = deserialize(serialize(model))
    npt.assert_array_equal(model.predict(X_new), clone.predict(X_new),
                           err_msg="round-trip changed predictions")

    # Same seed, same config: byte-identical benchmark reports.
    data_csv = tmp_path / "battery.csv"
    rows = [(float(X[i, 0]), float(X[i, 1]), float(X[i, 2]), float(y[i])) for i in range(60)]
    data_csv.write_text(csv_text(["x0", "x1", "x2", "y"], rows))
    cfg = dict(
        data=str(data_csv), target="y", runs=2, base_seed=3,
        fit=FitConfig(max_depth=1, knots_per_depth=2),
    )
    for out in ("rep_one", "rep_two"):
        tables = run_benchmark(ExperimentConfig(out_dir=str(tmp_path / out), **cfg))
        write_bench_outputs(tables, tmp_path / out)
    for name in ("run_reports.csv", "aggregate.csv", "rank_matrix.csv"):
        first = (tmp_path / "rep_one" / name).read_bytes()
        second = (tmp_path / "rep_two" / name).read_bytes()
        assert first == second, f"{name} differs between identical runs"


def test_ood_separation_invariant():
    """Every low-train/high-test split keeps all training targets strictly
    below every test target, across seeds, sizes, and tie patterns."""
    rng = np.random.default_rng(99)
    for trial in range(40):
        n = int(rng.integers(10, 200))
        y = np.round(rng.normal(50.0, 20.0, size=n), int(rng.integers(0, 3)))
        if np.unique(y).size < 2:
            continue
        X = rng.normal(size=(n, 2))
        ds = Dataset(features=X, target=y, feature_names=("x0", "x1"), target_name="y")
        for seed in range(3):
            split = split_out_of_domain(ds, quantile=0.9, seed=seed)
            assert split.train.target.max() < split.test.target.min(), (
                f"trial {trial} seed {seed}: train/test targets overlap"
            )
            assert split.train.target.max() < split.threshold <= split.test.target.min()


@needs_reference_data
def test_ood_threshold_on_reference_data(uci):
    """On the superconductivity table the 90% cut lands at about 89 K."""
    split = split_out_of_domain(uci, quantile=0.9, seed=0)
    assert 88.0 <= split.threshold <= 90.0, f"threshold {split.threshold:.3f} K not near 89 K"
    assert split.train.target.max() < split.threshold
