"""Multi-run benchmark harness: splits, fits, metrics, and report tables.

Each run draws its own split (seed = base_seed + run index), fits the
continued-fraction model and an ordinary least-squares baseline, and scores
both on the held-out rows. Externally produced predictions can join the
comparison through CSV files with columns run_id,row_id,y_true,y_pred; the
external splits must have been generated with the same protocol and seeds,
which is checked by comparing their y_true values against ours.

Everything written here is deterministic for a fixed config and seed except
``timings.csv``, which records wall-clock fit times and lives in its own
file precisely so the other outputs stay byte-for-byte reproducible.
"""

from __future__ import annotations

import time
import warnings
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .cfr_core import CFracModel, FitConfig, _require_integers, fit
from .data_io import (
    DEFAULT_TARGET,
    Dataset,
    SplitPair,
    load_csv,
    read_numeric_table,
    split_out_of_domain,
    split_out_of_sample,
)
from .errors import DataError, TrainingRmseWarning
from .evaluation import (
    aggregate,
    cohen_kappa,
    count_beyond_training_max,
    kappa_agreement_label,
    mean_relative_error,
    rank_matrix,
    rmse,
    threshold_counts,
)
from .fileio import atomic_write_text, csv_text

SPLINE_METHOD = "spline_cfr"
BASELINE_METHOD = "ols"

# CSV tables, ``{file name: (header, rows)}``, written in insertion order.
Tables = dict[str, tuple[Sequence[str], Iterable[Sequence]]]

# The baseline is the depth-0 special case of the same fitting routine:
# plain least squares on the raw features.
_BASELINE_CONFIG = FitConfig(lam=0.0, knots_per_depth=1, norm=1.0, max_depth=0)


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything cmd_bench needs to reproduce an experiment."""

    data: str
    target: str = DEFAULT_TARGET
    protocol: str = "oos"
    runs: int = 100
    base_seed: int = 0
    quantile: float = 0.9
    out_dir: str = "bench_out"
    fit: FitConfig = field(default_factory=FitConfig)
    predictions: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        _require_integers(self, "runs", "base_seed")
        if self.protocol not in ("oos", "ood"):
            raise ValueError(f"protocol must be 'oos' or 'ood', got {self.protocol!r}")
        if self.runs < 1:
            raise ValueError(f"runs must be at least 1, got {self.runs}")
        if self.base_seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.base_seed}")
        if not 0.0 < self.quantile < 1.0:
            raise ValueError(f"quantile must be inside (0, 1), got {self.quantile}")


def load_prediction_files(
    paths, reserved: tuple[str, ...] = ()
) -> dict[str, dict[int, tuple[np.ndarray, np.ndarray]]]:
    """Parse run_id,row_id,y_true,y_pred files into per-run (y_true, y_pred)
    vectors, keyed by method name in file order.

    The method name is the file name without its extension; names must be
    unique and must not be one of ``reserved``. Rows within a run are
    ordered by row_id.
    """
    expected = ["run_id", "row_id", "y_true", "y_pred"]
    out: dict[str, dict[int, tuple[np.ndarray, np.ndarray]]] = {}
    for path in paths:
        names, data = read_numeric_table(path, integer_columns=expected[:2])
        if names != expected:
            raise DataError(f"{path}: expected header {','.join(expected)}")
        name = Path(path).stem
        if name in out or name in reserved:
            raise DataError(f"duplicate method name {name!r} among prediction files")
        # Stable: by run, then by row_id within a run, ties in file order.
        data = data[np.lexsort((data[:, 1], data[:, 0]))]
        run_ids, starts = np.unique(data[:, 0], return_index=True)
        out[name] = {
            int(rid): (rows[:, 2], rows[:, 3])
            for rid, rows in zip(run_ids, np.split(data, starts[1:]))
        }
    return out


def same_y_true(a: np.ndarray, b: np.ndarray) -> bool:
    """Whether two y_true vectors describe the same rows (to 1e-8 absolute)."""
    return a.shape == b.shape and np.allclose(a, b, atol=1e-8, rtol=0.0)


KAPPA_HEADER = ["rater_1", "rater_2", "kappa", "agreement"]


def pairwise_kappa(labels: dict[str, np.ndarray]) -> list[tuple[str, str, float, str]]:
    """(rater_1, rater_2, kappa, agreement band) for every pair of methods,
    in insertion order, over each method's pooled boolean labels."""
    names = list(labels)
    rows = []
    for i in range(len(names)):
        for j in range(i + 1, len(names)):
            a, b = labels[names[i]], labels[names[j]]
            if a.shape != b.shape:
                raise DataError(
                    f"methods {names[i]!r} and {names[j]!r} cover different rows; "
                    "cannot compare labels"
                )
            k = cohen_kappa(a, b)
            rows.append((names[i], names[j], k, kappa_agreement_label(k)))
    return rows


def _split(ds: Dataset, cfg: ExperimentConfig, seed: int) -> SplitPair:
    if cfg.protocol == "oos":
        return split_out_of_sample(ds, seed)
    return split_out_of_domain(ds, quantile=cfg.quantile, seed=seed)


def _score(y_true: np.ndarray, y_pred: np.ndarray, split: SplitPair) -> list:
    """A method's run_reports.csv cells after method, run_id and seed. The
    P/N counts, the count of predictions beyond the training maximum and the
    threshold are only scored on out-of-domain runs."""
    cells = [rmse(y_true, y_pred), mean_relative_error(y_true, y_pred)]
    if split.threshold is not None:
        cells += [
            *threshold_counts(y_pred, split.threshold),
            count_beyond_training_max(y_pred, split.train.target.max()),
            split.threshold,
        ]
    return cells


def run_benchmark(cfg: ExperimentConfig) -> Tables:
    """Score every method on every run; returns the report tables.

    Every run scores the same methods in the same order: spline_cfr, ols,
    then the prediction files in the order given.
    """
    ds = load_csv(cfg.data, cfg.target)
    external = load_prediction_files(cfg.predictions, (SPLINE_METHOD, BASELINE_METHOD))
    methods = [SPLINE_METHOD, BASELINE_METHOD, *external]

    header = ["method", "run_id", "seed", "rmse", "mean_relative_error"]
    if cfg.protocol == "ood":
        header += ["p_count", "n_count", "beyond_training_max", "threshold"]
    rows: list[list] = []
    timings: list[tuple[str, int, float]] = []
    labels: dict[str, list[np.ndarray]] = {}
    training_rmse: list[tuple[float, ...]] = []
    for run_id in range(cfg.runs):
        seed = cfg.base_seed + run_id
        try:
            split, scored = _one_run(cfg, ds, run_id, seed, external, training_rmse)
            for method, (y_true, y_pred, fit_seconds) in zip(methods, scored):
                rows.append([method, run_id, seed, *_score(y_true, y_pred, split)])
                timings.append((method, run_id, fit_seconds))
                if split.threshold is not None:
                    labels.setdefault(method, []).append(y_pred >= split.threshold)
        except DataError as exc:
            raise DataError(f"run {run_id} (seed {seed}): {exc}") from exc
        except Exception as exc:
            raise RuntimeError(f"run {run_id} (seed {seed}) failed: {exc}") from exc
    _warn_worse_depths(training_rmse)

    col = header.index("rmse")
    table = np.array([row[col] for row in rows]).reshape(cfg.runs, len(methods))
    tables = {
        "run_reports.csv": (header, rows),
        "aggregate.csv": (
            ["method", "median_rmse", "std_rmse", "runs"],
            [(m, *summary) for m, summary in zip(methods, aggregate(table))],
        ),
        "rank_matrix.csv": (
            ["run_id", *methods],
            [(run_id, *ranks) for run_id, ranks in enumerate(rank_matrix(table))],
        ),
    }
    if cfg.protocol == "ood":
        tables["kappa.csv"] = (
            KAPPA_HEADER,
            pairwise_kappa({m: np.concatenate(c) for m, c in labels.items()}),
        )
    tables["timings.csv"] = (["method", "run_id", "fit_seconds"], timings)
    return tables


def _warn_worse_depths(training_rmse: list[tuple[float, ...]]) -> None:
    """One TrainingRmseWarning for the whole bench, counting the runs whose
    spline fit has a depth worse than the depth before it."""
    firsts = [next((d for d in range(1, len(r)) if r[d] > r[d - 1]), 0) for r in training_rmse]
    first_worse = Counter(d for d in firsts if d)
    if first_worse:
        named = ", ".join(f"depth {d}: {c}" for d, c in sorted(first_worse.items()))
        warnings.warn(
            f"in {first_worse.total()} of {len(training_rmse)} runs a depth raises the "
            f"training RMSE (runs by first such depth: {named}); auto depth keeps only "
            "the depths above it",
            TrainingRmseWarning,
            stacklevel=3,
        )


def _one_run(
    cfg: ExperimentConfig,
    ds: Dataset,
    run_id: int,
    seed: int,
    external: dict[str, dict[int, tuple[np.ndarray, np.ndarray]]],
    training_rmse: list[tuple[float, ...]],
) -> tuple[SplitPair, list[tuple[np.ndarray, np.ndarray, float]]]:
    """The run's split and each method's (y_true, y_pred, fit_seconds), in
    method order."""
    split = _split(ds, cfg, seed)
    y_test = split.test.target
    scored = []
    for method, fit_cfg in ((SPLINE_METHOD, cfg.fit), (BASELINE_METHOD, _BASELINE_CONFIG)):
        start = time.perf_counter()
        with warnings.catch_warnings():
            # run_benchmark sums these up in one warning after the runs.
            warnings.simplefilter("ignore", TrainingRmseWarning)
            model = fit(split.train.features, split.train.target, fit_cfg)
        seconds = time.perf_counter() - start
        if method == SPLINE_METHOD:
            training_rmse.append(model.training_rmse)
        scored.append((y_test, model.predict(split.test.features), seconds))
    for name, sets in external.items():
        if run_id not in sets:
            raise DataError(f"prediction file for {name!r} has no rows for this run")
        y_true, y_pred = sets[run_id]
        if not same_y_true(y_true, y_test):
            raise DataError(
                f"prediction file for {name!r} disagrees with the split's y_true; "
                "was it generated with the same protocol and seed?"
            )
        scored.append((y_true, y_pred, 0.0))
    return split, scored


def write_tables(out_dir: str | Path, tables: Tables) -> list[Path]:
    """Write each ``name: (header, rows)`` as the CSV file ``out_dir/name``;
    returns the written paths."""
    written = []
    for name, (header, rows) in tables.items():
        path = Path(out_dir) / name
        atomic_write_text(path, csv_text(header, rows))
        written.append(path)
    return written


def write_bench_outputs(tables: Tables, out_dir: str | Path) -> list[Path]:
    """Write run_benchmark's tables; returns the written paths."""
    return write_tables(out_dir, tables)
