"""CSV ingestion, split protocols, and synthetic generators.

All randomness flows through ``numpy.random.default_rng`` (the PCG64
generator) seeded explicitly, so every split and every synthetic dataset is
reproducible from its seed alone.

Every ``Dataset`` is built here from checked input: ``load_csv`` from
``read_numeric_table``'s finite matrix, the generators from their checked
arguments, the splits from rows of a dataset with ``ExperimentConfig``'s
checked quantile.
"""

from __future__ import annotations

import csv
import io
import math
import re
import warnings
from dataclasses import dataclass, replace
from typing import Iterable, Iterator, Sequence, TextIO

import numpy as np

from .errors import DataError

DEFAULT_TARGET = "critical_temp"

# Share of each out-of-domain pool that a split keeps.
_OOD_SUBSAMPLE = 0.5
# A byte that is not UTF-8 decodes to one of these lone surrogates, a bad cell.
_TEXT_MODE = {"encoding": "utf-8", "errors": "surrogateescape", "newline": ""}
_NOT_UTF8 = re.compile("[\udc80-\udcff]")


@dataclass(frozen=True, eq=False)
class Dataset:
    """A fully numeric table: feature matrix, target vector, column names.

    The features are 2-D, finite and float with one name per column, the
    target 1-D, finite and float with one entry per row. Nothing here checks
    it: ``load_csv``, the generators and ``take`` build it so.
    """

    features: np.ndarray
    target: np.ndarray
    feature_names: tuple[str, ...]
    target_name: str

    @property
    def n(self) -> int:
        return self.features.shape[0]

    def take(self, indices: np.ndarray) -> "Dataset":
        return replace(self, features=self.features[indices], target=self.target[indices])


@dataclass(frozen=True, eq=False)
class SplitPair:
    """Train and test rows of one split. Only the out-of-domain split sets
    ``threshold``, the smallest target of its test pool."""

    train: Dataset
    test: Dataset
    threshold: float | None = None


def read_numeric_table(
    path: str, integer_columns: Sequence[str] = ()
) -> tuple[list[str], np.ndarray]:
    """Read a CSV with a header row into column names and a float matrix.

    Cells are separated by commas only, there are no comment lines, blank
    lines are skipped, and every cell parses exactly as Python's ``float()``
    parses it. Every cell must be a finite number, and every cell of a
    column named in ``integer_columns`` a whole number; failures are
    reported with the column name and the physical line on which the
    row's record ends (a quoted cell may span lines). A byte that is not
    UTF-8 is such a failure, in a cell or in the header.

    The body is first read in one ``np.loadtxt`` pass, which keeps no
    per-cell strings. That pass returns only a table that meets every rule
    above; otherwise the body is read again cell by cell with ``float()``,
    which gives the same values or names the first bad cell. A pipe, such as
    ``/dev/stdin``, is held once as its undecoded bytes and then read as a
    file is. A file needs about as much memory as the returned matrix, a pipe
    about 4 times it.
    """
    try:
        fh = open(path, **_TEXT_MODE)
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc.strerror or exc}") from exc
    with fh:
        if not fh.seekable():
            # Bytes, not a StringIO: decoded text would take up to 4 bytes a character.
            fh = io.TextIOWrapper(io.BytesIO(fh.buffer.read()), **_TEXT_MODE)
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise DataError(f"{path}: empty file, expected a header row")
        if _NOT_UTF8.search(",".join(header)):
            raise DataError(f"{path} line {reader.line_num}: header is not UTF-8")
        names = [h.strip() for h in header]
        if len(set(names)) != len(names):
            raise DataError(f"{path}: duplicate column names in header")
        integer_cols = [names.index(nm) for nm in integer_columns if nm in names]
        data = _loadtxt_body(fh, len(names), integer_cols)
        if data is not None:
            return names, data
        fh.seek(0)
        reader = csv.reader(fh)
        next(reader)  # the header, already checked
        return names, _float_body(path, reader, names, integer_cols)


def _first_bad_cell(data: np.ndarray, integer_cols: list[int]) -> tuple[int, int] | None:
    """(row, column) of the first non-finite cell of ``data``, else of the first
    fractional cell of the ``integer_cols`` in the order given, else None."""
    bad = np.argwhere(~np.isfinite(data))
    if bad.size:
        return int(bad[0, 0]), int(bad[0, 1])
    for j in integer_cols:
        fractional = np.flatnonzero(data[:, j] != np.floor(data[:, j]))
        if fractional.size:
            return int(fractional[0]), j
    return None


def _float_lines(lines: Iterable[str]) -> Iterator[str]:
    """Pass ``lines`` through, raising ValueError at the first line holding
    a character that numpy's float parser skips as whitespace but
    ``float()`` rejects (the ASCII separators U+001C to U+001F)."""
    for line in lines:
        if "\x1c" in line or "\x1d" in line or "\x1e" in line or "\x1f" in line:
            raise ValueError("ASCII separator character")
        yield line


def _loadtxt_body(fh: TextIO, width: int, integer_cols: list[int]) -> np.ndarray | None:
    """The rest of ``fh`` parsed by ``np.loadtxt``, or None when that pass
    fails or its table breaks a rule of :func:`read_numeric_table`.

    numpy parses an ASCII decimal with the correctly rounded routine that
    ``float()`` uses. Apart from the separators that :func:`_float_lines`
    screens out, every cell it would read differently (underscores,
    non-ASCII digits, quotes) makes it raise.
    """
    try:
        with warnings.catch_warnings():
            # An empty body only warns; any warning means the exact reader decides.
            warnings.simplefilter("error")
            data = np.loadtxt(
                _float_lines(fh), delimiter=",", comments=None, ndmin=2, dtype=float
            )
    except (ValueError, Warning):
        return None
    if data.shape[1] != width or _first_bad_cell(data, integer_cols) is not None:
        return None
    return data


def _float_body(
    path: str, reader: Iterator[list[str]], names: list[str], integer_cols: list[int]
) -> np.ndarray:
    """The rows left in the ``csv.reader`` ``reader`` parsed cell by cell
    with ``float()``; raises DataError naming the line and column of the
    first cell that breaks a rule of :func:`read_numeric_table`."""
    linenos: list[int] = []
    rows: list[list[str]] = []
    stop = None  # what ended reading before the last record, if anything did
    try:
        for row in reader:
            if not row:
                continue  # tolerate trailing blank lines
            if len(row) != len(names):
                stop = f"expected {len(names)} cells, got {len(row)}"
                break
            linenos.append(reader.line_num)
            rows.append(row)
    except csv.Error as exc:  # e.g. a NUL byte before Python 3.11
        stop = str(exc)
    try:
        # numpy parses each cell as float() does.
        data = np.array(rows, dtype=float).reshape(len(rows), len(names))
    except ValueError:
        for lineno, row in zip(linenos, rows):
            for j, cell in enumerate(row):
                try:
                    float(cell)
                except ValueError:
                    what = "empty cell" if not cell.strip() else f"non-numeric value {cell!r}"
                    what = "not UTF-8" if _NOT_UTF8.search(cell) else what
                    raise DataError(
                        f"{path} line {lineno}, column {names[j]!r}: {what}"
                    ) from None
        raise
    bad = _first_bad_cell(data, integer_cols)
    if bad is not None:
        i, j = bad
        what = "non-finite value"
        if np.isfinite(data[i, j]):
            what = f"expected an integer, got {rows[i][j]!r}"
        raise DataError(f"{path} line {linenos[i]}, column {names[j]!r}: {what}")
    if stop is not None:  # only once the records above it have passed
        raise DataError(f"{path} line {reader.line_num}: {stop}")
    if not rows:
        raise DataError(f"{path}: no data rows")
    return data


def load_csv(path: str, target_column: str = DEFAULT_TARGET) -> Dataset:
    """Load a numeric CSV, splitting off ``target_column`` as the target.

    The features (C-contiguous) and the target are copies that own their
    memory, so the parsed table is freed on return.
    """
    names, data = read_numeric_table(path)
    if target_column not in names:
        raise DataError(f"{path}: no column named {target_column!r}")
    t = names.index(target_column)
    feature_names = tuple(nm for i, nm in enumerate(names) if i != t)
    feature_cols = [i for i in range(len(names)) if i != t]
    if not feature_cols:
        raise DataError(f"{path}: no feature columns besides the target")
    return Dataset(
        features=data.take(feature_cols, axis=1),
        target=data[:, t].copy(),
        feature_names=feature_names,
        target_name=target_column,
    )


def split_out_of_sample(ds: Dataset, seed: int) -> SplitPair:
    """Shuffle by seed; first two thirds train, the rest test."""
    if ds.n < 3:
        raise ValueError(f"need at least 3 rows to split, got {ds.n}")
    perm = np.random.default_rng(seed).permutation(ds.n)
    cut = (2 * ds.n) // 3
    return SplitPair(train=ds.take(perm[:cut]), test=ds.take(perm[cut:]))


def split_out_of_domain(ds: Dataset, quantile: float = 0.9, seed: int = 0) -> SplitPair:
    """Train on low targets, test strictly above them.

    Rows are sorted by target (stable, so ties keep their original order);
    the top ``1 - quantile`` share becomes the test pool and everything
    below it the train pool. Rows tied with the train pool's maximum join
    the train pool so that every test target is strictly above every train
    target. A seed-determined half of each pool is returned;
    the threshold is the smallest test-pool target. ``quantile`` lies inside
    (0, 1), as ``ExperimentConfig`` checks.
    """
    if np.unique(ds.target).size < 2:
        raise ValueError("target is constant; an out-of-domain split needs distinct values")
    order = np.argsort(ds.target, kind="stable")
    sorted_targets = ds.target[order]
    test_size = int(math.floor((1.0 - quantile) * ds.n + 1e-9))
    cut = ds.n - test_size
    if cut < 1 or test_size < 1:
        raise ValueError(f"quantile {quantile} leaves an empty pool for {ds.n} rows")
    # Absorb boundary ties into the train pool: the test pool must sit
    # strictly above every train target.
    boundary = sorted_targets[cut - 1]
    cut = int(np.searchsorted(sorted_targets, boundary, side="right"))
    if cut >= ds.n:
        raise ValueError("no targets strictly above the out-of-domain boundary")
    train_pool = order[:cut]
    test_pool = order[cut:]
    threshold = float(sorted_targets[cut])
    rng = np.random.default_rng(seed)
    n_train = max(1, int(math.floor(len(train_pool) * _OOD_SUBSAMPLE + 1e-9)))
    n_test = max(1, int(math.floor(len(test_pool) * _OOD_SUBSAMPLE + 1e-9)))
    train_idx = rng.permutation(train_pool)[:n_train]
    test_idx = rng.permutation(test_pool)[:n_test]
    return SplitPair(train=ds.take(train_idx), test=ds.take(test_idx), threshold=threshold)


def _validated_range(x_range: Sequence[float]) -> tuple[float, float]:
    lo, hi = float(x_range[0]), float(x_range[1])
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError(f"x_range must be finite, got ({lo}, {hi})")
    if not lo < hi:
        raise ValueError(f"x_range must satisfy lo < hi, got ({lo}, {hi})")
    if not math.isfinite(hi - lo):
        raise ValueError(f"x_range ({lo}, {hi}) is wider than float64 holds")
    return lo, hi


def _grid_dataset(x: np.ndarray, clean: np.ndarray, noise_sd: float, seed: int) -> Dataset:
    if not (math.isfinite(noise_sd) and noise_sd >= 0):
        raise ValueError(f"noise_sd must be finite and non-negative, got {noise_sd}")
    noise = np.random.default_rng(seed).normal(0.0, noise_sd, x.shape[0]) if noise_sd > 0 else 0.0
    with np.errstate(over="ignore"):
        y = clean + noise
    if not np.isfinite(y).all():
        raise ValueError(f"noise_sd {noise_sd} takes the target beyond float64")
    return Dataset(features=x[:, None], target=y, feature_names=("x",), target_name="y")


def gen_gamma(
    n: int, x_range: Sequence[float] = (0.5, 6.0), noise_sd: float = 1.0, seed: int = 0
) -> Dataset:
    """Gamma function on a uniform grid plus Gaussian noise.

    The gamma function has poles at zero and the negative integers; a range
    containing one is rejected.
    """
    if n < 1:
        raise ValueError(f"n must be at least 1, got {n}")
    lo, hi = _validated_range(x_range)
    if lo <= 0:
        pole = min(0, math.floor(hi))
        if lo <= pole <= hi:
            raise ValueError(
                f"x_range ({lo}, {hi}) contains a pole of the gamma function at {pole}"
            )
    x = np.linspace(lo, hi, n)
    try:
        clean = np.array([math.gamma(v) for v in x])
    except (ValueError, OverflowError) as exc:
        raise ValueError(f"gamma function not finite on ({lo}, {hi}): {exc}") from exc
    return _grid_dataset(x, clean, noise_sd, seed)


def gen_sinc(
    n: int, x_range: Sequence[float] = (-10.0, 10.0), noise_sd: float = 0.1, seed: int = 0
) -> Dataset:
    """sin(x)/x on a uniform grid plus Gaussian noise; value 1 at x = 0."""
    if n < 1:
        raise ValueError(f"n must be at least 1, got {n}")
    lo, hi = _validated_range(x_range)
    x = np.linspace(lo, hi, n)
    clean = np.ones(n)
    nz = x != 0.0
    clean[nz] = np.sin(x[nz]) / x[nz]
    return _grid_dataset(x, clean, noise_sd, seed)
