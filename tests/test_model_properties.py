"""Property tests of the out-of-domain split and of fitted models."""

import json
import warnings
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest

import test_cfr_core
from reference_model import layer_terms
from splinecfr import cfr_core
from splinecfr.cfr_core import FitConfig, deserialize, fit, serialize
from splinecfr.data_io import Dataset, split_out_of_domain
from splinecfr.errors import TrainingRmseWarning

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

# The ValueErrors split_out_of_domain documents for a valid quantile.
SPLIT_REFUSALS = ("target is constant", "leaves an empty pool", "no targets strictly above")


@hypothesis.settings(deadline=None)
@hypothesis.given(
    # Few distinct values, so ties sit on the pool boundary.
    targets=st.lists(st.integers(0, 5).map(float), min_size=1, max_size=40),
    quantile=st.floats(0.01, 0.99),
    seed=st.integers(0, 2**32 - 1),
)
def test_ood_split_separates_or_refuses(targets, quantile, seed):
    y = np.array(targets)
    ds = Dataset(np.zeros((y.size, 1)), y, ("x",), "y")
    try:
        split = split_out_of_domain(ds, quantile=quantile, seed=seed)
    except ValueError as exc:
        assert any(reason in str(exc) for reason in SPLIT_REFUSALS), str(exc)
        return
    assert split.train.target.max() < split.threshold <= split.test.target.min()


@st.composite
def fit_problems(draw):
    n = draw(st.integers(4, 30))
    m = draw(st.integers(1, 3))
    cells = st.floats(-50.0, 50.0, allow_nan=False, allow_infinity=False)
    X = np.array(draw(st.lists(cells, min_size=n * m, max_size=n * m))).reshape(n, m)
    y = np.array(draw(st.lists(cells, min_size=n, max_size=n)))
    config = FitConfig(
        lam=draw(st.sampled_from([0.0, 0.1, 0.5])),
        knots_per_depth=draw(st.integers(1, 4)),
        norm=draw(st.sampled_from([1.0, 10.0, 1000.0])),
        max_depth=draw(st.integers(0, 2)),
        auto_depth=draw(st.booleans()),
        literal_final_offset=draw(st.booleans()),
    )
    # Every row pushed out of the box on every feature, below or above.
    side = np.where(np.arange(n) % 2 == 0, -1.0, 1.0)[:, None]
    push = draw(st.floats(0.1, 3.0))
    lo, hi = X.min(axis=0), X.max(axis=0)
    outside = X + side * ((hi - lo) * (1.0 + push) + 1.0)
    return X, y, config, outside


@hypothesis.settings(deadline=None, max_examples=60)
@hypothesis.given(fit_problems(), st.data())
def test_small_fits_round_trip_and_extrapolate_finitely(problem, data):
    X, y, config, outside = problem
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TrainingRmseWarning)
        model = fit(X, y, config)
    # Distinct feature names and a target name, set as the CLI's fit sets them.
    m = X.shape[1]
    names = data.draw(st.lists(st.text(), min_size=m + 1, max_size=m + 1, unique=True))
    model = replace(model, feature_names=tuple(names[:m]), target_name=names[m])
    text = serialize(model)
    loaded = deserialize(text)
    assert serialize(loaded) == text
    batch = np.vstack([X, outside])
    assert loaded.predict(batch).tobytes() == model.predict(batch).tobytes()
    assert np.isfinite(model.predict(outside)).all()



@hypothesis.settings(deadline=None, max_examples=60)
@hypothesis.given(fit_problems(), st.floats(0.01, 2.0))
def test_layers_are_linear_outside_the_box(problem, stride):
    X, y, config, outside = problem
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TrainingRmseWarning)
        model = fit(X, y, config)
    # A step that takes every row further out on the side it already lies.
    lo, hi = X.min(axis=0), X.max(axis=0)
    step = np.where(outside > hi, 1.0, -1.0) * ((hi - lo) + 1.0) * stride
    points = [outside + k * step for k in range(3)]
    v0, v1, v2 = (np.array(model.layer_values(x)) for x in points)
    # Rounding grows with the terms summed, not with their (possibly much
    # smaller) sum: an unpenalized fit can cancel large coefficients.
    scale = np.maximum.reduce([term_sizes(model, x) for x in points])
    assert (np.abs(v2 - 2.0 * v1 + v0) <= 1e-10 * scale).all()


@hypothesis.settings(deadline=None, max_examples=60)
@hypothesis.given(fit_problems(), st.data())
def test_spline_layers_match_the_dense_design_partly_outside_the_box(problem, data):
    X, y, config, outside = problem
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TrainingRmseWarning)
        model = fit(X, y, config)
    # Each cell stays, or leaves the box below or above: rows leave it on
    # some features only, on both sides, and in-box rows share the batch.
    reach = np.abs(outside - X)
    side = data.draw(st.lists(st.sampled_from([-1.0, 0.0, 1.0]), min_size=X.size, max_size=X.size))
    batch = np.vstack([X, X + np.reshape(side, X.shape) * reach])
    reference = layer_terms(json.loads(serialize(model)), batch)
    for value, (dense, size) in zip(model.layer_values(batch), reference):
        assert (np.abs(value - dense) <= 1e-12 * size).all()


@pytest.mark.parametrize(
    "block_cells", [cfr_core._BLOCK_CELLS, test_cfr_core.TestRowBlocks.BLOCK_CELLS]
)
@hypothesis.settings(deadline=None, max_examples=40)
@hypothesis.given(fit_problems(), st.data())
def test_repeated_rows_predict_as_their_distinct_rows(block_cells, problem, data):
    X, y, config, outside = problem
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TrainingRmseWarning)
        model = fit(X, y, config)
    # Rows inside and outside the box, some drawn twice, in a drawn order.
    pool = np.vstack([X, outside])
    picks = data.draw(st.lists(st.integers(0, pool.shape[0] - 1), min_size=1, max_size=90))
    batch = pool[data.draw(st.permutations(picks + picks[: len(picks) // 2 + 1]))]
    ids: dict[bytes, int] = {}
    group = np.array([ids.setdefault(row.tobytes(), len(ids)) for row in batch])
    first = np.unique(group, return_index=True)[1]
    # With small blocks, copies of a row land in different blocks.
    with mock.patch.object(cfr_core, "_BLOCK_CELLS", block_cells):
        pred = model.predict(batch).view(np.uint64)
        distinct = model.predict(batch[first]).view(np.uint64)
    assert (pred == pred[first][group]).all()  # byte-equal rows, byte-equal predictions
    assert (pred == distinct[group]).all()


def term_sizes(model, X):
    """Per layer and row, the sum of |coefficient * column| over all terms."""
    return np.array([size for _, size in layer_terms(json.loads(serialize(model)), X)])
