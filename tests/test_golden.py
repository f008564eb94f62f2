"""Golden fixture: a fixed fit and its predictions must not change.

``tests/golden/model.json`` and ``tests/golden/predictions.txt`` hold the
model fitted on a seeded synthetic table and the ``repr`` of its predictions
on a batch that is half inside the training box and half pushed out of it.
A change that is meant to keep outputs must leave both byte-identical.

To regenerate after a change that is meant to move outputs (and says so in
CHANGES.md): ``PYTHONPATH=src python tests/test_golden.py``.
"""

import json
from pathlib import Path

import numpy as np
import pytest

import reference_model
from splinecfr.cfr_core import FitConfig, deserialize, fit, serialize
from splinecfr.errors import TrainingRmseWarning

GOLDEN = Path(__file__).parent / "golden"
CONFIG = FitConfig(max_depth=3)


def golden_table():
    """300 rows, 3 features: continuous, discrete grid (ties), skewed."""
    rng = np.random.default_rng(20201206)
    n = 300
    X = np.column_stack(
        [
            rng.uniform(-2.0, 3.0, n),
            rng.integers(0, 8, n).astype(float),
            rng.gamma(2.0, 1.5, n),
        ]
    )
    y = (
        40.0
        + 12.0 * np.sin(1.3 * X[:, 0])
        + 3.0 * X[:, 1] ** 1.5
        + 8.0 * np.log1p(X[:, 2])
        + rng.normal(0.0, 1.0, n)
    )
    return X, y


def golden_batch(X):
    """The first 60 rows, then the same rows pushed out of the box on every
    feature, alternating below and above, by 10% to 60% of the range."""
    rng = np.random.default_rng(7)
    rows = X[:60]
    lo, hi = X.min(axis=0), X.max(axis=0)
    side = np.where(np.arange(rows.shape[0]) % 2 == 0, -1.0, 1.0)[:, None]
    push = (hi - lo) * (1.0 + rng.uniform(0.1, 0.6, (rows.shape[0], 1)))
    return np.vstack([rows, rows + side * push])


def golden_document():
    return json.loads((GOLDEN / "model.json").read_text(encoding="utf-8"))


def predictions_text(pred):
    return "".join(f"{float(v)!r}\n" for v in pred)


def test_model_document_unchanged():
    X, y = golden_table()
    expected = (GOLDEN / "model.json").read_text(encoding="utf-8")
    assert serialize(fit(X, y, CONFIG)) == expected


def test_predictions_unchanged():
    X, _ = golden_table()
    model = deserialize((GOLDEN / "model.json").read_text(encoding="utf-8"))
    expected = (GOLDEN / "predictions.txt").read_text(encoding="utf-8")
    assert predictions_text(model.predict(golden_batch(X))) == expected


def test_reference_evaluator_reads_the_golden_document():
    # The reference shares no code with predict and reads the document
    # itself, so a wrong reference cannot match the pinned bytes too.
    X, _ = golden_table()
    pred, size = reference_model.predict(golden_document(), golden_batch(X))
    lines = (GOLDEN / "predictions.txt").read_text(encoding="utf-8").splitlines()
    expected = np.array([float(line) for line in lines])
    assert pred.shape == expected.shape
    assert (np.abs(pred - expected) <= 1e-12 * size).all()


@pytest.mark.parametrize("literal_final_offset", [False, True])
def test_reference_evaluator_folds_as_predict(literal_final_offset):
    # The pinned document's denominators never reach its floor; a floor of 1
    # reaches some, so the fold's floor and final offset are checked too.
    X, _ = golden_table()
    batch = golden_batch(X)
    doc = golden_document()
    doc.update(denom_floor=1.0, literal_final_offset=literal_final_offset)
    assert (np.abs(reference_model.layer_terms(doc, batch)[-1][0]) < 1.0).any()
    pred, size = reference_model.predict(doc, batch)
    got = deserialize(json.dumps(doc)).predict(batch)
    assert (np.abs(got - pred) <= 1e-12 * size).all()


def test_fit_reports_the_pinned_collapse():
    # The pinned fraction collapses at depth 1; a regeneration must not pin
    # a collapse without this warning saying so.
    X, y = golden_table()
    with pytest.warns(TrainingRmseWarning) as record:
        model = fit(X, y, CONFIG)
    assert [str(w.message).split(";")[0] for w in record] == [
        "depth 1 raises the training RMSE from 7.66727 to 75.7486"
    ]
    assert model.training_rmse[1] > model.training_rmse[0]


if __name__ == "__main__":
    X, y = golden_table()
    model = fit(X, y, CONFIG)
    GOLDEN.mkdir(exist_ok=True)
    (GOLDEN / "model.json").write_text(serialize(model), encoding="utf-8")
    (GOLDEN / "predictions.txt").write_text(
        predictions_text(model.predict(golden_batch(X))), encoding="utf-8"
    )
