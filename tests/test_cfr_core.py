"""Knot selection, offsets, the fitting loop, depth control, serialization."""

import gc
import json
import math
import numbers
import re
import tracemalloc
import warnings
import weakref
from dataclasses import replace
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest

from reference_model import oracle_design
from splinecfr import bench, cfr_core, cli, data_io, evaluation, spline_basis
from splinecfr.cfr_core import (
    AdditiveSplineModel,
    CFracModel,
    FitConfig,
    LinearModel,
    compute_offset,
    deserialize,
    fit,
    select_knots,
    serialize,
    training_rmse_by_depth,
)
from splinecfr.data_io import load_csv, split_out_of_domain
from splinecfr.errors import ModelFormatError, TrainingRmseWarning
from splinecfr.fileio import csv_text
from splinecfr.solver import least_squares, penalized_least_squares
from splinecfr.spline_basis import LayerBases, build_knot_vector, design_matrix, penalty_block
from test_golden import golden_table
from test_solver import augmented_least_squares


def sign_walk_oracle(residuals, k):
    # Independent re-statement of the selection rule: walk the samples from
    # largest |residual| to smallest (ties toward the lower index), take the
    # first, then take only sign changes, stopping after k picks.
    order = sorted(range(len(residuals)), key=lambda i: (-abs(residuals[i]), i))
    picked = []
    last = None
    for i in order:
        if len(picked) == k:
            break
        sign = "+" if residuals[i] >= 0 else "-"
        if sign != last:
            picked.append(i)
            last = sign
    return picked


class TestSelectKnots:
    def test_alternating_from_the_top(self):
        assert select_knots([5.0, -4.0, 3.9, -3.0, 2.0], 2) == [0, 1]

    def test_skips_same_sign(self):
        assert select_knots([5.0, 4.5, -3.0], 2) == [0, 2]

    def test_may_return_fewer_than_k(self):
        assert select_knots([1.0, 2.0, 3.0], 3) == [2]

    def test_zero_counts_as_positive(self):
        # 0.0 at index 1 has the larger magnitude tie with nothing; the
        # -1.0 entry is taken first, then the zero counts as a plus.
        assert select_knots([0.0, -1.0], 2) == [1, 0]

    def test_ties_prefer_lower_index(self):
        assert select_knots([2.0, -2.0, 2.0], 2) == [0, 1]

    def test_against_oracle(self):
        rng = np.random.default_rng(20240818)
        for _ in range(1000):
            n = int(rng.integers(1, 30))
            r = rng.normal(size=n)
            r[rng.random(n) < 0.2] = 0.0
            r[rng.random(n) < 0.2] = rng.choice([-1.0, 1.0])  # force magnitude ties
            k = int(rng.integers(1, 8))
            assert select_knots(r, k) == sign_walk_oracle(list(r), k)


class TestComputeOffset:
    def test_negative_minimum(self):
        assert compute_offset([-2.0, 1.0, 3.0], 1e-6) == pytest.approx(2.000001)

    def test_positive_minimum_still_contributes(self):
        assert compute_offset([0.5, 1.0], 1e-6) == pytest.approx(0.500001)

    def test_all_zero(self):
        assert compute_offset([0.0, 0.0, 0.0], 1e-6) == pytest.approx(1e-6)


def assert_same_bits(actual, expected):
    as_bits = [np.asarray(v, dtype=float).view(np.uint64) for v in (actual, expected)]
    npt.assert_array_equal(*as_bits)


def toy_data(n=40, m=3, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.uniform(-2, 2, size=(n, m))
    y = 3.0 + X @ np.array([1.5, -2.0, 0.5]) + 0.3 * np.sin(3 * X[:, 0]) + rng.normal(0, 0.1, n)
    return X, y


class TestFit:
    def test_depth_zero_is_scaled_ols(self):
        X, y = toy_data()
        config = FitConfig(max_depth=0, norm=7.0)
        model = fit(X, y, config)
        design = np.hstack([np.ones((X.shape[0], 1)), X])
        expected = 7.0 * (design @ augmented_least_squares(design, y / 7.0))
        npt.assert_allclose(model.predict(X), expected, atol=1e-10)

    def test_rejects_one_row(self):
        with pytest.raises(ValueError, match="at least 2 training rows, got 1"):
            fit(np.ones((1, 2)), np.ones(1))

    def test_rejects_a_non_finite_feature(self):
        X, y = toy_data()
        X[3, 1] = np.nan
        with pytest.raises(ValueError, match="X contains non-finite values"):
            fit(X, y)

    @pytest.mark.parametrize(
        "scale_x, scale_y, norm, message",
        [
            # Column 1 spans about 2e308: its range overflows, its cells do not.
            (6e307, 1.0, 1000.0, r"^X column 1: its range -1\.\d+e\+308 to 1\.\d+e\+308 overflows"),
            # Depth 1 inverts residuals of order 1e303, where offset_epsilon is lost.
            (1.0, 1e306, 1000.0, r"^depth 1: .* not finite at target scale \d\.\d+e\+303 \(max"),
            # Residuals of a target near the float64 limit overflow at depth 0.
            (1.0, 1e307, 1.0, r"^depth 0: .* not finite at target scale \d\.\d+e\+307 \(max"),
        ],
        ids=["x-range", "inverted-target", "residuals"],
    )
    def test_overflow_names_the_input(self, scale_x, scale_y, norm, message):
        X, y = toy_data(n=50, seed=3)
        X[:, 1] *= scale_x
        with pytest.raises(ValueError, match=message):
            fit(X, (y - 3.0) * scale_y, FitConfig(norm=norm))

    def test_constant_target_recovered_at_any_depth(self):
        rng = np.random.default_rng(4)
        X = rng.uniform(0, 1, size=(25, 2))
        y = np.full(25, 6.25)
        for depth in range(6):
            model = fit(X, y, FitConfig(max_depth=depth, knots_per_depth=3))
            npt.assert_allclose(model.predict(X), y, atol=1e-8)
            # also at points the fit never saw, including outside the range
            X_new = rng.uniform(-1, 2, size=(10, 2))
            npt.assert_allclose(model.predict(X_new), np.full(10, 6.25), atol=1e-8)

    def test_normalization_covariance(self):
        X, y = toy_data(seed=3)
        scale = 37.0
        a = fit(X, y, FitConfig(max_depth=2, norm=scale))
        b = fit(X, y / scale, FitConfig(max_depth=2, norm=1.0))
        npt.assert_allclose(a.predict(X), scale * b.predict(X), atol=1e-8)

    def test_layer_count_and_kinds(self):
        X, y = toy_data()
        model = fit(X, y, FitConfig(max_depth=2))
        assert model.depth == 2
        assert isinstance(model.layers[0], LinearModel)
        assert all(isinstance(l, AdditiveSplineModel) for l in model.layers[1:])
        assert isinstance(model.layers[1], AdditiveSplineModel)

    def test_knot_sets_accumulate(self):
        X, y = toy_data(n=60, seed=8)
        model = fit(X, y, FitConfig(max_depth=4, knots_per_depth=4))
        spline_layers = model.layers[1:]
        for shallow, deep in zip(spline_layers, spline_layers[1:]):
            for kv_s, kv_d in zip(shallow.bases, deep.bases):
                assert set(kv_s.interior) <= set(kv_d.interior)

    def test_knot_budget_per_depth(self):
        X, y = toy_data(n=80, seed=9)
        k = 3
        model = fit(X, y, FitConfig(max_depth=5, knots_per_depth=k))
        for depth, layer in enumerate(model.layers[1:], start=1):
            for kv in layer.bases:
                assert len(kv.interior) <= k * depth

    def test_offsets_bounded_below_and_targets_in_range(self):
        X, y = toy_data(n=50, seed=12)
        eps = 1e-3
        model = fit(X, y, FitConfig(max_depth=3, offset_epsilon=eps))
        values = model.layer_values(X)
        resid = y / model.norm - values[0]
        for i in range(1, len(values)):
            offset = model.layers[i - 1].offset
            assert offset >= eps
            target = 1.0 / (resid + offset)
            assert (target > 0.0).all()
            assert (target <= 1.0 / eps + 1e-9).all()
            resid = target - values[i]
        assert model.layers[-1].offset >= eps

    def test_constant_columns_get_no_spline_term(self):
        rng = np.random.default_rng(14)
        X = np.column_stack([rng.uniform(0, 1, 30), np.full(30, 2.5)])
        y = rng.normal(size=30)
        model = fit(X, y, FitConfig(max_depth=2, norm=1.0))
        for layer in model.layers[1:]:
            assert layer.variable_ids == (0,)

    def test_constant_columns_get_linear_coefficient_zero(self):
        # The intercept alone carries a column that never varied in training,
        # so moving that feature moves no prediction.
        X, y = toy_data(n=60, seed=15)
        with_constant = np.insert(X, 1, 5.0, axis=1)
        config = FitConfig(max_depth=2, norm=1.0)
        model = fit(with_constant, y, config)
        linear = model.layers[0].coefficients
        assert linear[2] == 0.0
        assert_same_bits(np.delete(linear, 2), fit(X, y, config).layers[0].coefficients)
        moved = np.insert(X, 1, -3.0, axis=1)
        batch = np.vstack([with_constant, with_constant + 4.0])
        assert_same_bits(model.predict(np.vstack([moved, moved + 4.0])), model.predict(batch))

    def test_all_constant_features_degenerate_gracefully(self):
        X = np.full((10, 2), 3.0)
        y = np.linspace(0, 1, 10)
        model = fit(X, y, FitConfig(max_depth=2, norm=1.0))
        for layer in model.layers[1:]:
            assert layer.variable_ids == ()
        pred = model.predict(X)
        assert np.isfinite(pred).all()
        # intercept-only layers yield one constant prediction
        npt.assert_allclose(pred, np.full(10, pred[0]), atol=1e-12)

    def test_predictions_finite_far_outside_training(self):
        X, y = toy_data(seed=21)
        model = fit(X, y, FitConfig(max_depth=3))
        X_far = np.array([[1e4, -1e4, 1e5], [-250.0, 300.0, 0.0]])
        assert np.isfinite(model.predict(X_far)).all()

    def test_input_validation(self):
        X, y = toy_data()
        with pytest.raises(ValueError, match="2-D"):
            fit(y, y)
        with pytest.raises(ValueError, match="entries"):
            fit(X, y[:-1])
        with pytest.raises(ValueError, match="non-finite"):
            fit(X, np.where(np.arange(len(y)) == 0, np.nan, y))

    @pytest.mark.parametrize("cell", [np.nan, np.inf, -np.inf])
    def test_predict_names_the_first_non_finite_cell(self, cell):
        X, y = toy_data(seed=3)
        model = fit(X, y, FitConfig(max_depth=2))
        bad = X[:6].copy()
        bad[4, 0] = bad[2, 2] = bad[5, 1] = cell
        message = rf"X row 2, column 2: non-finite value {re.escape(repr(float(cell)))}$"
        for evaluate in (model.predict, model.layer_values):
            with pytest.raises(ValueError, match=message):
                evaluate(bad)


class TestPredictMechanics:
    def make_depth1(self, norm=10.0, c0=0.5, g1_const=2.0):
        g0 = LinearModel(np.array([0.0, 1.0]))  # g0(x) = x
        g1 = LinearModel(np.array([g1_const, 0.0]))
        return CFracModel(
            norm=norm,
            layers=(replace(g0, offset=c0), replace(g1, offset=1.0)),
            feature_bounds=np.array([[0.0, 1.0]]),
            training_target_max=1.0,
        )

    def test_hand_worked_depth1(self):
        # norm * (x - 0.5 + 1/2) = 10 x
        model = self.make_depth1()
        X = np.array([[0.0], [0.25], [1.0]])
        npt.assert_allclose(model.predict(X), [0.0, 2.5, 10.0], atol=1e-12)

    def test_deepest_offset_ignored_by_default(self):
        # The deepest layer's offset is 1.0 but must not be subtracted.
        model = self.make_depth1(g1_const=2.0)
        npt.assert_allclose(model.predict(np.array([[0.5]])), [5.0], atol=1e-12)

    def test_literal_final_offset_restores_it(self):
        from dataclasses import replace

        model = replace(self.make_depth1(), literal_final_offset=True)
        # inner becomes 2.0 - 1.0 = 1.0, so f = 10 * (x - 0.5 + 1)
        npt.assert_allclose(model.predict(np.array([[0.0]])), [5.0], atol=1e-12)

    def test_denominator_floor_keeps_predictions_finite(self):
        model = self.make_depth1(g1_const=0.0)
        pred = model.predict(np.array([[0.5]]))
        # inner 0 is pushed up to +1e-6, so the fraction contributes 1e6
        npt.assert_allclose(pred, [10.0 * (0.5 - 0.5 + 1e6)], atol=1e-6)

    def test_negative_denominator_keeps_sign(self):
        model = self.make_depth1(g1_const=-1e-9)
        pred = model.predict(np.array([[0.5]]))
        npt.assert_allclose(pred, [10.0 * -1e6], atol=1e-3)

    def test_linear_only_fraction_takes_no_box_pass(self, monkeypatch):
        # With no spline layer nothing extrapolates, so rows outside
        # feature_bounds are read as they are, with no grouping, marking or
        # clipping: 10 x on both sides of [0, 1].
        model = self.make_depth1()
        groupings = []
        original = cfr_core._distinct_rows
        monkeypatch.setattr(
            cfr_core, "_distinct_rows", lambda X: groupings.append(X.shape) or original(X)
        )
        monkeypatch.setattr(CFracModel, "outside_box", lambda self, X: pytest.fail("box pass"))
        X = np.array([[-2.0], [0.25], [3.0], [-2.0]])
        npt.assert_allclose(model.predict(X), [-20.0, 2.5, 30.0, -20.0], atol=1e-12)
        assert groupings == []  # linear layers read every row, repeats included

    def test_depth_zero_identity(self):
        g0 = LinearModel(np.array([0.0, 1.0]))
        model = CFracModel(
            norm=1.0,
            layers=(replace(g0, offset=123.0),),  # offset present but unused
            feature_bounds=np.array([[0.0, 1.0]]),
            training_target_max=1.0,
        )
        X = np.array([[0.3], [0.9]])
        npt.assert_allclose(model.predict(X), [0.3, 0.9], atol=1e-15)

    def test_feature_count_mismatch(self):
        model = self.make_depth1()
        for evaluate in (model.predict, model.outside_box):
            with pytest.raises(ValueError, match="feature columns"):
                evaluate(np.zeros((2, 3)))

    def test_outside_box_marks_rows_strictly_outside_the_bounds(self):
        model = self.make_depth1()  # feature_bounds [[0, 1]]
        marked = model.outside_box([[0.0], [1.0], [-0.1], [1.1], [0.5]])
        assert marked.tolist() == [False, False, True, True, False]


def first_worsening_depth(rmses):
    """Smallest d with rmse[d+1] > rmse[d], or None if never worsening."""
    for d in range(len(rmses) - 1):
        if rmses[d + 1] > rmses[d]:
            return d
    return None


class TestDepthControl:
    def test_first_worsening_depth_rule(self):
        assert first_worsening_depth([5.0, 3.0, 2.0, 2.5, 1.0]) == 2
        assert first_worsening_depth([5.0, 3.0, 2.0, 2.0, 1.0]) is None
        assert first_worsening_depth([1.0, 2.0]) == 0
        assert first_worsening_depth([2.0]) is None

    def test_auto_depth_matches_manual_scan(self):
        ds_X, ds_y = toy_data(n=60, seed=33)
        full = fit(ds_X, ds_y, FitConfig(max_depth=6, norm=1.0, lam=0.1))
        rmses = training_rmse_by_depth(full, ds_X, ds_y)
        stop = first_worsening_depth(rmses)
        expected_depth = full.depth if stop is None else stop
        truncated = replace(full, layers=full.layers[: expected_depth + 1])
        auto = fit(ds_X, ds_y, FitConfig(max_depth=6, norm=1.0, lam=0.1, auto_depth=True))
        assert auto.depth == expected_depth
        assert auto.training_rmse == full.training_rmse[: expected_depth + 1]
        npt.assert_allclose(auto.predict(ds_X), truncated.predict(ds_X), atol=1e-12)

    def test_auto_depth_stops_fitting_at_first_worsening(self, monkeypatch):
        X, y = toy_data(n=60, seed=33)
        config = FitConfig(max_depth=6, norm=1.0, lam=0.1)
        full = fit(X, y, config)
        stop = first_worsening_depth(training_rmse_by_depth(full, X, y))
        assert stop is not None and stop + 1 < config.max_depth
        built = []
        original = cfr_core.design_matrix

        def counting(*args, **kwargs):
            built.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(cfr_core, "design_matrix", counting)
        auto = fit(X, y, replace(config, auto_depth=True))
        assert len(built) == stop + 1
        assert serialize(auto) == serialize(replace(full, layers=full.layers[: stop + 1]))
        assert auto.training_rmse == full.training_rmse[: stop + 1]

    @pytest.mark.parametrize(
        "config",
        [
            FitConfig(max_depth=4, norm=1.0, lam=0.1),
            FitConfig(max_depth=6, norm=1.0, lam=0.1, auto_depth=True),
            FitConfig(max_depth=3, norm=1.0, literal_final_offset=True),
            FitConfig(max_depth=0),
        ],
        ids=["fixed", "auto", "literal-final-offset", "depth-zero"],
    )
    def test_training_rmse_is_recorded_per_kept_depth(self, config):
        X, y = toy_data(n=60, seed=33)
        model = fit(X, y, config)
        assert len(model.training_rmse) == model.depth + 1
        assert all(type(r) is float for r in model.training_rmse)
        assert list(model.training_rmse) == training_rmse_by_depth(model, X, y)
        assert deserialize(serialize(model)).training_rmse == ()

    def test_rmse_by_depth_refuses_a_target_of_another_shape(self):
        X, y = toy_data(n=60, seed=33)
        model = fit(X, y, FitConfig(max_depth=1))
        for bad in (y[:1], y[:, None], y[:-1]):
            with pytest.raises(ValueError, match=r"y must be 1-D with 60 entries, got shape"):
                training_rmse_by_depth(model, X, bad)

    def test_fixed_depth_warns_for_each_depth_that_raises_training_rmse(self):
        from splinecfr.data_io import gen_sinc

        # The README quick start: training RMSE [0.362, 0.652, 3.007, 1.151].
        ds = gen_sinc(200, seed=0)
        config = FitConfig(max_depth=3, knots_per_depth=3, norm=1.0)
        with pytest.warns(TrainingRmseWarning) as record:
            model = fit(ds.features, ds.target, config)
        r = model.training_rmse
        assert all(w.category is TrainingRmseWarning for w in record)
        assert [str(w.message).split(";")[0] for w in record] == [
            f"depth {d} raises the training RMSE from {r[d - 1]:.6g} to {r[d]:.6g}"
            for d in (1, 2)
        ]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            auto = fit(ds.features, ds.target, replace(config, auto_depth=True))
        assert auto.training_rmse == r[:1]

    def test_deeper_fits_train_tighter_on_gamma(self):
        from splinecfr.data_io import gen_gamma

        ds = gen_gamma(120, seed=5)
        config = FitConfig(lam=0.1, knots_per_depth=3, norm=1.0, max_depth=15)
        model = fit(ds.features, ds.target, config)
        rmses = training_rmse_by_depth(model, ds.features, ds.target)
        assert rmses[15] < rmses[3]


def layers_with(model, d, **changes):
    """model.layers with layer d changed."""
    layers = list(model.layers)
    layers[d] = replace(layers[d], **changes)
    return tuple(layers)


def two_bases_three_ids(model):
    """model.layers with layer 1 cut to its first two knot vectors and its
    coefficients to their width, its three variable ids kept."""
    bases = LayerBases(model.layers[1].bases[:2])
    coefficients = model.layers[1].coefficients[: bases.width]
    return layers_with(model, 1, bases=bases, coefficients=coefficients)


def nan_at(values, k):
    """A copy of values with entry k NaN."""
    values = values.copy()
    values[k] = math.nan
    return values


class TestSerialization:
    def test_round_trip_is_bit_exact(self):
        X, y = toy_data(n=50, seed=2)
        model = fit(X, y, FitConfig(max_depth=3))
        clone = deserialize(serialize(model))
        X_new = np.random.default_rng(1).uniform(-3, 3, size=(20, 3))
        npt.assert_array_equal(model.predict(X_new), clone.predict(X_new))
        assert serialize(clone) == serialize(model)

    def test_round_trip_depth_zero_with_names(self):
        from dataclasses import replace

        X, y = toy_data(n=20)
        model = fit(X, y, FitConfig(max_depth=0))
        model = replace(model, feature_names=("a", "b", "c"), target_name="t")
        clone = deserialize(serialize(model))
        assert clone.feature_names == ("a", "b", "c")
        assert clone.target_name == "t"
        npt.assert_array_equal(model.predict(X), clone.predict(X))

    def test_truncated_document(self):
        X, y = toy_data(n=20)
        text = serialize(fit(X, y, FitConfig(max_depth=1)))
        with pytest.raises(ModelFormatError, match="line"):
            deserialize(text[: len(text) // 2])

    def test_garbage(self):
        with pytest.raises(ModelFormatError, match="line 1"):
            deserialize("not json")

    def test_missing_field_is_named(self):
        X, y = toy_data(n=20)
        import json

        doc = json.loads(serialize(fit(X, y, FitConfig(max_depth=0))))
        del doc["layers"][0]["coefficients"]
        with pytest.raises(ModelFormatError, match="coefficients"):
            deserialize(json.dumps(doc))

    def test_constant_feature_bounds_load(self):
        # A column that never varied in training has lo == hi.
        X, y = toy_data(n=30, seed=15)
        X[:, 1] = 5.0
        model = fit(X, y, FitConfig(max_depth=1))
        assert model.feature_bounds[1].tolist() == [5.0, 5.0]
        clone = deserialize(serialize(model))
        npt.assert_array_equal(clone.feature_bounds, model.feature_bounds)
        npt.assert_array_equal(clone.predict(X), model.predict(X))

    def test_wrong_format_tag(self):
        with pytest.raises(ModelFormatError, match="format"):
            deserialize('{"format": "something-else"}')

    def test_coefficient_count_checked(self):
        X, y = toy_data(n=30)
        import json

        text = serialize(fit(X, y, FitConfig(max_depth=1)))

        def spline_var(doc, j=0):
            return doc["layers"][1]["variables"][j]

        cases = [
            (
                lambda d: d["layers"][1]["coefficients"].pop(),
                r"model\.layers\[1\]\.coefficients: expected",
            ),
            (
                lambda d: d["layers"][0]["coefficients"].append(0.5),
                r"model\.layers\[0\]\.coefficients: expected 4 ",
            ),
            (
                lambda d: spline_var(d).update(id=3),
                r"model\.layers\[1\]\.variables\[0\]\.id: .*got 3",
            ),
            (
                lambda d: spline_var(d).update(id=-1),
                r"model\.layers\[1\]\.variables\[0\]\.id: .*got -1",
            ),
            (lambda d: d.update(norm=float("nan")), r"model\.norm: expected a finite number"),
            (lambda d: d.update(norm=-1000.0), r"model\.norm: expected a positive number"),
            (lambda d: d.update(denom_floor=0.0), r"model\.denom_floor: expected a positive"),
            (
                lambda d: d.update(training_target_max=10**400),
                r"model\.training_target_max: expected a finite number",
            ),
            (
                lambda d: d["layers"][1]["coefficients"].__setitem__(0, float("inf")),
                r"model\.layers\[1\]\.coefficients\[0\]: expected a finite number",
            ),
            (lambda d: d["layers"].__setitem__(1, 7), r"model\.layers\[1\]: expected an object"),
            (lambda d: d.update(norm="x"), r"model\.norm: expected a number"),
            (
                lambda d: spline_var(d).update(id=1.5),
                r"model\.layers\[1\]\.variables\[0\]\.id: expected an integer",
            ),
            (
                lambda d: spline_var(d).update(id=True),
                r"model\.layers\[1\]\.variables\[0\]\.id: expected an integer",
            ),
            (
                lambda d: d.update(literal_final_offset=1),
                r"model\.literal_final_offset: expected a boolean",
            ),
            (lambda d: d.update(target_name=3), r"model\.target_name: expected a string"),
            (lambda d: d.update(target_name=["t"]), r"model\.target_name: expected a string"),
            (
                lambda d: d.update(feature_names=["a", 2, "c"]),
                r"model\.feature_names\[1\]: expected a string",
            ),
            (
                lambda d: d.update(feature_names=[["a"], "b", "c"]),
                r"model\.feature_names\[0\]: expected a string",
            ),
            (
                lambda d: d["layers"][1].update(offset=10**400),
                r"model\.layers\[1\]\.offset: expected a finite number, got inf",
            ),
            (
                lambda d: d["layers"][1].update(coefficients=5),
                r"model\.layers\[1\]\.coefficients: expected an array",
            ),
            (
                lambda d: d["layers"][1].update(kind="tree"),
                r"model\.layers\[1\]\.kind: unknown layer kind 'tree'",
            ),
            (
                lambda d: d["feature_bounds"][0].append(0.0),
                r"model\.feature_bounds: expected rows of \[lo, hi\]",
            ),
            (lambda d: d.update(layers=[]), r"model\.layers: expected at least one layer"),
            (
                lambda d: d["layers"].pop(0),
                r"model\.layers\[0\]: the first layer must be linear",
            ),
            (
                lambda d: spline_var(d)["interior"].reverse(),
                r"model\.layers\[1\]\.variables\[0\]: interior knots must be sorted",
            ),
            (
                lambda d: spline_var(d, 1).update(id=spline_var(d)["id"]),
                r"model\.layers\[1\]\.variables\[1\]\.id: feature 0 is already in this layer",
            ),
            (
                lambda d: d["feature_bounds"][1].reverse(),
                r"model\.feature_bounds\[1\]: lo .* lies above hi",
            ),
            # A layer extrapolates beyond its knot ends; predict's note reads the bounds.
            (
                lambda d: spline_var(d).update(lo=-5.0, hi=5.0),
                r"model\.layers\[1\]\.variables\[0\]: lo and hi differ from feature_bounds\[0\]",
            ),
            (
                lambda d: spline_var(d, 1).update(hi=spline_var(d, 1)["hi"] + 1e-9),
                r"model\.layers\[1\]\.variables\[1\]: lo and hi differ from feature_bounds\[1\]",
            ),
        ]
        for corrupt, message in cases:
            doc = json.loads(text)
            corrupt(doc)
            with pytest.raises(ModelFormatError, match=message):
                deserialize(json.dumps(doc))

    RULES = {
        "norm-negative": (lambda m: {"norm": -1.0}, r"norm: expected a positive number"),
        "norm-zero": (lambda m: {"norm": 0.0}, r"norm: expected a positive number"),
        "denom-floor": (lambda m: {"denom_floor": 0.0}, r"denom_floor: expected a positive"),
        "bounds-reversed": (
            lambda m: {"feature_bounds": m.feature_bounds[:, ::-1].copy()},
            r"feature_bounds\[0\]: lo .* lies above hi",
        ),
        "name-count": (
            lambda m: {"feature_names": ("a", "b")},
            r"feature_names: expected one name per feature_bounds row \(3\), got 2",
        ),
        "repeated-names": (
            lambda m: {"feature_names": ("a", "b", "a")},
            r"feature_names: repeated names \['a'\]",
        ),
        "target-is-a-feature": (
            lambda m: {"feature_names": ("a", "b", "c"), "target_name": "b"},
            r"target_name: 'b' is also a feature name",
        ),
        "no-layers": (lambda m: {"layers": ()}, r"layers: expected at least one layer"),
        # Without the rules below, a model would make serialize raise (a
        # non-finite float) or save a document that deserialize refuses.
        "norm-infinite": (lambda m: {"norm": math.inf}, r"norm: expected a finite number, got inf"),
        "denom-floor-infinite": (
            lambda m: {"denom_floor": math.inf},
            r"denom_floor: expected a finite number, got inf",
        ),
        "target-max-nan": (
            lambda m: {"training_target_max": math.nan},
            r"training_target_max: expected a finite number, got nan",
        ),
        "bounds-shape": (
            lambda m: {"feature_bounds": np.zeros((3, 3))},
            r"feature_bounds: expected rows of \[lo, hi\], got shape \(3, 3\)",
        ),
        # A linear-only model: no knot end is there to disagree with the bound.
        "bounds-nan": (
            lambda m: {
                "layers": m.layers[:1],
                "feature_bounds": m.feature_bounds + [[0.0, 0.0], [0.0, math.nan], [0.0, 0.0]],
            },
            r"feature_bounds\[1\]\[1\]: expected a finite number, got nan",
        ),
        "coefficient-nan": (
            lambda m: {"layers": layers_with(m, 1, coefficients=nan_at(m.layers[1].coefficients, 4))},
            r"layers\[1\]\.coefficients\[4\]: expected a finite number, got nan",
        ),
        "offset-infinite": (
            lambda m: {"layers": layers_with(m, 1, offset=-math.inf)},
            r"layers\[1\]\.offset: expected a finite number, got -inf",
        ),
        "linear-offset-nan": (
            lambda m: {"layers": layers_with(m, 0, offset=math.nan)},
            r"layers\[0\]\.offset: expected a finite number, got nan",
        ),
        "name-type": (
            lambda m: {"feature_names": (1, 2, 3)},
            r"feature_names\[0\]: expected a string",
        ),
        "target-name-type": (lambda m: {"target_name": 5}, r"target_name: expected a string"),
        "literal-final-offset-type": (
            lambda m: {"literal_final_offset": 1},
            r"literal_final_offset: expected a boolean",
        ),
        "spline-first": (
            lambda m: {"layers": m.layers[1:]},
            r"layers\[0\]: the first layer must be linear",
        ),
        "linear-coefficients": (
            lambda m: {"layers": layers_with(m, 0, coefficients=np.ones(3))},
            r"layers\[0\]\.coefficients: expected 4 entries, got 3",
        ),
        "spline-coefficients": (
            lambda m: {"layers": layers_with(m, 1, coefficients=np.ones(2))},
            r"layers\[1\]\.coefficients: expected \d+ entries",
        ),
        "id-above-range": (
            lambda m: {"layers": layers_with(m, 1, variable_ids=(0, 3, 2))},
            r"layers\[1\]\.variables\[1\]\.id: expected a feature index in \[0, 3\), got 3",
        ),
        "id-below-range": (
            lambda m: {"layers": layers_with(m, 1, variable_ids=(-1, 1, 2))},
            r"layers\[1\]\.variables\[0\]\.id: .*got -1",
        ),
        "repeated-id": (
            lambda m: {"layers": layers_with(m, 1, variable_ids=(0, 1, 0))},
            r"layers\[1\]\.variables\[2\]\.id: feature 0 is already in this layer",
        ),
        # One knot vector per variable id: with fewer ids the document loads
        # as another model, with more it fails to load.
        "fewer-ids-than-knot-vectors": (
            lambda m: {"layers": layers_with(m, 1, variable_ids=(0, 1))},
            r"layers\[1\]\.variables: 2 ids for 3 knot vectors",
        ),
        "more-ids-than-knot-vectors": (
            lambda m: {"layers": two_bases_three_ids(m)},
            r"layers\[1\]\.variables: 3 ids for 2 knot vectors",
        ),
        # predict clips rows to feature_bounds and extends each term from its
        # knot ends, so the two must agree.
        "knot-ends": (
            lambda m: {"feature_bounds": m.feature_bounds + [[0.0, 0.0], [0.0, 0.0], [0.0, 1.0]]},
            r"layers\[1\]\.variables\[2\]: lo and hi differ from feature_bounds\[2\]",
        ),
    }

    @pytest.mark.parametrize("rule", RULES)
    def test_model_rules_hold_however_built(self, rule):
        # A model that breaks a rule of the model document is refused when it
        # is built, so it can never be serialized into a document that fails
        # to load.
        changes, message = self.RULES[rule]
        X, y = toy_data(seed=2)
        model = fit(X, y, FitConfig(max_depth=1))
        assert model.layers[1].variable_ids == (0, 1, 2)
        with pytest.raises(ValueError, match=message):
            replace(model, **changes(model))
        needed = ("norm", "layers", "feature_bounds", "training_target_max")
        fields = {k: getattr(model, k) for k in needed}
        with pytest.raises(ValueError, match=message):
            CFracModel(**{**fields, **changes(model)})


class TestNumberArrays:
    """deserialize reads a list of JSON numbers in one typed pass; a list
    with any other item is read item by item, and both refuse the same items
    with the same ``model.<path>[i]`` message."""

    BAD = {
        "true": "expected a number",
        '"1.5"': "expected a number",
        "null": "expected a number",
        "[1.0]": "expected a number",
        "{}": "expected a number",
        "NaN": "expected a finite number, got nan",
        "Infinity": "expected a finite number, got inf",
        "-Infinity": "expected a finite number, got -inf",
        "1" + "0" * 400: "expected a finite number, got inf",
    }
    PLACES = {
        "linear": (lambda d: d["layers"][0]["coefficients"], "model.layers[0].coefficients"),
        "spline": (lambda d: d["layers"][1]["coefficients"], "model.layers[1].coefficients"),
        "interior": (
            lambda d: d["layers"][1]["variables"][1]["interior"],
            "model.layers[1].variables[1].interior",
        ),
        "bounds": (lambda d: d["feature_bounds"][2], "model.feature_bounds[2]"),
    }

    @pytest.fixture(scope="class")
    def text(self):
        X, y = toy_data(n=30)
        return serialize(fit(X, y, FitConfig(max_depth=1)))

    @pytest.mark.parametrize("place", PLACES)
    @pytest.mark.parametrize("token", BAD)
    def test_bad_item_is_named(self, text, place, token):
        items, path = self.PLACES[place]
        doc = json.loads(text)
        assert len(items(doc)) >= 2
        items(doc)[1] = "@bad@"
        bad = json.dumps(doc).replace('"@bad@"', token)
        message = f"{path}[1]: {self.BAD[token]}"
        with pytest.raises(ModelFormatError) as exc:
            deserialize(bad)
        assert str(exc.value) == message
        # The item-by-item reader alone gives the same message.
        reader = cfr_core._DocReader(items(json.loads(bad)), path)
        with pytest.raises(ModelFormatError) as exc:
            [item.number() for item in reader.array()]
        assert str(exc.value) == message

    def test_integers_read_as_float_reads_them(self, monkeypatch):
        items = json.loads(f"[-0, {2**53 + 1}, {2**70}, {-(2**63) - 1}, 3, -0.0, 0.1]")
        assert [type(v) for v in items] == [int] * 5 + [float] * 2
        expected = np.array([float(v) for v in items])

        def refuse(self):
            raise AssertionError("a list of numbers was read item by item")

        # A list of JSON numbers alone never reaches the item reader.
        monkeypatch.setattr(cfr_core._DocReader, "number", refuse)
        got = cfr_core._DocReader(items, "model.x").numbers()
        assert got.dtype == np.float64
        assert got.tobytes() == expected.tobytes()
        assert cfr_core._DocReader([], "model.x").numbers().shape == (0,)


class TestFitConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"lam": -1.0},
            {"knots_per_depth": 0},
            {"norm": 0.0},
            {"max_depth": -1},
            {"offset_epsilon": 0.0},
            {"denom_floor": -1e-9},
            {"lam": math.nan},
            {"lam": math.inf},
            {"norm": math.nan},
            {"norm": math.inf},
            {"offset_epsilon": math.inf},
            {"denom_floor": math.inf},
            {"denom_floor": math.nan},
            {"knots_per_depth": 2.5},
            {"knots_per_depth": 3.0},
            {"knots_per_depth": True},
            {"max_depth": 2.5},
            {"max_depth": False},
            {"max_depth": "3"},
            {"auto_depth": "no"},
            {"auto_depth": 1},
            {"literal_final_offset": "no"},
            {"lam": True},
            {"norm": True},
            {"offset_epsilon": True},
            {"denom_floor": True},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        (name,) = kwargs
        with pytest.raises(ValueError, match=name):
            FitConfig(**kwargs)

    def test_accepts_numpy_integers(self):
        assert FitConfig(max_depth=np.int64(2), knots_per_depth=np.int32(3)).max_depth == 2


def edge_tables():
    """The golden fixture and tables at the edges of what fit accepts."""
    X, y = golden_table()
    return {
        "golden": (X, y),
        "every-row-repeated": (np.repeat(X, 2, axis=0), np.repeat(y, 2)),
        "one-constant-column": (np.insert(X, 1, 3.0, axis=1), y),
        "all-columns-constant": (np.full_like(X, 3.0), y),
        "two-rows": (X[:2], y[:2]),
        "scales-1e-8-and-1e8": (X * [1e-8, 1e8, 1.0], y),
    }


class TestFitGuarantees:
    """The routines fit runs at each depth check none of their inputs: fit
    and FitConfig check the table and the settings once, and every call fit
    makes must then pass what the routine takes for granted. Each
    ``check_<routine>`` takes the table's row count n, then the call's
    arguments."""

    TABLES = edge_tables()
    CONFIGS = (FitConfig(), FitConfig(auto_depth=True), bench._BASELINE_CONFIG)
    ROUTINES = (
        "penalized_least_squares",
        "least_squares",
        "select_knots",
        "compute_offset",
        "penalty_block",
    )

    @staticmethod
    def finite(v, ndim):
        assert isinstance(v, np.ndarray) and v.dtype == np.float64 and v.ndim == ndim
        assert v.size >= 1 and np.isfinite(v).all()

    def check_system(self, n, B, y, counts):
        self.finite(B, 2)
        self.finite(y, 1)
        assert y.shape == B.shape[:1]
        if counts is None:
            assert B.shape[0] == n
        else:
            assert np.issubdtype(counts.dtype, np.integer) and counts.shape == y.shape
            assert counts.min() >= 1 and counts.sum() == n

    def check_penalized_least_squares(self, n, B, y, lam, penalties, counts):
        self.check_system(n, B, y, counts)
        assert math.isfinite(lam) and lam >= 0.0
        assert all(pen.shape == (pen.shape[0],) * 2 for pen in penalties)
        assert 1 + sum(pen.shape[0] for pen in penalties) == B.shape[1]

    def check_least_squares(self, n, A, y, counts):
        self.check_system(n, A, y, counts)

    def check_select_knots(self, n, residuals, k):
        self.finite(residuals, 1)
        assert residuals.shape == (n,)
        assert isinstance(k, numbers.Integral) and k >= 1

    def check_compute_offset(self, n, residuals, offset_epsilon):
        self.finite(residuals, 1)
        assert residuals.shape == (n,)
        assert math.isfinite(offset_epsilon) and offset_epsilon > 0.0

    def check_penalty_block(self, n, basis_count):
        assert isinstance(basis_count, numbers.Integral) and basis_count >= 4

    @pytest.mark.parametrize("table", TABLES)
    def test_every_call_passes_what_its_routine_assumes(self, table, monkeypatch):
        X, y = self.TABLES[table]
        reached = set()

        def spy(name, routine):
            def checked(*args):
                getattr(self, f"check_{name}")(X.shape[0], *args)
                reached.add(name)
                return routine(*args)

            return checked

        for name in self.ROUTINES:
            monkeypatch.setattr(cfr_core, name, spy(name, getattr(cfr_core, name)))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", TrainingRmseWarning)
            for config in self.CONFIGS:
                fit(X, y, config)
        # Every check ran; a table with no varying column has no spline block.
        unused = {"penalty_block"} if table == "all-columns-constant" else set()
        assert reached == set(self.ROUTINES) - unused


class TestCallerGuarantees:
    """design_matrix and the metrics check none of their arguments: fit,
    predict, bench and report build them. Every call these make must pass
    what the routine takes for granted. Each ``check_<routine>`` takes the
    call's arguments."""

    METRICS = (
        "rmse",
        "mean_relative_error",
        "threshold_counts",
        "count_beyond_training_max",
        "cohen_kappa",
        "top_k_table",
    )

    @staticmethod
    def vector(v, dtype=np.float64):
        assert isinstance(v, np.ndarray) and v.dtype == dtype and v.ndim == 1 and v.size >= 1

    @staticmethod
    def check_design_matrix(X, bases, out=None):
        assert isinstance(bases, LayerBases)
        assert isinstance(X, np.ndarray) and X.dtype == np.float64 and X.flags.c_contiguous
        assert X.ndim == 2 and X.shape[1] == len(bases)
        if out is not None:
            assert out.dtype == np.float64 and out.flags.c_contiguous
            assert out.shape == (X.shape[0], bases.width)

    def check_paired(self, y_true, y_pred, k=None):
        self.vector(y_true)
        self.vector(y_pred)
        assert y_true.shape == y_pred.shape

    check_rmse = check_mean_relative_error = check_top_k_table = check_paired

    def check_threshold_counts(self, y_pred, threshold):
        self.vector(y_pred)

    check_count_beyond_training_max = check_threshold_counts

    def check_cohen_kappa(self, labels_a, labels_b):
        self.vector(labels_a, bool)
        self.vector(labels_b, bool)
        assert labels_a.shape == labels_b.shape

    @staticmethod
    def fit_and_predict(tmp_path):
        X, y = toy_data(n=60, seed=5)
        model = fit(X, y, FitConfig(max_depth=2))
        outside = X * 3.0
        for batch in (X[:20], outside, X[:1], outside[:1], np.repeat(X[:10], 3, axis=0)):
            model.predict(batch)

    @staticmethod
    def shared_blocks(tmp_path):
        model = TestSharedBlocks.model()
        _, batch = TestSharedBlocks.batch(model)
        model.predict(batch)
        model.predict(batch[-1:])

    @staticmethod
    def table(tmp_path):
        data = tmp_path / "toy.csv"
        X, y = toy_data(n=40, seed=6)
        data.write_text(csv_text(["x0", "x1", "x2", "y"], np.column_stack([X, y]).tolist()))
        return str(data)

    def run_bench(self, tmp_path, *flags):
        args = ["bench", "--data", self.table(tmp_path), "--target", "y"]
        flags += ("--runs", "2", "--seed", "5", "--max-depth", "1", "--knots", "2")
        assert cli.main([*args, *flags, "--out-dir", str(tmp_path / "b")]) == 0

    def bench_oos(self, tmp_path):
        self.run_bench(tmp_path)

    def prediction_files(self, tmp_path):
        """Two run_id,row_id,y_true,y_pred files for the ood splits of
        run_bench, and the first split's threshold."""
        ds = load_csv(self.table(tmp_path), "y")
        splits = [split_out_of_domain(ds, 0.8, seed) for seed in (5, 6)]
        paths = []
        for name, shift in (("noisy", 0.5), ("shifted", -1.0)):
            rows = [
                (run_id, row_id, t, t + shift * (-1) ** row_id)
                for run_id, split in enumerate(splits)
                for row_id, t in enumerate(split.test.target.tolist())
            ]
            paths.append(str(tmp_path / f"{name}.csv"))
            Path(paths[-1]).write_text(csv_text(["run_id", "row_id", "y_true", "y_pred"], rows))
        return paths, splits[0].threshold

    def bench_ood_external(self, tmp_path):
        paths, _ = self.prediction_files(tmp_path)
        ood = ("--protocol", "ood", "--quantile", "0.8")
        self.run_bench(tmp_path, *ood, "--predictions", paths[0])

    def report(self, tmp_path):
        paths, threshold = self.prediction_files(tmp_path)
        args = ["report", "--predictions", *paths, "--top-k", "3", "--threshold", str(threshold)]
        assert cli.main([*args, "--out-dir", str(tmp_path / "report")]) == 0

    SOURCES = {
        "fit_and_predict": {"design_matrix", "rmse"},
        "shared_blocks": {"design_matrix"},
        "bench_oos": {"design_matrix", "rmse", "mean_relative_error"},
        "bench_ood_external": {"design_matrix", *METRICS} - {"top_k_table"},
        "report": set(METRICS) - {"count_beyond_training_max"},
    }

    @pytest.mark.parametrize("source", SOURCES)
    def test_every_call_passes_what_its_routine_assumes(self, source, tmp_path, monkeypatch):
        reached = set()

        def spy(name, routine):
            def checked(*args, **kwargs):
                getattr(self, f"check_{name}")(*args, **kwargs)
                reached.add(name)
                return routine(*args, **kwargs)

            return checked

        patches = [(cfr_core, "design_matrix")] + [
            (module, name)
            for module in (evaluation, cfr_core, bench, cli)
            for name in self.METRICS
            if hasattr(module, name)
        ]
        for module, name in patches:
            monkeypatch.setattr(module, name, spy(name, getattr(module, name)))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", TrainingRmseWarning)
            getattr(self, source)(tmp_path)
        assert reached == self.SOURCES[source]


class TestBuiltValues:
    """Dataset and fit's knot vectors are built without checks: the package
    builds every Dataset from checked input (``load_csv``, the generators,
    ``take``), and fit keeps its knots sorted, distinct and inside the box.
    Every value these runs build must pass the checks it skips."""

    @staticmethod
    def check_dataset(ds):
        X, y = ds.features, ds.target
        assert isinstance(X, np.ndarray) and X.dtype == np.float64 and X.ndim == 2
        assert isinstance(y, np.ndarray) and y.dtype == np.float64 and y.ndim == 1
        assert y.shape[0] == X.shape[0] >= 1 and len(ds.feature_names) == X.shape[1]
        assert np.isfinite(X).all() and np.isfinite(y).all()

    @staticmethod
    def synth(kind, tmp_path):
        assert cli.main(["synth", kind, "--n", "60", "--out", str(tmp_path / "s.csv")]) == 0

    SOURCES = {
        "load_csv": lambda tmp_path: load_csv(TestCallerGuarantees.table(tmp_path), "y"),
        "bench_oos": lambda tmp_path: TestCallerGuarantees().run_bench(tmp_path),
        "bench_ood": lambda tmp_path: TestCallerGuarantees().run_bench(
            tmp_path, "--protocol", "ood", "--quantile", "0.8"
        ),
        "synth_gamma": lambda tmp_path: TestBuiltValues.synth("gamma", tmp_path),
        "synth_sinc": lambda tmp_path: TestBuiltValues.synth("sinc", tmp_path),
    }

    @pytest.mark.parametrize("source", SOURCES)
    def test_every_dataset_is_what_its_checks_would_pass(self, source, tmp_path, monkeypatch):
        # Wrapping __init__ covers dataclasses.replace, which Dataset.take calls.
        built = []
        init = data_io.Dataset.__init__

        def checked(ds, *args, **kwargs):
            init(ds, *args, **kwargs)
            self.check_dataset(ds)
            built.append(ds)

        monkeypatch.setattr(data_io.Dataset, "__init__", checked)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", TrainingRmseWarning)
            self.SOURCES[source](tmp_path)
        assert built

    @pytest.mark.parametrize("table", ["golden", "every-row-repeated"])
    def test_fit_builds_valid_knot_vectors_without_checking_them(self, table, monkeypatch):
        def refuse(*args):
            raise AssertionError("fit called build_knot_vector")

        monkeypatch.setattr(cfr_core, "build_knot_vector", refuse)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", TrainingRmseWarning)
            model = fit(*TestFitGuarantees.TABLES[table])
        kvs = [kv for layer in model.layers[1:] for kv in layer.bases]
        assert len(kvs) == 3 * model.depth and any(kv.interior for kv in kvs)
        for kv in kvs:
            assert all(type(v) is float for v in (kv.lo, kv.hi, *kv.interior))
            assert kv == build_knot_vector(kv.interior, kv.lo, kv.hi)


class TestRowBlocks:
    """predict over several blocks of rows (the block size is shrunk); fit takes
    its training values in one product, and the two must agree bit for bit."""

    BLOCK_CELLS = 400

    @pytest.fixture
    def blocked(self, monkeypatch):
        monkeypatch.setattr(cfr_core, "_BLOCK_CELLS", self.BLOCK_CELLS)
        X, y = toy_data(n=90, seed=21)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", TrainingRmseWarning)
            model = fit(X, y, FitConfig(max_depth=3, norm=1.0, lam=0.1))
        return X, y, model

    @staticmethod
    def block_rows(width):
        return max(1, TestRowBlocks.BLOCK_CELLS // width)

    def test_fit_spans_at_least_three_blocks(self, blocked):
        X, _, model = blocked
        for layer in model.layers[1:]:
            assert X.shape[0] > 2 * self.block_rows(layer.coefficients.shape[0])

    def test_training_rmse_is_recomputed_bit_for_bit(self, blocked):
        X, y, model = blocked
        assert model.depth == 3
        assert model.training_rmse == tuple(training_rmse_by_depth(model, X, y))

    def test_layers_match_the_one_shot_design(self, blocked):
        X, _, model = blocked
        batch = np.vstack([X, X + 5.0, X - 5.0])
        values = model.layer_values(batch)
        for spline, value in zip(model.layers[1:], values[1:]):
            one_shot = oracle_design(batch[:, list(spline.variable_ids)], spline.bases)
            expected = one_shot @ spline.coefficients
            # Only the order of the sums, and where the line beyond the box
            # is added, may differ.
            npt.assert_allclose(value, expected, rtol=0.0, atol=1e-13 * np.abs(expected).max())

    def test_predict_builds_one_block_at_a_time(self, blocked, monkeypatch):
        X, _, model = blocked
        rows_seen = []
        original = cfr_core.design_matrix

        def spy(cols, bases, **kwargs):
            rows_seen.append((cols.shape[0], 1 + sum(kv.basis_count for kv in bases)))
            return original(cols, bases, **kwargs)

        monkeypatch.setattr(cfr_core, "design_matrix", spy)
        # The second copy of X adds no design rows: each distinct row is built
        # once. X + 5.0 lies above the box on every feature, so all its rows
        # clip to one point and share one design row.
        pred = model.predict(np.vstack([X, X + 5.0, X]))
        assert np.isfinite(pred).all()
        assert len(rows_seen) >= 3 * model.depth
        assert all(rows <= self.block_rows(width) for rows, width in rows_seen)
        assert sum(rows for rows, _ in rows_seen) == (X.shape[0] + 1) * model.depth

    def test_zero_rows(self, blocked):
        X, _, model = blocked
        pred = model.predict(np.empty((0, X.shape[1])))
        assert pred.shape == (0,)


class TestSharedBlocks:
    """Spline layers that read equal variable tuples share each block of rows;
    layers that read another set, or the same set in another order, do not."""

    BLOCK_CELLS = 200

    @staticmethod
    def model():
        rng = np.random.default_rng(31)
        bounds = np.array([[-1.0, 1.0], [0.0, 2.0], [-3.0, 0.5], [5.0, 6.0]])

        def layer(ids, knots):
            bases = LayerBases(
                build_knot_vector(np.linspace(*bounds[j], knots + 2)[1:-1], *bounds[j])
                for j in ids
            )
            return AdditiveSplineModel(ids, bases, rng.normal(size=bases.width), 1.5)

        layers = (
            LinearModel(rng.normal(size=5), 0.5),
            layer((0, 1, 2), 3),  # 22 columns
            layer((2, 0, 1), 3),  # the same set in another order
            layer((0, 3), 1),  # another set
            layer((0, 1, 2), 0),  # 13 columns, in the first layer's blocks
        )
        return CFracModel(1.0, layers, bounds, training_target_max=1.0)

    @staticmethod
    def batch(model):
        rng = np.random.default_rng(32)
        lo, hi = model.feature_bounds.T
        inside = lo + (hi - lo) * rng.random((60, 4))
        inside[::7, 1], inside[::5, 2] = hi[1], lo[2]
        outside = inside + (hi - lo) * rng.uniform(-2.0, 2.0, inside.shape)
        return inside, np.vstack([inside, outside, inside[:9]])

    @pytest.fixture(autouse=True)
    def small_blocks(self, monkeypatch):
        monkeypatch.setattr(cfr_core, "_BLOCK_CELLS", self.BLOCK_CELLS)

    def test_layers_match_the_dense_oracle(self):
        model = self.model()
        inside, _ = self.batch(model)
        lo, hi = model.feature_bounds.T
        for g, value in zip(model.layers[1:], model.layer_values(inside)[1:]):
            ids = list(g.variable_ids)
            design = design_matrix(np.clip(inside[:, ids], lo[ids], hi[ids]), g.bases)
            assert_same_bits(value, cfr_core._row_dot(design, g.coefficients))

    def test_document_round_trips(self):
        # Layers reading three different variable tuples save and load as they are.
        model = self.model()
        text = serialize(model)
        clone = deserialize(text)
        assert serialize(clone) == text
        _, batch = self.batch(model)
        assert_same_bits(clone.predict(batch), model.predict(batch))

    def test_layers_match_their_own_model(self):
        # Outside the box as well, a layer's values do not depend on the
        # layers it shares blocks with.
        model = self.model()
        _, batch = self.batch(model)
        values = model.layer_values(batch)
        for d, g in enumerate(model.layers[1:], start=1):
            alone = replace(model, layers=(model.layers[0], g))
            assert_same_bits(values[d], alone.layer_values(batch)[1])

    def test_each_block_is_gathered_once_per_variable_tuple(self, monkeypatch):
        model = self.model()
        _, batch = self.batch(model)
        calls = []
        original = cfr_core.design_matrix

        def spy(block, bases, **kwargs):
            calls.append((block, bases))
            return original(block, bases, **kwargs)

        monkeypatch.setattr(cfr_core, "design_matrix", spy)
        model.predict(batch)
        layers = model.layers[1:]
        blocks = [[b for b, bases in calls if bases is g.bases] for g in layers]
        widest = {}
        for g in layers:
            widest[g.variable_ids] = max(widest.get(g.variable_ids, 0), g.bases.width)
        for g, seen in zip(layers, blocks):
            assert len(seen) > 2
            assert max(b.shape[0] for b in seen) == self.BLOCK_CELLS // widest[g.variable_ids]
        first, other_order, other_set, second = blocks
        # The narrower layer takes the rows of the wider one's blocks, fewer
        # than its own width would give it.
        narrow, wide = layers[3].bases.width, layers[0].bases.width
        assert self.BLOCK_CELLS // narrow > self.BLOCK_CELLS // wide
        assert all(a is b for a, b in zip(first, second, strict=True))
        assert not {id(b) for b in first} & {id(b) for b in other_order + other_set}

class TestBatchIndependence:
    """A row's prediction depends on the row and the model, not on its batch."""

    @pytest.fixture(scope="class")
    def fitted(self):
        X, y = TestMemory.table(4000, 40, seed=3)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", TrainingRmseWarning)
            model = fit(X, y, FitConfig(max_depth=3))
        side = np.where(np.random.default_rng(8).random((X.shape[0], 1)) < 0.5, -3.0, 3.0)
        batch = np.vstack([X, X + side])  # the table, then each row out of the box
        return model, batch, model.predict(batch)

    @staticmethod
    def assert_batch_free(model, batch, full):
        n = batch.shape[0]
        for start in (1, 7, n // 24, n // 8, 5 * n // 8 + 1):  # 1, 7, 333, 1000, 5001 of 8000
            assert_same_bits(model.predict(batch[start:]), full[start:])
        order = np.random.default_rng(9).permutation(n)
        assert_same_bits(model.predict(batch[order]), full[order])
        lo, hi = model.feature_bounds.T
        assert ((lo < batch[2]) & (batch[2] < hi)).all()
        for one in (slice(2, 3), slice(n - 3, n - 2)):  # a row inside the box, one outside
            assert_same_bits(model.predict(batch[one]), full[one])
        inside = batch[: n // 2]  # the table: every row inside the box
        assert not model.outside_box(inside).any()
        assert_same_bits(model.predict(inside), full[: n // 2])
        assert_same_bits(model.predict(np.asfortranarray(batch)), full)

    def test_slices_permutations_and_layouts(self, fitted):
        model, batch, full = fitted
        assert batch.shape == (8000, 40) and model.depth == 3
        self.assert_batch_free(model, batch, full)

    def test_block_size_moves_no_bit(self, fitted, monkeypatch):
        # One design row, and one row of each row pass, per block here;
        # every 40th row keeps the run short.
        model, batch, full = fitted
        monkeypatch.setattr(cfr_core, "_BLOCK_CELLS", TestRowBlocks.BLOCK_CELLS)
        monkeypatch.setattr(cfr_core, "_COMPARE_BYTES", 8)
        assert TestRowBlocks.block_rows(model.layers[1].coefficients.shape[0]) == 1
        self.assert_batch_free(model, batch[::40], full[::40])


def repeated_rows(n_distinct, m, seed):
    """A table whose rows repeat 1 to 4 times in shuffled order; y varies within a group."""
    rng = np.random.default_rng(seed)
    base = rng.uniform(-2, 2, size=(n_distinct, m))
    X = base[rng.permutation(np.repeat(np.arange(n_distinct), rng.integers(1, 5, n_distinct)))]
    y = 3.0 + X.sum(axis=1) + 0.3 * np.sin(3 * X[:, 0]) + rng.normal(0, 0.1, X.shape[0])
    return X, y


class TestDistinctRows:
    """fit on a table whose rows repeat solves each depth on the distinct rows."""

    CONFIG = FitConfig(max_depth=3, norm=1.0, lam=0.1)

    @pytest.fixture(params=[None, TestRowBlocks.BLOCK_CELLS], ids=["one_block", "blocks"])
    def fitted(self, request, monkeypatch):
        if request.param is not None:
            monkeypatch.setattr(cfr_core, "_BLOCK_CELLS", request.param)
        X, y = repeated_rows(50, 3, seed=6)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", TrainingRmseWarning)
            model = fit(X, y, self.CONFIG)
        return X, y, model

    def test_table_repeats_rows(self):
        X, _ = repeated_rows(50, 3, seed=6)
        assert len(np.unique(X, axis=0)) == 50 < X.shape[0]

    def test_training_rmse_is_recomputed_bit_for_bit(self, fitted):
        X, y, model = fitted
        assert model.depth == 3
        assert model.training_rmse == tuple(training_rmse_by_depth(model, X, y))

    def test_layers_match_the_solve_on_every_row(self, fitted):
        # Coefficients are fixed only up to the jitter along the intercept
        # and each variable's partition of unity, where rounding moves them
        # by about 1e-5 relative; the layer values those directions leave
        # unchanged are compared instead, inside and outside the box.
        X, y, model = fitted
        batch = np.vstack([X, X + 5.0, X - 5.0])
        values = model.layer_values(X)
        batch_values = model.layer_values(batch)
        resid = y / model.norm - values[0]
        for above, spline, value, got in zip(
            model.layers, model.layers[1:], values[1:], batch_values[1:]
        ):
            target = 1.0 / (resid + above.offset)
            ids = list(spline.variable_ids)
            pens = [penalty_block(kv.basis_count) for kv in spline.bases]
            beta = penalized_least_squares(
                design_matrix(X[:, ids], spline.bases), target, self.CONFIG.lam, pens
            )
            expected = oracle_design(batch[:, ids], spline.bases) @ beta
            npt.assert_allclose(got, expected, rtol=0.0, atol=1e-9 * np.abs(expected).max())
            resid = target - value

    def test_all_constant_features_fit_the_mean(self):
        X = np.full((12, 2), 3.0)
        y = np.linspace(0, 1, 12)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", TrainingRmseWarning)
            model = fit(X, y, FitConfig(max_depth=2, norm=1.0))
        values = model.layer_values(X)
        resid = y - values[0]
        for above, layer, value in zip(model.layers, model.layers[1:], values[1:]):
            assert layer.variable_ids == ()
            target = 1.0 / (resid + above.offset)
            expected = least_squares(np.ones((12, 1)), target)
            npt.assert_allclose(layer.coefficients, expected, rtol=1e-12)
            resid = target - value
        assert np.isfinite(model.predict(X)).all()

    def test_row_order_moves_only_the_last_bits(self):
        # Reordering the rows reorders the distinct rows and their sums.
        X, y = repeated_rows(50, 3, seed=6)
        order = np.random.default_rng(1).permutation(X.shape[0])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", TrainingRmseWarning)
            a = fit(X, y, self.CONFIG)
            b = fit(X[order], y[order], self.CONFIG)
        npt.assert_allclose(a.predict(X), b.predict(X), rtol=1e-9)


class TestLinearLayer:
    """The linear layer's shifted and scaled normal equations against the
    augmented ``lstsq`` solve on every training row."""

    @staticmethod
    def values_and_oracle(X, y, batch):
        model = fit(X, y, FitConfig(max_depth=0))
        beta = augmented_least_squares(np.column_stack([np.ones(X.shape[0]), X]), y / model.norm)
        return model, model.layer_values(batch)[0], beta[0] + batch @ beta[1:]

    @staticmethod
    def in_and_out_of_box(X, seed):
        lo, hi = X.min(axis=0), X.max(axis=0)
        rng = np.random.default_rng(seed)
        return np.vstack([X, rng.uniform(lo - 3 * (hi - lo), hi + 3 * (hi - lo), (200, X.shape[1]))])

    def test_repeated_rows_match_the_solve_on_every_row(self):
        X, y = repeated_rows(50, 3, seed=6)
        _, values, expected = self.values_and_oracle(X, y, self.in_and_out_of_box(X, 1))
        npt.assert_allclose(values, expected, rtol=0.0, atol=1e-10 * np.abs(expected).max())

    def test_ill_conditioned_table(self):
        # A column far from zero relative to its spread: cond([1, X]) is
        # about 3e9. The 1e-10 jitter acts on scaled coefficients in fit and
        # on raw ones in the oracle, which accounts for the stated tolerance.
        rng = np.random.default_rng(0)
        X = np.column_stack(
            [3e4 + rng.uniform(0, 1, 300), rng.uniform(-1, 1, 300), rng.normal(0, 5, 300)]
        )
        y = 2.0 + X @ np.array([1.5, -2.0, 0.3]) + rng.normal(0, 0.1, 300)
        assert np.linalg.cond(np.column_stack([np.ones(300), X])) >= 1e9
        batch = self.in_and_out_of_box(X, 1)
        _, values, expected = self.values_and_oracle(X, y, batch)
        scale = np.abs(expected).max()
        inside = slice(0, X.shape[0])
        npt.assert_allclose(values[inside], expected[inside], rtol=0.0, atol=1e-9 * scale)
        npt.assert_allclose(values, expected, rtol=0.0, atol=1e-8 * scale)

    @pytest.mark.parametrize(
        "units, shift",
        [
            ([1e-4, 1.0, 1e4], 0.0),
            ([1e6, 1e-6, 1.0], 0.0),
            ([1.0, 1.0, 1.0], [1e3, -50.0, 7.0]),
        ],
    )
    def test_feature_units_do_not_move_the_fit(self, units, shift):
        # The jitter acts on coefficients of columns mapped onto [0, 1], so
        # it ridges every column alike whatever its units. Acting on raw
        # coefficients, it moved the second case's values by a fifth.
        X, y = toy_data(n=80, seed=5)
        expected = fit(X, y, FitConfig(max_depth=0)).layer_values(X)[0]
        moved = X * units + shift
        values = fit(moved, y, FitConfig(max_depth=0)).layer_values(moved)[0]
        npt.assert_allclose(values, expected, rtol=0.0, atol=1e-12 * np.abs(expected).max())

    @pytest.mark.parametrize("gap", [0.0, 1e-9], ids=["duplicate", "near_duplicate"])
    def test_collinear_columns_solve_without_the_rescue(self, gap):
        # Any RuntimeWarning, the solver's rescue included, is an error here.
        X, y = toy_data(n=80, seed=3)
        twin = X[:, :1] + gap * np.random.default_rng(4).normal(size=(80, 1))
        X = np.hstack([X, twin])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            model, values, expected = self.values_and_oracle(X, y, X)
        assert np.isfinite(model.layers[0].coefficients).all()
        npt.assert_allclose(values, expected, rtol=0.0, atol=1e-8 * np.abs(expected).max())


def distinct_rows_oracle(X):
    """One np.unique over the rows' byte keys, groups renumbered by first occurrence."""
    n = X.shape[0]
    if X.shape[1] == 0:
        first = np.zeros(min(n, 1), dtype=np.intp)
        return first, np.zeros(n, dtype=np.intp), np.full(first.size, n)
    keys = np.ascontiguousarray(X).view(np.dtype((np.void, X.itemsize * X.shape[1]))).ravel()
    _, first, group, counts = np.unique(
        keys, return_index=True, return_inverse=True, return_counts=True
    )
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    return first[order], rank[group.ravel()], counts[order]


class TestDistinctRowKeys:
    """_distinct_rows against the np.unique oracle."""

    @staticmethod
    def tied_table(seed, cells=(0.0, -0.0, 1.0, np.nan, 2.5, -1.0)):
        """Rows drawn with repeats from a few rows of a few cell values."""
        rng = np.random.default_rng(seed)
        base = rng.choice(np.array(cells), size=(rng.integers(1, 12), rng.integers(1, 5)))
        return base[rng.integers(0, base.shape[0], rng.integers(1, 60))]

    @staticmethod
    def assert_matches_oracle(X):
        got = cfr_core._distinct_rows(X)
        for name, g, e in zip(("first", "group", "counts"), got, distinct_rows_oracle(X)):
            npt.assert_array_equal(g, e, err_msg=name)
        return got

    @pytest.mark.parametrize("seed", range(40))
    def test_tied_tables(self, seed):
        self.assert_matches_oracle(self.tied_table(seed))

    def test_groups_numbered_by_first_occurrence(self):
        X = np.array([[2.0], [1.0], [2.0], [3.0], [1.0], [2.0]])
        first, group, counts = self.assert_matches_oracle(X)
        assert first.tolist() == [0, 1, 3]
        assert group.tolist() == [0, 1, 0, 2, 1, 0]
        assert counts.tolist() == [3, 2, 1]

    def test_signed_zeros_stay_apart(self):
        X = np.array([[0.0, 1.0], [-0.0, 1.0], [0.0, 1.0], [-0.0, 1.0]])
        first, group, _ = self.assert_matches_oracle(X)
        assert first.tolist() == [0, 1] and group.tolist() == [0, 1, 0, 1]

    def test_nan_rows_match_their_own_bytes(self):
        X = np.array([[np.nan, 1.0], [1.0, np.nan], [np.nan, 1.0], [np.nan, np.nan]])
        first, group, _ = self.assert_matches_oracle(X)
        assert group.tolist() == [0, 1, 0, 2]

    @pytest.mark.parametrize("n", [0, 1, 5])
    def test_zero_columns(self, n):
        first, group, counts = self.assert_matches_oracle(np.empty((n, 0)))
        assert counts.sum() == n and group.shape == (n,)

    def test_zero_rows(self):
        first, group, counts = self.assert_matches_oracle(np.empty((0, 3)))
        assert first.size == group.size == counts.size == 0

    def test_non_contiguous_input(self):
        X = self.tied_table(7)
        for view in (np.asfortranarray(X), np.repeat(X, 2, axis=1)[:, ::2], X[::-1]):
            assert not view.flags.c_contiguous
            self.assert_matches_oracle(view)

    def test_rows_spanning_several_compare_blocks(self, monkeypatch):
        monkeypatch.setattr(cfr_core, "_COMPARE_BYTES", 40)
        for seed in range(10):
            self.assert_matches_oracle(self.tied_table(seed))


class TestMemory:
    """Traced peaks (numpy buffers included) against the largest design."""

    @staticmethod
    def table(n, m, seed):
        rng = np.random.default_rng(seed)
        X = rng.uniform(-1.0, 1.0, (n, m))
        y = 50.0 + 10.0 * np.sin(2.0 * X).sum(axis=1) + rng.normal(0.0, 1.0, n)
        return X, y

    @staticmethod
    def design_bytes(model, rows):
        return rows * model.layers[-1].coefficients.shape[0] * 8

    @staticmethod
    def traced_peak(func, *args):
        tracemalloc.start()
        try:
            result = func(*args)
            return result, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_fit_holds_one_design_at_a_time(self):
        X, y = self.table(4000, 40, seed=3)
        model, peak = self.traced_peak(fit, X, y, FitConfig(max_depth=3))
        assert model.depth == 3
        assert peak <= 1.6 * self.design_bytes(model, X.shape[0])

    def test_fit_on_repeated_rows_holds_less_than_the_full_design(self):
        X, y = self.table(4000, 40, seed=3)
        order = np.random.default_rng(5).permutation(4 * X.shape[0])
        X, y = np.vstack([X] * 4)[order], np.concatenate([y] * 4)[order]
        model, peak = self.traced_peak(fit, X, y, FitConfig(max_depth=3))
        assert model.depth == 3
        assert peak <= 0.8 * self.design_bytes(model, X.shape[0])

    def test_predict_builds_each_design_in_place(self):
        X, y = self.table(4000, 40, seed=3)
        model = fit(X, y, FitConfig(max_depth=3))
        rng = np.random.default_rng(4)
        inside = X[rng.choice(X.shape[0], 4000)]
        batch = np.vstack([inside, inside + np.where(rng.random((4000, 1)) < 0.5, -3.0, 3.0)])
        pred, peak = self.traced_peak(model.predict, batch)
        assert np.isfinite(pred).all()
        assert peak <= 1.6 * self.design_bytes(model, batch.shape[0])

    def test_predict_peak_stays_under_two_8_mb_blocks(self):
        # The design is 8000 x 680 cells, well above 2**21, so predict builds
        # it in several blocks of 2**20 cells (8 MB); one block and its
        # temporaries must stay under two blocks' bytes.
        X, y = self.table(4000, 40, seed=3)
        model = fit(X, y, FitConfig(max_depth=3))
        side = np.where(np.random.default_rng(4).random((4000, 1)) < 0.5, -3.0, 3.0)
        batch = np.vstack([X, X + side])
        assert self.design_bytes(model, batch.shape[0]) > 2 * 2**21 * 8
        pred, peak = self.traced_peak(model.predict, batch)
        assert np.isfinite(pred).all()
        assert peak < 2 * 2**20 * 8

    def test_distinct_rows_holds_less_than_half_the_table(self):
        X, _ = self.table(20000, 40, seed=6)
        X = X[np.random.default_rng(7).integers(0, X.shape[0], X.shape[0])]
        (first, _, _), peak = self.traced_peak(cfr_core._distinct_rows, X)
        assert first.size < X.shape[0]
        assert peak < 0.5 * X.nbytes

    def test_knot_vectors_are_freed_with_the_model(self):
        X, y = toy_data(n=60, seed=5)
        model = fit(X, y, FitConfig(max_depth=2, norm=1.0))
        model.predict(X + 5.0)  # extrapolates from every boundary
        refs = [weakref.ref(kv) for layer in model.layers[1:] for kv in layer.bases]
        assert len(refs) == 6
        del model
        gc.collect()
        assert [ref for ref in refs if ref() is not None] == []

    def test_layer_tables_are_built_once_per_model(self, monkeypatch):
        builds = []
        frozen = spline_basis._frozen
        monkeypatch.setattr(spline_basis, "_frozen", lambda a: builds.append(1) or frozen(a))
        X, y = toy_data(n=60, seed=5)
        # fit builds each depth's tables for its design; the model keeps them.
        model = fit(X, y, FitConfig(max_depth=2, norm=1.0))
        per_model = len(builds)
        copy = deserialize(serialize(model))
        assert per_model > 0 and len(builds) == 2 * per_model
        tables = [dict(vars(layer.bases)) for m in (model, copy) for layer in m.layers[1:]]
        for m in (model, copy):
            m.predict(np.vstack([X, X + 5.0]))
            m.predict(X[:1])
        assert len(builds) == 2 * per_model
        after = [vars(layer.bases) for m in (model, copy) for layer in m.layers[1:]]
        assert all(a[k] is v for a, t in zip(after, tables) for k, v in t.items())
        refs = [weakref.ref(v) for t in tables for v in t.values() if isinstance(v, np.ndarray)]
        assert len(refs) == 4 * 7
        del model, copy, m, tables, after
        gc.collect()
        assert [ref for ref in refs if ref() is not None] == []
