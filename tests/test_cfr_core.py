"""Knot selection, offsets, the fitting loop, depth control, serialization."""

import gc
import math
import tracemalloc
import warnings
import weakref
from dataclasses import replace

import numpy as np
import numpy.testing as npt
import pytest

from splinecfr import cfr_core
from splinecfr.cfr_core import (
    AdditiveSplineModel,
    CFracModel,
    DepthLayer,
    FitConfig,
    LinearModel,
    compute_offset,
    deserialize,
    fit,
    select_knots,
    serialize,
    training_rmse_by_depth,
)
from splinecfr.errors import ModelFormatError, TrainingRmseWarning
from splinecfr.solver import least_squares, penalized_least_squares
from splinecfr.spline_basis import build_knot_vector, design_matrix, penalty_block
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

    def test_bad_inputs(self):
        with pytest.raises(ValueError, match="non-empty"):
            select_knots([], 2)
        with pytest.raises(ValueError, match="k must be"):
            select_knots([1.0], 0)


class TestComputeOffset:
    def test_negative_minimum(self):
        assert compute_offset([-2.0, 1.0, 3.0], 1e-6) == pytest.approx(2.000001)

    def test_positive_minimum_still_contributes(self):
        assert compute_offset([0.5, 1.0], 1e-6) == pytest.approx(0.500001)

    def test_all_zero(self):
        assert compute_offset([0.0, 0.0, 0.0], 1e-6) == pytest.approx(1e-6)

    def test_epsilon_must_be_positive(self):
        with pytest.raises(ValueError, match="positive"):
            compute_offset([1.0], 0.0)


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
        assert isinstance(model.layers[0].model, LinearModel)
        assert all(isinstance(l.model.__class__, type) for l in model.layers)
        assert isinstance(model.layers[1].model, AdditiveSplineModel)

    def test_knot_sets_accumulate(self):
        X, y = toy_data(n=60, seed=8)
        model = fit(X, y, FitConfig(max_depth=4, knots_per_depth=4))
        spline_layers = [l.model for l in model.layers[1:]]
        for shallow, deep in zip(spline_layers, spline_layers[1:]):
            for kv_s, kv_d in zip(shallow.bases, deep.bases):
                assert set(kv_s.interior) <= set(kv_d.interior)

    def test_knot_budget_per_depth(self):
        X, y = toy_data(n=80, seed=9)
        k = 3
        model = fit(X, y, FitConfig(max_depth=5, knots_per_depth=k))
        for depth, layer in enumerate(model.layers[1:], start=1):
            for kv in layer.model.bases:
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
            assert layer.model.variable_ids == (0,)

    def test_constant_columns_get_linear_coefficient_zero(self):
        # The intercept alone carries a column that never varied in training,
        # so moving that feature moves no prediction.
        X, y = toy_data(n=60, seed=15)
        with_constant = np.insert(X, 1, 5.0, axis=1)
        config = FitConfig(max_depth=2, norm=1.0)
        model = fit(with_constant, y, config)
        linear = model.layers[0].model.coefficients
        assert linear[2] == 0.0
        assert_same_bits(np.delete(linear, 2), fit(X, y, config).layers[0].model.coefficients)
        moved = np.insert(X, 1, -3.0, axis=1)
        batch = np.vstack([with_constant, with_constant + 4.0])
        assert_same_bits(model.predict(np.vstack([moved, moved + 4.0])), model.predict(batch))

    def test_all_constant_features_degenerate_gracefully(self):
        X = np.full((10, 2), 3.0)
        y = np.linspace(0, 1, 10)
        model = fit(X, y, FitConfig(max_depth=2, norm=1.0))
        for layer in model.layers[1:]:
            assert layer.model.variable_ids == ()
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


class TestPredictMechanics:
    def make_depth1(self, norm=10.0, c0=0.5, g1_const=2.0):
        g0 = LinearModel(np.array([0.0, 1.0]))  # g0(x) = x
        g1 = LinearModel(np.array([g1_const, 0.0]))
        return CFracModel(
            norm=norm,
            layers=(DepthLayer(g0, c0), DepthLayer(g1, 1.0)),
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

    def test_depth_zero_identity(self):
        g0 = LinearModel(np.array([0.0, 1.0]))
        model = CFracModel(
            norm=1.0,
            layers=(DepthLayer(g0, 123.0),),  # offset present but unused
            feature_bounds=np.array([[0.0, 1.0]]),
            training_target_max=1.0,
        )
        X = np.array([[0.3], [0.9]])
        npt.assert_allclose(model.predict(X), [0.3, 0.9], atol=1e-15)

    def test_feature_count_mismatch(self):
        model = self.make_depth1()
        with pytest.raises(ValueError, match="feature columns"):
            model.predict(np.zeros((2, 3)))


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

    def test_wrong_format_tag(self):
        with pytest.raises(ModelFormatError, match="format"):
            deserialize('{"format": "something-else"}')

    def test_coefficient_count_checked(self):
        X, y = toy_data(n=30)
        import json

        text = serialize(fit(X, y, FitConfig(max_depth=1)))

        def spline_var(doc):
            return doc["layers"][1]["variables"][0]

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
        ]
        for corrupt, message in cases:
            doc = json.loads(text)
            corrupt(doc)
            with pytest.raises(ModelFormatError, match=message):
                deserialize(json.dumps(doc))


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
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        (name,) = kwargs
        with pytest.raises(ValueError, match=name):
            FitConfig(**kwargs)

    def test_accepts_numpy_integers(self):
        assert FitConfig(max_depth=np.int64(2), knots_per_depth=np.int32(3)).max_depth == 2


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
            assert X.shape[0] > 2 * self.block_rows(layer.model.coefficients.shape[0])

    def test_training_rmse_is_recomputed_bit_for_bit(self, blocked):
        X, y, model = blocked
        assert model.depth == 3
        assert model.training_rmse == tuple(training_rmse_by_depth(model, X, y))

    def test_layers_match_the_one_shot_design(self, blocked):
        X, _, model = blocked
        batch = np.vstack([X, X + 5.0, X - 5.0])
        for layer in model.layers[1:]:
            spline = layer.model
            one_shot = design_matrix(batch[:, list(spline.variable_ids)], spline.bases)
            expected = one_shot @ spline.coefficients
            # Only the summation order of the dot products may differ.
            npt.assert_allclose(
                spline.evaluate(batch, np.arange(batch.shape[0])), expected, rtol=0.0,
                atol=1e-13 * np.abs(expected).max(),
            )

    def test_predict_builds_one_block_at_a_time(self, blocked, monkeypatch):
        X, _, model = blocked
        rows_seen = []
        original = cfr_core.design_matrix

        def spy(cols, bases):
            rows_seen.append((cols.shape[0], 1 + sum(kv.basis_count for kv in bases)))
            return original(cols, bases)

        monkeypatch.setattr(cfr_core, "design_matrix", spy)
        # The second copy of X adds no design rows: each distinct row is built once.
        pred = model.predict(np.vstack([X, X + 5.0, X]))
        assert np.isfinite(pred).all()
        assert len(rows_seen) >= 3 * model.depth
        assert all(rows <= self.block_rows(width) for rows, width in rows_seen)
        assert sum(rows for rows, _ in rows_seen) == 2 * X.shape[0] * model.depth

    def test_zero_rows(self, blocked):
        X, _, model = blocked
        pred = model.predict(np.empty((0, X.shape[1])))
        assert pred.shape == (0,)


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
        one = slice(n - 3, n - 2)
        assert_same_bits(model.predict(batch[one]), full[one])
        assert_same_bits(model.predict(np.asfortranarray(batch)), full)

    def test_slices_permutations_and_layouts(self, fitted):
        model, batch, full = fitted
        assert batch.shape == (8000, 40) and model.depth == 3
        self.assert_batch_free(model, batch, full)

    def test_block_size_moves_no_bit(self, fitted, monkeypatch):
        # One design row per block here; every 40th row keeps the run short.
        model, batch, full = fitted
        monkeypatch.setattr(cfr_core, "_BLOCK_CELLS", TestRowBlocks.BLOCK_CELLS)
        assert TestRowBlocks.block_rows(model.layers[1].model.coefficients.shape[0]) == 1
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
        resid = y / model.norm - values[0]
        for above, layer, value in zip(model.layers, model.layers[1:], values[1:]):
            target = 1.0 / (resid + above.offset)
            spline = layer.model
            ids = list(spline.variable_ids)
            pens = [penalty_block(kv.basis_count) for kv in spline.bases]
            beta = penalized_least_squares(
                design_matrix(X[:, ids], spline.bases), target, self.CONFIG.lam, pens
            )
            expected = design_matrix(batch[:, ids], spline.bases) @ beta
            npt.assert_allclose(spline.evaluate(batch, np.arange(batch.shape[0])), expected,
                                rtol=0.0, atol=1e-9 * np.abs(expected).max())
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
            assert layer.model.variable_ids == ()
            target = 1.0 / (resid + above.offset)
            expected = least_squares(np.ones((12, 1)), target)
            npt.assert_allclose(layer.model.coefficients, expected, rtol=1e-12)
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
        assert np.isfinite(model.layers[0].model.coefficients).all()
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
        return rows * model.layers[-1].model.coefficients.shape[0] * 8

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
        refs = [weakref.ref(kv) for layer in model.layers[1:] for kv in layer.model.bases]
        assert len(refs) == 6
        del model
        gc.collect()
        assert [ref for ref in refs if ref() is not None] == []
