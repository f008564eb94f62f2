"""End-to-end runs of the command-line interface through main()."""

import json
import re
import tracemalloc
import warnings
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest

from splinecfr import cfr_core, cli
from splinecfr.cli import build_parser, main
from splinecfr.bench import ExperimentConfig
from splinecfr.cfr_core import FitConfig, deserialize, fit, serialize, training_rmse_by_depth
from splinecfr.data_io import (
    DEFAULT_TARGET,
    gen_sinc,
    load_csv,
    split_out_of_domain,
    split_out_of_sample,
)
from splinecfr.errors import TrainingRmseWarning
from splinecfr.fileio import csv_text


@pytest.fixture()
def toy_csv(tmp_path):
    """Small two-feature regression table with a strictly increasing target."""
    rng = np.random.default_rng(4)
    n = 40
    x0 = np.linspace(0.0, 4.0, n)
    x1 = rng.uniform(-1.0, 1.0, size=n)
    y = np.sort(3.0 * x0 + np.sin(3.0 * x1) + rng.normal(0.0, 0.05, size=n)) + 5.0
    rows = [(float(a), float(b), float(c)) for a, b, c in zip(x0, x1, y)]
    path = tmp_path / "toy.csv"
    path.write_text(csv_text(["x0", "x1", "y"], rows))
    return str(path)


def read_rows(path):
    lines = path.read_text().strip().splitlines()
    return lines[0].split(","), [ln.split(",") for ln in lines[1:]]


class TestSynthFitPredict:
    def test_round_trip(self, tmp_path):
        data = tmp_path / "sinc.csv"
        assert main(["synth", "sinc", "--n", "60", "--out", str(data)]) == 0
        header, rows = read_rows(data)
        assert header == ["x", "y"]
        assert len(rows) == 60

        fit_dir = tmp_path / "fitted"
        code = main([
            "fit", "--data", str(data), "--target", "y",
            "--out-dir", str(fit_dir),
            "--max-depth", "1", "--knots", "3", "--norm", "1", "--lambda", "0.1",
        ])
        assert code == 0
        model_path = fit_dir / "model.json"
        model = deserialize(model_path.read_text())
        assert model.depth == 1
        assert len(model.layers) == 2

        log = (fit_dir / "fit_log.txt").read_text()
        assert log.startswith("depth,train_rmse,interior_knots,offset\n")
        assert "fitted_depth,1" in log

        pred_path = tmp_path / "pred.csv"
        code = main([
            "predict", "--model", str(model_path), "--data", str(data),
            "--out", str(pred_path),
        ])
        assert code == 0
        header, rows = read_rows(pred_path)
        assert header == ["row_id", "y_pred", "y_true"]
        assert len(rows) == 60
        ds = load_csv(str(data), "y")
        expected = model.predict(ds.features)
        got = np.array([float(r[1]) for r in rows])
        npt.assert_allclose(got, expected, rtol=0.0, atol=0.0)

    def test_fit_builds_each_design_once(self, tmp_path, toy_csv, monkeypatch):
        built = []
        original = cfr_core.design_matrix

        def counting(*args, **kwargs):
            built.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(cfr_core, "design_matrix", counting)
        fit_dir = tmp_path / "m"
        assert main([
            "fit", "--data", toy_csv, "--target", "y", "--out-dir", str(fit_dir),
            "--max-depth", "2",
        ]) == 0
        assert len(built) == 2
        # The log's train_rmse column comes from the fit's record and equals
        # a fresh evaluation of the saved model.
        ds = load_csv(toy_csv, "y")
        model = deserialize((fit_dir / "model.json").read_text())
        _, rows = read_rows(fit_dir / "fit_log.txt")
        assert [float(r[1]) for r in rows[:3]] == training_rmse_by_depth(
            model, ds.features, ds.target
        )

    def test_predict_matches_columns_by_name(self, tmp_path, toy_csv):
        fit_dir = tmp_path / "m"
        assert main([
            "fit", "--data", toy_csv, "--target", "y", "--out-dir", str(fit_dir),
            "--max-depth", "1", "--knots", "2",
        ]) == 0
        ds = load_csv(toy_csv, "y")

        # Same table with the columns permuted; predictions must not change.
        shuffled = tmp_path / "shuffled.csv"
        rows = [
            (float(ds.target[i]), float(ds.features[i, 1]), float(ds.features[i, 0]))
            for i in range(ds.n)
        ]
        shuffled.write_text(csv_text(["y", "x1", "x0"], rows))

        out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
        model = str(fit_dir / "model.json")
        assert main(["predict", "--model", model, "--data", toy_csv, "--out", str(out_a)]) == 0
        assert main(["predict", "--model", model, "--data", str(shuffled), "--out", str(out_b)]) == 0
        assert out_a.read_text() == out_b.read_text()

    def test_predict_warns_on_extra_columns(self, tmp_path, toy_csv, capsys):
        fit_dir = tmp_path / "m"
        assert main([
            "fit", "--data", toy_csv, "--target", "y", "--out-dir", str(fit_dir),
            "--max-depth", "0",
        ]) == 0
        ds = load_csv(toy_csv, "y")
        extra = tmp_path / "extra.csv"
        rows = [
            (float(ds.features[i, 0]), float(ds.features[i, 1]), 1.0)
            for i in range(ds.n)
        ]
        extra.write_text(csv_text(["x0", "x1", "junk"], rows))
        code = main([
            "predict", "--model", str(fit_dir / "model.json"),
            "--data", str(extra), "--out", str(tmp_path / "p.csv"),
        ])
        assert code == 0
        assert "ignoring unknown columns: junk" in capsys.readouterr().err
        header, _ = read_rows(tmp_path / "p.csv")
        assert header == ["row_id", "y_pred"]  # no target column in the table

    def test_predict_names_missing_columns(self, tmp_path, toy_csv, capsys):
        fit_dir = tmp_path / "m"
        assert main([
            "fit", "--data", toy_csv, "--target", "y", "--out-dir", str(fit_dir),
            "--max-depth", "0",
        ]) == 0
        partial = tmp_path / "partial.csv"
        partial.write_text("x0\n1.0\n")
        code = main([
            "predict", "--model", str(fit_dir / "model.json"),
            "--data", str(partial), "--out", str(tmp_path / "p.csv"),
        ])
        assert code == 2
        assert "missing feature columns: x1" in capsys.readouterr().err

    def test_predict_notes_rows_outside_the_training_box(self, tmp_path, toy_csv, capsys):
        fit_dir = tmp_path / "m"
        assert main([
            "fit", "--data", toy_csv, "--target", "y", "--out-dir", str(fit_dir),
            "--max-depth", "1", "--knots", "2",
        ]) == 0
        model = str(fit_dir / "model.json")
        capsys.readouterr()
        # The training table itself: rows at the box's ends are inside.
        assert main(["predict", "--model", model, "--data", toy_csv,
                     "--out", str(tmp_path / "a.csv")]) == 0
        assert "note:" not in capsys.readouterr().err
        ds = load_csv(toy_csv, "y")
        X = ds.features.copy()
        X[3, 0] = 4.5  # x0 was fit on [0, 4]
        X[7, 1] = -2.0
        X[9] = [-1.0, 5.0]  # outside on both features, counted once
        X[11, 0] = 4.0  # at the end: inside
        moved = tmp_path / "moved.csv"
        moved.write_text(csv_text(["x0", "x1"], X.tolist()))
        assert main(["predict", "--model", model, "--data", str(moved),
                     "--out", str(tmp_path / "b.csv")]) == 0
        err = capsys.readouterr().err
        assert f"note: 3 of {ds.n} rows lie outside the training box" in err.splitlines()

    def test_predict_holds_one_table(self, tmp_path, monkeypatch):
        # At predict's entry only X and the y_true values remain of the parsed
        # table: about one table's bytes, not the table plus a copy of it.
        rng = np.random.default_rng(12)
        n, m = 8000, 30
        X = rng.uniform(-1.0, 1.0, (n, m))
        y = 5.0 + X.sum(axis=1) + rng.normal(0.0, 0.1, n)
        data = tmp_path / "wide.csv"
        names = [f"x{j}" for j in range(m)]
        data.write_text(csv_text(names + ["y"], np.column_stack([X, y]).tolist()))
        model = fit(X, y, FitConfig(max_depth=1))
        model = replace(model, feature_names=tuple(names), target_name="y")
        model_path = tmp_path / "model.json"
        model_path.write_text(serialize(model))
        held = []
        original = cfr_core.CFracModel.predict

        def spy(self, X):
            held.append(tracemalloc.get_traced_memory()[0])
            return original(self, X)

        monkeypatch.setattr(cfr_core.CFracModel, "predict", spy)
        tracemalloc.start()
        try:
            code = main(["predict", "--model", str(model_path), "--data", str(data),
                         "--out", str(tmp_path / "p.csv")])
        finally:
            tracemalloc.stop()
        assert code == 0
        table_bytes = n * (m + 1) * 8
        assert len(held) == 1
        assert held[0] < 1.5 * table_bytes
        header, rows = read_rows(tmp_path / "p.csv")
        assert header == ["row_id", "y_pred", "y_true"]
        assert [float(r[2]) for r in rows] == y.tolist()

    def test_synth_requires_paired_range_flags(self, tmp_path):
        code = main([
            "synth", "gamma", "--n", "10", "--lo", "1.0",
            "--out", str(tmp_path / "g.csv"),
        ])
        assert code == 2

    def test_synth_writes_the_given_grid(self, tmp_path):
        out = tmp_path / "s.csv"
        assert main([
            "synth", "sinc", "--n", "5", "--lo", "0", "--hi", "1", "--noise", "0",
            "--out", str(out),
        ]) == 0
        header, rows = read_rows(out)
        assert header == ["x", "y"]
        x = np.array([float(r[0]) for r in rows])
        y = np.array([float(r[1]) for r in rows])
        assert x.tolist() == np.linspace(0.0, 1.0, 5).tolist()
        assert y[0] == 1.0
        assert y[1:].tolist() == (np.sin(x[1:]) / x[1:]).tolist()

    def test_synth_rejects_a_gamma_range_holding_a_pole(self, tmp_path, capsys):
        code = main([
            "synth", "gamma", "--n", "10", "--lo", "-1", "--hi", "1",
            "--out", str(tmp_path / "g.csv"),
        ])
        assert code == 2
        assert "contains a pole of the gamma function at 0" in capsys.readouterr().err
        assert not (tmp_path / "g.csv").exists()


    @pytest.mark.parametrize(
        "flags, name",
        [(["--noise", "nan"], "noise_sd"), (["--noise", "inf"], "noise_sd"),
         (["--lo", "0", "--hi", "inf"], "x_range")],
    )
    def test_synth_rejects_non_finite_settings(self, tmp_path, capsys, flags, name):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["synth", "sinc", "--n", "5", *flags, "--out", str(tmp_path / "s.csv")])
        assert code == 2
        assert f"{name} must be finite" in capsys.readouterr().err
        assert not (tmp_path / "s.csv").exists()

class TestExitCodes:
    def test_missing_data_file(self, capsys):
        assert main(["fit", "--data", "/no/such/file.csv"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_truncated_model_document(self, tmp_path, toy_csv, capsys):
        bad = tmp_path / "model.json"
        bad.write_text('{"format": "spline-cfr-model/1", "norm": 1.0')
        code = main([
            "predict", "--model", str(bad), "--data", toy_csv,
            "--out", str(tmp_path / "p.csv"),
        ])
        assert code == 2
        assert "invalid model document" in capsys.readouterr().err

    def test_inconsistent_model_layers_are_named(self, tmp_path, toy_csv, capsys):
        fit_dir = tmp_path / "fitted"
        assert main([
            "fit", "--data", toy_csv, "--target", "y", "--out-dir", str(fit_dir),
            "--max-depth", "1",
        ]) == 0
        capsys.readouterr()
        text = (fit_dir / "model.json").read_text()

        def spline_var(doc):
            return doc["layers"][1]["variables"][0]

        edits = [
            ("model.layers[1].variables[0].id", lambda d: spline_var(d).update(id=2)),
            ("model.layers[1].variables[0].id", lambda d: spline_var(d).update(id=-1)),
            ("model.layers[0].coefficients", lambda d: d["layers"][0]["coefficients"].append(0.5)),
            ("model.norm", lambda d: d.update(norm=float("nan"))),
            ("model.norm", lambda d: d.update(norm=-1000.0)),
            ("model.denom_floor", lambda d: d.update(denom_floor=0.0)),
            ("model.feature_names", lambda d: d.update(feature_names=["x0"])),
            ("model.feature_names", lambda d: d.update(feature_names=["x0", "x1", "x2"])),
            ("model.feature_names", lambda d: d.update(feature_names=["x0", "x0"])),
            ("model.target_name", lambda d: d.update(target_name="x1")),
        ]
        for field, corrupt in edits:
            bad = json.loads(text)
            corrupt(bad)
            path = tmp_path / "bad.json"
            path.write_text(json.dumps(bad))
            code = main([
                "predict", "--model", str(path), "--data", toy_csv,
                "--out", str(tmp_path / "p.csv"),
            ])
            assert code == 2, field
            assert field in capsys.readouterr().err
        assert not (tmp_path / "p.csv").exists()

    def test_model_without_feature_names_is_rejected_before_the_data_is_read(
        self, tmp_path, toy_csv, capsys
    ):
        fit_dir = tmp_path / "m"
        assert main(["fit", "--data", toy_csv, "--target", "y", "--out-dir", str(fit_dir),
                     "--max-depth", "0"]) == 0
        capsys.readouterr()
        doc = json.loads((fit_dir / "model.json").read_text())
        doc["feature_names"] = None
        nameless = tmp_path / "nameless.json"
        nameless.write_text(json.dumps(doc))
        code = main(["predict", "--model", str(nameless), "--data",
                     str(tmp_path / "no_such.csv"), "--out", str(tmp_path / "p.csv")])
        assert code == 2
        assert "model document carries no feature names" in capsys.readouterr().err

    def test_failed_write_leaves_no_temporary_file(self, tmp_path, toy_csv, capsys):
        fit_dir = tmp_path / "m"
        assert main(["fit", "--data", toy_csv, "--target", "y", "--out-dir", str(fit_dir)]) == 0
        taken = tmp_path / "taken"
        taken.mkdir()
        code = main([
            "predict", "--model", str(fit_dir / "model.json"), "--data", toy_csv,
            "--out", str(taken),
        ])
        assert code == 1
        assert "error:" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["m", "taken", "toy.csv"]
        assert list(taken.iterdir()) == []

    def test_negative_bench_seed_is_a_usage_error(self, tmp_path, toy_csv, capsys):
        code = main([
            "bench", "--data", toy_csv, "--target", "y", "--seed", "-1",
            "--out-dir", str(tmp_path / "b"),
        ])
        assert code == 2
        assert "seed must be non-negative" in capsys.readouterr().err
        assert not (tmp_path / "b").exists()

    @pytest.mark.parametrize(
        "flag, value, field",
        [("--norm", "nan", "norm"), ("--denom-floor", "inf", "denom_floor"),
         ("--lambda", "inf", "lam"), ("--offset-epsilon", "nan", "offset_epsilon")],
    )
    def test_non_finite_fit_value_is_a_usage_error(
        self, tmp_path, toy_csv, capsys, flag, value, field
    ):
        out_dir = tmp_path / "m"
        code = main(["fit", "--data", toy_csv, "--target", "y", flag, value,
                     "--out-dir", str(out_dir)])
        assert code == 2
        assert f"{field} must be finite" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_no_subcommand_is_a_usage_error(self, capsys):
        assert main([]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize("command", ["fit", "bench"])
    def test_data_is_required(self, tmp_path, capsys, command):
        assert main([command, "--out-dir", str(tmp_path / "o")]) == 2
        assert "--data is required" in capsys.readouterr().err

    def test_missing_model_file(self, tmp_path, toy_csv, capsys):
        code = main([
            "predict", "--model", str(tmp_path / "none.json"), "--data", toy_csv,
            "--out", str(tmp_path / "p.csv"),
        ])
        assert code == 2
        assert f"cannot read {tmp_path / 'none.json'}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text, message",
        [
            ("x, x ,y\n1,2,3\n4,5,6\n", "duplicate column names in header"),
            ("y\n1\n2\n3\n", "no feature columns besides the target"),
            # Each \udcff is written as the byte 0xff, which is not UTF-8.
            ("x,y\n1,2\n3,\udcff\n", "t.csv line 3, column 'y': not UTF-8"),
            ("x,\udcffy\n1,2\n", "t.csv line 1: header is not UTF-8"),
        ],
        ids=["repeated-name", "target-only", "not-utf8-cell", "not-utf8-header"],
    )
    def test_rejected_csv(self, tmp_path, capsys, text, message):
        data = tmp_path / "t.csv"
        data.write_bytes(text.encode("utf-8", "surrogateescape"))
        code = main(["fit", "--data", str(data), "--target", "y", "--out-dir", str(tmp_path)])
        assert code == 2
        assert message in capsys.readouterr().err

    def test_model_document_that_is_not_utf8_names_its_line(self, tmp_path, toy_csv, capsys):
        bad = tmp_path / "model.json"
        bad.write_bytes(b'{"format":\n"spline-cfr-model/1",\n"\xff": 1}\n')
        code = main([
            "predict", "--model", str(bad), "--data", toy_csv,
            "--out", str(tmp_path / "p.csv"),
        ])
        assert code == 2
        assert f"{bad} line 3: not UTF-8" in capsys.readouterr().err
        assert not (tmp_path / "p.csv").exists()

    def test_unknown_config_key(self, tmp_path, toy_csv, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("max_depth = 1\nmystery = 3\n")
        code = main([
            "fit", "--data", toy_csv, "--target", "y",
            "--out-dir", str(tmp_path), "--config", str(cfg),
        ])
        assert code == 2
        assert "unknown config keys: mystery" in capsys.readouterr().err


class TestExperimentConfigValidation:
    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"protocol": "loo"}, "protocol must be"),
            ({"runs": 0}, "runs must be at least 1"),
            ({"base_seed": -1}, "seed must be non-negative"),
            ({"quantile": 1.0}, "quantile must be inside"),
            ({"runs": 2.5}, "runs must be an integer"),
            ({"runs": 2.0}, "runs must be an integer"),
            ({"runs": True}, "runs must be an integer"),
            ({"base_seed": 0.5}, "base_seed must be an integer"),
            ({"base_seed": None}, "base_seed must be an integer"),
        ],
    )
    def test_rejects_bad_values(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            ExperimentConfig(data="t.csv", **kwargs)


class _Captured(Exception):
    """Raised by the stand-in run_benchmark once it has seen the config."""


def built_settings(monkeypatch, argv):
    """What a fit or bench command hands on for these arguments.

    fit: the load_csv arguments, the FitConfig and the output directories
    (nothing is read or written). bench: the ExperimentConfig.
    """
    seen = []
    tiny = gen_sinc(30)

    def capture_run(cfg):
        seen.append(cfg)
        raise _Captured

    monkeypatch.setattr(cli, "load_csv", lambda path, target: seen.append((path, target)) or tiny)
    monkeypatch.setattr(cli, "fit", lambda X, y, cfg: seen.append(cfg) or fit(X, y, cfg))
    monkeypatch.setattr(cli, "atomic_write_text", lambda path, text: seen.append(Path(path).parent))
    monkeypatch.setattr(cli, "run_benchmark", capture_run)
    try:
        assert main(argv) == 0
    except _Captured:
        pass
    return seen


# flag name -> (a value, another value); the first is never the default.
FIT_OPTIONS = {
    "data": ("a.csv", "b.csv"),
    "target": ("t1", "t2"),
    "out-dir": ("dir_a", "dir_b"),
    "lambda": ("0.25", "0.125"),
    "knots": ("3", "2"),
    "norm": ("2.5", "4"),
    "max-depth": ("2", "1"),
    "auto-depth": ("true", "no"),
    "offset-epsilon": ("0.01", "0.02"),
    "denom-floor": ("0.0001", "0.001"),
    "literal-final-offset": ("yes", "0"),
}
BENCH_OPTIONS = {
    **FIT_OPTIONS,
    "protocol": ("ood", "oos"),
    "runs": ("3", "4"),
    "seed": ("5", "6"),
    "quantile": ("0.8", "0.7"),
    "predictions": ("p.csv q.csv", "r.csv"),
}


def flag_argv(key, value):
    if key in ("auto-depth", "literal-final-offset"):
        return [f"--{key}"]  # switches; value is a true spelling in FIT_OPTIONS
    return [f"--{key}", *value.split()]


class TestConfigFile:
    @pytest.mark.parametrize(
        "command, key",
        [("fit", k) for k in FIT_OPTIONS] + [("bench", k) for k in BENCH_OPTIONS],
    )
    def test_every_key_matches_its_flag(self, tmp_path, monkeypatch, command, key):
        value, other = BENCH_OPTIONS[key]
        base = [command] if key == "data" else [command, "--data", "d.csv"]
        cfg = tmp_path / "run.cfg"
        from_flag = built_settings(monkeypatch, [*base, *flag_argv(key, value)])
        if key != "data":  # --data has no default
            assert from_flag != built_settings(monkeypatch, base)

        cfg.write_text(f"{key} = {value}\n")
        assert built_settings(monkeypatch, [*base, "--config", str(cfg)]) == from_flag

        # The underscore spelling is the same key, and an explicit flag wins.
        cfg.write_text(f"{key.replace('-', '_')} = {other}\n")
        flag_wins = built_settings(
            monkeypatch, [*base, "--config", str(cfg), *flag_argv(key, value)]
        )
        assert flag_wins == from_flag

    def test_config_supplies_defaults_and_flags_win(self, tmp_path, toy_csv):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "# fitting defaults\n"
            "max-depth = 3\n"
            "lambda = 0.25\n"
            "knots = 2\n"
        )
        dir_cfg = tmp_path / "from_config"
        assert main([
            "fit", "--data", toy_csv, "--target", "y",
            "--out-dir", str(dir_cfg), "--config", str(cfg),
        ]) == 0
        model = deserialize((dir_cfg / "model.json").read_text())
        assert model.depth == 3

        dir_flag = tmp_path / "flag_wins"
        assert main([
            "fit", "--data", toy_csv, "--target", "y",
            "--out-dir", str(dir_flag), "--config", str(cfg),
            "--max-depth", "1",
        ]) == 0
        model = deserialize((dir_flag / "model.json").read_text())
        assert model.depth == 1

    def test_false_spelling_from_the_file(self, tmp_path, monkeypatch):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("auto-depth = no\n")
        seen = built_settings(monkeypatch, ["fit", "--data", "d.csv", "--config", str(cfg)])
        assert [c.auto_depth for c in seen if isinstance(c, FitConfig)] == [False]

    @pytest.mark.parametrize(
        "text, message",
        [
            ("auto-depth = maybe\n",
             "config key 'auto_depth': expected a boolean, got 'maybe'"),
            ("max-depth = 1\nknots 2\n", "line 2: expected key = value"),
            (" = 3\n", "line 1: empty key"),
            ("max-depth = 1\nmax_depth = 2\n", "line 2: duplicate key 'max_depth'"),
            (None, "cannot read config file"),
            # \udcff is written as the byte 0xff, which is not UTF-8.
            ("max-depth = 1\n# \udcff\n", "run.cfg line 2: not UTF-8"),
        ],
        ids=["bad-boolean", "no-equals", "empty-key", "duplicate-key", "unreadable", "not-utf8"],
    )
    def test_rejected_config_file(self, tmp_path, capsys, text, message):
        cfg = tmp_path / "run.cfg"
        if text is not None:
            cfg.write_bytes(text.encode("utf-8", "surrogateescape"))
        code = main([
            "fit", "--data", "d.csv", "--out-dir", str(tmp_path), "--config", str(cfg),
        ])
        assert code == 2
        assert message in capsys.readouterr().err


class TestBench:
    BENCH_FLAGS = ["--max-depth", "2", "--knots", "2", "--runs", "3", "--seed", "5"]

    def test_oos_outputs(self, tmp_path, toy_csv, capsys):
        out = tmp_path / "bench"
        code = main([
            "bench", "--data", toy_csv, "--target", "y",
            "--out-dir", str(out), *self.BENCH_FLAGS,
        ])
        assert code == 0
        for name in ("run_reports.csv", "aggregate.csv", "rank_matrix.csv", "timings.csv"):
            assert (out / name).exists()
        assert not (out / "kappa.csv").exists()  # oos has no label agreement

        header, rows = read_rows(out / "run_reports.csv")
        assert header == ["method", "run_id", "seed", "rmse", "mean_relative_error"]
        assert len(rows) == 6  # 2 methods x 3 runs
        assert {r[0] for r in rows} == {"spline_cfr", "ols"}
        assert [r[2] for r in rows if r[0] == "spline_cfr"] == ["5", "6", "7"]
        _, rows = read_rows(out / "rank_matrix.csv")
        for row in rows:
            for cell in row[1:]:
                float(cell)  # plain numbers, not np.float64(...) reprs

        stdout = capsys.readouterr().out
        assert "spline_cfr: median rmse" in stdout
        assert "ols: median rmse" in stdout

    def test_reports_are_byte_reproducible(self, tmp_path, toy_csv):
        dirs = (tmp_path / "one", tmp_path / "two")
        for d in dirs:
            assert main([
                "bench", "--data", toy_csv, "--target", "y",
                "--out-dir", str(d), *self.BENCH_FLAGS,
            ]) == 0
        for name in ("run_reports.csv", "aggregate.csv", "rank_matrix.csv"):
            assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()
        # timings.csv records wall clock and is exempt from reproducibility.

    def test_ood_outputs(self, tmp_path, toy_csv):
        out = tmp_path / "bench_ood"
        code = main([
            "bench", "--data", toy_csv, "--target", "y", "--protocol", "ood",
            "--quantile", "0.8", "--out-dir", str(out), *self.BENCH_FLAGS,
        ])
        assert code == 0
        header, rows = read_rows(out / "run_reports.csv")
        assert header[-4:] == ["p_count", "n_count", "beyond_training_max", "threshold"]
        # The high-target pool is floor(0.2 * 40) = 8 rows; each run tests
        # on a seed-chosen half of it.
        for r in rows:
            assert int(r[5]) + int(r[6]) == 4

        kappa_header, kappa_rows = read_rows(out / "kappa.csv")
        assert kappa_header == ["rater_1", "rater_2", "kappa", "agreement"]
        assert len(kappa_rows) == 1  # one built-in pair

    def test_external_predictions_join_the_comparison(self, tmp_path, toy_csv):
        # Build a perfectly aligned external file from the same split logic.
        ds = load_csv(toy_csv, "y")
        rows = []
        for run_id, seed in enumerate((5, 6)):
            split = split_out_of_sample(ds, seed)
            for row_id, y in enumerate(split.test.target):
                rows.append((run_id, row_id, float(y), float(y)))
        ext = tmp_path / "perfect.csv"
        ext.write_text(csv_text(["run_id", "row_id", "y_true", "y_pred"], rows))

        out = tmp_path / "bench_ext"
        code = main([
            "bench", "--data", toy_csv, "--target", "y", "--out-dir", str(out),
            "--runs", "2", "--seed", "5", "--max-depth", "1", "--knots", "2",
            "--predictions", str(ext),
        ])
        assert code == 0
        _, report_rows = read_rows(out / "run_reports.csv")
        perfect = [r for r in report_rows if r[0] == "perfect"]
        assert len(perfect) == 2
        assert all(float(r[3]) == 0.0 for r in perfect)

    def test_methods_in_fixed_order_with_files_in_command_line_order(self, tmp_path, toy_csv):
        ds = load_csv(toy_csv, "y")
        paths = []
        for name, shift in (("zeta", 0.5), ("alpha", -0.25)):
            rows = [
                (run_id, row_id, float(y), float(y) + shift * (row_id + 1))
                for run_id, seed in enumerate((5, 6, 7))
                for row_id, y in enumerate(split_out_of_sample(ds, seed).test.target)
            ]
            path = tmp_path / f"{name}.csv"
            path.write_text(csv_text(["run_id", "row_id", "y_true", "y_pred"], rows))
            paths.append(str(path))

        out = tmp_path / "bench_order"
        code = main([
            "bench", "--data", toy_csv, "--target", "y", "--out-dir", str(out),
            *self.BENCH_FLAGS, "--predictions", *paths,
        ])
        assert code == 0
        order = ["spline_cfr", "ols", "zeta", "alpha"]
        _, aggregate_rows = read_rows(out / "aggregate.csv")
        assert [r[0] for r in aggregate_rows] == order
        rank_header, rank_rows = read_rows(out / "rank_matrix.csv")
        assert rank_header == ["run_id", *order]
        assert [r[0] for r in rank_rows] == ["0", "1", "2"]
        for row in rank_rows:
            assert sum(float(cell) for cell in row[1:]) == 4 * 5 / 2

    def test_ood_external_predictions_get_the_ood_columns(self, tmp_path, toy_csv):
        ds = load_csv(toy_csv, "y")
        rng = np.random.default_rng(11)
        splits, preds, rows = [], [], []
        for run_id, seed in enumerate((5, 6)):
            split = split_out_of_domain(ds, quantile=0.8, seed=seed)
            y_pred = split.test.target + rng.normal(0.0, 3.0, split.test.n)
            splits.append(split)
            preds.append(y_pred)
            rows += [
                (run_id, row_id, float(t), float(p))
                for row_id, (t, p) in enumerate(zip(split.test.target, y_pred))
            ]
        ext = tmp_path / "noisy.csv"
        ext.write_text(csv_text(["run_id", "row_id", "y_true", "y_pred"], rows))

        out = tmp_path / "bench_ood_ext"
        code = main([
            "bench", "--data", toy_csv, "--target", "y", "--protocol", "ood",
            "--quantile", "0.8", "--out-dir", str(out), "--runs", "2", "--seed", "5",
            "--max-depth", "1", "--knots", "2", "--predictions", str(ext),
        ])
        assert code == 0
        header, report_rows = read_rows(out / "run_reports.csv")
        col = {name: i for i, name in enumerate(header)}
        noisy = [r for r in report_rows if r[0] == "noisy"]
        assert [int(r[col["run_id"]]) for r in noisy] == [0, 1]
        beyond = []
        for r, split, y_pred in zip(noisy, splits, preds):
            p, n = int(r[col["p_count"]]), int(r[col["n_count"]])
            assert p + n == split.test.n
            assert p == np.count_nonzero(y_pred >= split.threshold)
            assert float(r[col["threshold"]]) == split.threshold
            beyond.append(int(r[col["beyond_training_max"]]))
            assert beyond[-1] == np.count_nonzero(y_pred > split.train.target.max())
        # The noise puts some predictions on each side of the training maximum.
        assert 0 < sum(beyond) < sum(split.test.n for split in splits)

        _, kappa_rows = read_rows(out / "kappa.csv")
        assert [r[:2] for r in kappa_rows] == [
            ["spline_cfr", "ols"], ["spline_cfr", "noisy"], ["ols", "noisy"],
        ]

    @pytest.mark.parametrize("auto_depth", [False, True], ids=["fixed", "auto"])
    def test_worse_depths_give_one_summary_warning(self, tmp_path, auto_depth):
        data = tmp_path / "sinc.csv"
        assert main(["synth", "sinc", "--n", "200", "--out", str(data)]) == 0
        args = [
            "bench", "--data", str(data), "--target", "y", "--out-dir", str(tmp_path / "b"),
            "--runs", "5", "--max-depth", "3", "--knots", "3", "--norm", "1",
        ] + (["--auto-depth"] if auto_depth else [])
        with warnings.catch_warnings(record=True) as record:
            warnings.simplefilter("always")
            assert main(args) == 0
        if auto_depth:
            assert record == []
            return
        # One per run and worse depth would be 11 warnings here.
        assert [w.category for w in record] == [TrainingRmseWarning]
        assert str(record[0].message).startswith(
            "in 5 of 5 runs a depth raises the training RMSE (runs by first such depth: depth 1: 5)"
        )

    def test_misaligned_external_predictions_fail(self, tmp_path, toy_csv, capsys):
        ds = load_csv(toy_csv, "y")
        split = split_out_of_sample(ds, 5)
        rows = [
            (0, row_id, float(y) + 1.0, float(y))  # wrong y_true on purpose
            for row_id, y in enumerate(split.test.target)
        ]
        ext = tmp_path / "skewed.csv"
        ext.write_text(csv_text(["run_id", "row_id", "y_true", "y_pred"], rows))
        code = main([
            "bench", "--data", toy_csv, "--target", "y",
            "--out-dir", str(tmp_path / "x"), "--runs", "1", "--seed", "5",
            "--max-depth", "0", "--predictions", str(ext),
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert "same protocol and seed" in err

    @pytest.mark.parametrize(
        "header, run_id, message",
        [
            (["run", "row_id", "y_true", "y_pred"], 0,
             "expected header run_id,row_id,y_true,y_pred"),
            (["run_id", "row_id", "y_true", "y_pred"], 1,
             "prediction file for 'ext' has no rows for this run"),
        ],
        ids=["wrong-header", "missing-run"],
    )
    def test_rejected_external_predictions(
        self, tmp_path, toy_csv, capsys, header, run_id, message
    ):
        ext = tmp_path / "ext.csv"
        ext.write_text(csv_text(header, [(run_id, 0, 1.0, 1.0)]))
        code = main([
            "bench", "--data", toy_csv, "--target", "y", "--out-dir", str(tmp_path / "x"),
            "--runs", "1", "--max-depth", "0", "--predictions", str(ext),
        ])
        assert code == 2
        assert message in capsys.readouterr().err


class TestHelp:
    @pytest.mark.parametrize(
        "command, expected",
        [
            ("fit", {"--target": DEFAULT_TARGET, "--out-dir": "."}),
            ("bench", {
                "--target": DEFAULT_TARGET,
                "--runs": ExperimentConfig.runs,
                "--quantile": ExperimentConfig.quantile,
            }),
        ],
    )
    def test_defaults_come_from_the_config_dataclasses(
        self, command, expected, capsys, monkeypatch
    ):
        expected = dict(expected, **{
            "--lambda": FitConfig.lam,
            "--knots": FitConfig.knots_per_depth,
            "--norm": FitConfig.norm,
            "--max-depth": FitConfig.max_depth,
            "--offset-epsilon": FitConfig.offset_epsilon,
            "--denom-floor": FitConfig.denom_floor,
        })
        monkeypatch.setenv("COLUMNS", "1000")  # no help text wraps inside a word
        assert main([command, "--help"]) == 0
        found = {}
        # One block per option: its flag line plus any continuation lines.
        for block in re.split(r"\n  (?=-)", capsys.readouterr().out)[1:]:
            match = re.search(r"\(default ([^)]*)\)", " ".join(block.split()))
            if match:
                found[block.split()[0]] = match.group(1)
        assert found.keys() == expected.keys()
        for flag, value in expected.items():
            if isinstance(value, str):
                assert found[flag] == value, flag
            else:
                assert float(found[flag]) == value, flag

    @staticmethod
    def readme_defaults():
        """The README "Defaults" table: flag -> its default cell, backticks kept."""
        text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        table = text.split("\n## Defaults\n", 1)[1].split("\n\n", 1)[0].strip()
        rows = [[cell.strip() for cell in line.strip("|").split("|")]
                for line in table.splitlines()[2:]]
        return {row[1].strip("`"): row[2] for row in rows}

    def test_readme_defaults_table_matches_the_config_dataclasses(self):
        bench_defaults = {f.name: f.default for f in fields(ExperimentConfig)}
        # cmd_fit's own defaults for the settings that are not FitConfig fields.
        own_defaults = {"fit": {"target": DEFAULT_TARGET, "out_dir": "."},
                        "bench": bench_defaults}
        no_default = {"data", "predictions"}
        expected: dict[str, dict[str, object]] = {}
        for command in ("fit", "bench"):
            for action in build_parser().parse_args([command]).config_keys.values():
                if action.dest in no_default:
                    continue
                if action.dest in {f.name for f in fields(FitConfig)}:
                    value = getattr(FitConfig(), action.dest)
                else:
                    value = own_defaults[command][action.dest]
                expected.setdefault(action.option_strings[0], {})[command] = value
        table = self.readme_defaults()
        assert table.keys() == expected.keys()
        for flag, by_command in expected.items():
            cell = table[flag]
            # "`.` (fit), `bench_out` (bench)" gives one default per command.
            per_command = dict((c, v) for v, c in re.findall(r"`([^`]*)` \((\w+)\)", cell))
            for command, value in by_command.items():
                text = per_command.get(command, cell)
                if isinstance(value, bool):
                    assert text == ("on" if value else "off"), flag
                elif isinstance(value, (int, float)):
                    assert float(text) == value, flag
                else:
                    assert text.strip("`") == value, flag


class TestReport:
    def write_predictions(self, path, y_pred, y_true=None, run_id=0):
        y_true = y_true if y_true is not None else [10.0, 20.0, 30.0, 40.0]
        rows = [
            (run_id, i, float(t), float(p))
            for i, (t, p) in enumerate(zip(y_true, y_pred))
        ]
        path.write_text(csv_text(["run_id", "row_id", "y_true", "y_pred"], rows))
        return str(path)

    def test_identical_raters_agree_perfectly(self, tmp_path):
        a = self.write_predictions(tmp_path / "alpha.csv", [5.0, 95.0, 50.0, 91.0])
        b = self.write_predictions(tmp_path / "beta.csv", [5.0, 95.0, 50.0, 91.0])
        out = tmp_path / "rep"
        code = main([
            "report", "--predictions", a, b, "--top-k", "2",
            "--out-dir", str(out),
        ])
        assert code == 0
        _, kappa_rows = read_rows(out / "kappa.csv")
        assert kappa_rows == [["alpha", "beta", "1.0", "almost-perfect"]]

        _, pn_rows = read_rows(out / "pn_counts.csv")
        assert pn_rows == [["alpha", "2", "2"], ["beta", "2", "2"]]

        header, topk = read_rows(out / "top_k.csv")
        assert header == ["method", "rank", "row_id", "y_true", "y_pred"]
        assert len(topk) == 4  # two methods, k = 2 each
        assert topk[0][:3] == ["alpha", "1", "1"]  # largest prediction first

    @pytest.mark.parametrize("threshold", ["nan", "inf", "-inf"])
    def test_non_finite_threshold_is_a_usage_error(self, tmp_path, capsys, threshold):
        a = self.write_predictions(tmp_path / "a.csv", [1.0, 2.0, 3.0, 4.0])
        out = tmp_path / "rep"
        code = main(["report", "--predictions", a, f"--threshold={threshold}",
                     "--out-dir", str(out)])
        assert code == 2
        assert "--threshold must be finite" in capsys.readouterr().err
        assert not out.exists()

    def test_single_method_has_no_pairs(self, tmp_path):
        a = self.write_predictions(tmp_path / "only.csv", [1.0, 2.0, 3.0, 4.0])
        out = tmp_path / "rep"
        assert main(["report", "--predictions", a, "--out-dir", str(out), "--top-k", "1"]) == 0
        assert (out / "kappa.csv").read_text() == "rater_1,rater_2,kappa,agreement\n"

    def test_run_filter(self, tmp_path):
        path = tmp_path / "two_runs.csv"
        rows = [(0, 0, 10.0, 1.0), (0, 1, 20.0, 2.0), (1, 0, 10.0, 7.0), (1, 1, 20.0, 9.0)]
        path.write_text(csv_text(["run_id", "row_id", "y_true", "y_pred"], rows))
        out = tmp_path / "rep"
        assert main([
            "report", "--predictions", str(path), "--run", "1",
            "--top-k", "1", "--out-dir", str(out),
        ]) == 0
        _, topk = read_rows(out / "top_k.csv")
        assert [r[4] for r in topk] == ["9.0"]

    def test_run_filter_needs_the_run_in_every_file(self, tmp_path, capsys):
        a = self.write_predictions(tmp_path / "a.csv", [1.0, 2.0, 3.0, 4.0])
        code = main(["report", "--predictions", a, "--run", "7",
                     "--out-dir", str(tmp_path / "r")])
        assert code == 2
        assert "method 'a' has no rows for run 7" in capsys.readouterr().err

    def test_top_k_above_the_pooled_rows(self, tmp_path, capsys):
        a = self.write_predictions(tmp_path / "a.csv", [1.0, 2.0, 3.0, 4.0])
        code = main(["report", "--predictions", a, "--top-k", "5",
                     "--out-dir", str(tmp_path / "r")])
        assert code == 2
        assert "k must be in [1, 4], got 5" in capsys.readouterr().err

    def test_row_order_in_the_file_does_not_matter(self, tmp_path):
        rows = [(r, i, 10.0 * (i + 1), 30.0 * r + i) for r in (0, 1) for i in range(4)]
        shuffled = [rows[k] for k in (5, 2, 7, 0, 3, 6, 1, 4)]
        outputs = []
        for name, content in (("sorted", rows), ("shuffled", shuffled)):
            path = tmp_path / name / "m.csv"
            path.parent.mkdir()
            path.write_text(csv_text(["run_id", "row_id", "y_true", "y_pred"], content))
            out = tmp_path / name / "rep"
            assert main(["report", "--predictions", str(path), "--top-k", "8",
                         "--out-dir", str(out)]) == 0
            outputs.append((out / "top_k.csv").read_text())
        assert outputs[0] == outputs[1]
        # Runs pool in run order, rows within a run in row_id order.
        ranked = [line.split(",")[2:] for line in outputs[0].splitlines()[1:]]
        assert [r[0] for r in ranked] == ["7", "6", "5", "4", "3", "2", "1", "0"]
        assert [r[2] for r in ranked] == [
            "33.0", "32.0", "31.0", "30.0", "3.0", "2.0", "1.0", "0.0"
        ]
        assert [r[1] for r in ranked] == ["40.0", "30.0", "20.0", "10.0"] * 2

    def test_inconsistent_y_true_across_files(self, tmp_path, capsys):
        a = self.write_predictions(tmp_path / "a.csv", [1.0, 2.0, 3.0, 4.0])
        b = self.write_predictions(
            tmp_path / "b.csv", [1.0, 2.0, 3.0, 4.0], y_true=[10.0, 20.0, 30.0, 41.0]
        )
        code = main(["report", "--predictions", a, b, "--out-dir", str(tmp_path / "r")])
        assert code == 2
        assert "inconsistent y_true" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "rows, message",
        [
            ([(0, 0, 10.0, 1.0), (0, 1, 20.0, "nan")], "line 3, column 'y_pred': non-finite"),
            ([(0.5, 0, 10.0, 1.0)], "line 2, column 'run_id': expected an integer"),
            ([(0, 1.25, 10.0, 1.0)], "line 2, column 'row_id': expected an integer"),
        ],
    )
    def test_bad_prediction_cells_are_usage_errors(self, tmp_path, capsys, rows, message):
        path = tmp_path / "bad.csv"
        path.write_text(csv_text(["run_id", "row_id", "y_true", "y_pred"], rows))
        code = main(["report", "--predictions", str(path), "--out-dir", str(tmp_path / "r")])
        assert code == 2
        assert message in capsys.readouterr().err

    def test_failed_report_writes_nothing(self, tmp_path, capsys):
        a = self.write_predictions(tmp_path / "a.csv", [1.0, 2.0, 3.0, 4.0])
        b = self.write_predictions(
            tmp_path / "b.csv", [1.0, 2.0, 3.0], y_true=[10.0, 20.0, 30.0], run_id=1
        )
        out = tmp_path / "r"
        code = main(["report", "--predictions", a, b, "--top-k", "1", "--out-dir", str(out)])
        assert code == 2
        assert "cover different rows" in capsys.readouterr().err
        assert not out.exists() or not any(out.iterdir())

    def test_duplicate_method_names(self, tmp_path, capsys):
        sub = tmp_path / "sub"
        sub.mkdir()
        a = self.write_predictions(tmp_path / "same.csv", [1.0, 2.0, 3.0, 4.0])
        b = self.write_predictions(sub / "same.csv", [1.0, 2.0, 3.0, 4.0])
        code = main(["report", "--predictions", a, b, "--out-dir", str(tmp_path / "r")])
        assert code == 2
        assert "duplicate method name" in capsys.readouterr().err
