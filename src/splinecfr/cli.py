"""Command-line front end.

Subcommands: fit, predict, bench, synth, report. Exit codes: 0 on success,
2 for usage or input problems (bad flags, unreadable files, malformed
documents), 1 for runtime failures. A flat key=value config file can supply
any flag's value; explicit flags win over the file.
"""

from __future__ import annotations

import argparse
import math
import sys
import time
from dataclasses import fields, replace
from pathlib import Path

import numpy as np

from .bench import (
    KAPPA_HEADER,
    ExperimentConfig,
    load_prediction_files,
    pairwise_kappa,
    run_benchmark,
    same_y_true,
    write_bench_outputs,
    write_tables,
)
from .cfr_core import FitConfig, deserialize, fit, serialize
from .data_io import DEFAULT_TARGET, gen_gamma, gen_sinc, load_csv, read_numeric_table
from .errors import DataError, SplineCfrError
from .evaluation import threshold_counts, top_k_table
from .fileio import atomic_write_text, csv_text

_BOOL_TRUE = {"1", "true", "yes", "on"}
_BOOL_FALSE = {"0", "false", "no", "off"}
_FIT_FIELDS = {f.name for f in fields(FitConfig)}


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in _BOOL_TRUE:
        return True
    if lowered in _BOOL_FALSE:
        return False
    raise ValueError(f"expected a boolean, got {text!r}")


def _read_text(path: str, unreadable: str) -> str:
    """The file's UTF-8 text; DataError names the line of a byte that is not UTF-8."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        line = exc.object.count(b"\n", 0, exc.start) + 1
        raise DataError(f"{path} line {line}: not UTF-8") from None
    except OSError as exc:
        raise DataError(f"{unreadable}: {exc.strerror or exc}") from exc


def _load_config_file(path: str) -> dict[str, str]:
    lines = _read_text(path, f"cannot read config file {path}").splitlines()
    out: dict[str, str] = {}
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise DataError(f"{path} line {lineno}: expected key = value")
        key, value = line.split("=", 1)
        key = key.strip().replace("-", "_")
        if not key:
            raise DataError(f"{path} line {lineno}: empty key")
        if key in out:
            raise DataError(f"{path} line {lineno}: duplicate key {key!r}")
        out[key] = value.strip()
    return out


def _config_keys(actions: list[argparse.Action]) -> dict[str, argparse.Action]:
    """Config-file key (the flag name, dashes as underscores) -> its action."""
    return {a.option_strings[0].lstrip("-").replace("-", "_"): a for a in actions}


def _parse_config_value(action: argparse.Action, text: str):
    """Parse a config value the way argparse parses the flag's arguments."""
    if action.nargs == 0:  # store_true
        return _parse_bool(text)
    if action.nargs == "*":
        return text.split()
    return action.type(text) if action.type else text


def _given_settings(args: argparse.Namespace) -> dict[str, object]:
    """The values set by a flag or, failing that, by the --config file, by dest.

    Settings given by neither are left out, so their defaults come from the
    config dataclasses.
    """
    config = _load_config_file(args.config) if args.config else {}
    given = {}
    for key, action in args.config_keys.items():
        value = getattr(args, action.dest)
        if value is None and key in config:
            try:
                value = _parse_config_value(action, config[key])
            except ValueError as exc:
                raise DataError(f"config key {key!r}: {exc}") from exc
        if value is not None:
            given[action.dest] = tuple(value) if action.nargs == "*" else value
    unknown = set(config) - set(args.config_keys)
    if unknown:
        raise DataError(f"unknown config keys: {', '.join(sorted(unknown))}")
    return given


def _build(cls, kwargs: dict):
    """``cls(**kwargs)``, with a rejected value reported as a usage error."""
    try:
        return cls(**kwargs)
    except ValueError as exc:
        raise DataError(str(exc)) from exc


def _add_fit_flags(parser: argparse.ArgumentParser) -> list[argparse.Action]:
    add, default = parser.add_argument, FitConfig
    return [
        add("--lambda", dest="lam", type=float,
            help=f"roughness penalty weight (default {default.lam:g})"),
        add("--knots", dest="knots_per_depth", metavar="KNOTS", type=int,
            help=f"new knot sites per depth per variable (default {default.knots_per_depth:g})"),
        add("--norm", type=float, help=f"target scale divisor (default {default.norm:g})"),
        add("--max-depth", type=int,
            help=f"number of spline layers (default {default.max_depth:g})"),
        add("--auto-depth", action="store_true", default=None,
            help="truncate at the depth where training error first worsens"),
        add("--offset-epsilon", type=float,
            help=f"slack added to residual offsets (default {default.offset_epsilon:g})"),
        add("--denom-floor", type=float,
            help="minimum denominator magnitude during evaluation "
            f"(default {default.denom_floor:g})"),
        add("--literal-final-offset", action="store_true", default=None,
            help="subtract the deepest layer's offset too"),
    ]


def cmd_fit(args: argparse.Namespace) -> int:
    settings = _given_settings(args)
    data = settings.pop("data", None)
    target = settings.pop("target", DEFAULT_TARGET)
    out_dir = Path(settings.pop("out_dir", "."))
    config = _build(FitConfig, settings)
    if not data:
        raise DataError("--data is required")

    ds = load_csv(data, target)
    start = time.perf_counter()
    model = fit(ds.features, ds.target, config)
    seconds = time.perf_counter() - start
    model = replace(model, feature_names=ds.feature_names, target_name=ds.target_name)
    atomic_write_text(out_dir / "model.json", serialize(model))

    rows: list[tuple] = []
    for d, (layer, train_rmse) in enumerate(zip(model.layers, model.training_rmse)):
        knots = sum(len(kv.interior) for kv in getattr(layer, "bases", ()))
        rows.append((d, train_rmse, knots, layer.offset))
    rows += [
        ("fitted_depth", model.depth),
        ("auto_depth", config.auto_depth),
        ("wall_seconds", seconds),
    ]
    header = ["depth", "train_rmse", "interior_knots", "offset"]
    atomic_write_text(out_dir / "fit_log.txt", csv_text(header, rows))
    print(f"wrote {out_dir / 'model.json'} (depth {model.depth}, {seconds:.3f}s)")
    return 0


def cmd_predict(args: argparse.Namespace) -> int:
    model = deserialize(_read_text(args.model, f"cannot read {args.model}"))
    if model.feature_names is None:
        raise DataError(f"{args.model}: model document carries no feature names")
    names, data = read_numeric_table(args.data)
    missing = [nm for nm in model.feature_names if nm not in names]
    if missing:
        raise DataError(
            f"{args.data}: missing feature columns: {', '.join(missing)}"
        )
    known = {*model.feature_names, model.target_name}
    extra = [nm for nm in names if nm not in known]
    if extra:
        print(
            f"warning: ignoring unknown columns: {', '.join(extra)}",
            file=sys.stderr,
        )
    X = data.take([names.index(nm) for nm in model.feature_names], axis=1)
    y_true = None
    if model.target_name in names:
        y_true = data[:, names.index(model.target_name)].copy()
    del data  # predict holds one table: X
    # Counted before predict, so that no mask is held while it runs.
    outside = int(model.outside_box(X).sum())
    if outside:
        print(
            f"note: {outside} of {X.shape[0]} rows lie outside the training box",
            file=sys.stderr,
        )
    pred = model.predict(X)
    header, cols = ["row_id", "y_pred"], [range(pred.shape[0]), pred.tolist()]
    if y_true is not None:
        header.append("y_true")
        cols.append(y_true.tolist())
    atomic_write_text(args.out, csv_text(header, zip(*cols)))
    print(f"wrote {args.out} ({pred.shape[0]} rows)")
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    settings = _given_settings(args)
    fit_config = _build(FitConfig, {k: settings.pop(k) for k in _FIT_FIELDS & set(settings)})
    if not settings.get("data"):
        raise DataError("--data is required")
    cfg = _build(ExperimentConfig, dict(settings, fit=fit_config))
    tables = run_benchmark(cfg)
    written = write_bench_outputs(tables, cfg.out_dir)
    for method, median, std, runs in tables["aggregate.csv"][1]:
        print(f"{method}: median rmse {median:.4f} (std {std:.4f}, {runs} runs)")
    for path in written:
        print(f"wrote {path}")
    return 0


def cmd_synth(args: argparse.Namespace) -> int:
    gen = gen_gamma if args.kind == "gamma" else gen_sinc
    kwargs = {}
    if args.lo is not None or args.hi is not None:
        if args.lo is None or args.hi is None:
            raise DataError("--lo and --hi must be given together")
        kwargs["x_range"] = (args.lo, args.hi)
    if args.noise is not None:
        kwargs["noise_sd"] = args.noise
    try:
        ds = gen(args.n, seed=args.seed, **kwargs)
    except ValueError as exc:
        raise DataError(str(exc)) from exc
    rows = zip(ds.features[:, 0].tolist(), ds.target.tolist())
    atomic_write_text(args.out, csv_text(["x", "y"], rows))
    print(f"wrote {args.out} ({ds.n} rows)")
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    if not math.isfinite(args.threshold):
        raise DataError(f"--threshold must be finite, got {args.threshold}")
    per_method = load_prediction_files(args.predictions)

    # Pool runs (or take the one selected); check y_true consistency per run.
    pooled: dict[str, tuple[np.ndarray, np.ndarray]] = {}
    run_filter = args.run
    reference: dict[int, np.ndarray] = {}
    for name, sets in per_method.items():
        run_ids = sorted(sets)
        if run_filter is not None:
            if run_filter not in sets:
                raise DataError(f"method {name!r} has no rows for run {run_filter}")
            run_ids = [run_filter]
        for rid in run_ids:
            seen = reference.setdefault(rid, sets[rid][0])
            if not same_y_true(seen, sets[rid][0]):
                raise DataError(
                    f"inconsistent y_true across prediction files for run {rid}"
                )
        pooled[name] = tuple(np.concatenate(col) for col in zip(*(sets[r] for r in run_ids)))

    topk_rows = []
    summary_rows = []
    for name, (y_true, y_pred) in pooled.items():
        try:
            rows, summary = top_k_table(y_true, y_pred, args.top_k)
        except ValueError as exc:
            raise DataError(str(exc)) from exc
        topk_rows += [(name, *row) for row in rows]
        summary_rows.append((name, *summary))
    pn_rows = [(name, *threshold_counts(y_pred, args.threshold))
               for name, (_, y_pred) in pooled.items()]
    kappa_rows = pairwise_kappa(
        {name: y_pred >= args.threshold for name, (_, y_pred) in pooled.items()}
    )
    written = write_tables(args.out_dir, {
        "top_k.csv": (["method", "rank", "row_id", "y_true", "y_pred"], topk_rows),
        "top_k_summary.csv": (
            ["method", "mean_true", "mean_pred", "mean_relative_error", "rmse"],
            summary_rows,
        ),
        "pn_counts.csv": (["method", "p_count", "n_count"], pn_rows),
        "kappa.csv": (KAPPA_HEADER, kappa_rows),
    })
    for path in written:
        print(f"wrote {path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="splinecfr",
        description="Continued-fraction regression with additive spline layers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fit", help="fit a model on a CSV and save it")
    settings = [
        p.add_argument("--data", help="training CSV"),
        p.add_argument("--target", help=f"target column name (default {DEFAULT_TARGET})"),
        p.add_argument("--out-dir", help="where model.json and fit_log.txt go (default .)"),
        *_add_fit_flags(p),
    ]
    p.add_argument("--config", help="key = value file supplying defaults")
    p.set_defaults(func=cmd_fit, config_keys=_config_keys(settings))

    p = sub.add_parser("predict", help="apply a saved model to a CSV")
    p.add_argument("--model", required=True, help="model.json path")
    p.add_argument("--data", required=True, help="CSV with the model's feature columns")
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("bench", help="multi-run benchmark against an OLS baseline")
    settings = [
        p.add_argument("--data", help="dataset CSV"),
        p.add_argument("--target", help=f"target column name (default {DEFAULT_TARGET})"),
        p.add_argument("--protocol", choices=("oos", "ood"),
                       help="out-of-sample (shuffled 2/3-1/3) or out-of-domain "
                       "(low train, high test)"),
        p.add_argument("--runs", type=int,
                       help=f"number of runs (default {ExperimentConfig.runs:g})"),
        p.add_argument("--seed", dest="base_seed", metavar="SEED", type=int,
                       help="base seed; run r uses seed+r"),
        p.add_argument("--quantile", type=float,
                       help=f"ood train-pool share (default {ExperimentConfig.quantile:g})"),
        p.add_argument("--out-dir", help="report directory"),
        p.add_argument("--predictions", nargs="*",
                       help="external prediction CSVs (run_id,row_id,y_true,y_pred)"),
        *_add_fit_flags(p),
    ]
    p.add_argument("--config", help="key = value file supplying defaults")
    p.set_defaults(func=cmd_bench, config_keys=_config_keys(settings))

    p = sub.add_parser("synth", help="generate a synthetic dataset CSV")
    p.add_argument("kind", choices=("gamma", "sinc"))
    p.add_argument("--n", type=int, required=True, help="number of grid points")
    p.add_argument("--lo", type=float, default=None, help="grid start")
    p.add_argument("--hi", type=float, default=None, help="grid end")
    p.add_argument("--noise", type=float, default=None, help="noise standard deviation")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("report", help="comparison tables from prediction files")
    p.add_argument("--predictions", nargs="+", required=True,
                   help="prediction CSVs (run_id,row_id,y_true,y_pred)")
    p.add_argument("--threshold", type=float, default=89.0,
                   help="positive-label threshold for P/N and kappa (default 89)")
    p.add_argument("--top-k", dest="top_k", type=int, default=20,
                   help="rows in the top-k table (default 20)")
    p.add_argument("--run", type=int, default=None,
                   help="restrict to one run id (default: pool all runs)")
    p.add_argument("--out-dir", dest="out_dir", default="report_out")
    p.set_defaults(func=cmd_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except DataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (SplineCfrError, RuntimeError, ValueError, ArithmeticError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
