"""Command-line front end.

Subcommands: fit, predict, bench, synth, report. Exit codes: 0 on success,
2 for usage or input problems (bad flags, unreadable files, malformed
documents), 1 for runtime failures. A flat key=value config file can supply
any flag's value; explicit flags win over the file.
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from .bench import (
    ExperimentConfig,
    load_prediction_files,
    pairwise_kappa,
    run_benchmark,
    write_bench_outputs,
)
from .cfr_core import (
    FitConfig,
    deserialize,
    fit,
    serialize,
    training_rmse_by_depth,
)
from .data_io import gen_gamma, gen_sinc, load_csv, read_numeric_table
from .errors import DataError, SplineCfrError
from .evaluation import PredictionSet, threshold_counts, top_k_table
from .fileio import atomic_write_text, csv_text, format_cell

_UNSET = object()

# name -> (config-file key, parser)
_BOOL_TRUE = {"1", "true", "yes", "on"}
_BOOL_FALSE = {"0", "false", "no", "off"}


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in _BOOL_TRUE:
        return True
    if lowered in _BOOL_FALSE:
        return False
    raise DataError(f"expected a boolean, got {text!r}")


def _load_config_file(path: str) -> dict[str, str]:
    try:
        lines = Path(path).read_text(encoding="utf-8").splitlines()
    except OSError as exc:
        raise DataError(f"cannot read config file {path}: {exc.strerror or exc}") from exc
    out: dict[str, str] = {}
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise DataError(f"{path} line {lineno}: expected key = value")
        key, value = line.split("=", 1)
        key = key.strip().replace("-", "_")
        if key == "lambda":  # the flag is --lambda; internally the field is lam
            key = "lam"
        if not key:
            raise DataError(f"{path} line {lineno}: empty key")
        if key in out:
            raise DataError(f"{path} line {lineno}: duplicate key {key!r}")
        out[key] = value.strip()
    return out


class _Settings:
    """Flag values with config-file fallback and hard defaults."""

    def __init__(self, args: argparse.Namespace):
        self.args = args
        self.config = _load_config_file(args.config) if getattr(args, "config", None) else {}
        self.known_keys: set[str] = set()

    def get(self, name: str, default, parse):
        self.known_keys.add(name)
        flag_value = getattr(self.args, name, _UNSET)
        if flag_value is not _UNSET and flag_value is not None:
            return flag_value
        if name in self.config:
            raw = self.config[name]
            try:
                return parse(raw)
            except (ValueError, TypeError) as exc:
                raise DataError(f"config key {name!r}: {exc}") from exc
        return default

    def reject_unknown_keys(self) -> None:
        unknown = set(self.config) - self.known_keys
        if unknown:
            raise DataError(f"unknown config keys: {', '.join(sorted(unknown))}")


def _add_fit_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--lambda", dest="lam", type=float, default=None,
                        help="roughness penalty weight (default 0.5)")
    parser.add_argument("--knots", type=int, default=None,
                        help="new knot sites per depth per variable (default 5)")
    parser.add_argument("--norm", type=float, default=None,
                        help="target scale divisor (default 1000)")
    parser.add_argument("--max-depth", dest="max_depth", type=int, default=None,
                        help="number of spline layers (default 5)")
    parser.add_argument("--auto-depth", dest="auto_depth", action="store_true", default=None,
                        help="truncate at the depth where training error first worsens")
    parser.add_argument("--offset-epsilon", dest="offset_epsilon", type=float, default=None,
                        help="slack added to residual offsets (default 1e-3)")
    parser.add_argument("--denom-floor", dest="denom_floor", type=float, default=None,
                        help="minimum denominator magnitude during evaluation (default 1e-6)")
    parser.add_argument("--literal-final-offset", dest="literal_final_offset",
                        action="store_true", default=None,
                        help="subtract the deepest layer's offset too")
    parser.add_argument("--config", default=None, help="key = value file supplying defaults")


def _fit_config(settings: _Settings) -> FitConfig:
    defaults = FitConfig()
    try:
        return FitConfig(
            lam=settings.get("lam", defaults.lam, float),
            knots_per_depth=settings.get("knots", defaults.knots_per_depth, int),
            norm=settings.get("norm", defaults.norm, float),
            max_depth=settings.get("max_depth", defaults.max_depth, int),
            auto_depth=settings.get("auto_depth", defaults.auto_depth, _parse_bool),
            offset_epsilon=settings.get("offset_epsilon", defaults.offset_epsilon, float),
            denom_floor=settings.get("denom_floor", defaults.denom_floor, float),
            literal_final_offset=settings.get(
                "literal_final_offset", defaults.literal_final_offset, _parse_bool
            ),
        )
    except ValueError as exc:
        raise DataError(str(exc)) from exc


def cmd_fit(args: argparse.Namespace) -> int:
    settings = _Settings(args)
    data = settings.get("data", None, str)
    target = settings.get("target", "critical_temp", str)
    out_dir = Path(settings.get("out_dir", ".", str))
    config = _fit_config(settings)
    settings.reject_unknown_keys()
    if not data:
        raise DataError("--data is required")

    ds = load_csv(data, target)
    start = time.perf_counter()
    model = fit(ds.features, ds.target, config)
    seconds = time.perf_counter() - start
    model = replace(model, feature_names=ds.feature_names, target_name=ds.target_name)
    atomic_write_text(out_dir / "model.json", serialize(model))

    rmses = training_rmse_by_depth(model, ds.features, ds.target)
    lines = ["depth,train_rmse,interior_knots,offset"]
    for d, layer in enumerate(model.layers):
        knots = 0
        if hasattr(layer.model, "bases"):
            knots = sum(len(kv.interior) for kv in layer.model.bases)
        lines.append(f"{d},{format_cell(rmses[d])},{knots},{format_cell(layer.offset)}")
    lines.append(f"fitted_depth,{model.depth}")
    lines.append(f"auto_depth,{format_cell(config.auto_depth)}")
    lines.append(f"wall_seconds,{format_cell(seconds)}")
    atomic_write_text(out_dir / "fit_log.txt", "\n".join(lines) + "\n")
    print(f"wrote {out_dir / 'model.json'} (depth {model.depth}, {seconds:.3f}s)")
    return 0


def cmd_predict(args: argparse.Namespace) -> int:
    try:
        text = Path(args.model).read_text(encoding="utf-8")
    except OSError as exc:
        raise DataError(f"cannot read {args.model}: {exc.strerror or exc}") from exc
    model = deserialize(text)
    names, data = read_numeric_table(args.data)
    if model.feature_names is None:
        raise DataError(f"{args.model}: model document carries no feature names")
    missing = [nm for nm in model.feature_names if nm not in names]
    if missing:
        raise DataError(
            f"{args.data}: missing feature columns: {', '.join(missing)}"
        )
    known = set(model.feature_names)
    if model.target_name is not None:
        known.add(model.target_name)
    extra = [nm for nm in names if nm not in known]
    if extra:
        print(
            f"warning: ignoring unknown columns: {', '.join(extra)}",
            file=sys.stderr,
        )
    columns = {nm: data[:, i] for i, nm in enumerate(names)}
    X = np.column_stack([columns[nm] for nm in model.feature_names])
    pred = model.predict(X)
    header = ["row_id", "y_pred"]
    y_true = None
    if model.target_name is not None and model.target_name in columns:
        header.append("y_true")
        y_true = columns[model.target_name]
    rows = []
    for i in range(pred.shape[0]):
        row = [i, float(pred[i])]
        if y_true is not None:
            row.append(float(y_true[i]))
        rows.append(row)
    atomic_write_text(args.out, csv_text(header, rows))
    print(f"wrote {args.out} ({pred.shape[0]} rows)")
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    settings = _Settings(args)
    data = settings.get("data", None, str)
    cfg_kwargs = dict(
        target=settings.get("target", "critical_temp", str),
        protocol=settings.get("protocol", "oos", str),
        runs=settings.get("runs", 100, int),
        base_seed=settings.get("seed", 0, int),
        quantile=settings.get("quantile", 0.9, float),
        out_dir=settings.get("out_dir", "bench_out", str),
        fit=_fit_config(settings),
        predictions=tuple(
            settings.get("predictions", (), lambda s: tuple(s.split()))
        ),
    )
    settings.reject_unknown_keys()
    if not data:
        raise DataError("--data is required")
    try:
        cfg = ExperimentConfig(data=data, **cfg_kwargs)
    except ValueError as exc:
        raise DataError(str(exc)) from exc
    result = run_benchmark(cfg)
    written = write_bench_outputs(result, cfg.out_dir, cfg.protocol)
    for summary in result.summaries:
        print(
            f"{summary.method_name}: median rmse {summary.median_rmse:.4f} "
            f"(std {summary.std_rmse:.4f}, {summary.run_count} runs)"
        )
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
    rows = [(float(ds.features[i, 0]), float(ds.target[i])) for i in range(ds.n)]
    atomic_write_text(args.out, csv_text(["x", "y"], rows))
    print(f"wrote {args.out} ({ds.n} rows)")
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    out_dir = Path(args.out_dir)
    per_method = load_prediction_files(args.predictions)

    # Pool runs (or take the one selected); check y_true consistency per run.
    pooled: dict[str, PredictionSet] = {}
    run_filter = args.run
    reference: dict[int, np.ndarray] = {}
    for name, sets in per_method.items():
        run_ids = sorted(sets)
        if run_filter is not None:
            if run_filter not in sets:
                raise DataError(f"method {name!r} has no rows for run {run_filter}")
            run_ids = [run_filter]
        for rid in run_ids:
            seen = reference.get(rid)
            if seen is None:
                reference[rid] = sets[rid].y_true
            elif seen.shape != sets[rid].y_true.shape or not np.allclose(
                seen, sets[rid].y_true, atol=1e-8, rtol=0.0
            ):
                raise DataError(
                    f"inconsistent y_true across prediction files for run {rid}"
                )
        pooled[name] = PredictionSet(
            method_name=name,
            y_true=np.concatenate([sets[r].y_true for r in run_ids]),
            y_pred=np.concatenate([sets[r].y_pred for r in run_ids]),
        )

    topk_rows = []
    summary_rows = []
    for name, pset in pooled.items():
        try:
            table = top_k_table(pset, args.top_k)
        except ValueError as exc:
            raise DataError(str(exc)) from exc
        for rank, (idx, t, p) in enumerate(
            zip(table.row_indices, table.y_true, table.y_pred), start=1
        ):
            topk_rows.append((name, rank, int(idx), float(t), float(p)))
        summary_rows.append(
            (name, table.mean_true, table.mean_pred, table.mean_relative_error, table.rmse)
        )
    atomic_write_text(
        out_dir / "top_k.csv",
        csv_text(["method", "rank", "row_id", "y_true", "y_pred"], topk_rows),
    )
    atomic_write_text(
        out_dir / "top_k_summary.csv",
        csv_text(
            ["method", "mean_true", "mean_pred", "mean_relative_error", "rmse"],
            summary_rows,
        ),
    )

    pn_rows = []
    for name, pset in pooled.items():
        p, n_neg = threshold_counts(pset.y_pred, args.threshold)
        pn_rows.append((name, p, n_neg))
    atomic_write_text(
        out_dir / "pn_counts.csv", csv_text(["method", "p_count", "n_count"], pn_rows)
    )

    kappa_rows = pairwise_kappa(
        {name: pset.y_pred >= args.threshold for name, pset in pooled.items()}
    )
    atomic_write_text(
        out_dir / "kappa.csv",
        csv_text(["rater_1", "rater_2", "kappa", "agreement"], kappa_rows),
    )
    for name in ("top_k.csv", "top_k_summary.csv", "pn_counts.csv", "kappa.csv"):
        print(f"wrote {out_dir / name}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="splinecfr",
        description="Continued-fraction regression with additive spline layers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fit", help="fit a model on a CSV and save it")
    p.add_argument("--data", default=None, help="training CSV")
    p.add_argument("--target", default=None, help="target column name (default critical_temp)")
    p.add_argument("--out-dir", dest="out_dir", default=None,
                   help="where model.json and fit_log.txt go (default .)")
    _add_fit_flags(p)
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("predict", help="apply a saved model to a CSV")
    p.add_argument("--model", required=True, help="model.json path")
    p.add_argument("--data", required=True, help="CSV with the model's feature columns")
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("bench", help="multi-run benchmark against an OLS baseline")
    p.add_argument("--data", default=None, help="dataset CSV")
    p.add_argument("--target", default=None, help="target column name (default critical_temp)")
    p.add_argument("--protocol", choices=("oos", "ood"), default=None,
                   help="out-of-sample (shuffled 2/3-1/3) or out-of-domain (low train, high test)")
    p.add_argument("--runs", type=int, default=None, help="number of runs (default 100)")
    p.add_argument("--seed", type=int, default=None, help="base seed; run r uses seed+r")
    p.add_argument("--quantile", type=float, default=None,
                   help="ood train-pool share (default 0.9)")
    p.add_argument("--out-dir", dest="out_dir", default=None, help="report directory")
    p.add_argument("--predictions", nargs="*", default=None,
                   help="external prediction CSVs (run_id,row_id,y_true,y_pred)")
    _add_fit_flags(p)
    p.set_defaults(func=cmd_bench)

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
    except SplineCfrError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (RuntimeError, ValueError, ArithmeticError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
