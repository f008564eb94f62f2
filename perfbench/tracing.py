"""In-memory spans around the calls splinecfr's modules make to each other.

The tracer replaces module attributes (for example ``cfr_core.design_matrix``)
with wrappers while it is installed, so it sees each call at the place where
``cfr_core``, ``bench`` and ``cli`` make it, without any change to the
package. Spans are kept in a list until the run ends; a span's self time is
its duration minus the union of the intervals its child spans cover.
"""

from __future__ import annotations

import functools
import inspect
import statistics
import time
from dataclasses import dataclass, field

import numpy as np


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    # Counters recorded at this boundary (rows, columns, bytes, ...).
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(i, [])):
            lo, hi = max(lo, s.start), min(hi, s.end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append(s.duration - covered)
    return out


class Tracer:
    """Records spans while installed; ``install`` returns an undo callable."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), parent=parent))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, idx: int) -> None:
        self.spans[idx].end = time.perf_counter()
        self._stack.pop()

    def parent_of(self, idx: int) -> Span | None:
        p = self.spans[idx].parent
        return None if p is None else self.spans[p]

    def wrap(self, owner, attr: str, name: str, record=None):
        """Replace ``owner.attr`` by a traced wrapper; returns the undo."""
        original = getattr(owner, attr)
        params = list(inspect.signature(original).parameters)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                self.close(idx)
            if record is not None:
                # Its own span, so counting (say, nonzeros) adds to neither
                # the layer's nor its caller's self time.
                rec = self.open("trace.record")
                try:
                    record(self, idx, dict(zip(params, args), **kwargs), result)
                finally:
                    self.close(rec)
            return result

        setattr(owner, attr, traced)
        return lambda: setattr(owner, attr, original)

    def install(self, modules) -> callable:
        """Wrap the cross-module calls of the splinecfr package."""
        cfr_core, bench, cli = modules.cfr_core, modules.bench, modules.cli
        targets = [
            (cfr_core, "design_matrix", "spline_basis.design_matrix", _record_design),
            (cfr_core, "build_knot_vector", "spline_basis.build_knot_vector", None),
            (cfr_core, "penalty_block", "spline_basis.penalty_block", None),
            (cfr_core, "penalized_least_squares", "solver.penalized_least_squares",
             _record_pls),
            (cfr_core, "least_squares", "solver.least_squares", None),
            (cfr_core, "select_knots", "cfr_core.select_knots", None),
            (cfr_core, "fit", "cfr_core.fit", _record_fit),
            (cfr_core, "deserialize", "cfr_core.deserialize", None),
            (cfr_core.CFracModel, "predict", "cfr_core.predict", None),
            (bench, "fit", "cfr_core.fit", _record_fit),
            (bench, "load_csv", "data_io.load_csv", _record_load),
            (bench, "split_out_of_domain", "data_io.split", None),
            (bench, "split_out_of_sample", "data_io.split", None),
            (bench, "atomic_write_text", "fileio.atomic_write_text", _record_write),
            (cli, "run_benchmark", "bench.run_benchmark", None),
            (cli, "write_bench_outputs", "bench.write_outputs", None),
            (cli, "main", "cli.main", None),
        ]
        targets += [
            (bench, fn, f"evaluation.{fn}", None)
            for fn in (
                "rmse",
                "mean_relative_error",
                "threshold_counts",
                "count_beyond_training_max",
                "aggregate",
                "rank_matrix",
                "cohen_kappa",
                "kappa_agreement_label",
            )
        ]
        undo = [self.wrap(owner, attr, name, rec) for owner, attr, name, rec in targets]

        def uninstall() -> None:
            for u in reversed(undo):
                u()

        return uninstall


def _record_design(tracer: Tracer, idx: int, args: dict, result) -> None:
    n, p = result.shape
    span = tracer.spans[idx]
    span.attrs.update(cells=n * p, nnz=int(np.count_nonzero(result)))
    fit_span = tracer.parent_of(idx)
    if fit_span is None or fit_span.name != "cfr_core.fit":
        return
    bases = tuple(args["bases"])
    prev = fit_span.attrs.get("bases")
    if prev is not None and len(prev) == len(bases):
        fit_span.attrs["bases_compared"] = fit_span.attrs.get("bases_compared", 0) + len(bases)
        fit_span.attrs["bases_reused"] = fit_span.attrs.get("bases_reused", 0) + sum(
            a == b for a, b in zip(prev, bases)
        )
    fit_span.attrs["bases"] = bases
    fit_span.attrs["depths_fitted"] = fit_span.attrs.get("depths_fitted", 0) + 1


def _record_pls(tracer: Tracer, idx: int, args: dict, result) -> None:
    n, p = np.shape(args["B"])
    tracer.spans[idx].attrs.update(rows=n, cols=p)


def _record_fit(tracer: Tracer, idx: int, args: dict, result) -> None:
    attrs = tracer.spans[idx].attrs
    attrs.pop("bases", None)
    attrs["depths_kept"] = result.depth


def _record_load(tracer: Tracer, idx: int, args: dict, result) -> None:
    tracer.spans[idx].attrs["rows"] = result.n


def _record_write(tracer: Tracer, idx: int, args: dict, result) -> None:
    tracer.spans[idx].attrs["bytes"] = len(args["text"].encode("utf-8"))


# Per-layer metrics of one operation: name -> unit. Every workload reports
# all of them; a layer the workload never calls reads 0.
LAYER_METRICS = {
    "spline_basis.design_s": "s",
    "spline_basis.design_calls": "count",
    "spline_basis.design_mb": "MB",
    "spline_basis.design_nnz_frac": "ratio",
    "spline_basis.basis_reuse_frac": "ratio",
    "spline_basis.knots_s": "s",
    "solver.pls_s": "s",
    "solver.pls_calls": "count",
    "solver.cols_max": "count",
    "solver.gram_gflop": "GFLOP",
    "solver.ls_s": "s",
    "cfr_core.fit_self_s": "s",
    "cfr_core.predict_self_s": "s",
    "cfr_core.select_knots_s": "s",
    "cfr_core.deserialize_s": "s",
    "cfr_core.depths_fitted": "count",
    "cfr_core.depths_kept": "count",
    "cfr_core.depth_keep_frac": "ratio",
    "data_io.load_csv_s": "s",
    "data_io.rows_parsed": "count",
    "data_io.split_s": "s",
    "evaluation.s": "s",
    "bench.write_outputs_s": "s",
    "fileio.bytes_written": "bytes",
    "cli.self_s": "s",
}


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer totals over the spans of one operation."""
    own = self_times(spans)

    def total(name: str) -> float:
        return sum(t for s, t in zip(spans, own) if s.name == name)

    def named(*names: str) -> list[Span]:
        return [s for s in spans if s.name in names]

    def attr_sum(items: list[Span], key: str) -> int:
        return sum(s.attrs.get(key, 0) for s in items)

    design = named("spline_basis.design_matrix")
    pls = named("solver.penalized_least_squares")
    fits = named("cfr_core.fit")
    cells = attr_sum(design, "cells")
    compared = attr_sum(fits, "bases_compared")
    fitted = attr_sum(fits, "depths_fitted")
    kept = attr_sum(fits, "depths_kept")
    return {
        "spline_basis.design_s": total("spline_basis.design_matrix"),
        "spline_basis.design_calls": len(design),
        "spline_basis.design_mb": cells * 8 / 1e6,
        "spline_basis.design_nnz_frac": attr_sum(design, "nnz") / cells if cells else 0.0,
        "spline_basis.basis_reuse_frac": (
            attr_sum(fits, "bases_reused") / compared if compared else 0.0
        ),
        "spline_basis.knots_s": total("spline_basis.build_knot_vector")
        + total("spline_basis.penalty_block"),
        "solver.pls_s": total("solver.penalized_least_squares"),
        "solver.pls_calls": len(pls),
        "solver.cols_max": max((s.attrs["cols"] for s in pls), default=0),
        "solver.gram_gflop": sum(s.attrs["rows"] * s.attrs["cols"] ** 2 for s in pls) / 1e9,
        "solver.ls_s": total("solver.least_squares"),
        "cfr_core.fit_self_s": total("cfr_core.fit"),
        "cfr_core.predict_self_s": total("cfr_core.predict"),
        "cfr_core.select_knots_s": total("cfr_core.select_knots"),
        "cfr_core.deserialize_s": total("cfr_core.deserialize"),
        "cfr_core.depths_fitted": fitted,
        "cfr_core.depths_kept": kept,
        "cfr_core.depth_keep_frac": kept / fitted if fitted else 0.0,
        "data_io.load_csv_s": total("data_io.load_csv"),
        "data_io.rows_parsed": attr_sum(named("data_io.load_csv"), "rows"),
        "data_io.split_s": total("data_io.split"),
        "evaluation.s": sum(
            t for s, t in zip(spans, own) if s.name.startswith("evaluation.")
        ),
        "bench.write_outputs_s": total("bench.write_outputs"),
        "fileio.bytes_written": attr_sum(named("fileio.atomic_write_text"), "bytes"),
        "cli.self_s": total("cli.main"),
    }


def median_metrics(per_op: list[dict[str, float]]) -> dict[str, float]:
    """Median of each metric over operations."""
    return {k: statistics.median(m[k] for m in per_op) for k in per_op[0]}
