"""Fast checks of the benchmark itself, on a tiny table.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import table  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from tracing import Span  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
TINY_ROWS = 400


def test_self_time_subtracts_the_union_of_children():
    spans = [
        Span("root", 0.0, 10.0),
        Span("a", 1.0, 3.0, parent=0),
        Span("b", 2.0, 4.0, parent=0),  # overlaps a: covered is [1, 4]
        Span("c", 8.0, 12.0, parent=0),  # clipped to the parent: [8, 10]
        Span("a.child", 1.5, 2.0, parent=1),
    ]
    assert tracing.self_times(spans) == pytest.approx([5.0, 1.5, 2.0, 4.0, 0.5])


def test_layer_metrics_from_hand_made_spans():
    spans = [
        Span("cfr_core.fit", 0.0, 10.0, attrs={"depths_fitted": 4, "depths_kept": 1,
                                               "bases_compared": 8, "bases_reused": 2}),
        Span("spline_basis.design_matrix", 1.0, 3.0, parent=0,
             attrs={"cells": 1000, "nnz": 250}),
        Span("solver.penalized_least_squares", 3.0, 6.0, parent=0,
             attrs={"rows": 100, "cols": 10}),
        Span("trace.record", 6.0, 6.5, parent=0),
    ]
    m = tracing.layer_metrics(spans)
    assert m["cfr_core.fit_self_s"] == pytest.approx(4.5)
    assert m["spline_basis.design_s"] == pytest.approx(2.0)
    assert m["spline_basis.design_mb"] == pytest.approx(0.008)
    assert m["spline_basis.design_nnz_frac"] == pytest.approx(0.25)
    assert m["spline_basis.basis_reuse_frac"] == pytest.approx(0.25)
    assert m["solver.gram_gflop"] == pytest.approx(1e-5)
    assert m["cfr_core.depth_keep_frac"] == pytest.approx(0.25)
    assert set(m) == set(tracing.LAYER_METRICS)


def test_tracer_sees_layers_and_uninstalls():
    import splinecfr.bench
    import splinecfr.cfr_core as cfr
    import splinecfr.cli

    before = (cfr.design_matrix, cfr.CFracModel.predict, splinecfr.bench.fit)
    tracer = tracing.Tracer()
    uninstall = tracer.install(splinecfr)
    try:
        X, y = table.make_table(3, 60)
        cfr.fit(X, y, cfr.FitConfig(max_depth=2)).predict(X)
    finally:
        uninstall()
    assert (cfr.design_matrix, cfr.CFracModel.predict, splinecfr.bench.fit) == before
    m = tracing.layer_metrics(tracer.spans)
    assert m["solver.pls_calls"] == 2
    assert m["spline_basis.design_calls"] == 4  # two while fitting, two to predict
    assert m["cfr_core.depths_fitted"] == 2
    parents = {s.name: tracer.spans[s.parent].name for s in tracer.spans if s.parent is not None}
    assert parents["solver.penalized_least_squares"] == "cfr_core.fit"


def test_table_is_seeded_and_has_ties():
    X, y = table.make_table(0, 2000)
    X2, y2 = table.make_table(0, 2000)
    assert X.shape == (2000, len(table.FEATURES)) == (2000, 81)
    assert table.table_digest(X, y) == table.table_digest(X2, y2)
    assert table.table_digest(X, y) != table.table_digest(*table.make_table(1, 2000))
    assert np.isfinite(X).all() and np.isfinite(y).all() and (y > 0).all()
    assert len(np.unique(X[:, 0])) <= 9
    tied = sum(len(np.unique(X[:, j])) < X.shape[0] // 2 for j in range(X.shape[1]))
    assert tied == X.shape[1]


def test_first_spline_depth_lowers_training_rmse_on_the_full_table():
    import splinecfr.cfr_core as cfr
    import splinecfr.data_io as data_io

    X, y = table.make_table(workloads.TABLE_SEED)
    ds = data_io.Dataset(X, y, table.FEATURES, table.TARGET)
    train = data_io.split_out_of_sample(ds, workloads.SPLIT_SEED).train
    model = cfr.fit(train.features, train.target, cfr.FitConfig(max_depth=1))
    rmses = cfr.training_rmse_by_depth(model, train.features, train.target)
    assert rmses[1] < rmses[0]


def _run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--rows", str(TINY_ROWS)],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_printed_with_its_unit(workload, trace):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == expected
    text = "\n".join(lines[:-1])
    for name, unit in expected.items():
        assert any(ln.split()[:1] == [name] and ln.split()[2] == unit for ln in lines[:-1]), name
    assert "error_rate" in text and '"table_digest"' in text
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    elif workload == "predict_extrapolate":
        assert result["metrics"]["solver.pls_calls"]["value"] == 0


def test_fails_without_the_package():
    # A directory holding only BENCHMARK.json and the benchmark's own files.
    bare = ROOT / ".perfbench_work" / f"bare-{os.getpid()}"
    try:
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in SPEC["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = _run(bare, "fit_deep", 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
