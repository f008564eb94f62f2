"""The package's public names, what its modules import and who calls what."""

import ast
import sys
from pathlib import Path

import splinecfr
import splinecfr.bench
import splinecfr.cfr_core
import splinecfr.cli
import splinecfr.data_io
import splinecfr.errors

ROOT_NAMES = {
    "CFracModel": splinecfr.cfr_core,
    "DataError": splinecfr.errors,
    "FitConfig": splinecfr.cfr_core,
    "ModelFormatError": splinecfr.errors,
    "SplineCfrError": splinecfr.errors,
    "TrainingRmseWarning": splinecfr.errors,
    "deserialize": splinecfr.cfr_core,
    "fit": splinecfr.cfr_core,
    "load_csv": splinecfr.data_io,
    "serialize": splinecfr.cfr_core,
}


def test_every_exported_name_resolves_once():
    names = splinecfr.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(splinecfr, name)]
    assert missing == []


def test_root_exports_only_the_model_document_api():
    assert sorted(splinecfr.__all__) == sorted(ROOT_NAMES)
    for name, module in ROOT_NAMES.items():
        assert getattr(splinecfr, name) is getattr(module, name), name
    assert isinstance(splinecfr.__version__, str)


def test_module_names_the_benchmark_harness_wraps_stay():
    # perfbench's tracer replaces these module attributes by name.
    wrapped = {
        splinecfr.cfr_core: (
            "design_matrix",
            "build_knot_vector",
            "penalty_block",
            "penalized_least_squares",
            "least_squares",
            "select_knots",
            "fit",
            "deserialize",
            "CFracModel",
        ),
        splinecfr.bench: (
            "fit",
            "load_csv",
            "split_out_of_domain",
            "split_out_of_sample",
            "atomic_write_text",
            "rmse",
            "mean_relative_error",
            "threshold_counts",
            "count_beyond_training_max",
            "aggregate",
            "rank_matrix",
            "cohen_kappa",
            "kappa_agreement_label",
        ),
        splinecfr.cli: ("run_benchmark", "write_bench_outputs", "main"),
    }
    missing = [
        f"{module.__name__}.{attr}"
        for module, attrs in wrapped.items()
        for attr in attrs
        if not callable(getattr(module, attr, None))
    ]
    assert missing == []
    assert callable(splinecfr.cfr_core.CFracModel.predict)


def test_modules_import_only_the_standard_library_and_numpy():
    # numpy is the one runtime dependency pyproject.toml declares; a module
    # that imports anything else (scipy, say) breaks an install from it.
    allowed = set(sys.stdlib_module_names) | {"numpy", "splinecfr"}
    found = []
    for path in sorted(Path(splinecfr.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            found += [f"{path.name}: {name}" for name in names if name.split(".")[0] not in allowed]
    assert found == []


FIT = ("cfr_core.py", "fit")
SCORE = ("bench.py", "_score")
REPORT = ("cli.py", "cmd_report")
TOP_K = ("evaluation.py", "top_k_table")
# Each routine that checks none of its arguments, and the (module, function)
# pairs that call it. A new caller has to bring its own checks, or pass what
# these ones pass.
FIT_ROUTINES = {
    "penalized_least_squares": {FIT, ("solver.py", "least_squares")},
    "least_squares": {FIT},
    "select_knots": {FIT},
    "compute_offset": {FIT},
    "penalty_block": {FIT},
}
BUILT_INPUT_ROUTINES = {
    "design_matrix": {FIT, ("cfr_core.py", "_spline_values")},
    "rmse": {FIT, ("cfr_core.py", "training_rmse_by_depth"), SCORE, TOP_K},
    "mean_relative_error": {SCORE, TOP_K},
    "threshold_counts": {SCORE, REPORT},
    "count_beyond_training_max": {SCORE},
    "cohen_kappa": {("bench.py", "pairwise_kappa")},
    "top_k_table": {REPORT},
}


def callers_of(routines) -> dict[str, set[tuple[str, str]]]:
    """Every (module, function) of the package that names each routine."""
    callers = {name: set() for name in routines}

    def visit(node, scope, path):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = node.name
        name = (
            node.id if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
            else node.attr if isinstance(node, ast.Attribute)
            else None
        )
        if name in callers:
            callers[name].add((path.name, scope))
        for child in ast.iter_child_nodes(node):
            visit(child, scope, path)

    for path in sorted(Path(splinecfr.__file__).parent.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8"), str(path)), "<module>", path)
    return callers


def test_only_fit_calls_the_routines_that_trust_their_inputs():
    # The solver, knot selection, offsets and penalty blocks check none of
    # their arguments, because fit checks the table and FitConfig the
    # settings before any of them runs (tests/test_cfr_core.py,
    # TestFitGuarantees).
    assert callers_of(FIT_ROUTINES) == FIT_ROUTINES


def test_only_the_callers_that_build_their_inputs_call_design_matrix_and_the_metrics():
    # fit, predict, bench and report build the designs' rows and the metrics'
    # vectors, and check them where they enter (tests/test_cfr_core.py,
    # TestCallerGuarantees).
    assert callers_of(BUILT_INPUT_ROUTINES) == BUILT_INPUT_ROUTINES
