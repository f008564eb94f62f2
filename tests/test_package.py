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
# Each value built without checks, and the (module, function) pairs that
# build it from input they have checked.
BUILT_VALUES = {
    "Dataset": {("data_io.py", "load_csv"), ("data_io.py", "_grid_dataset")},
    "KnotVector": {("spline_basis.py", "build_knot_vector"), FIT},
    "split_out_of_domain": {("bench.py", "_split")},
}


def callers_of(routines, calls_only=False) -> dict[str, set[tuple[str, str]]]:
    """Every (module, function) of the package that names each routine, or
    with ``calls_only`` that calls it (an annotation names a class too)."""
    callers = {name: set() for name in routines}

    def visit(node, scope, path):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = node.name
        named = node
        if calls_only:
            named = node.func if isinstance(node, ast.Call) else None
        name = (
            named.id if isinstance(named, ast.Name) and isinstance(named.ctx, ast.Load)
            else named.attr if isinstance(named, ast.Attribute)
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


def test_only_the_producers_that_check_their_input_build_datasets_and_knot_vectors():
    # Dataset checks nothing when built, nor does split_out_of_domain its
    # quantile or KnotVector its knots: load_csv, the generators (through
    # _grid_dataset), ExperimentConfig and fit check or keep them first,
    # and a model document's knots go through build_knot_vector
    # (tests/test_cfr_core.py, TestBuiltValues). Dataset.take builds its rows
    # through dataclasses.replace, which no call here names.
    assert callers_of(BUILT_VALUES, calls_only=True) == BUILT_VALUES
