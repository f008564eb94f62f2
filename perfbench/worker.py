"""Child process of ``run.py``: one set-up (``prep``) or the measured loop
(``measure``). Results go to a JSON file named on the command line.

    python3 perfbench/worker.py prep WORKLOAD SEED ROWS REFERENCE WORKDIR OUT.json
    python3 perfbench/worker.py measure WORKLOAD SECONDS TRACE WORKDIR OUT.json
"""

import time

T0 = time.perf_counter()  # before any import, so set-up counts them

import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _import_package():
    """Import splinecfr from this checkout's src/, never from elsewhere."""
    if not (SRC / "splinecfr" / "__init__.py").is_file():
        raise SystemExit(f"error: no splinecfr package under {SRC}")
    sys.path.insert(0, str(SRC))
    import splinecfr

    if Path(splinecfr.__file__).resolve().parent != SRC / "splinecfr":
        raise SystemExit(f"error: imported splinecfr from {splinecfr.__file__}, not {SRC}")


def prep(workload: str, seed: int, rows: int, work: Path, out: Path, with_reference: bool):
    _import_package()
    import workloads

    record, model = workloads.prepare(workload, seed, rows, work)
    setup_s = time.perf_counter() - T0
    if with_reference:
        workloads.reference(workload, work, model)
    workloads.write_json(out, {"setup_s": setup_s, **record})


# Operations run while elapsed time plus the median operation so far fits in
# the budget; at least this many run whatever the budget.
MIN_OPS = 3
MIN_OPS_TRACED = 2


def _peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def _blas_record() -> dict:
    """numpy version, BLAS build, and the BLAS thread count in this process."""
    import ctypes

    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    rec = {
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
        "blas_threads": None,
    }
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        libs = set()
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                rec["blas_threads"] = fn()
                return rec
    return rec


def measure(workload: str, seconds: float, trace: bool, work: Path, out: Path):
    _import_package()
    import tracing
    import workloads

    bench = workloads.MEASURES[workload](work)
    bench.warm_up()
    setup_s = time.perf_counter() - T0
    setup_rss_mb = _peak_rss_mb()

    walls = {False: [], True: []}
    durations = []
    per_op = []
    spans = []
    attempted = failed = 0
    min_ops = MIN_OPS_TRACED if trace else MIN_OPS
    start = time.perf_counter()
    while attempted < min_ops or (
        time.perf_counter() - start + statistics.median(durations) <= seconds
    ):
        # Traced runs alternate untraced and traced operations, so the
        # difference of their medians is the tracing overhead.
        traced = trace and attempted % 2 == 1
        attempted += 1
        tracer = tracing.Tracer()
        uninstall = tracer.install(bench.pkg) if traced else None
        t = time.perf_counter()
        try:
            result = bench.op()
            ok = True
        except Exception:
            traceback.print_exc()
            ok = False
        finally:
            durations.append(time.perf_counter() - t)
            if uninstall is not None:
                uninstall()
        if ok:
            walls[traced].append(durations[-1])
            if traced:
                per_op.append(tracing.layer_metrics(tracer.spans))
                spans.extend(
                    {"op": attempted, "name": s.name, "start": s.start, "end": s.end,
                     "parent": s.parent}
                    for s in tracer.spans
                )
            try:
                ok = bench.check(result)
            except Exception:
                traceback.print_exc()
                ok = False
            del result
        if not ok:
            failed += 1
            print(f"error: operation {attempted} failed", file=sys.stderr)

    doc = {
        "setup_s": setup_s,
        "walls": walls[False],
        "durations": durations,
        "traced_walls": walls[True],
        "attempted": attempted,
        "failed": failed,
        "peak_rss_mb": _peak_rss_mb(),
        "setup_peak_rss_mb": setup_rss_mb,
        "test_rmse": bench.test_rmse(),
        "env": _blas_record(),
    }
    if trace and per_op:
        doc["layers"] = tracing.median_metrics(per_op)
        doc["spans"] = spans
    workloads.write_json(out, doc)


def main(argv: list[str]) -> int:
    role = argv[0]
    if role == "prep":
        workload, seed, rows, with_reference, work, out = argv[1:7]
        prep(workload, int(seed), int(rows), Path(work), Path(out), with_reference == "1")
    elif role == "measure":
        workload, seconds, trace, work, out = argv[1:6]
        measure(workload, float(seconds), trace == "1", Path(work), Path(out))
    else:
        raise SystemExit(f"error: unknown role {role!r}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
