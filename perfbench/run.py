"""splinecfr benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload fit_deep --seed 1 --seconds 25 --trace 0

Run it from the root of a checkout; it imports the package from ``src/``.
Workloads (see workloads.py and BENCHMARK.json): ``fit_deep``,
``predict_extrapolate``, ``bench_ood_auto``.

Set-up runs ``SETUPS`` times, each in a fresh process, and ``setup_s`` is
their median plus the measuring process's own set-up (imports, loading the
inputs, warm-up). The measuring process then runs operations in a closed
loop for ``--seconds`` and checks every output. Human-readable lines come
first; the last line of standard output is the JSON result. ``--trace 1``
reports the per-layer metrics instead of the end-to-end ones. A record of
the run, with the environment and, when traced, every span, is written to
``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import table  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SETUPS = 3
# Everything, set-up included, must end well inside three minutes.
DEADLINE_S = 170.0

END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB", "test_rmse": "K"}
PER_LAYER = {**tracing.LAYER_METRICS, "trace.wall_s": "s", "trace.overhead_s": "s"}


class ChildFailed(RuntimeError):
    pass


def _child_env(threads: int) -> dict[str, str]:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(threads)
    return env


def _run_child(args: list[str], out: Path, env: dict, deadline: float) -> dict:
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise ChildFailed(f"no time left for {args[0]}")
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), *args, str(out)],
            stdout=sys.stderr,
            env=env,
            cwd=ROOT,
            timeout=remaining,
        )
    except subprocess.TimeoutExpired as exc:
        raise ChildFailed(f"{args[0]} did not finish in time") from exc
    if proc.returncode != 0:
        raise ChildFailed(f"{args[0]} exited with code {proc.returncode}")
    return json.loads(out.read_text(encoding="utf-8"))


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--rows", type=int, default=table.ROWS,
                   help="table rows (default: the UCI size); smaller only for quick checks")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "splinecfr" / "__init__.py").is_file():
        print(f"error: {ROOT} holds no src/splinecfr package", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    nproc = len(os.sched_getaffinity(0))
    env = _child_env(nproc)
    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        work.mkdir(parents=True)
        preps = [
            _run_child(
                # Only the last set-up goes on to compute the reference
                # outputs, after its set-up time is taken.
                ["prep", args.workload, str(args.seed), str(args.rows),
                 str(int(k == SETUPS - 1)), str(work)],
                work / f"prep{k}.json", env, deadline,
            )
            for k in range(SETUPS)
        ]
        m = _run_child(
            ["measure", args.workload, str(args.seconds), str(args.trace), str(work)],
            work / "measure.json", env, deadline,
        )
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()  # only when no other run is using it

    walls = m["walls"] or m["durations"]
    attempted, failed = m["attempted"], m["failed"]
    if args.trace:
        metrics = dict(m["layers"])
        metrics["trace.wall_s"] = statistics.median(m["traced_walls"])
        metrics["trace.overhead_s"] = metrics["trace.wall_s"] - statistics.median(walls)
        units = PER_LAYER
    else:
        metrics = {
            "setup_s": statistics.median(p["setup_s"] for p in preps) + m["setup_s"],
            "wall_s": statistics.median(walls),
            "peak_rss_mb": m["peak_rss_mb"],
            "test_rmse": m["test_rmse"],
        }
        units = END_TO_END
    env_record = {
        "cpu": _cpu_model(),
        "nproc": nproc,
        "python": platform.python_version(),
        **m["env"],
        **{k: preps[0][k] for k in ("table_seed", "table_rows", "table_digest")},
    }
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{attempted} operations, closed loop, one caller")
    for name, value in metrics.items():
        print(f"  {name:32s} {value:.6g} {units[name]}")
    print(f"  {'error_rate':32s} {failed / attempted:.6g} ratio ({failed} of {attempted} failed)")
    print("  env " + json.dumps(env_record, sort_keys=True))

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    record = {
        "args": vars(args),
        "env": env_record,
        "error_rate": failed / attempted,
        "setup_runs_s": [p["setup_s"] for p in preps],
        "measure_setup_s": m["setup_s"],
        "setup_peak_rss_mb": m["setup_peak_rss_mb"],
        "walls": m["walls"],
        "traced_walls": m["traced_walls"],
        "spans": m.get("spans", []),
        **result,
    }
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    workloads.write_json(
        out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", record
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
