#!/usr/bin/env python3
"""prefcone benchmark: one seeded workload, one closed-loop client, checked answers.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout that holds ``src/prefcone``.  The script
generates the workload's inputs from the seed (with HiGHS deciding the
truth of every instance), then starts fresh worker processes with BLAS and
OpenMP pinned to one thread:

* ``--trace 0``: several set-up-only processes plus one timed process; the
  end-to-end metrics are ``setup_s`` (median over the processes),
  ``ops_per_s``, ``latency_p50_ms``, ``latency_p90_ms`` and ``peak_rss_mb``.
* ``--trace 1``: one traced process; the metrics are per-op layer numbers
  (span times, self times and shares, call counts) and the tracing overhead.

Every answer is checked against references outside the package; the last
stdout line is ``{"correct", "attempted", "failed", "metrics"}`` and the line
before it is a JSON report with the workload's parameters, its
consistent/inconsistent split and the environment.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

# Native thread pools pinned to one thread, here and in every worker.
THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROCESSES = 6  # set-up samples per timed run, besides the timed process
CHILD_TIMEOUT_S = 150

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "peak_rss_mb": "MB",
}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # On SIGTERM, unwind: subprocess.run kills and reaps the running worker,
    # and the finally clause below removes the generated inputs.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (ROOT / "src" / "prefcone" / "__init__.py").is_file():
        print(f"perfbench: no prefcone sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    os.environ.update(THREAD_ENV)  # before numpy loads; the workers inherit it
    try:
        import numpy
        import scipy

        import workloads
    except ImportError as exc:
        print(f"perfbench: missing dependency: {exc}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    spec = workloads.WORKLOADS[args.workload]

    work = HERE / "_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        t0 = time.perf_counter()
        params = workloads.generate(args.workload, args.seed, work)
        gen_s = time.perf_counter() - t0
        base = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
                "--work", str(work)]
        if args.trace:
            spans = HERE / "_out" / f"spans-{args.workload}.jsonl"
            spans.parent.mkdir(exist_ok=True)
            res = _child(base + ["--mode", "traced", "--seconds", str(args.seconds),
                                 "--n-trace", str(spec["n_trace"]), "--spans", str(spans)])
            metrics = {name: {"value": value, "unit": _layer_unit(name)}
                       for name, value in res["metrics"].items()}
            setup_samples = [res["setup_s"]]
        else:
            _child(base + ["--mode", "setup"])  # warms the bytecode cache; not counted
            setup_samples = [_child(base + ["--mode", "setup"])["setup_s"]
                             for _ in range(SETUP_PROCESSES)]
            res = _child(base + ["--mode", "timed", "--seconds", str(args.seconds)])
            setup_samples.append(res["setup_s"])
            values = dict(res, setup_s=statistics.median(setup_samples))
            metrics = {name: {"value": values[name], "unit": unit}
                       for name, unit in END_TO_END_UNITS.items()}
    finally:
        shutil.rmtree(work, ignore_errors=True)

    report = {
        "workload": args.workload,
        "op": spec["op"],
        "trace": args.trace,
        "seconds": args.seconds,
        "params": params,
        "generate_s": gen_s,
        "setup_samples_s": setup_samples,
        "ops": res["ops"],
        "failed_frac": res["failed"] / res["attempted"],
        "failures": res["failures"],
        "env": {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "nproc": len(os.sched_getaffinity(0)),
            "machine": platform.machine(),
            "threads": THREAD_ENV,
        },
    }
    for key in ("beyond_p90", "wall_s", "ops_untraced", "trace_subset", "missing_targets"):
        if key in res:
            report[key] = res[key]
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }))
    return 0


def _child(cmd: list[str]) -> dict:
    """Run one worker to completion and return its last stdout line as JSON."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"perfbench: worker exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _layer_unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_share") or name.endswith("_frac"):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
