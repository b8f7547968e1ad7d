"""One measured process: cold import, input loading, closed loop, checks.

run.py starts this script in a fresh interpreter with ``PYTHONPATH`` set to
the checkout's ``src`` and BLAS/OpenMP pinned to one thread::

    python3 perfbench/worker.py --workload W --work DIR --mode setup|timed|traced \
        [--seconds S] [--spans FILE]

``setup`` only times ``import prefcone, prefcone.cli`` plus loading the
inputs.  ``timed`` then runs one client in a closed loop over the inputs for
``S`` seconds with tracing off, after a short untimed warm-up.  ``traced`` runs a fixed subset of the inputs
in whole passes for ``S`` seconds, alternately untraced and with every layer
wrapped by :class:`spans.Recorder`, so counts repeat exactly for a seed.  The last
stdout line is one JSON object.
"""

from __future__ import annotations

import argparse
import io
import json
import resource
import statistics
import sys
import time
from contextlib import redirect_stdout
from pathlib import Path

from spans import LAYERS, Recorder

WARMUP_S = 1.0  # untimed ops before the timed loop
# ops_per_s is the median throughput over this many consecutive equal runs of
# ops, so that a minority of slow stretches on a shared machine does not move it.
STRETCHES = 10


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--work", required=True, type=Path)
    parser.add_argument("--mode", required=True, choices=("setup", "timed", "traced"))
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--n-trace", type=int, default=20)
    parser.add_argument("--spans", type=Path)
    args = parser.parse_args()

    start = time.perf_counter()
    import prefcone  # noqa: F401  (the cold import is part of set-up)
    import prefcone.cli  # noqa: F401

    data = _load(args.workload, args.work / "inputs")
    setup_s = time.perf_counter() - start
    if args.mode == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return

    op = _make_op(args.workload, data)
    if args.mode == "timed":
        out = _timed(op, data["n"], args.seconds)
    else:
        out = _traced(op, args, data)
    out["setup_s"] = setup_s
    answers = out.pop("answers")
    failures = _check(args.workload, args.work, answers)
    out["attempted"] = len(answers)
    out["failed"] = len(failures)
    out["failures"] = failures[:5]
    print(json.dumps(out))


def _load(workload: str, inputs: Path) -> dict:
    import numpy as np
    from prefcone import parse_instance

    files = sorted(inputs.glob("*.json"))
    if workload == "cli-small":
        return {"n": len(files), "paths": [str(f) for f in files]}
    insts = [parse_instance(f.read_text(encoding="utf-8")) for f in files]
    points = np.load(inputs / "points.npy") if (inputs / "points.npy").exists() else None
    return {"n": len(insts), "instances": insts, "points": points}


def _make_op(workload: str, data: dict):
    """The operation one closed-loop request performs on input ``k``.

    Package functions are looked up on their modules at call time, so the
    traced run's wrappers see every call.
    """
    import prefcone.cli as cli
    import prefcone.valuefn as valuefn

    if workload == "cli-small":
        paths = data["paths"]

        def op(k):
            buf = io.StringIO()
            with redirect_stdout(buf):
                code = cli.run(["test", paths[k]])
            return code, buf.getvalue()

    elif workload == "score-batch":
        insts, points = data["instances"], data["points"]

        def op(k):
            return valuefn.evaluate_batch(valuefn.make_psi(insts[k]), points[k])

    else:
        raise ValueError(f"unknown workload {workload!r}")
    return op


def _loop(op, order, seconds, whole_passes=False, rec=None, after=None):
    """Closed loop, one client: the next request starts when the last ends.

    Returns per-op latencies, the answers as ``(k, answer, error)`` and the
    wall time from the first start to the last end.  An exception other than
    the op's documented domain outcome is recorded as that op's error.
    """
    clock = time.perf_counter
    lat, answers = [], []
    start = clock()
    deadline = start + seconds
    last_end = start
    i = 0
    while True:
        k = order[i % len(order)]
        t0 = clock()
        try:
            ans, err = (op(k) if rec is None else rec.run_op(op, k)), None
        except Exception as exc:  # counted as a failed op, the loop goes on
            ans, err = None, f"{type(exc).__name__}: {exc}"
        last_end = clock()
        lat.append(last_end - t0)
        answers.append((k, ans, err))
        i += 1
        if after is not None:
            after()
        if clock() >= deadline and (not whole_passes or i % len(order) == 0):
            return lat, answers, last_end - start


def _timed(op, n, seconds) -> dict:
    # Warm-up: lazy imports and first-call paths run before the clock starts.
    # Its answers are checked like the rest; its latencies are dropped.
    _, warm, _ = _loop(op, list(range(n)), WARMUP_S)
    lat, answers, wall = _loop(op, list(range(n)), seconds)
    answers = warm + answers
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    p90 = statistics.quantiles(lat, n=10, method="inclusive")[8] * 1e3
    # The loop never idles, so a stretch's throughput is its op count over
    # the sum of its latencies.
    k = min(STRETCHES, len(lat))
    size = len(lat) // k
    rates = [size / sum(lat[j * size:(j + 1) * size]) for j in range(k)]
    return {
        "ops": len(lat),
        "wall_s": wall,
        "ops_per_s": statistics.median(rates),
        "latency_p50_ms": statistics.median(lat) * 1e3,
        "latency_p90_ms": p90,
        "beyond_p90": sum(x * 1e3 > p90 for x in lat),
        "peak_rss_mb": peak_rss_mb,
        "answers": answers,
    }


def _traced(op, args, data) -> dict:
    from scipy.optimize import linprog

    order = list(range(min(args.n_trace, data["n"])))
    rec = Recorder()

    def highs_reference():
        # HiGHS on every LP the op built, outside the op's span.
        for lp in rec.built_lps:
            t0 = time.perf_counter()
            linprog(lp.objective, A_eq=lp.constraint_matrix, b_eq=lp.rhs,
                    bounds=(0, None), method="highs")
            rec.counts["lp.highs_ms"] += (time.perf_counter() - t0) * 1e3

    # Alternate whole untraced and traced passes over the same inputs, so
    # that drift in the machine's speed cancels out of the overhead.
    lat_a, lat_b, answers_a, answers_b = [], [], [], []
    start = time.perf_counter()
    while True:
        lat, answers, _ = _loop(op, order, 0, whole_passes=True)
        lat_a += lat
        answers_a += answers
        rec.install()
        try:
            lat, answers, _ = _loop(op, order, 0, whole_passes=True, rec=rec,
                                    after=highs_reference)
        finally:
            rec.uninstall()
        lat_b += lat
        answers_b += answers
        if time.perf_counter() - start >= args.seconds:
            break
    if args.spans is not None:
        rec.dump(args.spans)

    n = len(lat_b)
    s = rec.summary()
    dur, calls, own = s["dur"], s["calls"], s["self"]

    def ms(name):
        return dur.get(name, 0.0) * 1e3 / n

    def per_op(name):
        return calls.get(name, 0) / n

    layer_self = {
        layer: sum(v for k, v in own.items() if k.split(".")[0] == layer) * 1e3 / n
        for layer in LAYERS
    }
    op_ms = ms("op")
    exterior = []
    if args.workload == "score-batch":
        exterior = [float((ans < 0).mean()) for _, ans, err in answers_b if err is None]
    metrics = {
        "cli.run_ms": ms("cli.run"),
        "instance.parse_ms": ms("instance.parse"),
        "instance.validate_calls": per_op("instance.validate"),
        "instance.validate_ms": ms("instance.validate"),
        "consistency.verdict_ms": ms("consistency.verdict"),
        "consistency.test_pointedness_calls": per_op("consistency.test_pointedness"),
        "consistency.epsilon_trials": rec.counts["consistency.epsilon_trials"] / n,
        "consistency.epsilon_search_ms": ms("consistency.epsilon_search"),
        "lp.solve_calls": per_op("lp.solve"),
        "lp.solve_ms": ms("lp.solve"),
        "lp.build_ms": ms("lp.build"),
        "lp.tableau_cells": rec.counts["lp.tableau_cells"] / n,
        "lp.highs_ms": rec.counts["lp.highs_ms"] / n,
        "cones.extreme_rays_calls": per_op("cones.extreme_rays"),
        "cones.extreme_rays_ms": ms("cones.extreme_rays"),
        "cones.facets": rec.counts["cones.facets"] / n,
        "cones.nnls_calls": per_op("cones.nnls"),
        "cones.nnls_ms": ms("cones.nnls"),
        "valuefn.make_psi_ms": ms("valuefn.make_psi"),
        "valuefn.evaluate_batch_ms": ms("valuefn.evaluate_batch"),
        "valuefn.evaluate_batch.self_ms": own.get("valuefn.evaluate_batch", 0.0) * 1e3 / n,
        "valuefn.exterior_frac": statistics.fmean(exterior) if exterior else 0.0,
    }
    for layer in LAYERS:
        metrics[f"{layer}.self_ms"] = layer_self[layer]
        metrics[f"{layer}.self_share"] = layer_self[layer] / op_ms
    untraced_p50 = statistics.median(lat_a) * 1e3
    traced_p50 = statistics.median(lat_b) * 1e3
    metrics.update({
        "trace.op_ms": op_ms,
        "trace.untraced_p50_ms": untraced_p50,
        "trace.traced_p50_ms": traced_p50,
        "trace.overhead_ms": traced_p50 - untraced_p50,
    })
    return {
        "ops": n,
        "ops_untraced": len(lat_a),
        "trace_subset": len(order),
        "missing_targets": rec.missing,
        "metrics": metrics,
        "answers": answers_a + answers_b,
    }


def _check(workload: str, work: Path, answers) -> list[str]:
    """Reasons for every answer that fails its reference check."""
    import numpy as np

    from checks import Checker

    inputs = work / "inputs"
    texts = [f.read_text(encoding="utf-8") for f in sorted(inputs.glob("*.json"))]
    truth = json.loads((work / "truth.json").read_text(encoding="utf-8"))
    resid = points = None
    if workload == "score-batch":
        resid = np.load(work / "truth_resid.npy")
        points = np.load(inputs / "points.npy")
    checker = Checker(texts, truth, resid=resid, points=points)
    check = {"cli-small": checker.cli, "score-batch": checker.psi}[workload]
    failures = []
    for k, ans, err in answers:
        if err is None:
            err = check(k, ans)
        if err is not None:
            failures.append(err)
    return failures


if __name__ == "__main__":
    sys.exit(main())
