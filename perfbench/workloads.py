"""Seeded workload generators and the HiGHS / scipy references they record.

Each generator draws its instances from one ``numpy.random.Generator`` seeded
by the caller, so a seed fixes every input bit for bit.  Judgements come from
a random positive linear scorer; a noisy scorer supplies the inconsistent
quarter of the cli-small instances.  The truth for every instance is decided
here by HiGHS (``scipy.optimize.linprog``), never by the package under test,
and candidates whose HiGHS margin is too close to the consistency boundary
are redrawn so that the truth is unambiguous at any sane tolerance.

This module must not import ``prefcone``: the program under test receives
only the files written by :func:`generate`.
"""

from __future__ import annotations

import json
import zlib
from pathlib import Path

import numpy as np
from scipy.optimize import linprog, nnls

# |HiGHS margin| below this (on unit-length generators) is too close to the
# consistency boundary to serve as a reference; such candidates are redrawn.
MARGIN_MIN = 1e-4
INCONSISTENT_EVERY = 4  # a quarter of the cli-small instances

# Generator parameters per workload; BENCHMARK.json says why each exists.
WORKLOADS = {
    "cli-small": {
        "op": "prefcone.cli.run(['test', path]) with stdout captured",
        "n": 300, "t": (2, 8), "p": (2, 4), "others": (0, 2),
        "points": 0, "n_trace": 150,
    },
    "score-batch": {
        "op": "make_psi(inst) then evaluate_batch(handle, points)",
        "n": 80, "t": (20, 20), "p": (4, 4), "others": (0, 2),
        "points": 1000, "n_trace": 20,
        "exterior_share": 0.8,
    },
}


def generate(workload: str, seed: int, out_dir: Path) -> dict:
    """Write the inputs and the reference truth for one workload and seed.

    Layout under ``out_dir``: ``inputs/NNNN.json`` (one instance file each),
    ``inputs/points.npy`` for score-batch, and ``truth.json`` (plus
    ``truth_resid.npy`` for score-batch) which only the checker reads.
    Returns the recorded parameters and the consistent/inconsistent split.
    """
    spec = WORKLOADS[workload]
    rng = np.random.default_rng([seed, zlib.crc32(workload.encode())])
    n = spec["n"]
    # Every fourth instance is inconsistent, so any run of consecutive inputs
    # has the same split: a time-limited loop then sees the same op mix, and
    # so a comparable throughput, on every seed.
    kinds = np.arange(n) % INCONSISTENT_EVERY != INCONSISTENT_EVERY - 1
    if spec["points"]:
        kinds[:] = True

    inputs = out_dir / "inputs"
    inputs.mkdir(parents=True)
    truth = []
    all_points, all_resid = [], []
    redraws = 0
    for i, want_pointed in enumerate(kinds):
        while True:
            alts, ref, pref = _draw(rng, spec, noisy=not want_pointed)
            margin = highs_margin(alts[pref] - alts[ref])
            if (margin > MARGIN_MIN) if want_pointed else (margin < -MARGIN_MIN):
                break
            redraws += 1
        doc = {"alternatives": alts.tolist(), "reference_index": ref,
               "preferred_indices": pref}
        (inputs / f"{i:04d}.json").write_text(json.dumps(doc), encoding="utf-8")
        truth.append({"pointed": bool(want_pointed), "margin": margin})
        if spec["points"]:
            pts, resid = _points(rng, alts, ref, pref, spec)
            all_points.append(pts)
            all_resid.append(resid)
    if spec["points"]:
        np.save(inputs / "points.npy", np.stack(all_points))
        np.save(out_dir / "truth_resid.npy", np.stack(all_resid))
    params = {
        "workload": workload,
        "seed": seed,
        "instances": n,
        "consistent": int(kinds.sum()),
        "inconsistent": int(n - kinds.sum()),
        "redraws": redraws,
        "t_range": list(spec["t"]),
        "p_range": list(spec["p"]),
        "others_range": list(spec["others"]),
        "points_per_instance": spec["points"],
        "margin_min": MARGIN_MIN,
    }
    (out_dir / "truth.json").write_text(
        json.dumps({"params": params, "instances": truth}), encoding="utf-8"
    )
    return params


def _draw(rng, spec, noisy: bool):
    """One candidate instance: m distinct alternatives, judgements from a scorer.

    The reference is the alternative with exactly t higher scores, so every
    other alternative is either judged better or left unjudged.  The noisy
    scorer adds Gaussian noise of the score spread's size, which flips
    enough judgements to make the cone the whole space.
    """
    t = int(rng.integers(spec["t"][0], spec["t"][1] + 1))
    p = int(rng.integers(spec["p"][0], spec["p"][1] + 1))
    m = t + 1 + int(rng.integers(spec["others"][0], spec["others"][1] + 1))
    natural = rng.normal(size=(m, p))
    weights = rng.uniform(0.5, 2.0, size=p)
    scores = natural @ weights
    if noisy:
        scores = scores + rng.normal(0.0, scores.std(), size=m)
    order = np.argsort(-scores, kind="stable")
    ref = int(order[t])
    pref = [int(j) for j in rng.permutation(order[:t])]
    return natural, ref, pref


def highs_margin(gens: np.ndarray) -> float:
    """HiGHS optimum of max s s.t. g_j.d >= s, d >= s, sum d = 1, d >= 0.

    The generators are first scaled to unit length.  Positive means pointed
    (consistent), negative means the cone is the whole space (inconsistent).
    """
    G = gens / np.linalg.norm(gens, axis=1, keepdims=True)
    t, p = G.shape
    rows = np.vstack([-G, -np.eye(p)])
    A_ub = np.hstack([rows, np.ones((t + p, 1))])
    A_eq = np.hstack([np.ones((1, p)), np.zeros((1, 1))])
    c = np.zeros(p + 1)
    c[-1] = -1.0
    res = linprog(c, A_ub=A_ub, b_ub=np.zeros(t + p), A_eq=A_eq, b_eq=[1.0],
                  bounds=[(0, None)] * p + [(None, None)], method="highs")
    if res.status != 0:
        raise RuntimeError(f"HiGHS margin LP failed: {res.message}")
    return float(-res.fun)


def highs_pointed(gens: np.ndarray) -> bool:
    """HiGHS feasibility of d >= 1, g_j.d >= 1: true iff the cone is pointed."""
    t, p = gens.shape
    res = linprog(np.zeros(p), A_ub=-gens, b_ub=-np.ones(t),
                  bounds=[(1, None)] * p, method="highs")
    if res.status not in (0, 2):
        raise RuntimeError(f"HiGHS feasibility LP failed: {res.message}")
    return res.status == 0


def _points(rng, alts, ref, pref, spec):
    """Points around the reference: row 0 is the reference itself, then an
    exact ``exterior_share`` of points clearly outside the shifted cone and
    the rest nonnegative combinations of its generators (inside it).

    Returns the points and their scipy NNLS distance to the cone, which is
    the reference for ``-psi`` on exterior points and 0 inside.
    """
    n_pts = spec["points"]
    x_ref = alts[ref]
    gens = np.vstack([alts[pref] - x_ref, np.eye(alts.shape[1])])
    scale = float(np.linalg.norm(alts[pref] - x_ref, axis=1).mean())
    n_ext = int(round((n_pts - 1) * spec["exterior_share"]))
    ext, ext_resid = [], []
    while len(ext) < n_ext:
        y = rng.normal(size=alts.shape[1])
        y *= scale * rng.uniform(0.1, 1.0) / np.linalg.norm(y)
        resid = nnls(gens.T, y)[1]
        if resid > 1e-3 * np.linalg.norm(y):
            ext.append(y)
            ext_resid.append(resid)
    lam = rng.exponential(size=(n_pts - 1 - n_ext, gens.shape[0]))
    lam *= rng.random(size=lam.shape) < 0.5
    inside = lam @ gens
    inside *= scale * rng.uniform(0.1, 1.0, size=(len(inside), 1)) / np.maximum(
        np.linalg.norm(inside, axis=1, keepdims=True), 1e-12
    )
    ys = np.vstack([np.array(ext), inside])
    resid = np.concatenate([ext_resid, np.zeros(len(inside))])
    perm = rng.permutation(len(ys))
    ys, resid = ys[perm], resid[perm]
    points = np.vstack([x_ref, x_ref + ys])
    return points, np.concatenate([[0.0], resid])
