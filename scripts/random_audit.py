#!/usr/bin/env python3
"""Randomized equivalence audit.

Draws random integer-coordinate instances and checks, for each, that six
routes to the consistency answer agree: strict linear separation by the
margin LP's weights (the engine's verdict), the strict signed-distance
construction on a shrunk cone, dual-cone full-dimensionality, a zero optimum
of the paper's feasibility program (the ``paper`` column, from
``shrunk_pointedness`` of ``tests/oracle.py`` at epsilon 0), HiGHS (scipy's
``linprog``) finding d >= 1 with g_j.d >= 1 for every judgement direction,
and the exact-rational simplex of ``tests/oracle.py``, which is the truth.
Also runs the sampled value-function property checks on every instance
whose cone has a nonempty complement, checks that the engine's epsilon search returns
the value (or raises the error) of the LP-trial reference search, on the
draw and on a copy scaled by 2^-k that moves eps* down the schedule,
checks psi's exterior values against scipy's NNLS distance to the cone of
every generator, and checks that double description finds as many facets
as the exact-rational double description of ``tests/oracle.py``.
"""

from __future__ import annotations

import argparse
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np
from scipy.optimize import linprog
from scipy.optimize import nnls as scipy_nnls

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
from _helpers import random_instance  # noqa: E402
from oracle import (  # noqa: E402
    backtrack_epsilon,
    check_properties,
    cone_columns,
    dd_exact,
    exact_pointed,
    is_pointed_geometric,
    search_outcome,
    shrunk_pointedness,
)

from prefcone import (  # noqa: E402
    NotPointedError,
    PrefconeError,
    PreferenceInstance,
    WholeSpaceError,
    epsilon_search,
    evaluate,
    evaluate_batch,
    extract_linear_weights,
    generators,
    make_psi,
    make_vartheta,
)
from prefcone.cones import extreme_rays  # noqa: E402


def scaled_copy(inst, k: int):
    """The draw with its alternatives scaled by 2^-k, which scales eps* exactly.

    The schedule 0.01 * 2^-i passes on its first value for most draws; on
    the copy it stops next to eps*, further down.
    """
    return PreferenceInstance(
        inst.alternatives * 2.0**-k, inst.reference_index, inst.preferred_indices
    )


def projection_mismatches(psi, gens: np.ndarray, seed: int, n_samples: int) -> int:
    """Exterior points where psi is not minus scipy's NNLS distance to the cone
    of every generator, the judgement generators ``gens`` plus the axes, as
    the instance gives them rather than as psi's cone record holds them."""
    rng = np.random.default_rng(seed)
    X = psi.reference + rng.normal(scale=3.0, size=(n_samples, psi.p))
    values = evaluate_batch(psi, X)
    G = cone_columns(gens)
    return sum(
        abs(-value - scipy_nnls(G, y)[1]) > 1e-9 * (1.0 + np.linalg.norm(y))
        for value, y in zip(values, X - psi.reference)
        if value < 0
    )


def highs_pointed(inst) -> bool:
    """HiGHS feasibility of d >= 1, g_j.d >= 1: true iff the cone is pointed."""
    G = generators(inst, 0.0)
    res = linprog(np.zeros(inst.p), A_ub=-G, b_ub=-np.ones(len(G)), bounds=(1, None),
                  method="highs")
    if res.status not in (0, 2):
        raise RuntimeError(f"HiGHS failed: {res.message}")
    return res.status == 0


def audit_one(
    inst, seed: int, n_samples: int
) -> tuple[tuple[bool, ...], int, bool, int, str | None, bool]:
    gens = generators(inst, 0.0)
    by_paper = shrunk_pointedness(inst, 0.0).pointed
    by_highs = highs_pointed(inst)
    by_geometry = is_pointed_geometric(gens)
    try:
        weights = extract_linear_weights(inst)
        ref = float(weights @ inst.reference)
        by_linear = all(
            float(weights @ inst.alternatives[j]) > ref for j in inst.preferred_indices
        )
    except NotPointedError:
        by_linear = False
    try:
        handle = make_vartheta(inst)
        ref = evaluate(handle, inst.reference)
        by_strict = all(
            evaluate(handle, inst.alternatives[j]) > ref for j in inst.preferred_indices
        )
    except NotPointedError:
        by_strict = False

    violations = mismatches = 0
    failure = None  # the code of a PrefconeError raised while building or evaluating psi
    try:
        psi = make_psi(inst)
        points = inst.alternatives[list(inst.preferred_indices)]
        violations = len(check_properties(psi, n_samples, seed=seed, judgement_points=points))
        mismatches = projection_mismatches(psi, gens, seed, n_samples)
    except WholeSpaceError:
        pass
    except PrefconeError as exc:
        failure = exc.code
    epsilon_agrees = all(
        search_outcome(epsilon_search, case) == search_outcome(backtrack_epsilon, case)
        for case in (inst, scaled_copy(inst, 1 + seed % 16))
    )
    hrep = np.vstack([np.eye(inst.p), gens])
    facets_agree = extreme_rays(gens).n_facets == len(dd_exact(hrep))
    row = (by_linear, by_strict, by_geometry, by_paper, by_highs, exact_pointed(gens))
    return row, violations, epsilon_agrees, mismatches, failure, facets_agree


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("-n", "--instances", type=int, default=100)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--samples", type=int, default=1000)
    args = parser.parse_args()

    rng = np.random.default_rng(args.seed)
    rows = Counter()
    total_violations = 0
    mixed = 0
    epsilon_mismatches = 0
    total_mismatches = 0
    projection_failures = 0
    facet_mismatches = 0
    start = time.perf_counter()
    for i in range(args.instances):
        inst = random_instance(rng)
        row, violations, epsilon_agrees, mismatches, failure, facets_agree = audit_one(
            inst, seed=args.seed + i, n_samples=args.samples
        )
        if mismatches:
            print(f"PROJECTION MISMATCH at instance {i}: {mismatches} points")
        total_mismatches += mismatches
        if failure:
            projection_failures += 1
            print(f"PROJECTION FAILURE at instance {i}: {failure}")
        rows[row] += 1
        if not epsilon_agrees:
            epsilon_mismatches += 1
            print(f"EPSILON MISMATCH at instance {i}")
        if not facets_agree:
            facet_mismatches += 1
            print(f"FACET COUNT MISMATCH at instance {i}")
        total_violations += violations
        if len(set(row)) != 1:
            mixed += 1
            print(f"MIXED ROW at instance {i}: {row}")
    elapsed = time.perf_counter() - start

    print(f"instances: {args.instances}   elapsed: {elapsed:.1f}s")
    print("(linear, strict-signed-distance, geometric, paper, highs, exact) -> count")
    for row, count in sorted(rows.items()):
        print(f"  {row}: {count}")
    print(f"mixed rows: {mixed}")
    print(f"sampled property violations: {total_violations}")
    print(f"epsilon search mismatches: {epsilon_mismatches}")
    print(f"projection mismatches: {total_mismatches}")
    print(f"projection failures: {projection_failures}")
    print(f"facet count mismatches: {facet_mismatches}")
    if (mixed or total_violations or epsilon_mismatches or total_mismatches
            or projection_failures or facet_mismatches):
        sys.exit(1)


if __name__ == "__main__":
    main()
