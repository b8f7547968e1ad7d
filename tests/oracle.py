"""Brute-force verifiers used by the test suite and the audit script.

Nothing here is imported by the engine: the distance oracle, the LP basis
enumerator, the geometric and the exact-rational pointedness tests, the
shrunk cone's feasibility program, the LP-trial epsilon search and the
sampled property checker exist to pin expected values independently of the
code paths they audit.  The per-point membership and distance functions
are the references for the label and value ``evaluate_batch`` computes for
a whole batch.  Everything is deterministic under a fixed seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from itertools import combinations
from math import gcd, lcm
from typing import Any, NamedTuple

import numpy as np

from prefcone import (
    MaxIterExceededError,
    NotPointedError,
    NumericalError,
    PreferenceInstance,
    PrefconeError,
    ValueFunctionHandle,
    WholeSpaceError,
    evaluate_batch,
    generators,
)
from prefcone.lp import StandardLP, build_pointedness_lp, solve
from prefcone.cones import (
    _ACTIVITY_TOL,
    CLASSIFY_TOL,
    FacetCone,
    _cold,
    _unit_generators,
    extreme_rays,
)
from prefcone.consistency import Z_STAR_TOL

__all__ = [
    "MembershipClass",
    "ProgramVerdict",
    "PropertyViolation",
    "TooLargeError",
    "backtrack_epsilon",
    "shrunk_pointedness",
    "search_outcome",
    "brute_dist_to_cone",
    "classify",
    "cold_nnls",
    "cone_columns",
    "dist_to_cone",
    "dist_to_complement",
    "dd_pointed_loop",
    "dd_exact",
    "enumerate_lp_optimum",
    "masked_pivot",
    "is_pointed_geometric",
    "exact_pointed",
    "check_properties",
]


class TooLargeError(PrefconeError):
    """An exhaustive oracle was asked for a size beyond its cap."""

    code = "TOO_LARGE"


@dataclass(frozen=True)
class PropertyViolation:
    """One sampled invariant failure; only recorded when the gap beats the tolerance."""

    prop: str
    witness: dict[str, Any]
    lhs: float
    rhs: float
    gap: float


class MembershipClass(Enum):
    INTERIOR = "interior"
    BOUNDARY = "boundary"
    EXTERIOR = "exterior"


def classify(y: np.ndarray, facets: FacetCone) -> MembershipClass:
    """Interior/boundary/exterior of the facet-described cone, with a scaled tolerance."""
    if facets.is_whole_space:
        raise WholeSpaceError(
            "the cone is the whole space; its complement is empty and membership is trivial"
        )
    y = np.asarray(y, dtype=float)
    margin = float((facets.facet_normals @ y).min())
    threshold = CLASSIFY_TOL * (1.0 + float(np.linalg.norm(y)))
    if margin > threshold:
        return MembershipClass.INTERIOR
    if margin < -threshold:
        return MembershipClass.EXTERIOR
    return MembershipClass.BOUNDARY


def cone_columns(gens: np.ndarray) -> np.ndarray:
    """(p, t+p) generators of the cone of the ``(t, p)`` judgement generators
    and the orthant: the judgement columns, then the unit axes, in the order
    of a ``FacetCone``'s generator rows."""
    G = np.atleast_2d(np.asarray(gens, dtype=float))
    return np.vstack([G, np.eye(G.shape[1])]).T


def cold_nnls(G: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Distances of the rows of the ``(B, p)`` stack Y to the cone of the
    ``(p, n)`` columns G, with no facet start: the engine's cold solve,
    ``cones._cold``, on the unit columns of ``cones._unit_generators``, under
    the cap ``3 * n * p`` that ``nnls`` sets for n nonzero generators.  On
    ``cone_columns(gens)`` it is bit for bit the cold answer on the record
    of ``extreme_rays(gens)``."""
    unit = _unit_generators(G.T)
    return _cold(unit, Y, 3 * unit.size)


def dist_to_cone(y: np.ndarray, gens: np.ndarray) -> float:
    """Euclidean distance from y to the cone of ``gens`` and the orthant.

    The residual of the engine's cold solve (:func:`cold_nnls`) on the
    judgement and axis generators, one point at a time, as a 1-row stack.
    Zero (within 1e-8) exactly when y is inside the closed cone.
    """
    return float(cold_nnls(cone_columns(gens), np.asarray(y, dtype=float)[None])[0])


def dist_to_complement(y: np.ndarray, facets: FacetCone) -> float:
    """Euclidean distance from y to the complement of the cone.

    Zero unless y is interior; for interior points the distance to the
    complement of a convex cone equals the smallest distance to a facet
    hyperplane, i.e. the minimum of a.y over unit facet normals.
    """
    y = np.asarray(y, dtype=float)
    if classify(y, facets) is not MembershipClass.INTERIOR:
        return 0.0
    return float((facets.facet_normals @ y).min())


def brute_dist_to_cone(
    y: np.ndarray,
    gens: np.ndarray,
    samples: int = 1000,
    refine_rounds: int = 120,
) -> float:
    """Upper bound on the distance from y to the cone of ``gens`` and the
    orthant, no projections involved.

    Random nonnegative coefficient vectors seed a cyclic coordinate descent
    on ||G.coef - y|| over coef >= 0; each coordinate update is the exact
    one-dimensional minimizer, so the refinement converges to the true
    distance from any start.  Use as a >=-oracle against the engine.
    """
    if samples < 1000:
        raise ValueError("need at least 1000 samples for a trustworthy bound")
    y = np.asarray(y, dtype=float)
    G = cone_columns(gens)  # (p, n)
    n = G.shape[1]
    col_sq = np.einsum("ij,ij->j", G, G)
    rng = np.random.default_rng(int(np.abs(y).sum() * 1e6) % (2**32))

    scales = np.linalg.norm(y) / np.sqrt(col_sq.max()) + 1.0
    cloud = rng.uniform(0.0, scales, size=(samples, n))
    cloud[0] = 0.0
    residuals = np.linalg.norm(cloud @ G.T - y, axis=1)
    starts = cloud[np.argsort(residuals)[:4]]

    best = np.inf
    for coef in starts:
        coef = coef.copy()
        resid = y - G @ coef
        for _ in range(refine_rounds):
            for j in range(n):
                if col_sq[j] == 0.0:
                    continue
                step = (G[:, j] @ resid) / col_sq[j]
                new = max(0.0, coef[j] + step)
                delta = new - coef[j]
                if delta != 0.0:
                    resid -= delta * G[:, j]
                    coef[j] = new
        best = min(best, float(np.linalg.norm(resid)))
    return best


def is_pointed_geometric(gens: np.ndarray) -> bool:
    """Pointedness of the cone of ``gens`` and the orthant, decided purely
    from dual geometry.

    The primal is pointed iff its dual {d : d >= 0, g.d >= 0} is
    full-dimensional: the dual's extreme rays must span R^p and their sum
    must satisfy every dual constraint strictly.  Serves as an oracle
    independent of the LP test.
    """
    facets = extreme_rays(gens)
    if facets.is_whole_space:
        return False
    rays = facets.facet_normals
    p = rays.shape[1]
    if np.linalg.matrix_rank(rays, tol=1e-9) < p:
        return False
    witness = rays.sum(axis=0)
    return bool((cone_columns(gens).T @ witness).min() > 1e-9)


def exact_pointed(gens: np.ndarray) -> bool:
    """Exact pointedness of the cone of ``gens`` and the orthant.

    The cone is not pointed iff some y >= 0, y != 0, has G^T y <= 0
    (Gordan's alternative on [G; I]), that is, iff the engine's margin
    program max 1.y s.t. G^T y <= 1, y >= 0 is unbounded.  Bland's rule
    runs on it in Fraction from the slack basis, where y = 0 is feasible.
    Every float64 is a dyadic rational, so the data, and the answer, are
    exact.
    """
    G = np.atleast_2d(np.asarray(gens, dtype=float))
    t, p = G.shape
    one, zero = Fraction(1), Fraction(0)
    # row i: G[:, i].y + s_i = 1; columns y_0..y_{t-1}, s_0..s_{p-1}, then the rhs
    rows = [
        [Fraction(g) for g in G[:, i]] + [one if k == i else zero for k in range(p)] + [one]
        for i in range(p)
    ]
    cost = [one] * t + [zero] * p  # reduced costs; a positive one may enter
    basis = list(range(t, t + p))
    while (col := next((j for j, c in enumerate(cost) if c > 0), None)) is not None:
        ratios = [(r[-1] / r[col], basis[i], i) for i, r in enumerate(rows) if r[col] > 0]
        if not ratios:
            return False  # an unbounded ray: y >= 0 with G^T y <= 0
        row = min(ratios)[2]  # Bland: ties go to the smallest basic index
        pivot = rows[row] = [v / rows[row][col] for v in rows[row]]
        for i, r in enumerate(rows):
            if i != row and r[col]:
                rows[i] = [a - r[col] * b for a, b in zip(r, pivot)]
        cost = [a - cost[col] * b for a, b in zip(cost, pivot)]
        basis[row] = col
    return True


def dd_pointed_loop(A: np.ndarray) -> np.ndarray:
    """Double description with the adjacency test as a plain loop.

    The reference for ``prefcone.cones._dd_pointed``: the same insertion
    order, tolerances and per-pair ray formula, so its rays must agree
    bit for bit.  Its triple loop is O(pairs * rays) in Python.
    """
    m, q = A.shape
    base: list[int] = []
    for i in range(m):
        if np.linalg.matrix_rank(A[base + [i]]) > len(base):
            base.append(i)
            if len(base) == q:
                break
    rays = np.linalg.inv(A[base]).T
    rays /= np.linalg.norm(rays, axis=1)[:, None]
    processed = list(base)
    for i in (j for j in range(m) if j not in base):
        vals = rays @ A[i]
        pos = vals > _ACTIVITY_TOL
        neg = vals < -_ACTIVITY_TOL
        if not neg.any():
            processed.append(i)
            continue
        new = []
        if pos.any():
            active = np.abs(rays @ A[processed].T) <= _ACTIVITY_TOL
            for u in np.flatnonzero(pos):
                for w in np.flatnonzero(neg):
                    common = active[u] & active[w]
                    if any(
                        v != u and v != w and active[v][common].all()
                        for v in range(rays.shape[0])
                    ):
                        continue
                    ray = vals[u] * rays[w] - vals[w] * rays[u]
                    ray /= np.linalg.norm(ray)
                    new.append(ray)
        rays = np.vstack([rays[~neg]] + new)
        processed.append(i)
        if rays.shape[0] == 0:
            break
    return rays


def dd_exact(hrep: np.ndarray) -> list[tuple[int, ...]]:
    """Extreme rays of {d : row.d >= 0 for all rows}, in exact arithmetic.

    The reference for the facet count of ``prefcone.cones.extreme_rays``:
    :func:`dd_pointed_loop` repeats the float algorithm, this does not.
    Float entries are dyadic rationals, so each row scales exactly to an
    integer vector.  Double description then runs on integer rays divided
    by their gcd, one per direction, and tests adjacency combinatorially on
    exact active sets (bit masks of the rows inserted so far).  Zero rows
    are dropped.  Practical to about p <= 6, t <= 20.  Raises ValueError
    when the rows have rank below p, i.e. the cone contains a line.
    """
    A = np.atleast_2d(np.asarray(hrep, dtype=float))
    q = A.shape[1]
    rows = [_integer_vector(row) for row in A if row.any()]
    base: list[int] = []
    for i in range(len(rows)):
        if len(base) < q and _exact_rank([rows[j] for j in base + [i]]) > len(base):
            base.append(i)
    if len(base) < q:
        raise ValueError("hrep rows have rank below p; the cone is not pointed")
    rays = _inverse_columns([rows[j] for j in base])  # ray j: active on base rows but j
    active = [sum(1 << i for i in base if i != j) for j in base]
    for k in (i for i in range(len(rows)) if i not in base):
        vals = [sum(x * a for x, a in zip(ray, rows[k])) for ray in rays]
        new = []
        for u in (i for i, v in enumerate(vals) if v > 0):
            for w in (i for i, v in enumerate(vals) if v < 0):
                common = active[u] & active[w]
                if any(v not in (u, w) and act & common == common for v, act in enumerate(active)):
                    continue
                ray = [vals[u] * y - vals[w] * x for x, y in zip(rays[u], rays[w])]
                new.append((_primitive(ray), common | 1 << k))
        keep = [i for i, v in enumerate(vals) if v >= 0]
        active = [active[i] | (vals[i] == 0) << k for i in keep] + [act for _, act in new]
        rays = [rays[i] for i in keep] + [ray for ray, _ in new]
    return rays


def _integer_vector(values) -> tuple[int, ...]:
    """The primitive integer vector along a vector of rationals (floats are exact)."""
    fractions = [Fraction(v) for v in values]
    den = lcm(*(f.denominator for f in fractions))
    return _primitive([f.numerator * (den // f.denominator) for f in fractions])


def _primitive(vector: list[int]) -> tuple[int, ...]:
    g = gcd(*vector)
    return tuple(x // g for x in vector)


def _exact_rank(rows: list[tuple[int, ...]]) -> int:
    """Rank of integer rows, by Gaussian elimination over the rationals."""
    mat = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    for col in range(len(mat[0])):
        pivot = next((i for i in range(rank, len(mat)) if mat[i][col]), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        for i in range(rank + 1, len(mat)):
            f = mat[i][col] / mat[rank][col]
            mat[i] = [a - f * b for a, b in zip(mat[i], mat[rank])]
        rank += 1
    return rank


def _inverse_columns(square: list[tuple[int, ...]]) -> list[tuple[int, ...]]:
    """The columns of an invertible integer matrix's inverse, as primitive integer
    vectors (Gauss-Jordan elimination over the rationals)."""
    n = len(square)
    aug = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
           for i, row in enumerate(square)]
    for col in range(n):
        pivot = next(i for i in range(col, n) if aug[i][col])
        aug[col], aug[pivot] = aug[pivot], aug[col]
        aug[col] = [x / aug[col][col] for x in aug[col]]
        for i in range(n):
            if i != col and aug[i][col]:
                f = aug[i][col]
                aug[i] = [a - f * b for a, b in zip(aug[i], aug[col])]
    return [_integer_vector([aug[i][n + j] for i in range(n)]) for j in range(n)]


class ProgramVerdict(NamedTuple):
    pointed: bool
    z_star: float
    certificate: np.ndarray | None


def shrunk_pointedness(inst: PreferenceInstance, epsilon: float) -> ProgramVerdict:
    """The paper's feasibility program on the cone shrunk by ``epsilon``.

    The program on the generators ``x_j - x_k - epsilon``, unscaled: pointed
    iff its optimum is at most ``Z_STAR_TOL``, with the d part as
    certificate (d >= 1 and ``gen_j . d >= 1``).  At ``epsilon = 0`` it is
    the reference for the package's margin-program verdict; the absolute
    threshold misreads some pointed cones scaled to 1e9 or 1e-9.  The
    objective is bounded below by 0, so an unbounded read raises
    NumericalError.
    """
    sol = solve(build_pointedness_lp(generators(inst, epsilon)))
    if sol.status == "unbounded":
        raise NumericalError("the feasibility program, bounded below by 0, read as unbounded")
    z_star = float(sol.objective_value)
    pointed = z_star <= Z_STAR_TOL
    return ProgramVerdict(pointed, z_star, sol.values[: inst.p].copy() if pointed else None)


def backtrack_epsilon(inst: PreferenceInstance) -> float:
    """``prefcone.epsilon_search`` as one pointedness LP per schedule value.

    The reference for the engine's single margin LP: test the unperturbed
    cone, then return the first positive ``0.01 * 0.5**i`` whose shrunk
    cone the full feasibility program finds pointed.  The schedule ends
    where it underflows to 0.0.
    """
    if not shrunk_pointedness(inst, 0.0).pointed:
        raise NotPointedError("the preference cone is not pointed; no perturbation can be")
    i = 0
    while (eps := 0.5**i * 1e-2) > 0.0:
        if shrunk_pointedness(inst, eps).pointed:
            return eps
        i += 1
    raise MaxIterExceededError("no positive schedule value from 0.01 keeps the cone pointed")


def search_outcome(search, inst: PreferenceInstance):
    """``search(inst)``, or the type of the search error it raises, for comparison."""
    try:
        return search(inst)
    except (NotPointedError, MaxIterExceededError) as exc:
        return type(exc)


def masked_pivot(T: np.ndarray, row: int, col: int) -> None:
    """The simplex pivot that updates only the rows with a nonzero in ``col``.

    The reference for ``lp._pivot``, which updates every row; while the
    pivot row is finite the two agree up to the sign of zeros.
    """
    T[row] /= T[row, col]
    hit = T[:, col] != 0.0
    hit[row] = False
    T[hit] -= T[hit, col, None] * T[row]
    T[:, col] = 0.0
    T[row, col] = 1.0


def enumerate_lp_optimum(lp: StandardLP, max_rows: int = 6, max_vars: int = 14) -> float:
    """Exact optimum by scanning every basic feasible solution of a small LP."""
    A, b, c = lp.constraint_matrix, lp.rhs, lp.objective
    n_rows, n_vars = A.shape
    if n_rows > max_rows or n_vars > max_vars:
        raise TooLargeError(
            f"enumeration capped at {max_rows} rows / {max_vars} variables, "
            f"got {n_rows}x{n_vars}"
        )
    best = np.inf
    for cols in combinations(range(n_vars), n_rows):
        B = A[:, cols]
        try:
            x_b = np.linalg.solve(B, b)
        except np.linalg.LinAlgError:
            continue
        if np.linalg.norm(B @ x_b - b) > 1e-8 * (1.0 + np.linalg.norm(b)):
            continue
        if x_b.min() < -1e-9:
            continue
        best = min(best, float(c[list(cols)] @ x_b))
    if not np.isfinite(best):
        raise ValueError("no basic feasible solution found")
    return best


def check_properties(
    handle: ValueFunctionHandle,
    n_samples: int = 1000,
    seed: int = 0,
    judgement_points: np.ndarray | None = None,
) -> list[PropertyViolation]:
    """Sampled audit of every invariant the value functions promise.

    Draws ``n_samples`` base points in [-10, 10]^p and derives pairs,
    midpoints, and bumped points from them.  Which checks run depends on
    the handle kind: concavity and monotonicity always; Lipschitz-2, the
    sign pattern, and cone monotonicity for the signed-distance kinds; weak
    or strict separation at the judgement points for psi/vartheta; strict
    linear separation when ``judgement_points`` is supplied for a linear
    handle.  ``judgement_points``, the instance's preferred alternatives,
    is required for psi and vartheta handles.
    """
    if handle.kind != "linear" and judgement_points is None:
        raise ValueError(f"a {handle.kind} handle needs its judgement points")
    rng = np.random.default_rng(seed)
    p = handle.p
    out: list[PropertyViolation] = []

    X = rng.uniform(-10.0, 10.0, size=(n_samples, p))
    vals = evaluate_batch(handle, X)

    half = n_samples // 2
    A, B = X[:half], X[half : 2 * half]
    fa, fb = vals[:half], vals[half : 2 * half]
    lam = rng.uniform(0.0, 1.0, size=half)
    mid = lam[:, None] * A + (1.0 - lam)[:, None] * B
    fmid = evaluate_batch(handle, mid)

    tol = 1e-9 if handle.kind == "linear" else 1e-7
    mix = lam * fa + (1.0 - lam) * fb
    for i in np.flatnonzero(fmid < mix - tol):
        out.append(
            PropertyViolation(
                "concavity",
                {"x": A[i].tolist(), "y": B[i].tolist(), "lam": float(lam[i])},
                float(fmid[i]),
                float(mix[i]),
                float(mix[i] - fmid[i]),
            )
        )

    bump = rng.uniform(0.0, 5.0, size=(half, p))
    fbump = evaluate_batch(handle, A + bump)
    for i in np.flatnonzero(fa > fbump + 1e-9):
        out.append(
            PropertyViolation(
                "monotonicity",
                {"x": A[i].tolist(), "bump": bump[i].tolist()},
                float(fa[i]),
                float(fbump[i]),
                float(fa[i] - fbump[i]),
            )
        )

    if handle.kind in ("psi", "vartheta"):
        out += _signed_distance_checks(handle, rng, X, vals, A, B, fa, fb)
        out += _separation_checks(handle, judgement_points)
    elif judgement_points is not None:
        ref_val = float(handle.weights @ handle.reference)
        for xj in np.atleast_2d(judgement_points):
            val = float(handle.weights @ xj)
            if not val > ref_val + 1e-9:
                out.append(
                    PropertyViolation(
                        "linear_separation",
                        {"x_j": list(map(float, xj))},
                        val,
                        ref_val,
                        ref_val - val,
                    )
                )
    return out


def _signed_distance_checks(handle, rng, X, vals, A, B, fa, fb):
    out = []
    lips = np.abs(fa - fb) - 2.0 * np.linalg.norm(A - B, axis=1)
    for i in np.flatnonzero(lips > 1e-9):
        out.append(
            PropertyViolation(
                "lipschitz_2",
                {"x": A[i].tolist(), "y": B[i].tolist()},
                float(np.abs(fa - fb)[i]),
                float(2.0 * np.linalg.norm(A[i] - B[i])),
                float(lips[i]),
            )
        )

    Y = X - handle.reference
    margins = (handle.facet_cone.facet_normals @ Y.T).min(axis=0)
    thresholds = 1e-9 * (1.0 + np.linalg.norm(Y, axis=1))
    interior = margins > thresholds
    exterior = margins < -thresholds
    boundary = ~interior & ~exterior
    bad_sign = (
        (interior & (vals <= 0.0))
        | (exterior & (vals >= 0.0))
        | (boundary & (np.abs(vals) > 1e-8))
    )
    for i in np.flatnonzero(bad_sign):
        out.append(
            PropertyViolation(
                "sign_pattern",
                {"x": X[i].tolist(), "margin": float(margins[i])},
                float(vals[i]),
                0.0,
                float(abs(vals[i])),
            )
        )

    # shifts along the cone keep the value from dropping
    half = A.shape[0]
    G = handle.facet_cone.generators
    lam = rng.uniform(0.0, 1.0, size=(half, G.shape[0]))
    Z = lam @ G
    fshift = evaluate_batch(handle, A + Z)
    for i in np.flatnonzero(fa > fshift + 1e-9):
        out.append(
            PropertyViolation(
                "cone_monotonicity",
                {"x": A[i].tolist(), "shift": Z[i].tolist()},
                float(fa[i]),
                float(fshift[i]),
                float(fa[i] - fshift[i]),
            )
        )
    return out


def _separation_checks(handle, judgement_points):
    out = []
    ref_val = float(evaluate_batch(handle, handle.reference[None, :])[0])
    if abs(ref_val) > 1e-8:
        out.append(
            PropertyViolation(
                "reference_value_zero",
                {"x_k": handle.reference.tolist()},
                ref_val,
                0.0,
                abs(ref_val),
            )
        )
    points = np.atleast_2d(np.asarray(judgement_points, dtype=float))
    jvals = evaluate_batch(handle, points)
    if handle.kind == "psi":
        for xj, val in zip(points, jvals):
            if val < ref_val - 1e-9:
                out.append(
                    PropertyViolation(
                        "weak_separation",
                        {"x_j": xj.tolist()},
                        float(val),
                        ref_val,
                        float(ref_val - val),
                    )
                )
    else:
        for xj, val in zip(points, jvals):
            if not val > ref_val + 1e-9:
                out.append(
                    PropertyViolation(
                        "strict_separation",
                        {"x_j": xj.tolist()},
                        float(val),
                        ref_val,
                        float(ref_val - val),
                    )
                )
    return out
