"""The package's private cone engine: facets and projection of the preference cone.

The cone of interest is generated by the judgement directions plus the
nonnegative orthant, so it is always full-dimensional.  :func:`extreme_rays`
takes its judgement generators, as :func:`~prefcone.instance.generators`
returns them, and builds the cone's one record, a :class:`FacetCone`: the
generators at unit length, each scaled once, and the facet normals, the
extreme rays of the dual cone, found by the double description method.
:func:`nnls` gives points' distances to the cone of a record by
Lawson-Hanson nonnegative least squares on its generators, started from
its facets.  Membership and the signed distances built from both live in
:func:`prefcone.valuefn.evaluate_batch`.

Nothing here is re-exported from ``prefcone``, and nothing here checks its
input: the generators come from a valid instance, so they are finite, and
the points are those ``evaluate_batch`` has checked, in float64 stacks.
Malformed input is outside the contract and raises no ``ValueError``.
``FacetCone`` is a plain record, built by :func:`extreme_rays` with unit
rows.  Cone objects are immutable and every operation here is a pure
function, safe for concurrent use.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionTooLargeError, NnlsMaxIterError

__all__ = [
    "CLASSIFY_TOL",
    "MAX_DD_DIM",
    "FacetCone",
    "extreme_rays",
    "nnls",
]

CLASSIFY_TOL = 1e-9
MAX_DD_DIM = 12

_ACTIVITY_TOL = 1e-9
_KKT_TOL = 1e-11  # Lawson-Hanson's stopping test: gradient <= _KKT_TOL * (1 + |y|)
_DD_BLOCK = 1 << 20  # cells per block of the DD pair arrays


@dataclass(frozen=True, eq=False)
class FacetCone:
    """One cone's record: its unit generators and its unit facet normals.

    ``generators`` holds the nonzero judgement generators in input order,
    then the p unit axes; the cone is their nonnegative combinations.
    ``facet_normals`` is its H-representation, cone = {y : a.y >= 0 for
    every normal a}.  The normals are the extreme rays of the dual cone.
    Because the primal contains the nonnegative orthant, every normal is
    componentwise nonnegative, and the dual is {0}, with no facets, exactly
    when the primal is all of R^p.
    """

    generators: np.ndarray  # (n, p) float64, unit rows: judgements, then the axes
    facet_normals: np.ndarray  # (k, p) float64, unit rows

    @property
    def n_facets(self) -> int:
        return self.facet_normals.shape[0]

    @property
    def is_whole_space(self) -> bool:
        return self.n_facets == 0


def extreme_rays(gens: np.ndarray) -> FacetCone:
    """The record of the cone generated by ``gens`` and the orthant.

    ``gens`` holds the ``(t, p)`` judgement generators, as
    :func:`~prefcone.instance.generators` returns them.
    :func:`_unit_generators` scales them to unit length, once; the record
    keeps them, then the p unit axes.  By bipolarity the facet normals are
    the extreme rays of the dual cone {d : d >= 0, g.d >= 0}.  Its
    half-space rows are the p unit axes, then the unit generators; the axis
    rows pin the dual inside the orthant, so it is pointed.  Double
    description (:func:`_dd_pointed`) finds the rays, bit for bit as a
    pair-by-pair loop would; they are unit-normalized and sorted for
    deterministic output.  No ray means the cone is the whole space.  The
    generators are a valid instance's, so finite; the dimension cap is the
    only check.
    """
    p = gens.shape[1]
    if p > MAX_DD_DIM:
        raise DimensionTooLargeError(
            f"double description capped at dimension {MAX_DD_DIM}, got {p}"
        )
    unit, axes = _unit_generators(gens), np.eye(p)
    rays = _dd_pointed(np.vstack([axes, unit]))
    rays = np.ascontiguousarray(rays)  # the row norms' rounding depends on memory order
    rays[np.abs(rays) < 1e-12] = 0.0
    rays /= np.linalg.norm(rays, axis=1)[:, None]
    order = np.lexsort(np.round(rays, 12).T[::-1])
    return FacetCone(np.vstack([unit, axes]), rays[order])


def _unit_generators(V: np.ndarray) -> np.ndarray:
    """The nonzero rows of ``V`` at unit length, in order.

    Each row is first divided by the power of two of its largest entry, an
    exact step, so its norm neither overflows nor underflows, and only
    exact zero rows are dropped.  :func:`extreme_rays` calls it once per
    cone, and the facets, the projection and its KKT check all see the
    generators it gives.  Every generator the package forms is finite:
    validation rejects an overflowing judgement, and a shrink of at most
    1e-2 cannot push one past float64.
    """
    V = np.ldexp(V, -np.frexp(np.abs(V).max(axis=1))[1][:, None])
    norms = np.linalg.norm(V, axis=1)
    live = np.flatnonzero(norms)
    return V[live] / norms[live, None]


def _dd_pointed(A: np.ndarray) -> np.ndarray:
    """Double description on {x : A.x >= 0}, whose first q rows are the unit axes.

    Starts from the orthant those rows cut out, whose rays are the unit
    axes, and inserts the other half-spaces one at a time, combining
    adjacent ray pairs across each cut.  An adjacent pair spans a 2-face of
    the current cone and its new ray lies inside that face, so each new ray
    is distinct (Fukuda & Prodon 1996) and nothing is deduplicated.
    """
    m, q = A.shape
    rays = np.eye(q)
    for i in range(q, m):  # processed rows: A[:i]
        vals = rays @ A[i]
        pos = vals > _ACTIVITY_TOL
        neg = vals < -_ACTIVITY_TOL
        if not neg.any():
            continue
        keep = rays[~neg]
        new = np.zeros((0, q))
        if pos.any():
            active = np.abs(rays @ A[:i].T) <= _ACTIVITY_TOL  # (n_rays, i)
            new = _adjacent_combinations(rays, vals, pos, neg, active)
        rays = np.concatenate((keep, new))
        if rays.shape[0] == 0:
            break
    return rays


def _adjacent_combinations(
    rays: np.ndarray, vals: np.ndarray, pos: np.ndarray, neg: np.ndarray, active: np.ndarray
) -> np.ndarray:
    """New rays on the cut: one per adjacent (u, w) pair, u in pos, w in neg.

    Pairs run in (u, w) C order.  Adjacent rays share at least q - 2 active
    constraints (Fukuda & Prodon's rank condition), so only pairs that do
    take the combinatorial test: the pair is adjacent when no third ray is
    active on all the constraints it shares.  Counts of shared constraints,
    one matmul per block of at most ``_DD_BLOCK`` cells, decide both.
    """
    act = active.astype(np.float32)  # its 0/1 sums are exact
    cut_pos, cut_neg = pos.nonzero()[0], neg.nonzero()[0]
    act_neg = act[cut_neg].T
    pairs = []
    step = max(1, _DD_BLOCK // cut_neg.size)
    sub = max(1, _DD_BLOCK // max(act.shape))
    for lo in range(0, cut_pos.size, step):
        bu, bw = (act[cut_pos[lo : lo + step]] @ act_neg >= rays.shape[1] - 2).nonzero()
        u, w = cut_pos[lo + bu], cut_neg[bw]
        adjacent = np.empty(u.size, dtype=bool)
        for s in range(0, u.size, sub):
            common = act[u[s : s + sub]] * act[w[s : s + sub]]  # (block, n_proc)
            # ray v is active on all of a pair's common set iff it shares as many
            contains = common @ act.T == common.sum(axis=1, keepdims=True)
            adjacent[s : s + sub] = contains.sum(axis=1) == 2  # u and w only
        pairs.append((u[adjacent], w[adjacent]))
    u, w = (np.concatenate(ix) for ix in zip(*pairs))
    new = vals[u][:, None] * rays[w] - vals[w][:, None] * rays[u]
    # each row scaled by its own 1-d norm, sqrt(r.dot(r)), bit for bit
    new /= np.sqrt(new[:, None, :] @ new[:, :, None])[:, 0]
    return new


def nnls(cone: FacetCone, target: np.ndarray) -> np.ndarray:
    """Distances of the rows of ``target`` to ``cone``, by Lawson-Hanson.

    ``cone`` is a record of :func:`extreme_rays` with at least one facet,
    and ``target`` a ``(B, p)`` float64 stack of points; the call returns
    the ``(B,)`` norms of the residuals min ||coef @ generators - y|| over
    coef >= 0, and the coefficients stay inside the solve.  The caller,
    :func:`~prefcone.valuefn.evaluate_batch`, passes points it has checked
    as finite, with no overflow in their distance, and raises
    WholeSpaceError on a cone with no facet; nothing here checks either
    again.  The rows of a stack run in lockstep, each at its own stage:
    each step solves every row that waits for its passive-set least squares
    in one stacked call (:func:`_passive_solve`), so a stack makes as many
    passive solves as its longest row alone.

    Each row starts on the generators tight on its most violated facet,
    ``argmin(facet_normals @ y)``: those g with ``|a.g| <= CLASSIFY_TOL``.
    Each facet that some row picks is factored once for all its rows.  A
    row's start set's least-squares solution, clipped to its positive part,
    is where Lawson-Hanson starts, and the usual blocking steps take a
    clipped row on.  The run uses only the generators tight on a picked
    facet, where the KKT test ends each row, so its arrays stay that
    narrow.  Each row then takes the same test on the other generators; a
    row that fails it, and every row when the narrow run passes the
    iteration cap, gets the cold answer of :func:`_cold` on every
    generator.  So each row is certified where it stands or answered cold,
    whether or not the facet list is complete, and on well-separated
    generators agrees with the cold answer to rounding.  On numerically
    parallel generators both can stop short of the optimum and agree to
    about 1e-10 only (README gives the measurement).  A start can hold two
    such generators, whose minimum-norm solution breaks Lawson-Hanson's
    invariant and can cycle; a cold run never makes both of them passive.

    A row stops when its gradient on every generator is at most ``_KKT_TOL
    * (1 + |y|)``.  Raises NnlsMaxIterError when a cold row's active-set
    loop exceeds ``3 * n * p`` iterations for the record's n generators (a
    sign of numerical pathology, not a routine outcome).
    """
    unit, facets = cone.generators, cone.facet_normals
    max_iter = 3 * unit.size
    picked, index = np.unique((facets @ target.T).argmin(axis=0), return_inverse=True)
    sets = np.abs(facets[picked] @ unit.T) <= CLASSIFY_TOL
    named = sets.any(axis=0)
    try:
        coef = _lawson_hanson(unit[named].T, target, (sets[:, named], index), max_iter)
    except NnlsMaxIterError:
        return _cold(unit, target, max_iter)
    R = target - coef @ unit[named]
    # each row's top gradient on the other generators; the (rest, B) product is freed at once
    top = (unit[~named] @ R.T).max(axis=0, initial=-np.inf)
    redo = np.flatnonzero(top > _KKT_TOL * (1.0 + np.linalg.norm(target, axis=1)))
    resid = np.linalg.norm(R, axis=1)
    if redo.size:
        resid[redo] = _cold(unit, target[redo], max_iter)
    return resid


def _cold(unit: np.ndarray, target: np.ndarray, max_iter: int) -> np.ndarray:
    """:func:`nnls` distances of the rows of ``target`` on the ``(n, p)``
    unit generators ``unit``, by Lawson-Hanson from an empty passive set."""
    return np.linalg.norm(target - _lawson_hanson(unit.T, target, None, max_iter) @ unit, axis=1)


def _lawson_hanson(
    Gn: np.ndarray, Y: np.ndarray, start: tuple[np.ndarray, np.ndarray] | None, max_iter: int
):
    """:func:`nnls` coefficients of the rows of Y on the unit columns Gn.

    ``start``, if given, is ``(sets, index)`` over Gn's columns, holding
    only sets that ``index`` names.  The start solve factors each set once
    and keeps each row's positive part; a row whose start set had a
    coefficient <= 0 then waits for a passive solve.  After it, one loop:
    each pass gives the KKT test to every row at a feasible point, which
    finishes it or makes its steepest column passive, then solves every
    ``solving`` row's passive set, which is accepted when positive and
    otherwise followed by a blocking step.
    """
    coef = np.zeros((Y.shape[0], Gn.shape[1]))
    passive = np.zeros(coef.shape, dtype=bool)
    solving = np.zeros(Y.shape[0], dtype=bool)
    grad_tol = _KKT_TOL * (1.0 + np.linalg.norm(Y, axis=1))
    iters = np.zeros(Y.shape[0], dtype=int)
    if start is not None:
        sets, index = start
        size = sets.sum(axis=1)
        if size.any():
            trial = _set_solve(Gn, Y, sets, index)  # 0 outside the start, and on an empty one
            passive = trial > 0.0
            kept = passive.sum(axis=1)  # a start coefficient <= 0 leaves fewer than its size
            solving = (kept < size[index]) & (kept > 0)
            coef = np.where(passive, trial, 0.0)

    todo = np.arange(Y.shape[0])  # rows not yet converged
    while True:
        test = todo[~solving[todo]]
        masked = np.where(passive[test], -np.inf, (Y[test] - coef[test] @ Gn.T) @ Gn)
        go = masked.max(axis=1, initial=-np.inf) > grad_tol[test]
        if go.any():  # argmax fails on a stack with no live column
            iters[test[go]] += 1
            passive[test[go], masked[go].argmax(axis=1)] = True
            solving[test[go]] = True
        todo = todo[solving[todo]]
        if todo.size == 0:
            return coef
        trial = _passive_solve(Gn, Y[todo], passive[todo])
        done = np.where(passive[todo], trial > 0.0, True).all(axis=1)
        coef[todo[done]] = trial[done]
        solving[todo[done]] = False
        rows, trial = todo[~done], trial[~done]
        iters[rows] += 1
        if iters.max() > max_iter:
            raise NnlsMaxIterError(f"active-set iterations exceeded {max_iter}")
        old = coef[rows]
        blocking = passive[rows] & (trial <= 0.0)
        denom = old - trial
        steps = np.where(blocking, 0.0, np.inf)
        ratio = blocking & (denom > 0.0)
        steps[ratio] = old[ratio] / denom[ratio]
        alpha = steps.min(axis=1, keepdims=True)
        step = old + alpha * (trial - old)
        step[steps <= alpha + 1e-15] = 0.0
        coef[rows] = step
        passive[rows] &= step > 0.0
        solving[rows] = passive[rows].any(axis=1)  # an emptied row goes to the KKT test


def _passive_solve(Gn: np.ndarray, Y: np.ndarray, passive: np.ndarray) -> np.ndarray:
    """Least-squares coefficients of each row of Y on its passive columns.

    Rows that share a passive set share one factorization: the masks,
    packed to one byte string per row, are grouped by a 1-d ``np.unique``,
    and :func:`_set_solve` solves each group.  Entries outside the passive
    set are zero.
    """
    packed = np.packbits(passive, axis=1)
    keys = np.ascontiguousarray(packed).view(f"S{packed.shape[1]}").ravel()
    _, first, group = np.unique(keys, return_index=True, return_inverse=True)
    return _set_solve(Gn, Y, passive[first], group.ravel())


def _set_solve(Gn: np.ndarray, Y: np.ndarray, sets: np.ndarray, index: np.ndarray) -> np.ndarray:
    """Least-squares coefficients of each row of Y on its column set ``sets[index[row]]``.

    Each set's columns are gathered to the front of a ``(p, w)`` block,
    ``w`` being the largest set size, with zero columns past the set's own
    size.  One stacked pseudoinverse of the blocks, with lstsq's default
    cutoff ``rcond = eps * max(size, p)``, gives lstsq's minimum-norm
    answer, also on rank-deficient sets, and one batched matmul applies
    each row's set to its own target.  A set's bits depend on ``w``, so the
    callers pass only sets some row uses.  Entries outside the set are zero.
    """
    p = Gn.shape[0]
    size = sets.sum(axis=1)
    w = int(size.max())
    cols = np.argsort(~sets, axis=1, kind="stable")[:, :w]
    valid = np.arange(w) < size[:, None]
    blocks = np.where(valid[:, None, :], Gn.T[cols].transpose(0, 2, 1), 0.0)  # (S, p, w)
    pinv = np.linalg.pinv(blocks, rcond=np.finfo(float).eps * np.maximum(size, p))
    z = (pinv[index] @ Y[:, :, None])[:, :, 0]
    trial = np.zeros((Y.shape[0], Gn.shape[1]))
    trial[np.arange(index.size)[:, None], cols[index]] = np.where(valid[index], z, 0.0)
    return trial
