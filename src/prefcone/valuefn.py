"""Constructed value functions: signed cone distances and linear weights.

Three kinds of handle evaluate to a consistent value function:

* ``psi`` — distance to the complement of the unperturbed cone minus
  distance to the cone, anchored at the reference alternative.  Concave,
  increasing, zero at the reference; defined whenever the cone is not the
  whole space, pointed or not.
* ``vartheta`` — the same signed distance on a shrunk-generator cone; when
  that cone is pointed the judgements land strictly inside it, so the
  separation becomes strict.
* ``linear`` — a plain weighted sum with strictly positive weights from the
  LP certificate.

Handles are immutable; evaluation is pure.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .cones import (
    CLASSIFY_TOL,
    FacetCone,
    GeneratorCone,
    dual_hrep,
    extreme_rays,
    nnls,
    preference_cone,
)
from .consistency import _margin, extract_linear_weights
from .errors import NotPointedError, WholeSpaceError
from .instance import PreferenceInstance, require_valid

__all__ = [
    "ValueFunctionHandle",
    "make_psi",
    "make_vartheta",
    "make_linear",
    "evaluate",
    "evaluate_batch",
]


@dataclass(frozen=True, eq=False)
class ValueFunctionHandle:
    kind: str  # "psi" | "vartheta" | "linear"
    reference: np.ndarray
    gen_cone: GeneratorCone | None = None
    facet_cone: FacetCone | None = None
    weights: np.ndarray | None = None

    @property
    def p(self) -> int:
        return self.reference.shape[0]

    @cached_property
    def _pointed(self) -> bool:
        """Whether the facet normals have rank p, i.e. the cone is pointed."""
        return bool(np.linalg.matrix_rank(self.facet_cone.facet_normals) == self.p)

    @cached_property
    def _projection_split(self) -> tuple[np.ndarray, np.ndarray]:
        """The generator columns as (extreme, the rest), for :func:`evaluate_batch`.

        A pointed cone is generated by its extreme rays, and a generator is
        extreme iff the facets tight on it (``|a.g| <= CLASSIFY_TOL * |g|``)
        have rank p - 1.  When the facet normals have rank below p the cone
        is not pointed, and every column counts as extreme.
        """
        G = self.gen_cone.generator_matrix  # (p, n)
        A = self.facet_cone.facet_normals  # (k, p)
        if not self._pointed:
            return G, G[:, :0]
        tight = np.abs(A @ G) <= CLASSIFY_TOL * np.linalg.norm(G, axis=0)  # (k, n)
        # each generator's tight normals gathered to the front of a zero-padded stack
        m = max(1, int(tight.sum(axis=0).max()))
        rows = np.argsort(~tight, axis=0, kind="stable")[:m].T  # (n, m)
        stacks = np.where(np.take_along_axis(tight.T, rows, axis=1)[:, :, None], A[rows], 0.0)
        extreme = np.linalg.matrix_rank(stacks) == self.p - 1
        return G[:, extreme], G[:, ~extreme]

    @cached_property
    def _projection_starts(self) -> np.ndarray:
        """(k, m) :func:`nnls` starts: the extreme columns tight on each facet, or cold
        (all false) when the cone is not pointed."""
        extreme = self._projection_split[0]
        A = self.facet_cone.facet_normals
        if not self._pointed:
            return np.zeros((A.shape[0], extreme.shape[1]), dtype=bool)
        return np.abs(A @ extreme) <= CLASSIFY_TOL * np.linalg.norm(extreme, axis=0)


def make_psi(inst: PreferenceInstance) -> ValueFunctionHandle:
    """Signed-distance value function on the unperturbed cone.

    Needs no pointedness; only the cone's complement must be nonempty.
    """
    cone = preference_cone(inst, 0.0)
    facets = extreme_rays(dual_hrep(cone))
    if facets.is_whole_space:
        raise WholeSpaceError(
            "the preference cone is the whole space; the signed distance is undefined"
        )
    return ValueFunctionHandle(
        kind="psi", reference=inst.reference.copy(), gen_cone=cone, facet_cone=facets
    )


def make_vartheta(inst: PreferenceInstance, epsilon_bar: float) -> ValueFunctionHandle:
    """Strictly separating signed-distance function on the shrunk cone.

    The cone shrunk by ``epsilon_bar`` is pointed iff epsilon_bar < eps*,
    the margin-program bound :func:`~prefcone.epsilon_search` also uses.
    """
    require_valid(inst)
    if not epsilon_bar > 0:
        raise ValueError("epsilon_bar must be strictly positive")
    if not epsilon_bar < _margin(inst)[0]:
        raise NotPointedError(
            f"the cone shrunk by {epsilon_bar} is not pointed; choose a smaller epsilon"
        )
    return _vartheta(inst, epsilon_bar)


def _vartheta(inst: PreferenceInstance, epsilon_bar: float) -> ValueFunctionHandle:
    """:func:`make_vartheta` for callers that know the shrunk cone is pointed."""
    cone = preference_cone(inst, epsilon_bar)
    facets = extreme_rays(dual_hrep(cone))
    return ValueFunctionHandle(
        kind="vartheta", reference=inst.reference.copy(), gen_cone=cone, facet_cone=facets
    )


def make_linear(inst: PreferenceInstance) -> ValueFunctionHandle:
    """Linear value function from the LP weight certificate (weights >= 1)."""
    weights = extract_linear_weights(inst)
    return ValueFunctionHandle(
        kind="linear", reference=inst.reference.copy(), weights=weights
    )


def evaluate(handle: ValueFunctionHandle, x: np.ndarray) -> float:
    """Value of the handle's function at x.

    For the signed-distance kinds the result is the distance to the cone's
    complement minus the distance to the cone; points classified on the
    boundary evaluate to exactly 0.0 rather than projection dust.
    """
    x = np.asarray(x, dtype=float)
    if x.shape != (handle.p,):
        raise ValueError(f"point has shape {x.shape}, expected ({handle.p},)")
    return float(evaluate_batch(handle, x[None, :])[0])


def evaluate_batch(handle: ValueFunctionHandle, points: np.ndarray) -> np.ndarray:
    """Vectorized :func:`evaluate` over the rows of ``points``.

    A signed-distance value's sign is the point's membership, decided by the
    smallest facet margin against ``CLASSIFY_TOL * (1 + |y|)``: the margin
    itself inside (> 0), exactly 0.0 on the boundary, and minus the NNLS
    distance, at least the violated margin, outside (< 0).

    A signed-distance handle whose cone is the whole space raises
    WholeSpaceError, as :func:`make_psi` does for such an instance.  All
    exterior points are projected onto the cone by one batched
    :func:`~prefcone.cones.nnls` call on the cone's extreme generators.
    The other generators ride along as targets of the same call: the
    facets come from floating-point double description, which can miss the
    thin facet between two nearly parallel generators and so call both
    non-extreme.  If the extreme columns leave one of them farther than
    ``CLASSIFY_TOL * |g|`` from their cone, the points are projected again,
    cold, onto every generator.  The first call starts each target on the
    extreme generators tight on its lowest-slack facet (a point's most
    violated one), which saves steps; values agree with a cold solve to
    rounding, not bitwise.  A row whose squared distance to the reference
    overflows float64, or whose linear value does, raises ValueError.
    """
    X = np.atleast_2d(np.asarray(points, dtype=float))
    if X.shape[1] != handle.p:
        raise ValueError(f"points have dimension {X.shape[1]}, expected {handle.p}")
    with np.errstate(over="ignore", invalid="ignore"):
        Y = X - handle.reference
        squares = (Y * Y).sum(axis=1)
        values = X @ handle.weights if handle.kind == "linear" else np.zeros(X.shape[0])
    if not (np.isfinite(squares).all() and np.isfinite(values).all()):
        raise ValueError("points must be finite, with no overflow in their distance or value")
    if handle.kind == "linear":
        return values
    if handle.facet_cone.is_whole_space:
        raise WholeSpaceError("the cone is the whole space; the signed distance is undefined")
    slack = handle.facet_cone.facet_normals @ Y.T  # (k, B)
    margins = slack.min(axis=0)
    thresholds = CLASSIFY_TOL * (1.0 + np.sqrt(squares))
    interior = margins > thresholds
    values[interior] = margins[interior]
    exterior = margins < -thresholds
    extreme, rest = handle._projection_split
    facet = np.hstack([slack[:, exterior], handle.facet_cone.facet_normals @ rest]).argmin(axis=0)
    start = handle._projection_starts[facet]
    n = int(exterior.sum())
    resid = nnls(extreme, np.vstack([Y[exterior], rest.T]), start=start)[1]
    if (resid[n:] > CLASSIFY_TOL * np.linalg.norm(rest, axis=0)).any():
        resid = nnls(handle.gen_cone.generator_matrix, Y[exterior])[1]
    values[exterior] = -resid[:n]
    return values
