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
from .consistency import _eps_star, extract_linear_weights
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
    if not epsilon_bar < _eps_star(inst):
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
    :func:`~prefcone.cones.nnls` call.  Non-finite coordinates raise
    ValueError.
    """
    X = np.atleast_2d(np.asarray(points, dtype=float))
    if X.shape[1] != handle.p:
        raise ValueError(f"points have dimension {X.shape[1]}, expected {handle.p}")
    if not np.isfinite(X).all():
        raise ValueError("points must be finite")
    if handle.kind == "linear":
        return X @ handle.weights
    if handle.facet_cone.is_whole_space:
        raise WholeSpaceError("the cone is the whole space; the signed distance is undefined")
    Y = X - handle.reference
    margins = (handle.facet_cone.facet_normals @ Y.T).min(axis=0)
    thresholds = CLASSIFY_TOL * (1.0 + np.linalg.norm(Y, axis=1))
    values = np.zeros(X.shape[0])
    interior = margins > thresholds
    values[interior] = margins[interior]
    exterior = margins < -thresholds
    values[exterior] = -nnls(handle.gen_cone.generator_matrix, Y[exterior])[1]
    return values

