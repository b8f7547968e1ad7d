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

from .cones import CLASSIFY_TOL, FacetCone, extreme_rays, nnls
from .consistency import epsilon_search, extract_linear_weights
from .errors import WholeSpaceError
from .instance import PreferenceInstance, generators

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
    """What :func:`make_psi`, :func:`make_vartheta` and :func:`make_linear`
    return.  A signed-distance handle holds its cone's one record, the unit
    generators and facet normals that :func:`~prefcone.cones.extreme_rays`
    builds.  A handle built by hand is not checked: its record goes to the
    private cone engine as it is."""

    kind: str  # "psi" | "vartheta" | "linear"
    reference: np.ndarray
    facet_cone: FacetCone | None = None
    weights: np.ndarray | None = None

    @property
    def p(self) -> int:
        return self.reference.shape[0]


def make_psi(inst: PreferenceInstance) -> ValueFunctionHandle:
    """Signed-distance value function on the unperturbed cone.

    Needs no pointedness; only the cone's complement must be nonempty.
    """
    handle = _signed_distance("psi", inst, 0.0)
    if handle.facet_cone.is_whole_space:
        raise WholeSpaceError(
            "the preference cone is the whole space; the signed distance is undefined"
        )
    return handle


def make_vartheta(inst: PreferenceInstance) -> ValueFunctionHandle:
    """Strictly separating signed-distance function on the cone shrunk by
    :func:`~prefcone.epsilon_search`'s epsilon_bar, which keeps it pointed.

    Raises NotPointedError when the unperturbed cone is not pointed, and
    MaxIterExceededError when the schedule underflows to 0.0 before a
    value falls below eps*.
    """
    return _signed_distance("vartheta", inst, epsilon_search(inst))


def _signed_distance(kind: str, inst: PreferenceInstance, epsilon: float) -> ValueFunctionHandle:
    """Handle on the cone of ``generators(inst, epsilon)`` and the orthant."""
    return ValueFunctionHandle(
        kind=kind,
        reference=inst.reference.copy(),
        facet_cone=extreme_rays(generators(inst, epsilon)),
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
    """Vectorized :func:`evaluate` over the rows of ``points``, an ``(N, p)``
    array; a single ``(p,)`` point counts as one row.

    A signed-distance value's sign is the point's membership, decided by the
    smallest facet margin against ``CLASSIFY_TOL * (1 + |y|)``: the margin
    itself inside (> 0), exactly 0.0 on the boundary, and minus the NNLS
    distance, at least the violated margin, outside (< 0).

    A signed-distance handle whose cone is the whole space raises
    WholeSpaceError, as :func:`make_psi` does for such an instance.  All
    exterior points go to one batched :func:`~prefcone.cones.nnls` call on
    the handle's cone record: ``nnls`` starts each point on the generators
    tight on its most violated facet, checks each answer on the rest and
    answers a point that fails cold.  So an exterior value is certified on
    every generator and does not depend on the facet list being complete.
    Values agree with a cold solve to rounding, not bitwise, except on
    numerically parallel generators (see :func:`~prefcone.cones.nnls`).  A
    row whose squared distance to the reference overflows float64, or whose
    linear value does, raises ValueError.
    """
    X = np.atleast_2d(np.asarray(points, dtype=float))
    if X.ndim != 2 or X.shape[1] != handle.p:
        raise ValueError(f"points must be an (N, {handle.p}) array, got shape {X.shape}")
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
    A = handle.facet_cone.facet_normals
    margins = (A @ Y.T).min(axis=0)  # each point's most violated facet's slack
    thresholds = CLASSIFY_TOL * (1.0 + np.sqrt(squares))
    interior = margins > thresholds
    values[interior] = margins[interior]
    exterior = margins < -thresholds
    values[exterior] = -nnls(handle.facet_cone, Y[exterior])
    return values
