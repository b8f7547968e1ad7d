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

from .cones import _KKT_TOL, CLASSIFY_TOL, FacetCone, _unit_generators, extreme_rays, nnls
from .consistency import epsilon_search, extract_linear_weights
from .errors import NnlsMaxIterError, WholeSpaceError
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
    kind: str  # "psi" | "vartheta" | "linear"
    reference: np.ndarray
    generator_matrix: np.ndarray | None = None  # (p, t+p): judgement, then axis columns
    facet_cone: FacetCone | None = None
    weights: np.ndarray | None = None

    @property
    def p(self) -> int:
        return self.reference.shape[0]

    @cached_property
    def _unit_columns(self) -> tuple[np.ndarray, np.ndarray]:
        """The nonzero generator columns at unit length, and their indices."""
        unit, live, *_ = _unit_generators(self.generator_matrix.T)
        return unit.T, live

    @cached_property
    def _projection_starts(self) -> np.ndarray:
        """(k, n) :func:`nnls` start table: the nonzero generator columns tight on each facet."""
        unit, live = self._unit_columns
        starts = np.zeros((self.facet_cone.n_facets, self.generator_matrix.shape[1]), dtype=bool)
        starts[:, live] = np.abs(self.facet_cone.facet_normals @ unit) <= CLASSIFY_TOL
        return starts


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
    MaxIterExceededError when no schedule value is small enough.
    """
    return _signed_distance("vartheta", inst, epsilon_search(inst))


def _signed_distance(kind: str, inst: PreferenceInstance, epsilon: float) -> ValueFunctionHandle:
    """Handle on the cone of ``generators(inst, epsilon)`` and the orthant."""
    gens = generators(inst, epsilon)
    return ValueFunctionHandle(
        kind=kind,
        reference=inst.reference.copy(),
        generator_matrix=np.vstack([gens, np.eye(inst.p)]).T,
        facet_cone=extreme_rays(gens),
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
    the generators tight on some facet, the only ones an exterior point's
    projection can use when the facet list is complete.  Each point starts
    on the generators tight on its lowest-slack facet (its most violated
    one), which saves steps; ``nnls`` gets the table of facet sets and each
    point's facet index, so each set is factored once.  Every answer then takes Lawson-Hanson's own
    KKT test on every nonzero unit generator; the rows that fail it, or the
    whole stack if the first call hits its iteration cap, are solved again
    by a second ``nnls`` call on every generator from the same start.  So
    an exterior value is certified on every generator and does not depend
    on the facet list being complete, and NnlsMaxIterError still means the
    all-generator solve stalled.  Values agree with a cold all-generator
    solve to rounding, not bitwise, except on numerically parallel
    generators (see :func:`~prefcone.cones.nnls`).  A row whose squared
    distance to the reference overflows float64, or whose linear value
    does, raises ValueError.
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
    slack = handle.facet_cone.facet_normals @ Y.T  # (k, B)
    facet = slack.argmin(axis=0)  # each point's most violated facet
    margins = slack[facet, np.arange(facet.size)]
    norms = np.sqrt(squares)
    thresholds = CLASSIFY_TOL * (1.0 + norms)
    interior = margins > thresholds
    values[interior] = margins[interior]
    exterior = margins < -thresholds
    G, Y, facet = handle.generator_matrix, Y[exterior], facet[exterior]
    starts = handle._projection_starts
    tight = starts.any(axis=0)
    try:
        coef, resid = nnls(G[:, tight], Y, start=(starts[:, tight], facet))
    except NnlsMaxIterError:
        resid, fail = np.zeros(Y.shape[0]), np.ones(Y.shape[0], dtype=bool)
    else:
        gradient = (Y - coef @ G.T[tight]) @ handle._unit_columns[0]
        fail = (gradient > _KKT_TOL * (1.0 + norms[exterior, None])).any(axis=1)
    if fail.any():
        resid[fail] = nnls(G, Y[fail], start=(starts, facet[fail]))[1]
    values[exterior] = -resid
    return values
