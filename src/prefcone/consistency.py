"""The operational consistency test and its verdict report.

Whether the judgements admit an increasing quasi-concave value function,
an increasing linear one, a pointed preference cone, and a zero-optimum
feasibility program are one and the same question; the test answers it by
solving a single small LP with one row per criterion, whose dual gives the
linear weights and whose optimum the perturbation sizes under which the
strict version of the construction goes through.  The test needs no facets,
so it runs no double description and works at any number of criteria.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Unused here; bound only as perfbench's ``consistency.extreme_rays`` span
# target, and removed together with that target.
from .cones import extreme_rays  # noqa: F401
from .errors import MaxIterExceededError, NotPointedError, NumericalError
from .instance import PreferenceInstance, generators
from .lp import StandardLP, build_pointedness_lp, solve

__all__ = [
    "ConsistencyReport",
    "epsilon_search",
    "extract_linear_weights",
    "consistency_verdict",
]

# The LP optimum is a sum of residuals of a unit-rhs system; anything at or
# below this is a numerically exact zero, and an inconsistent verdict with such
# a z* gets verdict_text's boundary line.
Z_STAR_TOL = 1e-7

# epsilon_bar is the first positive _BETA**i * _EPSILON0 below eps*; the
# schedule ends where it underflows to 0.0, at i = 1069
_EPSILON0 = 1e-2
_BETA = 0.5


@dataclass(frozen=True, eq=False)
class ConsistencyReport:
    """Verdict bundle; the four equivalent statements share one truth value.

    ``weight_certificate`` and ``epsilon_bar`` are present exactly when the
    verdict is consistent.  The report carries no facet count: the verdict
    needs none, and ``make_psi(inst).facet_cone.n_facets`` gives one when it
    is wanted.
    """

    pointed: bool
    z_star: float
    weight_certificate: np.ndarray | None
    epsilon_bar: float | None

    @property
    def statements(self) -> dict[str, bool]:
        return {
            "linear_function_exists": self.pointed,
            "quasiconcave_function_exists": self.pointed,
            "cone_pointed": self.pointed,
            "lp_optimum_zero": self.pointed,
        }

    @property
    def verdict_text(self) -> str:
        yn = "yes" if self.pointed else "no"
        lines = [
            "consistent with an increasing quasi-concave value function"
            if self.pointed
            else "inconsistent: no increasing quasi-concave (equivalently, no "
            "increasing linear) value function reproduces the judgements",
            f"(1) an increasing linear value function strictly separates: {yn}",
            f"(2) an increasing quasi-concave value function strictly separates: {yn}",
            f"(3) the preference cone is pointed: {yn}",
            f"(4) the feasibility program attains optimum zero (z* = {self.z_star:.3g}): {yn}",
        ]
        if not self.pointed and self.z_star <= Z_STAR_TOL:
            lines.append("the judgements lie within the LP tolerance of the consistency boundary")
        return "\n".join(lines)

    def to_dict(self) -> dict:
        weights = None
        if self.weight_certificate is not None:
            weights = self.weight_certificate.tolist()
        return {
            "pointed": self.pointed,
            "z_star": self.z_star,
            "weight_certificate": weights,
            "epsilon_bar": self.epsilon_bar,
            "verdict_text": self.verdict_text,
            "equivalent_statements": self.statements,
        }


def test_pointedness(inst: PreferenceInstance) -> float:
    """z*, the optimum of the paper's feasibility program on the unperturbed
    cone, solved on the unscaled generators.

    The verdict is the margin program's (:func:`consistency_verdict`); this
    only prices ``z_star`` on an inconsistent one, under the name that
    perfbench's ``consistency.test_pointedness`` span wraps.  The objective
    is a sum of nonnegative variables, so a solve that reads it as unbounded
    has failed numerically and raises NumericalError.
    """
    sol = solve(build_pointedness_lp(generators(inst, 0.0)))
    if sol.status == "unbounded":
        raise NumericalError("the feasibility program, bounded below by 0, read as unbounded")
    return float(sol.objective_value)


test_pointedness.__test__ = False  # not a pytest case despite the name


def epsilon_search(inst: PreferenceInstance) -> float:
    """The first schedule value ``0.01 * 0.5**i`` whose shrunk cone is
    still pointed.

    Requires the unperturbed cone to be pointed (otherwise no perturbation
    works).  Every smaller epsilon then works too.  The schedule runs until
    it underflows to 0.0, so it raises MaxIterExceededError only when eps*
    is at most its last positive value, 5e-324.
    """
    eps_star, weights = _margin(inst)
    if weights is None:
        raise NotPointedError(
            "the preference cone is not pointed; no perturbation can be"
        )
    return _first_below(eps_star)


def _first_below(eps_star: float) -> float:
    i = 0
    while (eps := _BETA**i * _EPSILON0) > 0.0:
        if eps < eps_star:
            return eps
        i += 1
    raise MaxIterExceededError(
        f"no positive schedule value from {_EPSILON0} lies below eps* = {eps_star!r}"
    )


def _margin(inst: PreferenceInstance) -> tuple[float, np.ndarray | None]:
    """eps* and the weights, or ``(0.0, None)`` when the cone is not pointed.

    The cone shrunk by eps is pointed iff ``eps < eps* = max min_j g_j.d``
    over the simplex; ``1 / eps*`` is the optimum of the margin program
    ``max 1.y s.t. G^T y <= 1, y >= 0``, unbounded iff the cone is not pointed
    (Gordan).  G is first divided, exactly, by a power of two near its largest
    entry, at most 2**1023, so that the absolute pivot tolerance sees entries
    of order one.
    The slack columns' reduced costs are the dual d >= 0 with ``G d >= scale``,
    and ``w = lam d / scale + 1`` has ``w >= 1``, ``G w >= 1`` in float64, with
    ``lam`` twice the ``max(1, 1 - min_j g_j.1)`` that exact arithmetic needs;
    ``lam / scale`` is formed as one factor, which stays finite where lam does not.
    The weights are formed in Python floats, where a product past float64's
    largest value (subnormal judgements make one) is inf with no warning,
    and checked before they are returned: weights whose sum is
    not finite, or that miss ``w >= 1`` or ``G w >= 1`` in float64 (tested
    as ``(G / scale) w >= 1 / scale``, exact up to rounding and free of
    overflow), raise NumericalError.
    """
    G = generators(inst, 0.0)
    t, p = G.shape
    scale = math.ldexp(1.0, min(math.frexp(float(np.abs(G).max()))[1], 1023))
    scaled = G / scale
    margin = StandardLP(
        constraint_matrix=np.hstack([scaled.T, np.eye(p)]),
        rhs=np.ones(p),
        objective=np.concatenate([-np.ones(t), np.zeros(p)]),
    )
    sol = solve(margin)
    if sol.status == "unbounded":
        return 0.0, None
    # lam / scale from the scaled rows, whose sums cannot overflow, though lam
    # itself can; only positive reduced costs take it, so the inf 1 / scale of
    # a subnormal G gives no inf * 0
    factor = 2.0 * max(1.0 / scale, 1.0 / scale - float(scaled.sum(axis=1).min()))
    ws = [factor * x + 1.0 if x > 0.0 else 1.0 for x in sol.reduced_costs[t:].tolist()]
    w = np.array(ws)
    # with sum(w) finite and |G / scale| <= 1, no row of (G / scale) w can overflow;
    # a few floats' min costs less in Python than in numpy
    if not (
        math.isfinite(sum(ws)) and min(ws) >= 1.0 and min((scaled @ w).tolist()) >= 1.0 / scale
    ):
        raise NumericalError(f"the margin program's weights {ws} fail their check w >= 1, G w >= 1")
    return scale / -sol.objective_value, w


def extract_linear_weights(inst: PreferenceInstance) -> np.ndarray:
    """Strictly positive weights d with d.x_j > d.x_k for every judgement.

    Read off the margin program's dual; they satisfy d >= 1 componentwise
    and (x_j - x_k).d >= 1 in float64, checked before they are returned
    (NumericalError when they do not).
    """
    weights = _margin(inst)[1]
    if weights is None:
        raise NotPointedError(
            "no increasing linear value function reproduces these judgements"
        )
    return weights


def consistency_verdict(inst: PreferenceInstance) -> ConsistencyReport:
    """Run the full test and assemble the report; the paper's feasibility
    program runs only to report z* on an inconsistent verdict."""
    eps_star, weights = _margin(inst)
    pointed = weights is not None
    z_star = 0.0 if pointed else test_pointedness(inst)
    return ConsistencyReport(
        pointed=pointed,
        z_star=z_star,
        weight_certificate=weights,
        epsilon_bar=_first_below(eps_star) if pointed else None,
    )
