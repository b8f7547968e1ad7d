"""The package's private dense LP solver and the pointedness program's builder.

The solver is a tableau simplex restricted to what the feasibility programs
need: all variables nonnegative, rhs nonnegative, and an identity in the
last columns that serves as the starting basis (so no phase-1 is required).
Bland's rule is always on; these LPs are tiny and anti-cycling robustness
beats speed.  ``StandardLP`` is a plain record and checks nothing: the
float64 data, the matching shapes, ``b >= 0`` and the identity start are a
contract of its two builders, ``build_pointedness_lp`` here and the margin
program in ``consistency``, pinned by the layout tests.
"""

from __future__ import annotations

import logging
import math
from typing import NamedTuple

import numpy as np

from .errors import MaxIterExceededError, NumericalError

__all__ = ["PIVOT_TOL", "StandardLP", "LPSolution", "solve", "build_pointedness_lp"]

logger = logging.getLogger(__name__)

PIVOT_TOL = 1e-9


class StandardLP(NamedTuple):
    """min c.v subject to A.v = b, v >= 0, started from the identity in the
    last ``A.shape[0]`` columns, whose variables, set to b, are basic feasible."""

    constraint_matrix: np.ndarray
    rhs: np.ndarray
    objective: np.ndarray


class LPSolution(NamedTuple):
    status: str  # "optimal" | "unbounded"
    objective_value: float  # -inf when unbounded
    values: np.ndarray  # the last basic point
    reduced_costs: np.ndarray  # c - c_B B^-1 A there; minus the dual on the start columns


@np.errstate(over="ignore", invalid="ignore")  # a non-finite entry raises NumericalError
def solve(lp: StandardLP) -> LPSolution:
    """Run the simplex method from the identity start to optimality.

    Returns an optimal basic solution, or status ``unbounded`` when the
    objective decreases without limit (the margin program's answer when the
    cone is not pointed; never the pointedness program's).  The pivots run
    with numpy's overflow and invalid-value warnings off; a ratio test
    whose minimum is not finite, a final tableau with an entry that is not
    finite (its reduced costs then certify nothing), or an answer whose
    objective value is not finite, raises NumericalError instead.  More than
    ``max(1000, 50 * n_vars)`` pivots raise MaxIterExceededError.
    """
    A, b, c = lp.constraint_matrix, lp.rhs, lp.objective
    n_rows, n_vars = A.shape
    basis = np.arange(n_vars - n_rows, n_vars)

    T = np.hstack([A, b[:, None]])  # a new float64 array: the builders give float64 data
    max_pivots = max(1000, 50 * n_vars)
    debug = logger.isEnabledFor(logging.DEBUG)
    if debug:
        logger.debug(
            "initial tableau (basis %s):\n%s", basis.tolist(), np.array2string(T, precision=6)
        )

    status = "optimal"
    for _ in range(max_pivots):
        reduced = c - c[basis] @ T[:, :n_vars]
        reduced[basis] = 0.0
        candidates = np.flatnonzero(reduced < -PIVOT_TOL)
        if candidates.size == 0:
            break
        enter = int(candidates[0])  # Bland: smallest eligible index
        col = T[:, enter]
        rows = np.flatnonzero(col > PIVOT_TOL)
        if rows.size == 0:
            status = "unbounded"
            break
        ratios = T[rows, n_vars] / col[rows]
        best = ratios.min()
        if not math.isfinite(best):
            raise NumericalError(f"the simplex ratio test's minimum is {best}")
        ties = rows[ratios <= best + PIVOT_TOL * (1.0 + abs(best))]
        leave = int(ties[basis[ties].argmin()])  # Bland on the leaving variable
        _pivot(T, leave, enter)
        basis[leave] = enter
        if debug:
            logger.debug(
                "pivot: enter x%d, leave row %d (basis %s)\n%s",
                enter,
                leave,
                basis.tolist(),
                np.array2string(T, precision=6),
            )
    else:
        raise MaxIterExceededError(f"simplex did not terminate in {max_pivots} pivots")
    if not np.isfinite(T).all():  # a pivot overflowed, so nothing certifies this basis
        raise NumericalError("the simplex tableau went non-finite")

    values = _basic_point(T, basis, n_vars)
    objective = float(c @ values)  # finite values can still sum past float64
    if not math.isfinite(objective):
        raise NumericalError(f"the simplex returned a non-finite {status} point")
    if status == "unbounded":
        objective = float("-inf")
    return LPSolution(status, objective, values, reduced)


def _pivot(T: np.ndarray, row: int, col: int) -> None:
    """Gauss-Jordan step on ``T[row, col]``: one rank-one update of the
    whole tableau.

    The update is unmasked because one pass over every row costs less than
    gathering and scattering the rows with a nonzero in ``col``; a row with
    0 there subtracts exactly 0, so the result equals row-by-row elimination
    up to the sign of zeros.
    """
    T[row] /= T[row, col]
    f = T[:, col].copy()
    f[row] = 0.0
    T -= f[:, None] * T[row]
    T[:, col] = 0.0
    T[row, col] = 1.0


def _basic_point(T: np.ndarray, basis: np.ndarray, n_vars: int) -> np.ndarray:
    values = np.zeros(n_vars)
    rhs = T[:, n_vars].copy()
    rhs[(rhs < 0) & (rhs > -1e-11)] = 0.0  # degeneracy dust
    values[basis] = rhs
    return values


def build_pointedness_lp(gens: np.ndarray) -> StandardLP:
    """Assemble the feasibility program that certifies pointedness of the
    cone of the judgement generators ``gens``, a float ``(t, p)`` array
    with t >= 1 as every valid instance has, and the orthant.

    Variables are ordered (d_1..d_p, s_1..s_{t+p}, r_1..r_{t+p}).  Rows are
    ``gen_j . d - s_j + r_j = 1`` for each judgement generator followed by
    ``d_i - s_{t+i} + r_{t+i} = 1`` for each coordinate.  The objective is
    the sum of the r variables and the r columns form the starting identity
    basis (d = 0, s = 0, r = 1).  The cone is pointed iff the optimum is 0,
    in which case the d part of the solution satisfies d >= 1 and
    ``gen_j . d >= 1`` and is the strict-separation certificate.
    """
    t, p = gens.shape
    n_rows = t + p
    n_vars = p + 2 * n_rows
    A = np.zeros((n_rows, n_vars))
    A[:t, :p] = gens
    A[t:, :p] = np.eye(p)
    A[:, p : p + n_rows] = -np.eye(n_rows)  # s columns
    A[:, p + n_rows :] = np.eye(n_rows)  # r columns
    c = np.zeros(n_vars)
    c[p + n_rows :] = 1.0
    return StandardLP(constraint_matrix=A, rhs=np.ones(n_rows), objective=c)
