import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import prefcone.consistency
import prefcone.lp
from prefcone import (
    InvalidInstanceError,
    MaxIterExceededError,
    NumericalError,
    PreferenceInstance,
    PrefconeError,
    consistency_verdict,
    generators,
)
from prefcone.lp import StandardLP, build_pointedness_lp, solve
from _helpers import random_instance
from oracle import enumerate_lp_optimum, masked_pivot


def expected_pointedness_matrix(gens):
    gens = np.asarray(gens, float)
    t, p = gens.shape
    n = t + p
    A = np.zeros((n, p + 2 * n))
    A[:t, :p] = gens
    A[t:, :p] = np.eye(p)
    A[:, p : p + n] = -np.eye(n)
    A[:, p + n :] = np.eye(n)
    return A


def test_build_matches_hand_layout(pointed_instance):
    lp = build_pointedness_lp(generators(pointed_instance, 0.0))
    assert lp.constraint_matrix.shape == (5, 12)
    np.testing.assert_array_equal(
        lp.constraint_matrix,
        expected_pointedness_matrix([[-1, 1], [-1, 0.5], [-1, 2]]),
    )
    np.testing.assert_array_equal(lp.rhs, np.ones(5))
    np.testing.assert_array_equal(lp.objective[:7], np.zeros(7))
    np.testing.assert_array_equal(lp.objective[7:], np.ones(5))
    np.testing.assert_array_equal(lp.constraint_matrix[:, 7:], np.eye(5))  # the r start


def test_build_single_generator_r1():
    lp = build_pointedness_lp(np.array([[1.0]]))
    # rows: d1 - s1 + r1 = 1 and d1 - s2 + r2 = 1
    np.testing.assert_array_equal(
        lp.constraint_matrix,
        [[1, -1, 0, 1, 0], [1, 0, -1, 0, 1]],
    )
    np.testing.assert_array_equal(lp.rhs, [1, 1])


def test_solve_pointed_fixture_lp_is_zero(pointed_instance):
    gens = generators(pointed_instance, 0.0)
    sol = solve(build_pointedness_lp(gens))
    assert sol.status == "optimal"
    assert abs(sol.objective_value) <= 1e-9
    d = sol.values[:2]
    assert (d >= 1 - 1e-9).all()
    assert (gens @ d >= 1 - 1e-9).all()


def test_solve_halfplane_fixture_lp_is_two(halfplane_instance):
    lp = build_pointedness_lp(generators(halfplane_instance, 0.0))
    sol = solve(lp)
    assert sol.status == "optimal"
    assert sol.objective_value == pytest.approx(2.0, abs=1e-9)
    assert sol.objective_value == pytest.approx(enumerate_lp_optimum(lp), abs=1e-9)


def test_known_feasible_weights_for_pointed_fixture(pointed_instance):
    # (1, 4) satisfies every row with nonnegative slack and r = 0
    gens = generators(pointed_instance, 0.0)
    d = np.array([1.0, 4.0])
    assert (gens @ d >= 1).all() and (d >= 1).all()


def test_identity_system():
    lp = StandardLP(np.eye(3), np.ones(3), np.zeros(3))
    sol = solve(lp)
    assert sol.objective_value == 0.0
    np.testing.assert_array_equal(sol.values, np.ones(3))


def test_unbounded_reported():
    # min -v1 with v1 - v2 + v3 = 0: push v1 = v2 -> infinity
    lp = StandardLP(
        np.array([[1.0, -1.0, 1.0]]), np.zeros(1), np.array([-1.0, 0.0, 0.0])
    )
    sol = solve(lp)
    assert sol.status == "unbounded"
    assert sol.objective_value == float("-inf")


def test_objective_summing_past_float64_is_numerical_error():
    # each basic value is finite, but c @ values = -2e308 is not
    lp = StandardLP(
        np.array([[1.0, 0.0, 1.0, 0.0], [0.0, 1.0, 0.0, 1.0]]),
        np.array([1e308, 1e308]),
        np.array([-1.0, -1.0, 0.0, 0.0]),
    )
    with pytest.raises(NumericalError, match="non-finite optimal point"):
        solve(lp)


def test_stalled_simplex_raises_max_iter(monkeypatch):
    # With pivots disabled the tableau never changes, and d_1 and d_2 take
    # turns entering on the generator row [5, 5].
    monkeypatch.setattr(prefcone.lp, "_pivot", lambda T, row, col: None)
    with pytest.raises(MaxIterExceededError, match="did not terminate"):
        solve(build_pointedness_lp(np.array([[5.0, 5.0]])))


def test_pivot_matches_row_by_row_elimination():
    # the reference: Gauss-Jordan elimination one row at a time
    def pivot_loop(T, row, col):
        T[row] /= T[row, col]
        for i in range(T.shape[0]):
            if i != row and T[i, col] != 0.0:
                T[i] -= T[i, col] * T[row]
        T[:, col] = 0.0
        T[row, col] = 1.0

    rng = np.random.default_rng(31)
    for _ in range(200):
        T = rng.normal(size=(int(rng.integers(1, 8)), int(rng.integers(2, 12))))
        T[rng.random(T.shape) < 0.3] = 0.0
        row, col = int(rng.integers(T.shape[0])), int(rng.integers(T.shape[1]))
        # rows with 0 in the pivot column, which the loop skips, must stay as they are
        T[rng.random(T.shape[0]) < 0.5, col] = 0.0
        T[row, col] = rng.uniform(0.5, 2.0)
        want = T.copy()
        pivot_loop(want, row, col)
        prefcone.lp._pivot(T, row, col)
        np.testing.assert_array_equal(T, want)


def test_solve_matches_the_masked_pivot_on_random_lps(monkeypatch):
    rng = np.random.default_rng(43)
    lps = [_random_lp(rng) for _ in range(300)]
    lps += [
        build_pointedness_lp(rng.normal(size=(int(rng.integers(1, 9)), int(rng.integers(1, 5)))))
        for _ in range(100)
    ]
    unmasked = [solve(lp) for lp in lps]
    monkeypatch.setattr(prefcone.lp, "_pivot", masked_pivot)
    for lp, got in zip(lps, unmasked):
        want = solve(lp)
        assert got.status == want.status
        assert got.objective_value == want.objective_value
        # array_equal counts -0.0 equal to 0.0
        np.testing.assert_array_equal(got.values, want.values)
        np.testing.assert_array_equal(got.reduced_costs, want.reduced_costs)


def test_verdict_matches_the_masked_pivot_at_extreme_scales(monkeypatch):
    rng = np.random.default_rng(47)
    insts = [random_instance(rng) for _ in range(300)]
    for k, inst in enumerate(list(insts)):
        X = inst.alternatives
        if k % 2:
            X = X * 10.0 ** rng.integers(-300, 301, size=inst.p)
        else:
            X = X * 10.0 ** rng.integers(-150, 151, size=(X.shape[0], 1))
        insts.append(PreferenceInstance(X, inst.reference_index, inst.preferred_indices))

    def report(inst):
        try:
            r = consistency_verdict(inst)
        except PrefconeError as exc:
            return type(exc)
        w = r.weight_certificate
        return r.pointed, r.z_star, None if w is None else w.tolist(), r.epsilon_bar

    unmasked = [report(inst) for inst in insts]
    monkeypatch.setattr(prefcone.lp, "_pivot", masked_pivot)
    assert [report(inst) for inst in insts] == unmasked
    assert sum(r[0] is False for r in unmasked if isinstance(r, tuple)) >= 100


def test_solution_invariants_on_random_lps():
    rng = np.random.default_rng(7)
    for _ in range(40):
        lp = _random_lp(rng)
        sol = solve(lp)
        assert sol.status == "optimal"
        assert (sol.values >= -1e-9).all()
        gap = np.linalg.norm(lp.constraint_matrix @ sol.values - lp.rhs)
        assert gap <= 1e-9 * (1 + np.linalg.norm(lp.rhs))
        assert sol.objective_value == pytest.approx(
            float(lp.objective @ sol.values), abs=1e-9
        )


def test_optimum_matches_basis_enumeration_and_scipy():
    from scipy.optimize import linprog

    rng = np.random.default_rng(11)
    for _ in range(40):
        lp = _random_lp(rng)
        sol = solve(lp)
        assert sol.objective_value == pytest.approx(enumerate_lp_optimum(lp), abs=1e-7)
        ref = linprog(
            lp.objective,
            A_eq=lp.constraint_matrix,
            b_eq=lp.rhs,
            bounds=(0, None),
            method="highs",
        )
        assert ref.status == 0
        assert sol.objective_value == pytest.approx(ref.fun, abs=1e-7)


def _random_lp(rng) -> StandardLP:
    """Small random equality LP with an appended identity start and c >= 0."""
    n_rows = int(rng.integers(1, 5))
    n_free = int(rng.integers(1, 7))
    body = rng.integers(-3, 4, size=(n_rows, n_free)).astype(float)
    A = np.hstack([body, np.eye(n_rows)])
    b = rng.integers(0, 4, size=n_rows).astype(float)
    c = rng.integers(0, 4, size=n_free + n_rows).astype(float)
    return StandardLP(A, b, c)


def test_optimum_invariant_under_row_permutation(pointed_instance):
    lp = build_pointedness_lp(generators(pointed_instance, 0.0))
    rng = np.random.default_rng(3)
    n_rows, n_vars = lp.constraint_matrix.shape
    start = n_vars - n_rows
    for _ in range(10):
        perm = rng.permutation(n_rows)
        # the start columns follow their rows, so they stay the identity
        cols = np.r_[np.arange(start), start + perm]
        shuffled = StandardLP(
            lp.constraint_matrix[perm][:, cols], lp.rhs[perm], lp.objective[cols]
        )
        assert solve(shuffled).objective_value == pytest.approx(
            solve(lp).objective_value, abs=1e-9
        )


@given(
    st.lists(
        st.lists(st.integers(-3, 3).map(float), min_size=2, max_size=2),
        min_size=1,
        max_size=4,
    )
)
@settings(max_examples=80, deadline=None)
def test_pointedness_lp_optimum_nonnegative_and_certified(gens):
    gens = np.array(gens)
    sol = solve(build_pointedness_lp(gens))
    assert sol.status == "optimal"
    assert sol.objective_value >= -1e-9
    if sol.objective_value <= 1e-7:
        d = sol.values[:2]
        assert (d >= 1 - 1e-7).all()
        assert (gens @ d >= 1 - 1e-7).all()


def _assert_identity_start(lp):
    A, b, c = lp
    n_rows, n_vars = A.shape
    assert A.dtype == b.dtype == c.dtype == np.float64
    assert b.shape == (n_rows,) and c.shape == (n_vars,)
    assert np.array_equal(A[:, n_vars - n_rows :], np.eye(n_rows))
    assert (b >= 0).all()


@given(
    st.integers(1, 8).flatmap(
        lambda t: st.integers(1, 5).flatmap(
            lambda p: st.lists(
                st.tuples(*[st.floats(-1e6, 1e6, allow_subnormal=False)] * p),
                min_size=t + 1,
                max_size=t + 1,
                unique=True,
            )
        )
    )
)
@settings(max_examples=100, deadline=None)
def test_builders_lay_out_the_identity_start(alternatives):
    # StandardLP checks nothing, so its two builders must give the solver
    # float64 data whose last rows-many columns are exactly the identity
    try:
        inst = PreferenceInstance(np.array(alternatives), 0, list(range(1, len(alternatives))))
    except InvalidInstanceError:
        assume(False)
    t, p = inst.t, inst.p
    solved = []

    def recording_solve(lp):
        solved.append(lp)
        return solve(lp)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(prefcone.consistency, "solve", recording_solve)
        consistency_verdict(inst)
    margin = solved[0]
    assert margin.constraint_matrix.shape == (p, t + p)
    assert np.array_equal(margin.objective, np.r_[-np.ones(t), np.zeros(p)])
    for lp in [*solved, build_pointedness_lp(generators(inst))]:
        _assert_identity_start(lp)
