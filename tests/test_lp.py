import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import prefcone.lp
from prefcone import (
    MaxIterExceededError,
    StandardLP,
    build_pointedness_lp,
    generators,
    solve,
)
from oracle import enumerate_lp_optimum


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
    assert lp.n_rows == 5 and lp.n_vars == 12
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


def test_build_rejects_mixed_dimension():
    with pytest.raises(ValueError):
        build_pointedness_lp(np.zeros((0, 2)))


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


def test_singular_basis_rejected():
    # the start is the last n_rows columns, which must be exactly the identity
    with pytest.raises(ValueError, match="identity"):
        StandardLP(np.array([[1.0, 2.0], [0.0, 1.0]]), np.ones(2), np.zeros(2))
    with pytest.raises(ValueError, match="identity"):
        StandardLP(np.array([[1.0, 0.0], [0.0, 1.0 + 1e-15]]), np.ones(2), np.zeros(2))
    with pytest.raises(ValueError, match="identity"):
        StandardLP(np.eye(3)[:, :2], np.ones(3), np.zeros(2))


def test_unbounded_reported():
    # min -v1 with v1 - v2 + v3 = 0: push v1 = v2 -> infinity
    lp = StandardLP(
        np.array([[1.0, -1.0, 1.0]]), np.zeros(1), np.array([-1.0, 0.0, 0.0])
    )
    sol = solve(lp)
    assert sol.status == "unbounded"
    assert sol.objective_value == float("-inf")


def test_rhs_must_be_nonnegative():
    with pytest.raises(ValueError, match="nonnegative"):
        StandardLP(np.eye(2), np.array([1.0, -1.0]), np.zeros(2))


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
        T[row, col] = rng.uniform(0.5, 2.0)
        want = T.copy()
        pivot_loop(want, row, col)
        prefcone.lp._pivot(T, row, col)
        np.testing.assert_array_equal(T, want)


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
    start = lp.n_vars - lp.n_rows
    for _ in range(10):
        perm = rng.permutation(lp.n_rows)
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
