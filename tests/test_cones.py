import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import prefcone.cones
import prefcone.valuefn
from prefcone import (
    DimensionTooLargeError,
    NnlsMaxIterError,
    WholeSpaceError,
    evaluate_batch,
    generators,
    make_psi,
)
from prefcone.cones import (
    CLASSIFY_TOL,
    MAX_DD_DIM,
    FacetCone,
    _dd_pointed,
    _lawson_hanson,
    _passive_solve,
    _unit_generators,
    extreme_rays,
    nnls,
)
from _helpers import (
    GAUSSIAN_SCORER_FACETS,
    gaussian_scorer_instance,
    missing_facet_handle,
    noisy_scorer_instance,
    random_instance,
    synthetic_dm_instance,
    twin_judgement_instance,
)
from oracle import (
    MembershipClass,
    classify,
    cold_nnls,
    cone_columns,
    dd_exact,
    dd_pointed_loop,
    dist_to_complement,
    dist_to_cone,
    is_pointed_geometric,
)

SQRT5 = np.sqrt(5.0)


@pytest.fixture(scope="module")
def pointed_facets(pointed_instance):
    return extreme_rays(generators(pointed_instance, 0.0))


def test_extreme_rays_pointed_fixture(pointed_facets):
    got = sorted(map(tuple, np.round(pointed_facets.facet_normals, 10)))
    want = sorted([(0.0, 1.0), tuple(np.round([1 / SQRT5, 2 / SQRT5], 10))])
    assert got == want
    assert pointed_facets.n_facets == 2
    assert not pointed_facets.is_whole_space


def test_extreme_rays_halfplane_fixture(halfplane_instance):
    facets = extreme_rays(generators(halfplane_instance, 0.0))
    assert facets.n_facets == 1
    assert not facets.is_whole_space
    np.testing.assert_allclose(
        facets.facet_normals, [[1 / np.sqrt(2), 1 / np.sqrt(2)]], atol=1e-12
    )


def test_extreme_rays_orthant_is_self_dual():
    facets = extreme_rays(np.zeros((0, 2)))
    assert {tuple(r) for r in facets.facet_normals} == {(1.0, 0.0), (0.0, 1.0)}


def test_extreme_rays_whole_space(whole_plane_instance):
    facets = extreme_rays(generators(whole_plane_instance, 0.0))
    assert facets.is_whole_space
    assert facets.n_facets == 0


def test_extreme_rays_dimension_cap():
    with pytest.raises(DimensionTooLargeError):
        extreme_rays(np.eye(13))
    # the cap is a policy; the double description itself runs past it
    assert _dd_pointed(np.eye(13)).shape == (13, 13)


def test_extreme_rays_output_is_deterministic(pointed_instance):
    gens = generators(pointed_instance, 0.0)
    a = extreme_rays(gens).facet_normals
    b = extreme_rays(gens).facet_normals
    np.testing.assert_array_equal(a, b)


def test_extreme_rays_feeds_dd_the_unit_dual_rows(monkeypatch):
    # the unit axes, then the nonzero generators unit-normalized, in input order
    seen = []

    def spy(A):
        seen.append(A)
        return _dd_pointed(A)

    monkeypatch.setattr(prefcone.cones, "_dd_pointed", spy)
    cone = extreme_rays(np.array([[3.0, -4.0], [0.0, 0.0], [-1.0, 2.0]]))
    np.testing.assert_array_equal(
        seen[0], [[1.0, 0.0], [0.0, 1.0], [0.6, -0.8], [-1 / SQRT5, 2 / SQRT5]]
    )
    # the record keeps the same unit generators, then the axes
    np.testing.assert_array_equal(
        cone.generators, [[0.6, -0.8], [-1 / SQRT5, 2 / SQRT5], [1.0, 0.0], [0.0, 1.0]]
    )


def test_extreme_rays_of_a_judgement_past_the_norm_overflow():
    # |g|^2 overflows once an entry passes ~1.3e154; each dual row is divided
    # by a power of two first, so the judgement keeps its own facet
    gens = np.array([[1.7e300, -1e292]])
    A = extreme_rays(gens).facet_normals
    np.testing.assert_allclose(A, [[1e292 / 1.7e300, 1.0], [1.0, 0.0]], rtol=1e-12)
    assert (A @ gens.T >= 0.0).all()


def _brute_rays(A):
    """Extreme rays of pointed {x: Ax>=0} via the rank-(q-1) active-set test."""
    from itertools import combinations

    m, q = A.shape
    found = []
    for size in range(max(q - 1, 1), m + 1):
        for S in combinations(range(m), size):
            sub = A[list(S)]
            if np.linalg.matrix_rank(sub, tol=1e-9) != q - 1:
                continue
            v = np.linalg.svd(sub)[2][-1]
            for cand in (v, -v):
                if (A @ cand).min() >= -1e-9:
                    act = np.abs(A @ cand) <= 1e-9
                    if np.linalg.matrix_rank(A[act], tol=1e-9) == q - 1:
                        cand = cand / np.linalg.norm(cand)
                        if not any(np.linalg.norm(cand - f) < 1e-8 for f in found):
                            found.append(cand)
    return sorted(map(tuple, np.round(found, 9)))


def test_extreme_rays_match_brute_enumeration():
    rng = np.random.default_rng(2024)
    done = 0
    while done < 40:
        q = int(rng.integers(2, 5))
        t = int(rng.integers(0, 6))
        A = np.vstack([np.eye(q), rng.integers(-3, 4, size=(t, q)).astype(float)])
        fc = extreme_rays(A[q:])
        got = sorted(map(tuple, np.round(fc.facet_normals, 9)))
        assert got == _brute_rays(A)
        done += 1


def test_classify_fixture_points(pointed_facets):
    assert classify(np.array([2.0, 2.0]), pointed_facets) is MembershipClass.INTERIOR
    assert classify(np.array([1.0, 0.0]), pointed_facets) is MembershipClass.BOUNDARY
    assert classify(np.array([-3.0, -3.0]), pointed_facets) is MembershipClass.EXTERIOR


def test_classify_whole_space_rejected():
    facets = extreme_rays(np.array([[-1.0, -1.0]]))  # with the axes, the whole plane
    assert facets.is_whole_space
    with pytest.raises(WholeSpaceError):
        classify(np.array([1.0, 1.0]), facets)
    with pytest.raises(WholeSpaceError):
        dist_to_complement(np.array([1.0, 1.0]), facets)


def test_dist_to_cone_fixture_values(pointed_instance):
    gens = generators(pointed_instance, 0.0)
    assert dist_to_cone(np.array([2.0, 2.0]), gens) <= 1e-8
    assert dist_to_cone(np.array([-3.0, -3.0]), gens) == pytest.approx(
        9 / SQRT5, abs=1e-8
    )
    assert dist_to_cone(np.array([0.5, 0.25]), gens) <= 1e-8  # orthant point


def test_dist_to_complement_fixture_values(pointed_instance, pointed_facets):
    assert dist_to_complement(np.array([2.0, 2.0]), pointed_facets) == pytest.approx(
        2.0, abs=1e-12
    )
    assert dist_to_complement(np.array([1.0, 0.0]), pointed_facets) == 0.0
    assert dist_to_complement(np.array([-3.0, -3.0]), pointed_facets) == 0.0


def test_is_pointed_geometric_examples(
    pointed_instance, halfplane_instance, whole_plane_instance
):
    assert is_pointed_geometric(generators(pointed_instance, 0.0))
    assert not is_pointed_geometric(generators(halfplane_instance, 0.0))
    assert not is_pointed_geometric(generators(whole_plane_instance, 0.0))
    # single generator pointing down the only axis: the cone is the whole line
    assert not is_pointed_geometric(np.array([[-1.0]]))


def _cold_coef(G, Y):
    """The coefficients ``cold_nnls(G, Y)`` keeps inside: ``(Gn, coef)``,
    ``_lawson_hanson``'s ``(B, m)`` answer on the unit columns ``Gn`` of
    ``_unit_generators``, for a ``(p,)`` target or a ``(B, p)`` stack."""
    Gn = _unit_generators(G.T).T
    return Gn, _lawson_hanson(Gn, np.reshape(Y, (-1, G.shape[0])), None, 3 * Gn.size)


def test_nnls_matches_scipy():
    from scipy.optimize import nnls as scipy_nnls

    rng = np.random.default_rng(5)
    for _ in range(60):
        p = int(rng.integers(1, 5))
        n = int(rng.integers(1, 7))
        G = rng.integers(-3, 4, size=(p, n)).astype(float)
        y = rng.integers(-5, 6, size=p).astype(float)
        resid = cold_nnls(G, y[None])[0]
        assert isinstance(resid, float)
        assert resid == pytest.approx(scipy_nnls(G, y)[1], abs=1e-8)
        Gn, (coef,) = _cold_coef(G, y)
        assert (coef >= 0).all()
        assert np.linalg.norm(Gn @ coef - y) == pytest.approx(resid, abs=1e-10)


def test_nnls_antipodal_single_column():
    G, y = np.array([[1.0], [0.0]]), np.array([-1.0, 0.0])
    assert cold_nnls(G, y[None])[0] == pytest.approx(1.0, abs=1e-12)
    np.testing.assert_array_equal(_cold_coef(G, y)[1], [[0.0]])


def test_nnls_kkt_certificate_on_degenerate_systems():
    # convexity makes the KKT conditions sufficient, so this certifies
    # optimality without trusting any reference solver
    rng = np.random.default_rng(321)
    for k in range(200):
        p = int(rng.integers(1, 7))
        n = int(rng.integers(1, 10))
        G = rng.integers(-2, 3, size=(p, n)).astype(float)
        if k % 3 == 0 and n >= 2:
            G[:, -1] = 2.0 * G[:, 0]  # collinear column
        if k % 7 == 0:
            G[:, rng.integers(0, n)] = 0.0  # dead column
        y = rng.integers(-4, 5, size=p).astype(float)
        resid = cold_nnls(G, y[None])[0]
        Gn, (coef,) = _cold_coef(G, y)
        assert (coef >= 0).all()
        assert np.linalg.norm(Gn @ coef - y) == pytest.approx(resid, abs=1e-10)
        grad = Gn.T @ (Gn @ coef - y)
        assert grad.min(initial=0.0) >= -1e-8  # dual feasibility; Gn can have no column
        support = coef > 1e-12
        if support.any():
            assert np.abs(grad[support]).max() <= 1e-8  # complementary slackness


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_duality_round_trip(seed):
    rng = np.random.default_rng(seed)
    inst = random_instance(rng)
    gens = generators(inst, 0.0)
    facets = extreme_rays(gens)
    if facets.is_whole_space:
        return
    # every generator satisfies every facet inequality
    assert (facets.facet_normals @ cone_columns(gens)).min() >= -1e-8
    # facet-feasible points are in the generated cone
    y = rng.uniform(-4, 4, size=inst.p)
    if (facets.facet_normals @ y).min() >= 0:
        assert dist_to_cone(y, gens) <= 1e-7 * (1 + np.linalg.norm(y))


@given(st.integers(0, 2**32 - 1), st.floats(0.1, 50.0))
@settings(max_examples=60, deadline=None)
def test_distances_positively_homogeneous(seed, alpha):
    rng = np.random.default_rng(seed)
    inst = random_instance(rng)
    gens = generators(inst, 0.0)
    facets = extreme_rays(gens)
    y = rng.uniform(-4, 4, size=inst.p)
    d1 = dist_to_cone(y, gens)
    d2 = dist_to_cone(alpha * y, gens)
    assert d2 == pytest.approx(alpha * d1, rel=1e-8, abs=1e-8)
    if not facets.is_whole_space:
        c1 = dist_to_complement(y, facets)
        c2 = dist_to_complement(alpha * y, facets)
        assert c2 == pytest.approx(alpha * c1, rel=1e-8, abs=1e-7)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=80, deadline=None)
def test_zero_distance_iff_not_exterior(seed):
    rng = np.random.default_rng(seed)
    inst = random_instance(rng)
    gens = generators(inst, 0.0)
    facets = extreme_rays(gens)
    if facets.is_whole_space:
        return
    y = rng.uniform(-4, 4, size=inst.p)
    cls = classify(y, facets)
    dist = dist_to_cone(y, gens)
    if cls is MembershipClass.EXTERIOR:
        assert dist > 1e-8
        assert dist_to_complement(y, facets) == 0.0
    else:
        assert dist <= 1e-8
    if cls is MembershipClass.INTERIOR:
        assert dist_to_complement(y, facets) > 0.0


def _degenerate_stack(rng, k):
    """Integer columns, some collinear or dead, and a stack of 1-11 targets."""
    p = int(rng.integers(1, 7))
    n = int(rng.integers(1, 10))
    G = rng.integers(-2, 3, size=(p, n)).astype(float)
    if k % 3 == 0 and n >= 2:
        G[:, -1] = 2.0 * G[:, 0]  # collinear column
    if k % 7 == 0:
        G[:, rng.integers(0, n)] = 0.0  # dead column
    Y = rng.integers(-4, 5, size=(int(rng.integers(1, 12)), p)).astype(float)
    return G, Y


def test_nnls_stack_rows_match_single_solves():
    rng = np.random.default_rng(77)
    for k in range(200):
        G, Y = _degenerate_stack(rng, k)
        resid = cold_nnls(G, Y)
        assert resid.shape == (Y.shape[0],)
        Gn, coef = _cold_coef(G, Y)
        for i, y in enumerate(Y):
            tol = 1e-12 * (1.0 + np.linalg.norm(y))
            assert abs(resid[i] - cold_nnls(G, y[None])[0]) <= tol
            # the projection Gn @ coef is unique even where coef is not
            assert np.linalg.norm(Gn @ coef[i] - Gn @ _cold_coef(G, y)[1][0]) <= tol


def test_nnls_stack_kkt_certificate_on_degenerate_systems():
    rng = np.random.default_rng(654)
    for k in range(200):
        G, Y = _degenerate_stack(rng, k)
        resid = cold_nnls(G, Y)
        Gn, coef = _cold_coef(G, Y)
        assert (coef >= 0).all()
        np.testing.assert_allclose(
            np.linalg.norm(coef @ Gn.T - Y, axis=1), resid, rtol=0, atol=1e-10
        )
        grad = (coef @ Gn.T - Y) @ Gn
        assert grad.min(initial=0.0) >= -1e-8  # dual feasibility; Gn can have no column
        support = coef > 1e-12
        if support.any():
            assert np.abs(grad[support]).max() <= 1e-8  # complementary slackness


def test_nnls_stack_on_nearly_parallel_columns_matches_scipy():
    # normal equations would square these condition numbers (up to ~1e9)
    from scipy.optimize import nnls as scipy_nnls

    rng = np.random.default_rng(12)
    for _ in range(150):
        p = int(rng.integers(2, 7))
        n = int(rng.integers(3, 12))
        G = rng.normal(size=(p, n))
        delta = 10.0 ** -rng.uniform(3, 9)
        G[:, 1] = G[:, 0] + delta * rng.normal(size=p)
        G[:, 2] = 0.5 * G[:, 0] + G[:, 1] + delta * rng.normal(size=p)
        Y = rng.normal(size=(10, p))
        resid = cold_nnls(G, Y)
        for y, r in zip(Y, resid):
            assert r == pytest.approx(scipy_nnls(G, y)[1], abs=1e-8 * (1 + np.linalg.norm(y)))


def test_passive_solve_rank_guard_matches_pinv():
    # integer columns make the dependences exact: c2 = c0 + c1, c3 = c2, c4 = 2 c0
    G = np.array([[1, 0, 1, 1, 2, 0], [0, 1, 1, 1, 0, 3], [0, 0, 0, 0, 0, 1]], dtype=float)
    sets = [
        [0, 1, 5],  # full rank, no padding
        [0],  # full rank, padded
        [1, 5],
        [0, 1, 2],  # integer-dependent
        [2, 3],  # duplicate columns
        [0, 4],  # parallel columns
        [2, 3, 5],
        [0, 1, 2, 5],  # more columns than rows
        [5],
    ]
    Y = np.random.default_rng(8).integers(-5, 6, size=(len(sets), 3)).astype(float)
    # the same sets again, three copies each in scrambled row order, every
    # copy with its own target: rows that share a set share one factorization
    repeats = np.random.default_rng(9).permutation(np.repeat(np.arange(len(sets)), 3))
    Y_repeats = np.random.default_rng(10).integers(-5, 6, size=(repeats.size, 3)).astype(float)

    for rows, targets in [(np.arange(len(sets)), Y), (repeats, Y_repeats)]:
        passive = np.zeros((rows.size, G.shape[1]), dtype=bool)
        for row, s in enumerate(rows):
            passive[row, sets[s]] = True
        trial = _passive_solve(G, targets, passive)  # raises no LinAlgError
        for row, s in enumerate(rows):
            # lstsq's minimum-norm answer, by the pseudoinverse formula
            cols = sets[s]
            rcond = np.finfo(float).eps * max(len(cols), G.shape[0])
            want = np.zeros(G.shape[1])
            want[cols] = np.linalg.pinv(G[:, cols], rcond=rcond) @ targets[row]
            np.testing.assert_allclose(trial[row], want, rtol=0, atol=1e-12)


def _start_systems(rng):
    """Degenerate integer systems, some with an exact duplicate column, then
    systems with nearly parallel columns."""
    for k in range(200):
        G, Y = _degenerate_stack(rng, k)
        if k % 5 == 0:
            G = np.hstack([G, G[:, :1]])  # duplicate column
        yield G, Y
    for _ in range(60):
        p = int(rng.integers(2, 7))
        G = rng.normal(size=(p, int(rng.integers(3, 12))))
        G[:, 1] = G[:, 0] + 10.0 ** -rng.uniform(3, 9) * rng.normal(size=p)
        yield G, rng.normal(size=(10, p))


def test_nnls_start_on_parallel_columns_gives_the_cold_answer():
    # the generators tight on facet 4 include columns 2 and 4, parallel to
    # the last bit: their minimum-norm solution makes a started run cycle
    gens = _twin_judgement_cone(198)
    G = cone_columns(gens)
    cone = extreme_rays(gens)
    a = cone.facet_normals[4]
    g = G[:, 4]
    x = g - 1e-6 * np.linalg.norm(g) * a
    start = np.abs(a @ G) <= 1e-9 * np.linalg.norm(G, axis=0)
    np.testing.assert_array_equal(np.flatnonzero(start), [1, 2, 4, 5, 6])
    cold = cold_nnls(G, x[None])[0]
    assert cold == pytest.approx(9.2196e-06, rel=1e-4)
    started = nnls(FacetCone(cone.generators, a[None]), x[None])[0]
    assert started == pytest.approx(cold, rel=0, abs=1e-15)


def _started(G, Y, sets, index):
    """``_lawson_hanson`` on the unit columns of G from the start ``(sets,
    index)`` over G's columns: ``(coef, residual_norms)``, coef on G."""
    unit, live = _unit_generators(G.T), G.any(axis=0)
    sets = sets[:, live]
    used, index = np.unique(index, return_inverse=True)  # only sets that rows name
    coef = _lawson_hanson(unit.T, Y, (sets[used], index), 3 * G.size)
    resid = np.linalg.norm(Y - coef @ unit, axis=1)
    full = np.zeros((Y.shape[0], G.shape[1]))
    full[:, live] = coef / np.linalg.norm(G[:, live], axis=0)
    return full, resid


def test_nnls_start_gives_the_cold_answer():
    # a start only moves where Lawson-Hanson begins; the KKT test that ends
    # it certifies the optimum whatever the start
    rng = np.random.default_rng(2024)
    clipped = 0
    for G, Y in _start_systems(rng):
        B, n = Y.shape[0], G.shape[1]
        cold = cold_nnls(G, Y)
        infeasible = Y @ G < 0.0  # columns pointing away from the target
        empty, full = np.zeros((B, n), bool), np.ones((B, n), bool)
        starts = [rng.random((B, n)) < 0.5, empty, full, infeasible]
        for start in starts:
            coef, resid = _started(G, Y, start, np.arange(B))
            tol = 1e-12 * (1.0 + np.linalg.norm(Y, axis=1))
            assert (np.abs(resid - cold) <= tol).all()
            assert (coef >= 0).all()
            np.testing.assert_allclose(
                np.linalg.norm(coef @ G.T - Y, axis=1), resid, rtol=0, atol=1e-10
            )
            grad = (coef @ G.T - Y) @ G
            assert grad.min() >= -1e-8  # dual feasibility
            support = coef > 1e-12
            if support.any():
                assert np.abs(grad[support]).max() <= 1e-8  # complementary slackness
        for y, cols in zip(Y, infeasible):
            if cols.any():
                clipped += np.linalg.lstsq(G[:, cols], y, rcond=None)[0].min() < 0.0
        one_resid = _started(G, Y[:1], starts[0], np.zeros(1, int))[1][0]
        assert abs(one_resid - cold[0]) <= 1e-12 * (1.0 + np.linalg.norm(Y[0]))
    assert clipped > 100  # the infeasible starts do need settling


def test_nnls_stack_makes_as_many_passive_solves_as_its_longest_row(monkeypatch):
    # rows of a stack never wait for each other to finish a phase, so the
    # stacked call solves no more often than its slowest row alone; every
    # solve, the start's and each later pass's, goes through _set_solve.
    # A started nnls works first on the columns tight on the facets its rows
    # pick, which for a lone row are its own facet's, so the rows and the
    # stack are run here on the stack's columns
    calls, stacks = [0], []
    set_solve = prefcone.cones._set_solve

    def counted(*args):
        calls[0] += 1
        return set_solve(*args)

    def solves(Gn, Y, start):
        calls[0] = 0
        _lawson_hanson(Gn, Y, start, 3 * Gn.size)
        return calls[0]

    def recorded(cone, Y):
        stacks.append((cone, Y))
        return nnls(cone, Y)

    monkeypatch.setattr(prefcone.valuefn, "nnls", recorded)
    monkeypatch.setattr(prefcone.cones, "_set_solve", counted)
    rng = np.random.default_rng(20)
    for _ in range(6):
        inst = synthetic_dm_instance(rng, p_max=4, t_max=20)
        while (inst.p, inst.t) != (4, 20):
            inst = synthetic_dm_instance(rng, p_max=4, t_max=20)
        psi = make_psi(inst)
        evaluate_batch(psi, inst.reference + rng.normal(scale=3.0, size=(300, 4)))
        cone, Y = stacks.pop()
        assert Y.shape[0] >= 200
        unit = cone.generators
        assert unit.shape[0] == inst.t + inst.p
        sets, index = _facet_starts(unit, Y, cone.facet_normals)
        named = sets.any(axis=0)
        Gn, sets = unit[named].T, sets[:, named]
        longest = max(solves(Gn, y[None], (sets, i[None])) for y, i in zip(Y, index))
        assert solves(Gn, Y, (sets, index)) == longest


def test_started_nnls_solves_again_only_the_rows_its_named_columns_project_wrongly(
    monkeypatch, pointed_instance
):
    # the one named column, the generator (0, 1) tight on the facet y2 >= 0,
    # does not reach the generator (-1, 0.5) of the missing facet; nnls runs
    # Lawson-Hanson on it first, then hands exactly the rows whose answer
    # fails the KKT test on another column to the cold call on every column
    cone = missing_facet_handle(pointed_instance).facet_cone
    G = cone_columns(generators(pointed_instance, 0.0))
    Y = np.random.default_rng(31).normal(scale=3.0, size=(200, 2))
    Y = Y[Y[:, 1] < -1e-3]  # outside the listed facet
    runs = []

    def recorded(Gn, Y, start, max_iter):
        coef = _lawson_hanson(Gn, Y, start, max_iter)
        runs.append((Gn, Y, start, coef))
        return coef

    monkeypatch.setattr(prefcone.cones, "_lawson_hanson", recorded)
    resid = nnls(cone, Y)
    (first, rows, _, _), (every, again, start, coef) = runs
    np.testing.assert_array_equal(first, G[:, 3:4] / np.linalg.norm(G[:, 3]))
    np.testing.assert_array_equal(rows, Y)
    assert every.shape == G.shape and start is None
    norms = np.linalg.norm(Y, axis=1)
    full = cold_nnls(G, Y)
    assert (np.abs(resid - full) <= 1e-12 * (1.0 + norms)).all()
    short = cold_nnls(G[:, 3:4], Y) > full + 1e-9 * (1.0 + norms)
    assert 0 < short.sum() < Y.shape[0]
    np.testing.assert_array_equal(again, Y[short])
    np.testing.assert_array_equal(coef, _cold_coef(G, Y[short])[1])
    np.testing.assert_array_equal(resid[short], cold_nnls(G, Y[short]))


def test_started_nnls_whose_narrow_run_stalls_returns_the_cold_answer(
    monkeypatch, pointed_instance
):
    # a stall in a started call, here on the named columns, sends every row
    # to one cold Lawson-Hanson run on every column
    cone = missing_facet_handle(pointed_instance).facet_cone
    G = cone_columns(generators(pointed_instance, 0.0))
    Y = np.random.default_rng(32).normal(scale=3.0, size=(200, 2))
    runs = []

    def stalled(Gn, Y, start, max_iter):
        runs.append((Gn, Y, start))
        if Gn.shape[1] < G.shape[1]:
            raise NnlsMaxIterError("active-set iterations exceeded 0")
        return _lawson_hanson(Gn, Y, start, max_iter)

    monkeypatch.setattr(prefcone.cones, "_lawson_hanson", stalled)
    resid = nnls(cone, Y)
    (narrow, _, _), (every, rows, start) = runs
    assert narrow.shape[1] == 1 and every.shape == G.shape and start is None
    np.testing.assert_array_equal(rows, Y)
    np.testing.assert_array_equal(resid, cold_nnls(G, Y))


def test_lawson_hanson_cap_counts_steps_per_row():
    # a positive target on the unit axes takes p column additions and no
    # blocking step; the cap counts each row's own, so two rows fit a cap of p
    Y = np.array([[1.0, 2.0, 3.0], [3.0, 1.0, 2.0]])
    np.testing.assert_array_equal(_lawson_hanson(np.eye(3), Y, None, 3), Y)
    with pytest.raises(NnlsMaxIterError, match="exceeded 2"):
        _lawson_hanson(np.eye(3), Y, None, 2)


def _facet_starts(unit, Y, A):
    """The start ``nnls`` gives the rows of Y on a cone of unit generator
    rows ``unit`` and facets A: the generators tight on each picked facet,
    and each row's pick."""
    picked, index = np.unique((A @ Y.T).argmin(axis=0), return_inverse=True)
    return np.abs(A[picked] @ unit.T) <= CLASSIFY_TOL, index


def test_nnls_start_table_gives_the_bits_of_one_set_per_row(monkeypatch):
    # nnls starts each row on the generators tight on its most violated
    # facet and factors each picked facet's set once for all its rows; the
    # bits are those of the same sets repeated, one per row, and an extra
    # normal that no row picks, here the zero normal on which every
    # generator is tight, changes none of them
    stacks, starts = [], []
    lawson_hanson = prefcone.cones._lawson_hanson

    def recorded(cone, Y):
        stacks.append((cone, Y))
        return nnls(cone, Y)

    def started(Gn, Y, start, max_iter):
        coef = lawson_hanson(Gn, Y, start, max_iter)
        starts.append((start, coef))
        return coef

    monkeypatch.setattr(prefcone.valuefn, "nnls", recorded)
    monkeypatch.setattr(prefcone.cones, "_lawson_hanson", started)
    rng = np.random.default_rng(23)
    for _ in range(6):
        inst = synthetic_dm_instance(rng, p_max=4, t_max=20)
        while (inst.p, inst.t) != (4, 20):
            inst = synthetic_dm_instance(rng, p_max=4, t_max=20)
        evaluate_batch(make_psi(inst), inst.reference + rng.normal(scale=3.0, size=(300, 4)))
        cone, Y = stacks.pop()
        unit, A = cone.generators, cone.facet_normals
        sets, index = _facet_starts(unit, Y, A)
        assert np.unique(index).size < index.size  # rows share their sets
        named = sets.any(axis=0)
        Gn, sets, max_iter = unit[named].T, sets[:, named], 3 * unit.size
        table = _lawson_hanson(Gn, Y, (sets, index), max_iter)
        per_row = _lawson_hanson(Gn, Y, (sets[index], np.arange(Y.shape[0])), max_iter)
        np.testing.assert_array_equal(table.view(np.uint64), per_row.view(np.uint64))
        starts.clear()
        resid = nnls(cone, Y)
        (start, coef), *_ = starts
        np.testing.assert_array_equal(start[0], sets)
        np.testing.assert_array_equal(start[1], index)
        starts.clear()
        extra_resid = nnls(FacetCone(unit, np.vstack([A, np.zeros(inst.p)])), Y)
        (_, extra), *_ = starts
        np.testing.assert_array_equal(extra.view(np.uint64), coef.view(np.uint64))
        np.testing.assert_array_equal(extra_resid.view(np.uint64), resid.view(np.uint64))


def test_nnls_starts_on_the_columns_within_classify_tol_of_the_facet(monkeypatch):
    # on the facet y2 >= 0 the unit generators (1, 0) and (1, 1e-10) are
    # tight, (1, 1e-6) and (0, 1) are not; the narrow run gets the tight two
    G = np.array([[1.0, 1.0, 1.0, 0.0], [0.0, 1e-10, 1e-6, 1.0]])
    y = np.array([1.0, -1.0])
    runs = []
    lawson_hanson = prefcone.cones._lawson_hanson

    def recorded(Gn, Y, start, max_iter):
        runs.append((Gn, start))
        return lawson_hanson(Gn, Y, start, max_iter)

    monkeypatch.setattr(prefcone.cones, "_lawson_hanson", recorded)
    resid = nnls(FacetCone(_unit_generators(G.T), np.array([[0.0, 1.0]])), y[None])[0]
    (narrow, (sets, index)), *_ = runs
    np.testing.assert_array_equal(narrow, G[:, :2] / np.linalg.norm(G[:, :2], axis=0))
    np.testing.assert_array_equal(sets, [[True, True]])
    np.testing.assert_array_equal(index, [0])
    assert resid == pytest.approx(cold_nnls(G, y[None])[0], rel=0, abs=1e-12)


def test_nnls_coefficient_past_float64_is_inf_without_a_warning():
    # the unit column is the subnormal one times 2**1073, so the coefficient
    # on the original column, 2**1074, is past float64's largest value; nnls
    # keeps its coefficients on the unit columns, and the residual is exact
    # (the suite turns RuntimeWarning into an error)
    assert cold_nnls(np.array([[5e-324, 0.0], [0.0, 1.0]]), np.array([[1.0, 2.0]]))[0] == 0.0


def test_nnls_empty_stack():
    # evaluate_batch calls nnls on its exterior rows, which can be none
    assert nnls(extreme_rays(np.ones((5, 3))), np.zeros((0, 3))).shape == (0,)
    assert cold_nnls(np.ones((3, 5)), np.zeros((0, 3))).shape == (0,)


def _dm_cones(seed, count, p_max=6, t_max=40):
    """Judgement generators of scorer-consistent instances up to t=40, p=6."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        inst = synthetic_dm_instance(rng, p_max=p_max, t_max=t_max)
        yield rng, generators(inst, 0.0)


def test_dd_matches_loop_reference_bitwise():
    rng = np.random.default_rng(4242)
    for k in range(150):
        q = 2 + k % 5
        t = int(rng.integers(0, 3 * q + 3))
        A = np.vstack([np.eye(q), rng.integers(-4, 5, size=(t, q)).astype(float)])
        if k % 4 == 0:
            A[q:] += 0.25 * rng.normal(size=(t, q))
        norms = np.linalg.norm(A, axis=1)
        A = A[norms > 0] / norms[norms > 0, None]  # what extreme_rays feeds _dd_pointed
        np.testing.assert_array_equal(_dd_pointed(A), dd_pointed_loop(A))


def _dual_rows(gens):
    """The dual cone's half-space rows: the unit axes, then the generators."""
    return np.vstack([np.eye(gens.shape[1]), gens])


def _unit_rows(A):
    """What extreme_rays feeds _dd_pointed: the nonzero rows, unit-normalized."""
    norms = np.linalg.norm(A, axis=1)
    return A[norms > 0] / norms[norms > 0, None]


def _twin_judgement_cone(seed):
    """The judgement generators of ``twin_judgement_instance(seed)``.

    Seed 1476 gives p=7, t=17, where double description, like the loop it
    must match, misses 3 of the 101 facets that exact arithmetic finds.
    """
    return generators(twin_judgement_instance(seed), 0.0)


def test_dd_matches_loop_on_permuted_rescaled_and_near_duplicate_rows():
    rng = np.random.default_rng(5150)
    for k in range(90):
        q = 2 + k % 6
        t = int(rng.integers(1, 11))
        A = np.vstack([np.eye(q), rng.integers(-4, 5, size=(t, q)).astype(float)])
        if k % 3 == 0:
            # judgement rows shuffled, with a multiple of the first one after it
            A = np.vstack([A[:q], A[q:][rng.permutation(t)]])
            A = np.vstack([A[: q + 1], 3.0 * A[q : q + 1], A[q + 1 :]])
        elif k % 3 == 1:
            A *= 10.0 ** rng.uniform(-3, 3, size=(A.shape[0], 1))
        else:
            twin = A[-1] + 10.0 ** -rng.uniform(7, 9) * rng.normal(size=q)
            A = np.vstack([A, twin])
        A = _unit_rows(A)
        np.testing.assert_array_equal(A[:q], np.eye(q))  # the axis rows extreme_rays puts first
        np.testing.assert_array_equal(_dd_pointed(A), dd_pointed_loop(A))
    A = _unit_rows(_dual_rows(_twin_judgement_cone(1476)))
    np.testing.assert_array_equal(_dd_pointed(A), dd_pointed_loop(A))


def test_dd_blocked_pairs_match_unblocked(monkeypatch):
    cones = [gens for _, gens in _dm_cones(99, 20, t_max=25)]
    cones.append(generators(gaussian_scorer_instance(20, 7), 0.0))
    cones.append(_twin_judgement_cone(1476))  # near-duplicate rows
    want = [extreme_rays(g).facet_normals for g in cones]
    monkeypatch.setattr(prefcone.cones, "_DD_BLOCK", 7)  # a few pairs or rows per block
    for g, w in zip(cones, want):
        np.testing.assert_array_equal(extreme_rays(g).facet_normals, w)


def test_dd_keeps_the_rays_of_near_duplicate_judgements():
    # new rays less than 1e-9 apart are distinct facets here, not duplicates
    for seed in (920, 938, 1013, 1174, 1332):
        gens = _twin_judgement_cone(seed)
        assert extreme_rays(gens).n_facets == len(dd_exact(_dual_rows(gens)))
    # a thin facet is still missed here (24 and 26 exact), but rays closer
    # than 1e-9 to another, which lift the count above 22, are kept
    for seed, least in ((520, 23), (739, 24)):
        gens = _twin_judgement_cone(seed)
        assert least <= extreme_rays(gens).n_facets <= len(dd_exact(_dual_rows(gens)))


def test_dd_facets_certified_up_to_t40_p6():
    for rng, cone in _dm_cones(31, 40):
        facets = extreme_rays(cone)
        if facets.is_whole_space:
            continue
        gens = cone_columns(cone).T
        gens = gens[np.linalg.norm(gens, axis=1) > 0]
        gens /= np.linalg.norm(gens, axis=1)[:, None]
        products = facets.facet_normals @ gens.T  # (k, n_gens)
        # soundness: every generator lies on the inner side of every facet
        assert products.min() >= -1e-9
        # each normal is a facet: p - 1 independent generators are tight on it
        for a, row in zip(facets.facet_normals, products):
            tight = gens[np.abs(row) <= 1e-9]
            assert np.linalg.matrix_rank(tight, tol=1e-9) == cone.shape[1] - 1, a
        # completeness: facet-interior points are in the cone, points off the
        # cone violate some facet
        Y = rng.uniform(-4, 4, size=(300, cone.shape[1]))
        margins = (Y @ facets.facet_normals.T).min(axis=1)
        resid = cold_nnls(cone_columns(cone), Y)
        tol = 1e-8 * (1.0 + np.linalg.norm(Y, axis=1))
        assert (resid[margins > tol] <= tol[margins > tol]).all()
        assert (margins[resid > tol] < 0).all()


def _certify_facets(rng, cone, facets):
    """The soundness, tightness and completeness checks of the p6 test above."""
    gens = cone_columns(cone).T
    gens = gens[np.linalg.norm(gens, axis=1) > 0]
    gens /= np.linalg.norm(gens, axis=1)[:, None]
    products = facets.facet_normals @ gens.T  # (k, n_gens)
    assert products.min() >= -1e-9
    for a, row in zip(facets.facet_normals, products):
        tight = gens[np.abs(row) <= 1e-9]
        assert np.linalg.matrix_rank(tight, tol=1e-9) == cone.shape[1] - 1, a
    Y = rng.uniform(-4, 4, size=(300, cone.shape[1]))
    margins = (Y @ facets.facet_normals.T).min(axis=1)
    resid = cold_nnls(cone_columns(cone), Y)
    tol = 1e-8 * (1.0 + np.linalg.norm(Y, axis=1))
    assert (resid[margins > tol] <= tol[margins > tol]).all()
    assert (margins[resid > tol] < 0).all()


def test_dd_facets_certified_up_to_t40_p8():
    rng = np.random.default_rng(78)
    cones = [generators(gaussian_scorer_instance(t, p), 0.0) for p in (7, 8) for t in (12, 40)]
    cones += [generators(noisy_scorer_instance(rng, 30, p, 0.0), 0.0) for p in (7, 8)]
    while len(cones) < 12:  # integer alternatives: many generators share a facet
        inst = synthetic_dm_instance(rng, p_max=8, t_max=40)
        if inst.p >= 7:
            cones.append(generators(inst, 0.0))
    for cone in cones:
        facets = extreme_rays(cone)
        assert not facets.is_whole_space
        _certify_facets(rng, cone, facets)


def test_dd_facet_counts_of_gaussian_scorer_instances():
    # counts of the timing table, up to the dimension cap; no oracle reaches these sizes
    sizes = [(40, 6), (40, 7), (40, 8), (40, 9), (30, 10), (30, 11), (30, MAX_DD_DIM)]
    for t, p in sizes:
        facets = extreme_rays(generators(gaussian_scorer_instance(t, p), 0.0))
        assert facets.n_facets == GAUSSIAN_SCORER_FACETS[t, p]


def test_extreme_rays_facet_count_matches_exact_dd():
    rng = np.random.default_rng(1996)
    for k in range(80):
        p, t = int(rng.integers(2, 6)), int(rng.integers(1, 13))
        inst = noisy_scorer_instance(rng, t, p, 0.0 if k % 4 else 0.5)
        gens = generators(inst, 0.0)
        facets = extreme_rays(gens)
        rays = dd_exact(_dual_rows(gens))
        exact = np.array([[x / max(map(abs, ray)) for x in ray] for ray in rays])
        assert facets.n_facets == len(exact)
        if len(exact):
            exact /= np.linalg.norm(exact, axis=1)[:, None]
            # each float facet is within 1e-9 of an exact ray, and each exact ray of a facet
            dist = np.linalg.norm(facets.facet_normals[:, None] - exact[None], axis=2)
            assert dist.min(axis=0).max() <= 1e-9 and dist.min(axis=1).max() <= 1e-9


def test_dd_exact_on_known_cones():
    assert dd_exact(np.eye(3)) == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    # the pointed fixture's dual: facet normals (0, 1) and (1, 2) / sqrt(5)
    rays = dd_exact(np.array([[1, 0], [0, 1], [-1, 1], [-1, 0.5], [-1, 2]]))
    assert sorted(rays) == [(0, 1), (1, 2)]
    assert dd_exact(np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, -1.0]])) == []
    with pytest.raises(ValueError, match="not pointed"):
        dd_exact(np.array([[1.0, 1.0], [-1.0, -1.0]]))

