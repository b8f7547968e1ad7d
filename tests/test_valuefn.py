import json
import warnings

import numpy as np
import pytest

import prefcone.consistency
import prefcone.valuefn
from prefcone import (
    NotPointedError,
    PreferenceInstance,
    ValueFunctionHandle,
    WholeSpaceError,
    consistency_verdict,
    epsilon_search,
    evaluate,
    evaluate_batch,
    generators,
    make_linear,
    make_psi,
    make_vartheta,
)
from prefcone.cli import run
from prefcone.cones import CLASSIFY_TOL, FacetCone, _unit_generators, extreme_rays, nnls
from _helpers import (
    facet_tight_columns,
    missing_facet_handle,
    random_instance,
    synthetic_dm_instance,
    twin_judgement_instance,
)
from oracle import check_properties, cold_nnls, cone_columns, dd_exact

SQRT5 = np.sqrt(5.0)


@pytest.fixture(scope="module")
def psi(pointed_instance):
    return make_psi(pointed_instance)


@pytest.fixture(scope="module")
def vartheta(pointed_instance):
    return make_vartheta(pointed_instance)


def _points(inst):
    """The instance's preferred alternatives, the judgement points of its handles."""
    return inst.alternatives[list(inst.preferred_indices)]


def test_make_psi_fixture(psi, pointed_instance):
    assert psi.kind == "psi"
    np.testing.assert_array_equal(
        psi.facet_cone.generators,
        _unit_generators(cone_columns(generators(pointed_instance, 0.0)).T),
    )
    assert not psi.facet_cone.is_whole_space


def test_make_psi_whole_space_rejected(whole_plane_instance):
    with pytest.raises(WholeSpaceError):
        make_psi(whole_plane_instance)


@pytest.mark.xfail(
    raises=pytest.fail.Exception,
    strict=True,
    reason="double description's absolute activity tolerance keeps the facet (1, 0)",
)
def test_make_psi_rejects_a_whole_plane_with_a_judgement_near_the_negative_axis():
    # g = (-1, -1e10): g + 1e10 e2 = (-1, 0) and g + e1 lie in the cone, so
    # it is the whole plane, and the exact dual cone has no ray
    inst = PreferenceInstance([[0.0, 0.0], [-1.0, -1e10]], 0, [1])
    assert dd_exact(np.vstack([np.eye(2), generators(inst, 0.0)])) == []
    with pytest.raises(WholeSpaceError):
        make_psi(inst)


def test_make_psi_single_judgement_above_reference():
    inst = PreferenceInstance([[0.0, 0.0], [1.0, 1.0]], 0, [1])
    handle = make_psi(inst)
    assert evaluate(handle, np.array([2.0, 2.0])) > 0


def test_make_psi_defined_for_non_pointed_halfplane(halfplane_instance):
    # the cone is a half-plane, not the whole space: the signed distance
    # stays available even though no strict/linear function exists
    handle = make_psi(halfplane_instance)
    ref = halfplane_instance.reference
    up = ref + np.array([2.0, 2.0])
    down = ref + np.array([-2.0, -2.0])
    assert evaluate(handle, up) == pytest.approx(4 / np.sqrt(2), abs=1e-8)
    assert evaluate(handle, down) == pytest.approx(-4 / np.sqrt(2), abs=1e-8)
    assert evaluate(handle, ref) == 0.0


def test_make_vartheta_requires_pointedness(halfplane_instance):
    with pytest.raises(NotPointedError):
        make_vartheta(halfplane_instance)


def test_make_vartheta_accepts_epsilon_just_below_eps_star(capsys, tmp_path):
    # eps* = 0.0100000001 and epsilon_bar = 0.01: the shrunk generator is
    # 1e-10 * (1, 1), which the full pointedness program cannot resolve
    doc = {
        "alternatives": [[0, 0], [0.0100000001, 0.0100000001]],
        "reference_index": 0,
        "preferred_indices": [1],
    }
    inst = PreferenceInstance(doc["alternatives"], 0, [1])
    eps = consistency_verdict(inst).epsilon_bar
    assert eps == 0.01
    handle = make_vartheta(inst)
    np.testing.assert_array_equal(
        handle.facet_cone.generators[0], _unit_generators(generators(inst, eps))[0]
    )
    assert check_properties(handle, 1000, seed=3, judgement_points=_points(inst)) == []

    path = tmp_path / "band.json"
    path.write_text(json.dumps(doc))
    for point in ("1,1", "0,0", "-2,0.5"):
        argv = ["eval", "--instance", str(path), "--function", "vartheta", f"--point={point}"]
        assert run(argv) == 0
        want = evaluate(handle, np.array([float(v) for v in point.split(",")]))
        assert json.loads(capsys.readouterr().out)["value"] == want


def test_make_vartheta_solves_one_margin_lp(monkeypatch, pointed_instance):
    calls = []
    solve = prefcone.consistency.solve

    def counting_solve(lp):
        calls.append(lp)
        return solve(lp)

    monkeypatch.setattr(prefcone.consistency, "solve", counting_solve)
    make_vartheta(pointed_instance)
    assert [lp.constraint_matrix.shape[0] for lp in calls] == [pointed_instance.p]


def test_make_vartheta_fixture(vartheta, pointed_instance):
    assert vartheta.kind == "vartheta"
    eps = epsilon_search(pointed_instance)
    assert eps > 0
    np.testing.assert_array_equal(
        vartheta.facet_cone.generators,
        _unit_generators(cone_columns(generators(pointed_instance, eps)).T),
    )


def test_psi_fixture_values(psi):
    assert evaluate(psi, np.array([3.0, 3.0])) == pytest.approx(2.0, abs=1e-9)
    assert evaluate(psi, np.array([2.0, 1.0])) == 0.0
    assert evaluate(psi, np.array([-2.0, -2.0])) == pytest.approx(-9 / SQRT5, abs=1e-8)


def test_psi_zero_at_reference_and_weak_separation(psi, pointed_instance):
    assert evaluate(psi, pointed_instance.reference) == 0.0
    for j in pointed_instance.preferred_indices:
        assert evaluate(psi, pointed_instance.alternatives[j]) >= 0.0


def test_vartheta_strict_separation(vartheta, pointed_instance):
    ref_val = evaluate(vartheta, pointed_instance.reference)
    assert ref_val == 0.0
    for j in pointed_instance.preferred_indices:
        assert evaluate(vartheta, pointed_instance.alternatives[j]) > ref_val + 1e-9


def test_linear_fixture(pointed_instance):
    handle = make_linear(pointed_instance)
    assert (handle.weights >= 1 - 1e-7).all()
    ref_val = evaluate(handle, pointed_instance.reference)
    for j in pointed_instance.preferred_indices:
        assert evaluate(handle, pointed_instance.alternatives[j]) > ref_val


def test_linear_known_weights_separate(pointed_instance):
    handle = ValueFunctionHandle(
        kind="linear",
        reference=pointed_instance.reference.copy(),
        weights=np.array([1.0, 4.0]),
    )
    assert evaluate(handle, np.array([0.0, 2.0])) == pytest.approx(8.0)
    assert evaluate(handle, pointed_instance.reference) == pytest.approx(5.0)


def test_linear_rejected_when_not_pointed(halfplane_instance):
    with pytest.raises(NotPointedError):
        make_linear(halfplane_instance)


def test_evaluate_dimension_checked(psi):
    with pytest.raises(ValueError):
        evaluate(psi, np.array([1.0, 2.0, 3.0]))


@pytest.mark.parametrize("shape", [(1, 2, 2), (5, 2, 1), (5, 2, 3)])
def test_evaluate_batch_rejects_points_of_rank_three(psi, vartheta, pointed_instance, shape):
    X = np.ones(shape)
    for handle in (psi, vartheta, make_linear(pointed_instance)):
        with pytest.raises(ValueError, match="points must be"):
            evaluate_batch(handle, X)


def test_whole_space_handle_rejected_by_both_evaluators(psi):
    whole = ValueFunctionHandle(
        kind="psi",
        reference=psi.reference,
        facet_cone=FacetCone(psi.facet_cone.generators, np.zeros((0, 2))),
    )
    with pytest.raises(WholeSpaceError):
        evaluate(whole, np.array([1.0, 1.0]))
    with pytest.raises(WholeSpaceError):
        evaluate_batch(whole, np.array([[1.0, 1.0]]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1e160, -1e160, 1e308, -1e308])
def test_non_finite_points_rejected(psi, vartheta, pointed_instance, bad):
    for handle in (psi, vartheta, make_linear(pointed_instance)):
        with pytest.raises(ValueError, match="finite"):
            evaluate(handle, np.array([bad, 1.0]))
        with pytest.raises(ValueError, match="finite"):
            evaluate_batch(handle, np.array([[2.0, 2.0], [1.0, bad]]))


def test_points_of_ordinary_size_evaluate_without_warnings(psi, vartheta, pointed_instance):
    # 1e150 squares to 1e300, still finite; 1e160 squares past float64 and is refused
    linear = make_linear(pointed_instance)
    D = np.array([[1.0, 1.0], [-1.0, -1.0], [-2.0, 0.5]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for handle in (psi, vartheta):
            values = evaluate_batch(handle, handle.reference + 1e150 * D)
            # positive homogeneity about the reference, signs included
            np.testing.assert_allclose(
                values, 1e150 * evaluate_batch(handle, handle.reference + D), rtol=1e-12
            )
            assert values[0] > 0 > values[1]
        X = 1e150 * D
        np.testing.assert_array_equal(evaluate_batch(linear, X), X @ linear.weights)
        for handle in (psi, vartheta, linear):
            with pytest.raises(ValueError, match="finite"):
                evaluate_batch(handle, np.array([[1e160, 1.0]]))


def test_psi_of_a_judgement_past_the_norm_overflow():
    # |g|^2 overflows once an entry passes ~1.3e154; the projection sees each
    # generator through the same exact power-of-two prescale as the facets,
    # so the judgement keeps its direction and no warning is raised
    huge = PreferenceInstance([[0, 0], [1.7e300, -1e292]], 0, [1])
    plain = PreferenceInstance([[0, 0], [1.7, -1e-8]], 0, [1])
    x = np.array([[1.0, -1e-8]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        value = evaluate_batch(make_psi(huge), x)[0]
    assert value == pytest.approx(-4.1176470588235e-09, rel=1e-12)
    assert value == pytest.approx(evaluate_batch(make_psi(plain), x)[0], rel=1e-12)


def test_evaluate_batch_matches_pointwise(psi, vartheta, pointed_instance):
    rng = np.random.default_rng(17)
    X = rng.uniform(-6, 6, size=(200, 2))
    for handle in (psi, vartheta, make_linear(pointed_instance)):
        batch = evaluate_batch(handle, X)
        single = np.array([evaluate(handle, x) for x in X])
        np.testing.assert_allclose(batch, single, atol=1e-12)


def test_check_properties_clean_on_fixture(psi, pointed_instance):
    points = _points(pointed_instance)
    assert check_properties(psi, 1000, seed=42, judgement_points=points) == []
    below = [psi.reference - 1.0]  # a judgement point outside the cone
    violations = check_properties(psi, 1000, seed=42, judgement_points=below)
    assert {v.prop for v in violations} == {"weak_separation"}
    with pytest.raises(ValueError, match="judgement points"):
        check_properties(psi, 1000, seed=42)


def test_check_properties_clean_on_vartheta(vartheta, pointed_instance):
    points = _points(pointed_instance)
    assert check_properties(vartheta, 1000, seed=42, judgement_points=points) == []
    at_reference = [vartheta.reference]  # a judgement point only weakly separated
    violations = check_properties(vartheta, 1000, seed=42, judgement_points=at_reference)
    assert {v.prop for v in violations} == {"strict_separation"}
    with pytest.raises(ValueError, match="judgement points"):
        check_properties(vartheta, 1000, seed=42)


def test_check_properties_flags_corrupted_handle(psi, pointed_instance):
    normals = psi.facet_cone.facet_normals.copy()
    normals[0] = -normals[0]
    broken = ValueFunctionHandle(
        kind="psi",
        reference=psi.reference,
        facet_cone=FacetCone(psi.facet_cone.generators, normals),
    )
    assert check_properties(broken, 1000, seed=42, judgement_points=_points(pointed_instance))


def test_check_properties_linear(pointed_instance):
    handle = make_linear(pointed_instance)
    points = _points(pointed_instance)
    assert check_properties(handle, 1000, seed=42, judgement_points=points) == []
    # a weight vector that ranks the reference above a judgement must be flagged
    bad = ValueFunctionHandle(
        kind="linear",
        reference=pointed_instance.reference.copy(),
        weights=np.array([2.0, 0.1]),
    )
    assert check_properties(bad, 1000, seed=42, judgement_points=points)


def test_lipschitz_bound_on_fixture(psi):
    rng = np.random.default_rng(4)
    X = rng.uniform(-10, 10, size=(400, 2))
    Y = rng.uniform(-10, 10, size=(400, 2))
    fx = evaluate_batch(psi, X)
    fy = evaluate_batch(psi, Y)
    assert (np.abs(fx - fy) <= 2 * np.linalg.norm(X - Y, axis=1) + 1e-9).all()


def _pruning_handles():
    """psi and vartheta handles on seeded draws, plus duplicated judgement directions."""
    rng = np.random.default_rng(808)
    for k in range(80):
        draw = synthetic_dm_instance if k % 2 else random_instance
        inst = draw(rng, p_max=5, t_max=10)
        try:
            yield make_psi(inst)
        except WholeSpaceError:
            continue
        try:
            yield make_vartheta(inst)
        except NotPointedError:
            pass
    # a judgement twice the length of another
    alts = [[0, 0, 0], [1, 2, 0], [2, 4, 0], [3, 1, 1], [0, 1, 3]]
    inst = PreferenceInstance(alts, 0, [1, 2, 3, 4])
    yield make_psi(inst)
    # an exactly duplicated judgement row
    gens = generators(inst, 0.0)
    gens = np.vstack([gens, gens[2:]])
    yield ValueFunctionHandle(
        kind="psi", reference=inst.reference.copy(), facet_cone=extreme_rays(gens)
    )


def _exterior_values_match_full_projection(handle, rng, tol):
    X = handle.reference + rng.normal(scale=3.0, size=(200, handle.p))
    values = evaluate_batch(handle, X)
    exterior = values < 0
    Y = X[exterior] - handle.reference
    full = cold_nnls(handle.facet_cone.generators.T, Y)
    assert (np.abs(-values[exterior] - full) <= tol * (1.0 + np.linalg.norm(Y, axis=1))).all()


def test_extreme_generators_span_the_cone():
    # in a pointed cone with p >= 2 every extreme generator is tight on a
    # facet, so the generators of the nnls starts span the cone
    rng = np.random.default_rng(909)
    dropped = 0
    for handle in _pruning_handles():
        G = handle.facet_cone.generators.T
        if handle.p >= 2 and np.linalg.matrix_rank(handle.facet_cone.facet_normals) == handle.p:
            on_facet = facet_tight_columns(handle).any(axis=0)
            extreme, rest = G[:, on_facet], G[:, ~on_facet]
            for g in rest.T:
                assert cold_nnls(extreme, g[None])[0] <= 1e-9 * np.linalg.norm(g)
            dropped += rest.shape[1]
        _exterior_values_match_full_projection(handle, rng, 1e-12)
    assert dropped > 0


def test_generators_are_scaled_once_per_cone_and_nnls_gets_the_handles_record(
    monkeypatch, pointed_instance
):
    # extreme_rays scales the judgement generators once and keeps them in
    # the handle's cone record; evaluate_batch hands nnls that record, and
    # the cold solves of the rows a missing facet leaves scale nothing again
    scaled, cold_rows = [], []
    unit_generators, cold = prefcone.cones._unit_generators, prefcone.cones._cold

    def counted(V):
        scaled.append(V.shape)
        return unit_generators(V)

    def counted_cold(unit, Y, max_iter):
        cold_rows.append(Y.shape[0])
        return cold(unit, Y, max_iter)

    monkeypatch.setattr(prefcone.cones, "_unit_generators", counted)
    monkeypatch.setattr(prefcone.cones, "_cold", counted_cold)
    calls = _recorded_nnls(monkeypatch)
    rng = np.random.default_rng(41)
    inst = synthetic_dm_instance(rng, p_max=4, t_max=20)
    while (inst.p, inst.t) != (4, 20):
        inst = synthetic_dm_instance(rng, p_max=4, t_max=20)
    makers = [
        lambda: make_psi(inst),
        lambda: make_psi(pointed_instance),
        lambda: make_vartheta(pointed_instance),
        lambda: missing_facet_handle(pointed_instance),
    ]
    for make in makers:
        scaled.clear()
        handle = make()
        assert scaled == [(handle.facet_cone.generators.shape[0] - handle.p, handle.p)]
        X = handle.reference + rng.normal(scale=3.0, size=(300, handle.p))
        scaled.clear()
        calls.clear()
        values = evaluate_batch(handle, X)
        assert scaled == []
        [(cone, Y)] = calls
        assert cone is handle.facet_cone
        assert Y.shape[0] == (values < 0).sum() > 0
    assert sum(cold_rows) > 0  # the missing facet's rows, redone cold


def _recorded_nnls(monkeypatch):
    """Record each ``valuefn.nnls`` call's cone record and targets."""
    calls = []

    def recorded(cone, Y):
        calls.append((cone, Y))
        return nnls(cone, Y)

    monkeypatch.setattr(prefcone.valuefn, "nnls", recorded)
    return calls


def test_missing_facet_rows_fail_the_kkt_check_and_are_solved_again(monkeypatch, pointed_instance):
    # one nnls call on every generator; the rows that the facet start's column
    # alone projects wrongly still get the all-generator projection
    # (tests/test_cones.py checks which rows nnls solves again)
    from scipy.optimize import nnls as scipy_nnls

    handle = missing_facet_handle(pointed_instance)
    G = cone_columns(generators(pointed_instance, 0.0))
    X = handle.reference + np.random.default_rng(31).normal(scale=3.0, size=(200, 2))
    calls = _recorded_nnls(monkeypatch)
    values = evaluate_batch(handle, X)
    [(cone, Y)] = calls
    assert cone is handle.facet_cone
    assert Y.shape[0] > 50
    norms = np.linalg.norm(Y, axis=1)
    full = cold_nnls(G, Y)
    scipy = np.array([scipy_nnls(G, y)[1] for y in Y])
    assert (np.abs(-values[values < 0] - full) <= 1e-12 * (1.0 + norms)).all()
    assert (np.abs(full - scipy) <= 1e-12 * (1.0 + norms)).all()


def test_score_batch_cones_make_one_nnls_call_on_the_facet_tight_generators(monkeypatch):
    # at p=4, t=20 about a third of the generators lie on a facet; the one
    # nnls call gets the handle's cone record, every generator and the facet
    # normals, and works on the facet-tight generators first
    rng = np.random.default_rng(21)
    calls = _recorded_nnls(monkeypatch)
    for _ in range(6):
        inst = synthetic_dm_instance(rng, p_max=4, t_max=20)
        while (inst.p, inst.t) != (4, 20):
            inst = synthetic_dm_instance(rng, p_max=4, t_max=20)
        psi = make_psi(inst)
        tight = facet_tight_columns(psi).any(axis=0)
        assert tight.sum() < tight.size
        X = inst.reference + rng.normal(scale=3.0, size=(300, 4))
        calls.clear()
        values = evaluate_batch(psi, X)
        [(cone, Y)] = calls
        assert cone is psi.facet_cone
        assert Y.shape[0] >= 200
        cold = cold_nnls(cone_columns(generators(inst, 0.0)), Y)
        assert (np.abs(-values[values < 0] - cold) <= 1e-12 * (1.0 + np.linalg.norm(Y, axis=1))).all()


def test_nearly_parallel_generators_match_projection_on_every_generator():
    # double description misses the thin facet between two judgements 1e-7..1e-9
    # apart; the exterior values come from the generators alone
    rng = np.random.default_rng(5)
    for _ in range(300):
        inst = synthetic_dm_instance(rng, p_max=5, t_max=8)
        j = inst.preferred_indices[0]
        near = inst.alternatives[j] + 10.0 ** -rng.uniform(7, 9) * rng.normal(size=inst.p)
        alts = np.vstack([inst.alternatives, near])
        handle = make_psi(
            PreferenceInstance(alts, inst.reference_index, [*inst.preferred_indices, len(alts) - 1])
        )
        _exterior_values_match_full_projection(handle, rng, 1e-9)


def test_twin_judgement_psi_matches_cold_projection(capsys, tmp_path):
    # facet starts here hold two numerically parallel generators, on which
    # Lawson-Hanson can cycle; psi must still give the cold projection
    inst = twin_judgement_instance(750)
    psi = make_psi(inst)
    assert evaluate(psi, inst.reference) == 0.0
    X = inst.reference + np.random.default_rng(750).normal(scale=3.0, size=(100, inst.p))
    values = evaluate_batch(psi, X)
    exterior = values < 0
    assert exterior.sum() > 50
    Y = X[exterior] - inst.reference
    cold = cold_nnls(cone_columns(generators(inst, 0.0)), Y)
    # nearly parallel columns leave cold solves ~1e-10 apart from warm ones
    assert (np.abs(-values[exterior] - cold) <= 1e-9 * (1.0 + np.linalg.norm(Y, axis=1))).all()
    path = tmp_path / "twin.json"
    path.write_text(json.dumps({
        "alternatives": inst.alternatives.tolist(),
        "reference_index": inst.reference_index,
        "preferred_indices": list(inst.preferred_indices),
    }))
    point = ",".join(repr(float(v)) for v in inst.reference)
    code = run(["eval", "--instance", str(path), "--function", "psi", f"--point={point}"])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["classification"] == "boundary"


# the twin cones whose started solves crashed before a capped started stack
# was solved again cold
_TWIN_SEEDS = [*range(40), 71, 93, 260, 350, 482, 691, 694, 730, 739, 743, 750]


@pytest.mark.parametrize("seed", _TWIN_SEEDS)
def test_twin_judgement_points_near_the_boundary_match_cold_projection(seed):
    # g - delta |g| a sits just outside the facet a tight at the judgement g;
    # its start holds the two nearly parallel twins, on which started
    # Lawson-Hanson can cycle until the cold solve takes over
    inst = twin_judgement_instance(seed)
    psi = make_psi(inst)
    A = psi.facet_cone.facet_normals
    Y = []
    for g in generators(inst, 0.0):
        tight = np.abs(A @ g) <= CLASSIFY_TOL * np.linalg.norm(g)
        for a in A[tight][:3]:
            Y.extend(g - delta * np.linalg.norm(g) * a for delta in (1e-6, 1e-3, 1e-1))
    Y = np.reshape(Y, (-1, inst.p))
    values = evaluate_batch(psi, inst.reference + Y)
    exterior = values < 0
    cold = cold_nnls(cone_columns(generators(inst, 0.0)), Y[exterior])
    gap = np.abs(-values[exterior] - cold)
    assert (gap <= 1e-9 * (1.0 + np.linalg.norm(Y[exterior], axis=1))).all()


def test_non_pointed_cone_keeps_every_generator(monkeypatch, halfplane_instance):
    # the cone is x1 + x2 >= 0 around the reference; the nnls call gets the
    # handle's cone record, every generator and the facet normals, and the
    # exterior value is the distance
    handle = make_psi(halfplane_instance)
    assert np.linalg.matrix_rank(handle.facet_cone.facet_normals) < handle.p
    rng = np.random.default_rng(909)
    _exterior_values_match_full_projection(handle, rng, 1e-12)
    X = handle.reference + rng.normal(scale=3.0, size=(200, 2))
    calls = _recorded_nnls(monkeypatch)
    values = evaluate_batch(handle, X)
    [(cone, _)] = calls
    assert cone is handle.facet_cone
    exterior = values < 0
    assert exterior.any()
    Y = X[exterior] - handle.reference
    np.testing.assert_allclose(values[exterior], Y.sum(axis=1) / np.sqrt(2.0), atol=1e-12)
