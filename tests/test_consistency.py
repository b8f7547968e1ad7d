import json
from collections import Counter

import numpy as np
import pytest

import prefcone.consistency
import prefcone.instance
from prefcone import (
    InvalidInstanceError,
    MaxIterExceededError,
    NotPointedError,
    NumericalError,
    PreferenceInstance,
    consistency_verdict,
    epsilon_search,
    extract_linear_weights,
    generators,
    make_vartheta,
    parse_instance,
)
from prefcone.lp import build_pointedness_lp
from _helpers import (
    HARD_SCALE_ALTERNATIVES,
    noisy_scorer_instance,
    random_instance,
    synthetic_dm_instance,
)
from oracle import (
    backtrack_epsilon,
    exact_pointed,
    is_pointed_geometric,
    search_outcome,
    shrunk_pointedness,
)


@pytest.mark.parametrize("fixture", ["pointed.json", "halfplane.json"])
def test_verdict_computes_each_artifact_once(monkeypatch, data_dir, fixture):
    calls = Counter()

    def count(module, name):
        fn = getattr(module, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    count(prefcone.instance, "validate")
    count(prefcone.consistency, "solve")
    count(prefcone.consistency, "extreme_rays")
    inst = parse_instance((data_dir / fixture).read_text())
    report = consistency_verdict(inst)
    # one margin program, then the paper's program for z* when the cone is not
    # pointed, and no double description
    assert calls == {"validate": 1, "solve": 1 + (not report.pointed)}


def test_margin_verdict_and_exact_weights_on_seeded_draws():
    # the margin program decides as the paper's program does, and its weights
    # meet d >= 1 and G d >= 1 with no tolerance
    rng = np.random.default_rng(419)
    pointed = 0
    for k in range(3000):
        inst = (random_instance if k % 2 else synthetic_dm_instance)(rng)
        try:
            d = extract_linear_weights(inst)
        except NotPointedError:
            d = None
        assert (d is not None) == shrunk_pointedness(inst, 0.0).pointed, k
        if d is not None:
            pointed += 1
            assert (d >= 1).all() and (generators(inst) @ d >= 1).all(), k
    assert 1000 < pointed < 2900


def test_margin_lp_agrees_with_highs_on_noisy_scorers():
    from scipy.optimize import linprog

    verdicts = Counter()
    for t, p in [(8, 4), (40, 6), (100, 8), (300, 10), (600, 15)]:
        for noise in (0.0, 0.3, 1.0, 10.0, 100.0):
            rng = np.random.default_rng([t, p, int(10 * noise)])
            inst = noisy_scorer_instance(rng, t, p, noise)
            G = generators(inst)
            highs = linprog(
                np.zeros(p), A_ub=-G, b_ub=-np.ones(t), bounds=(1, None), method="highs"
            )
            assert highs.status in (0, 2), highs.message
            try:
                d = extract_linear_weights(inst)
            except NotPointedError:
                d = None
            assert (d is not None) == (highs.status == 0), (t, p, noise)
            verdicts[d is not None] += 1
            if d is None:
                with pytest.raises(NotPointedError):
                    epsilon_search(inst)
                continue
            assert (d >= 1).all() and (G @ d >= 1).all()
            # eps* = max over the simplex of min_j g_j.d, from HiGHS
            c = np.zeros(p + 1)
            c[-1] = -1.0
            res = linprog(
                c, A_ub=np.hstack([-G, np.ones((t, 1))]), b_ub=np.zeros(t),
                A_eq=[[1.0] * p + [0.0]], b_eq=[1.0],
                bounds=[(0, None)] * p + [(None, None)], method="highs",
            )
            eps_star = -res.fun
            assert eps_star * (1 - 1e-7) < prefcone.consistency._margin(inst)[0]
            assert prefcone.consistency._margin(inst)[0] <= eps_star * (1 + 1e-7)
    assert verdicts[True] >= 5 and verdicts[False] >= 5


def test_pointed_fixture(pointed_instance):
    pointed, z_star, d = shrunk_pointedness(pointed_instance, 0.0)
    assert pointed and z_star == pytest.approx(0.0, abs=1e-9)
    assert (d >= 1 - 1e-7).all()
    assert (generators(pointed_instance, 0.0) @ d >= 1 - 1e-7).all()


def test_halfplane_fixture_not_pointed(halfplane_instance):
    pointed, z_star, d = shrunk_pointedness(halfplane_instance, 0.0)
    assert not pointed
    assert z_star == pytest.approx(2.0, abs=1e-9)
    assert d is None


def test_single_judgement_along_ones():
    inst = PreferenceInstance([[1.0, 1.0], [2.0, 2.0]], 0, [1])
    pointed, z_star, d = shrunk_pointedness(inst, 0.0)
    assert pointed and z_star <= 1e-9
    assert (d >= 1 - 1e-9).all()


def _scaled(inst, k):
    """``inst`` with its alternatives scaled by 2**-k, which scales eps* exactly."""
    return PreferenceInstance(
        inst.alternatives * 2.0**-k, inst.reference_index, inst.preferred_indices
    )


def test_epsilon_search_first_trial(pointed_instance):
    eps = epsilon_search(pointed_instance)
    assert eps == pytest.approx(0.01)
    assert shrunk_pointedness(pointed_instance, eps).pointed
    # eps* = 0.5 * 2**-7 lies below 0.01: the schedule halves twice more
    scaled = _scaled(pointed_instance, 7)
    eps = epsilon_search(scaled)
    assert eps == 0.0025
    assert shrunk_pointedness(scaled, eps).pointed


def test_epsilon_search_rejects_non_pointed(halfplane_instance):
    with pytest.raises(NotPointedError):
        epsilon_search(halfplane_instance)


def test_epsilon_search_exhausts_below_the_last_schedule_value(pointed_instance):
    # the schedule 0.01 * 0.5**i runs until it underflows to 0.0 at i = 1069,
    # and its last positive value is 5e-324; eps* = 0.5 here scales exactly
    # with the instance, so each scaled copy gets the first value below it
    assert 0.5**1068 * 1e-2 == 5e-324 and 0.5**1069 * 1e-2 == 0.0
    eps_star = prefcone.consistency._margin(pointed_instance)[0]
    assert eps_star == 0.5
    for k, i in ((62, 57), (66, 61), (70, 65), (1000, 995), (1021, 1016)):
        scaled = _scaled(pointed_instance, k)
        assert prefcone.consistency._margin(scaled)[0] == eps_star * 2.0**-k
        assert 0.5**i * 1e-2 < eps_star * 2.0**-k <= 0.5 ** (i - 1) * 1e-2
        assert epsilon_search(scaled) == 0.5**i * 1e-2
    # the search fails exactly when eps* is at or below 5e-324
    first_below = prefcone.consistency._first_below
    assert first_below(1e-323) == 5e-324
    for tiny in (5e-324, 0.0):
        with pytest.raises(MaxIterExceededError, match="no positive schedule value from 0.01"):
            first_below(tiny)


def test_epsilon_search_matches_trial_backtracking():
    # each draw, and a copy scaled by 2**-k that pushes eps* down the schedule
    rng = np.random.default_rng(211)
    outcomes = Counter()
    for n in range(400):
        draw = random_instance if n % 2 else synthetic_dm_instance
        inst = draw(rng)
        k = 1 + n % 16
        scaled = _scaled(inst, k)
        for case in (inst, scaled):
            got = search_outcome(epsilon_search, case)
            assert got == search_outcome(backtrack_epsilon, case), (n, case is inst)
            if isinstance(got, type):
                with pytest.raises(got):
                    make_vartheta(case)
            else:  # the search's value keeps the shrunk cone pointed
                assert got < prefcone.consistency._margin(case)[0]
                make_vartheta(case)
            outcomes[got if isinstance(got, type) else got < 0.01] += 1
        eps_star = prefcone.consistency._margin(inst)[0]
        assert prefcone.consistency._margin(scaled)[0] == eps_star * 2.0**-k, n
    # values past the first trial, first-trial values and the not-pointed error all occur
    assert min(outcomes[key] for key in (True, False, NotPointedError)) > 20


def test_epsilon_monotone_in_pointedness():
    rng = np.random.default_rng(23)
    checked = 0
    while checked < 25:
        inst = random_instance(rng)
        if not shrunk_pointedness(inst, 0.0).pointed:
            continue
        checked += 1
        eps_grid = [0.0, 1e-4, 1e-3, 1e-2, 0.1, 0.5]
        flags = [shrunk_pointedness(inst, e).pointed for e in eps_grid]
        # once pointedness is lost at some epsilon it never comes back smaller
        for small, big in zip(flags, flags[1:]):
            assert small or not big


def test_extract_weights(pointed_instance, halfplane_instance):
    d = extract_linear_weights(pointed_instance)
    alts = pointed_instance.alternatives
    ref = pointed_instance.reference
    for j in pointed_instance.preferred_indices:
        assert alts[j] @ d > ref @ d
    with pytest.raises(NotPointedError):
        extract_linear_weights(halfplane_instance)


def test_verdict_pointed_fixture(pointed_instance):
    report = consistency_verdict(pointed_instance)
    assert report.pointed
    assert report.z_star == pytest.approx(0.0, abs=1e-9)
    assert report.weight_certificate is not None
    assert report.epsilon_bar == pytest.approx(0.01)
    assert all(report.statements.values())
    assert "yes" in report.verdict_text


def test_verdict_halfplane_fixture(halfplane_instance):
    report = consistency_verdict(halfplane_instance)
    assert not report.pointed
    assert report.z_star == pytest.approx(2.0, abs=1e-9)
    assert report.weight_certificate is None and report.epsilon_bar is None
    assert not any(report.statements.values())
    assert "inconsistent" in report.verdict_text


def test_verdict_whole_plane_fixture(whole_plane_instance):
    report = consistency_verdict(whole_plane_instance)
    assert not report.pointed
    assert report.z_star == pytest.approx(4.0, abs=1e-9)


def test_verdict_rejects_invalid_instance():
    # the verdict never sees an invalid instance: construction raises first
    with pytest.raises(InvalidInstanceError) as err:
        PreferenceInstance([[1.0], [2.0]], 0, [])
    assert [c for c, _ in err.value.violations] == ["NO_JUDGEMENTS"]


def test_report_json_schema(pointed_instance):
    doc = json.loads(json.dumps(consistency_verdict(pointed_instance).to_dict()))
    assert set(doc) == {
        "pointed",
        "z_star",
        "weight_certificate",
        "epsilon_bar",
        "verdict_text",
        "equivalent_statements",
    }
    assert set(doc["equivalent_statements"]) == {
        "linear_function_exists",
        "quasiconcave_function_exists",
        "cone_pointed",
        "lp_optimum_zero",
    }
    # presence equivalence
    assert (doc["weight_certificate"] is not None) == doc["pointed"]
    assert (doc["epsilon_bar"] is not None) == doc["pointed"]


def test_lp_agrees_with_geometry_on_random_instances():
    rng = np.random.default_rng(101)
    seen_pointed = seen_not = 0
    for _ in range(200):
        inst = random_instance(rng)
        by_lp = consistency_verdict(inst).pointed
        by_geometry = is_pointed_geometric(generators(inst, 0.0))
        assert by_lp == by_geometry
        seen_pointed += by_lp
        seen_not += not by_lp
    assert seen_pointed > 10 and seen_not > 10  # both kinds exercised


def test_certificate_soundness_random():
    rng = np.random.default_rng(37)
    for _ in range(60):
        inst = random_instance(rng)
        eps = float(rng.uniform(0.0, 0.05))
        pointed, _, d = shrunk_pointedness(inst, eps)
        if pointed:
            assert (d >= 1 - 1e-7).all()
            assert (generators(inst, eps) @ d >= 1 - 1e-7).all()


def test_synthetic_dm_instances_test_consistent():
    rng = np.random.default_rng(59)
    for _ in range(25):
        inst = synthetic_dm_instance(rng)
        assert consistency_verdict(inst).pointed


def test_concurrent_verdicts_are_identical(pointed_instance):
    # all operations are pure functions of immutable inputs
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=8) as pool:
        reports = list(pool.map(lambda _: consistency_verdict(pointed_instance), range(16)))
    first = json.dumps(reports[0].to_dict())
    assert all(json.dumps(r.to_dict()) == first for r in reports)


def test_verdict_scale_invariant():
    rng = np.random.default_rng(73)
    for _ in range(25):
        inst = random_instance(rng)
        base = consistency_verdict(inst).pointed
        for alpha in (0.5, 3.7):
            scaled = PreferenceInstance(
                inst.alternatives * alpha,
                inst.reference_index,
                inst.preferred_indices,
            )
            assert consistency_verdict(scaled).pointed == base


def _highs_z_star(inst):
    """HiGHS's optimum of the paper's feasibility program on ``inst``."""
    from scipy.optimize import linprog

    lp = build_pointedness_lp(generators(inst))
    highs = linprog(
        lp.objective, A_eq=lp.constraint_matrix, b_eq=lp.rhs, bounds=(0, None), method="highs"
    )
    assert highs.status == 0, highs.message
    return highs.fun


def test_z_star_agrees_with_highs_on_small_draws():
    # the sizes of the CLI's small inputs, where the benchmark never reads z*
    rng = np.random.default_rng(5)
    inconsistent = 0
    for k in range(400):
        inst = random_instance(rng)
        report = consistency_verdict(inst)
        if not report.pointed:
            inconsistent += 1
            assert report.z_star == pytest.approx(_highs_z_star(inst), rel=1e-9), k
    assert inconsistent >= 50


@pytest.mark.parametrize("t, p, seed", [(200, 8, 0), (400, 10, 1), (600, 15, 0)])
def test_z_star_agrees_with_highs_at_scale(t, p, seed):
    # N(0, 1) alternatives, every one preferred to the first
    alts = np.random.default_rng([t, p, seed]).normal(size=(t + 1, p))
    inst = PreferenceInstance(alts, 0, list(range(1, t + 1)))
    report = consistency_verdict(inst)
    assert not report.pointed
    assert report.z_star == pytest.approx(_highs_z_star(inst), rel=1e-9)


@pytest.mark.xfail(
    raises=(AssertionError, NumericalError),
    strict=True,
    reason="the absolute LP tolerances misread these pointed cones",
)
@pytest.mark.parametrize("alternatives", HARD_SCALE_ALTERNATIVES)
def test_verdict_is_exact_on_the_hard_scale_fixtures(alternatives):
    inst = PreferenceInstance(alternatives, 0, list(range(1, len(alternatives))))
    assert consistency_verdict(inst).pointed is exact_pointed(generators(inst))
