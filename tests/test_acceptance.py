"""Acceptance gate: every criterion at its stated tolerance, one line each.

The per-criterion PASS/FAIL lines are printed by the conftest report hook
so they show up in the terminal regardless of capture settings.
"""

import math
import time

import numpy as np
import pytest

from prefcone import (
    NotPointedError,
    consistency_verdict,
    epsilon_search,
    evaluate,
    extract_linear_weights,
    extreme_rays,
    generators,
    make_psi,
    make_vartheta,
    WholeSpaceError,
)
from prefcone.lp import build_pointedness_lp, solve
from prefcone.cli import run
from _helpers import random_instance, synthetic_dm_instance
from oracle import (
    MembershipClass,
    brute_dist_to_cone,
    check_properties,
    classify,
    dist_to_cone,
    enumerate_lp_optimum,
    is_pointed_geometric,
    shrunk_pointedness,
)

BATTERY_SEED = 20260809
N_BATTERY = 100


@pytest.fixture(scope="module")
def battery():
    rng = np.random.default_rng(BATTERY_SEED)
    return [random_instance(rng) for _ in range(N_BATTERY)]


def test_c1_zero_optimum_with_certificate(pointed_instance):
    gens = generators(pointed_instance, 0.0)
    lp = build_pointedness_lp(gens)
    solve(lp)  # warm path once before timing
    start = time.perf_counter()
    sol = solve(lp)
    elapsed = time.perf_counter() - start

    assert abs(sol.objective_value) <= 1e-7
    d = sol.values[:2]
    assert (d >= np.array([1.0, 1.0]) - 1e-7).all()
    assert (gens @ d >= 1 - 1e-7).all()
    witness = np.array([1.0, 4.0])
    assert (witness >= 1).all() and (gens @ witness >= 1).all()
    assert elapsed < 0.010, f"LP solve took {elapsed * 1e3:.2f} ms"


def test_c2_positive_optimum_matches_oracle_and_exit_code(
    halfplane_instance, data_dir, capsys
):
    lp = build_pointedness_lp(generators(halfplane_instance, 0.0))
    z = solve(lp).objective_value
    assert z == pytest.approx(2.0, abs=1e-7)
    assert z == pytest.approx(enumerate_lp_optimum(lp), abs=1e-7)
    assert not consistency_verdict(halfplane_instance).pointed
    exit_code = run(["test", str(data_dir / "halfplane.json")])
    capsys.readouterr()
    assert exit_code == 1


def test_c3_signed_distance_values(pointed_instance):
    psi = make_psi(pointed_instance)
    assert evaluate(psi, np.array([3.0, 3.0])) == pytest.approx(2.0, abs=1e-6)
    assert evaluate(psi, np.array([2.0, 1.0])) == pytest.approx(0.0, abs=1e-8)
    low = evaluate(psi, np.array([-2.0, -2.0]))
    assert low == pytest.approx(-9 / math.sqrt(5), abs=1e-6)
    # the projection lands on the shallow facet, not on the steeper edge ray
    assert abs(low - (-math.sqrt(18))) > 1e-3


def test_c4_property_battery(battery):
    start = time.perf_counter()
    violations = []
    n_psi = n_pointed = 0
    for i, inst in enumerate(battery):
        seed = BATTERY_SEED + i
        try:
            psi = make_psi(inst)
        except WholeSpaceError:
            psi = None
        if psi is not None:
            n_psi += 1
            points = inst.alternatives[list(inst.preferred_indices)]
            violations += check_properties(psi, 1000, seed=seed, judgement_points=points)
        pointed, _, weights = shrunk_pointedness(inst, 0.0)
        if not pointed:
            continue
        n_pointed += 1
        vartheta = make_vartheta(inst)
        ref_val = evaluate(vartheta, inst.reference)
        assert ref_val == pytest.approx(0.0, abs=1e-8)
        for j in inst.preferred_indices:
            assert evaluate(vartheta, inst.alternatives[j]) > ref_val + 1e-9
        ref_score = float(weights @ inst.reference)
        for j in inst.preferred_indices:
            assert float(weights @ inst.alternatives[j]) > ref_score + 1e-9
    elapsed = time.perf_counter() - start

    assert violations == [], f"{len(violations)} property violations: {violations[:3]}"
    assert n_psi >= 50 and n_pointed >= 10  # the battery exercises both regimes
    assert elapsed < 60.0, f"battery took {elapsed:.1f} s"


def test_c5_equivalence_audit(battery):
    for inst in battery:
        by_lp = shrunk_pointedness(inst, 0.0).pointed
        by_geometry = is_pointed_geometric(generators(inst, 0.0))
        try:
            weights = extract_linear_weights(inst)
            ref_score = float(weights @ inst.reference)
            by_linear = all(
                float(weights @ inst.alternatives[j]) > ref_score
                for j in inst.preferred_indices
            )
        except NotPointedError:
            by_linear = False
        try:
            vartheta = make_vartheta(inst)
            ref_val = evaluate(vartheta, inst.reference)
            by_quasiconcave = all(
                evaluate(vartheta, inst.alternatives[j]) > ref_val
                for j in inst.preferred_indices
            )
        except NotPointedError:
            by_quasiconcave = False
        row = (by_linear, by_quasiconcave, by_geometry, by_lp)
        assert len(set(row)) == 1, f"mixed equivalence row {row}"


def test_c6_synthetic_dm_soundness():
    rng = np.random.default_rng(BATTERY_SEED + 777)
    for _ in range(50):
        inst = synthetic_dm_instance(rng)
        assert consistency_verdict(inst).pointed


def test_c7_epsilon_search_and_interiority(battery):
    checked = 0
    for inst in battery:
        if not shrunk_pointedness(inst, 0.0).pointed:
            continue
        checked += 1
        eps_bar = epsilon_search(inst)  # raises MaxIterExceededError on failure
        assert eps_bar > 0
        facets = extreme_rays(generators(inst, eps_bar))
        for j in inst.preferred_indices:
            y = inst.alternatives[j] - inst.reference
            assert classify(y, facets) is MembershipClass.INTERIOR
    assert checked >= 10


def test_c8_distance_engine_vs_oracles(battery):
    rng = np.random.default_rng(BATTERY_SEED + 4242)
    pairs = 0
    while pairs < 500:
        inst = battery[pairs % len(battery)]
        gens = generators(inst, 0.0)
        for _ in range(5):
            y = rng.uniform(-6, 6, size=inst.p)
            engine = dist_to_cone(y, gens)
            assert engine <= brute_dist_to_cone(y, gens) + 1e-6
            pairs += 1

    for theta_lo, theta_hi, point, expected in _hand_2d_cases():
        gens = np.array([_unit(theta_lo), _unit(theta_hi)])
        assert dist_to_cone(np.array(point), gens) == pytest.approx(expected, abs=1e-8)


def _unit(degrees: float) -> list[float]:
    rad = math.radians(degrees)
    return [math.cos(rad), math.sin(rad)]


def _sector_distance(theta_lo: float, theta_hi: float, y: np.ndarray) -> float:
    """Analytic distance to the sector [theta_lo, theta_hi] (width <= 180)."""
    r_lo, r_hi = np.array(_unit(theta_lo)), np.array(_unit(theta_hi))
    n_lo = np.array([-r_lo[1], r_lo[0]])  # rotate +90: inward at the low edge
    n_hi = np.array([r_hi[1], -r_hi[0]])  # rotate -90: inward at the high edge
    if n_lo @ y >= 0 and n_hi @ y >= 0:
        return 0.0
    d_lo = np.linalg.norm(y - max(0.0, y @ r_lo) * r_lo)
    d_hi = np.linalg.norm(y - max(0.0, y @ r_hi) * r_hi)
    return float(min(d_lo, d_hi))


def _hand_2d_cases():
    sectors = [
        (-30.0, 90.0),
        (0.0, 120.0),
        (-45.0, 135.0),  # half-plane
        (-60.0, 100.0),
        (0.0, 90.0),  # plain orthant
        (-30.0, 140.0),
        (-80.0, 95.0),
        (0.0, 150.0),
        (-10.0, 91.0),
        (-45.0, 90.0),
    ]
    probes = [(2.0, 1.0), (-3.0, -1.0), (-1.0, -2.0), (0.0, -2.0), (-4.0, 2.0), (1.0, -3.0)]
    cases = []
    for i, (lo, hi) in enumerate(sectors):
        for k in range(2):
            point = np.array(probes[(2 * i + k) % len(probes)])
            cases.append((lo, hi, tuple(point), _sector_distance(lo, hi, point)))
    assert len(cases) == 20
    return cases
