import numpy as np
import pytest

from prefcone import (
    PreferenceInstance,
    StandardLP,
    build_pointedness_lp,
    generators,
    parse_instance,
    solve,
)
from _helpers import random_instance
from oracle import (
    TooLargeError,
    brute_dist_to_cone,
    dist_to_cone,
    enumerate_lp_optimum,
    exact_pointed,
)

SQRT5 = np.sqrt(5.0)


def test_brute_converges_on_known_projection(pointed_instance):
    gens = generators(pointed_instance, 0.0)
    got = brute_dist_to_cone(np.array([-3.0, -3.0]), gens, samples=1000)
    assert got == pytest.approx(9 / SQRT5, abs=1e-4)


def test_brute_zero_inside_cone(pointed_instance):
    gens = generators(pointed_instance, 0.0)
    assert brute_dist_to_cone(np.array([2.0, 2.0]), gens, samples=1000) <= 1e-6


def test_brute_antipodal_ray():
    got = brute_dist_to_cone(np.array([-1.0, 0.0]), np.array([[1.0, 0.0]]), samples=1000)
    assert got == pytest.approx(1.0, abs=1e-6)


def test_brute_requires_enough_samples(pointed_instance):
    gens = generators(pointed_instance, 0.0)
    with pytest.raises(ValueError):
        brute_dist_to_cone(np.zeros(2), gens, samples=10)


def test_brute_upper_bounds_engine_distance():
    rng = np.random.default_rng(13)
    for _ in range(40):
        inst = random_instance(rng)
        gens = generators(inst, 0.0)
        y = rng.uniform(-5, 5, size=inst.p)
        assert dist_to_cone(y, gens) <= brute_dist_to_cone(y, gens) + 1e-6


def test_enumerate_fixture_lps(pointed_instance, halfplane_instance):
    lp_half = build_pointedness_lp(generators(halfplane_instance, 0.0))
    assert enumerate_lp_optimum(lp_half) == pytest.approx(2.0, abs=1e-12)
    lp_pointed = build_pointedness_lp(generators(pointed_instance, 0.0))
    assert enumerate_lp_optimum(lp_pointed) == pytest.approx(0.0, abs=1e-12)


def test_enumerate_identity_with_cost_on_second_block():
    A = np.hstack([np.eye(3), np.eye(3)])
    c = np.r_[np.zeros(3), np.ones(3)]
    lp = StandardLP(A, np.ones(3), c)
    assert enumerate_lp_optimum(lp) == pytest.approx(0.0)


def test_enumerate_caps():
    lp = StandardLP(np.eye(7), np.ones(7), np.zeros(7))
    with pytest.raises(TooLargeError):
        enumerate_lp_optimum(lp)
    lp = StandardLP(np.hstack([np.eye(2)] * 8), np.ones(2), np.zeros(16))
    with pytest.raises(TooLargeError):
        enumerate_lp_optimum(lp)


def test_enumerate_agrees_with_simplex_on_random_lps():
    rng = np.random.default_rng(29)
    for _ in range(30):
        n_rows = int(rng.integers(1, 4))
        n_free = int(rng.integers(1, 6))
        A = np.hstack([rng.integers(-3, 4, (n_rows, n_free)).astype(float), np.eye(n_rows)])
        b = rng.integers(0, 4, n_rows).astype(float)
        c = rng.integers(0, 4, n_free + n_rows).astype(float)
        lp = StandardLP(A, b, c)
        assert solve(lp).objective_value == pytest.approx(
            enumerate_lp_optimum(lp), abs=1e-7
        )


@pytest.mark.parametrize(
    "name, pointed",
    [
        ("pointed.json", True),
        ("pointed.csv", True),
        ("halfplane.json", False),
        ("whole_plane.json", False),
    ],
)
def test_exact_pointed_on_the_data_files(data_dir, name, pointed):
    path = data_dir / name
    inst = parse_instance(path.read_text(), format=path.suffix[1:])
    assert exact_pointed(generators(inst, 0.0)) is pointed


@pytest.mark.parametrize(
    "alternatives",
    [
        [[0.0], [1e9], [1.0]],  # any positive weight separates
        [[0.0, 0.0], [32768.0, -3.0517578125e-05], [-32768.0, 6.103515625e-05]],  # d = (3, 2)
        [[0.0], [3.0], [5e-324]],  # a subnormal judgement still has a positive entry
    ],
)
def test_exact_pointed_reads_the_hard_scale_fixtures_as_pointed(alternatives):
    # truth values only: the package's own verdicts on these are not asserted
    inst = PreferenceInstance(alternatives, 0, list(range(1, len(alternatives))))
    assert exact_pointed(generators(inst, 0.0)) is True
