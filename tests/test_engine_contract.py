"""The private cone engine's input contract, as the package's callers keep it.

``prefcone.cones`` checks none of its input.  ``extreme_rays`` takes a
valid instance's finite ``(t, p)`` generators and builds every
``FacetCone``, its generators and facet normals both unit rows; ``nnls``
takes such a record with at least one facet and a ``(B, p)`` stack of
points that ``evaluate_batch`` has checked, and hands the rows it answers
cold to ``cones._cold`` with the record's own generators.  Here
``extreme_rays`` and ``nnls`` are wrapped where their callers look them
up, and ``prefcone.cones._cold`` where ``nnls`` does, by a check of that
contract.  ``make_psi``, ``make_vartheta``, ``evaluate_batch`` and
``plot2d`` then run on seeded instances and on the float fuzz's documents.
"""

import json
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import prefcone.cones
import prefcone.plotting
import prefcone.valuefn
from prefcone import (
    InvalidInstanceError,
    NnlsMaxIterError,
    PrefconeError,
    evaluate_batch,
    make_psi,
    make_vartheta,
    parse_instance,
    plot2d,
)
from _helpers import (
    missing_facet_handle,
    random_instance,
    synthetic_dm_instance,
    twin_judgement_instance,
)

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "scripts"))
from float_fuzz import draw, translated  # noqa: E402

SCALES = np.logspace(-3, 150, 18)  # distances from the reference


def _assert_finite_float64(a, shape):
    assert isinstance(a, np.ndarray) and a.dtype == np.float64
    assert a.ndim == len(shape) and all(n is None or n == m for n, m in zip(shape, a.shape))
    assert np.isfinite(a).all()


def _assert_unit_rows(A, p):
    _assert_finite_float64(A, (None, p))
    assert (np.abs(np.linalg.norm(A, axis=1) - 1.0) <= 1e-9).all()


@pytest.fixture
def engine_calls(monkeypatch):
    """Counts of the checked engine calls: ``nnls``, its cold solves, ``extreme_rays``."""
    calls = Counter()
    nnls, cold = prefcone.cones.nnls, prefcone.cones._cold
    extreme_rays = prefcone.cones.extreme_rays
    started = []  # the record of the nnls call under way

    def checked_nnls(cone, target):
        p = cone.generators.shape[1]
        _assert_unit_rows(cone.generators, p)
        _assert_unit_rows(cone.facet_normals, p)
        assert cone.n_facets > 0
        _assert_finite_float64(target, (None, p))
        calls["nnls"] += 1
        started.append(cone)
        try:
            resid = nnls(cone, target)
        finally:
            started.pop()
        _assert_finite_float64(resid, (target.shape[0],))
        return resid

    def checked_cold(unit, target, max_iter):
        assert unit is started[-1].generators and max_iter == 3 * unit.size
        calls["nnls cold"] += 1
        resid = cold(unit, target, max_iter)
        _assert_finite_float64(resid, (target.shape[0],))
        return resid

    def checked_extreme_rays(gens):
        _assert_finite_float64(gens, (None, None))
        calls["extreme_rays"] += 1
        cone = extreme_rays(gens)
        _assert_unit_rows(cone.generators, gens.shape[1])
        _assert_unit_rows(cone.facet_normals, gens.shape[1])
        return cone

    monkeypatch.setattr(prefcone.valuefn, "nnls", checked_nnls)
    monkeypatch.setattr(prefcone.cones, "_cold", checked_cold)
    for module in (prefcone.valuefn, prefcone.plotting):
        monkeypatch.setattr(module, "extreme_rays", checked_extreme_rays)
    return calls


def _instances(rng):
    """Seeded integer, scorer and twin-judgement instances, then fuzz
    documents as drawn and translated by 2^60, where valid."""
    for _ in range(40):
        yield random_instance(rng)
        yield synthetic_dm_instance(rng, p_max=5, t_max=12)
    dm = np.random.default_rng(4)
    for _ in range(30):  # scorer instances up to t=40, p=6
        yield synthetic_dm_instance(dm, p_max=6, t_max=40)
    for seed in (198, 520, 1476):  # double description misses facets of these
        yield twin_judgement_instance(seed)
    for _ in range(120):
        doc = draw(rng)
        for copy in (doc, translated(doc)):
            try:
                yield parse_instance(json.dumps(copy))
            except InvalidInstanceError:
                pass


def _points(rng, inst):
    """Three points at each distance in SCALES around the reference, then the
    alternatives below 1e150, whose distance to the reference stays finite."""
    dirs = rng.normal(size=(3 * SCALES.size, inst.p))
    dirs *= np.repeat(SCALES, 3)[:, None] / np.linalg.norm(dirs, axis=1)[:, None]
    alts = inst.alternatives[np.abs(inst.alternatives).max(axis=1) < 1e150]
    return np.vstack([inst.reference + dirs, alts])


def test_engine_callers_pass_only_its_contract(engine_calls, tmp_path, pointed_instance):
    rng = np.random.default_rng(37)
    plots = 0
    for inst in _instances(rng):
        handles = []
        for make in (make_psi, make_vartheta):
            try:
                handles.append(make(inst))
            except PrefconeError:  # a whole-space or a non-pointed cone
                pass
        X = _points(rng, inst)
        for handle in handles:
            try:
                evaluate_batch(handle, X)
            except NnlsMaxIterError:  # a cold run can stall on an extreme-scale cone
                pass
            # a stack with a non-finite or overflowing row never reaches the engine
            made = sum(engine_calls.values())
            for bad in (np.nan, np.inf, -np.inf, 1e160):
                Y = X.copy()
                Y[int(rng.integers(Y.shape[0]))] = inst.reference + bad
                with pytest.raises(ValueError, match="points must be finite"):
                    evaluate_batch(handle, Y)
            assert sum(engine_calls.values()) == made
        if inst.p == 2:
            try:
                plot2d(inst, tmp_path / "cone.svg")
            except PrefconeError:  # the fuzz's numerical failures, exit 3 in the CLI
                pass
            plots += 1
    assert plots > 90
    assert engine_calls["extreme_rays"] > 550
    assert engine_calls["nnls"] > 350
    assert engine_calls["nnls cold"] > 0  # narrow runs that stalled
    # a facet list that misses a facet, as double description can: the rows
    # that fail the KKT test past it go to one cold call, as a stack
    cold = engine_calls["nnls cold"]
    X = pointed_instance.reference + rng.normal(scale=3.0, size=(200, 2))
    evaluate_batch(missing_facet_handle(pointed_instance), X)
    assert engine_calls["nnls cold"] == cold + 1
