"""Metamorphic tests: symmetries of the maths leave the verdict unchanged.

Pointedness and the facet count depend only on the cone that the judgement
directions span together with the orthant.  Relabelling criteria or
judgements, translating every alternative, scaling one criterion by a
positive factor, or adding alternatives nobody judged must change neither.
Integer data with integer shifts and power-of-two scales keep every
transformed instance exact in floating point, so any mismatch is a defect
of the engine, not rounding in the test.  Each verdict, on the draw and on
its transform, must also equal the exact oracle's.
"""

import numpy as np
import pytest

from prefcone import (
    PreferenceInstance,
    consistency_verdict,
    generators,
)
from prefcone.cones import extreme_rays
from _helpers import random_instance
from oracle import exact_pointed

N_DRAWS = 200


def _permute_criteria(inst, rng):
    return PreferenceInstance(
        inst.alternatives[:, rng.permutation(inst.p)],
        inst.reference_index,
        inst.preferred_indices,
    )


def _permute_judgements(inst, rng):
    order = rng.permutation(inst.t)
    return PreferenceInstance(
        inst.alternatives,
        inst.reference_index,
        [inst.preferred_indices[i] for i in order],
    )


def _translate(inst, rng):
    shift = rng.integers(-50, 51, size=inst.p)
    return PreferenceInstance(
        inst.alternatives + shift, inst.reference_index, inst.preferred_indices
    )


def _scale_criteria(inst, rng):
    scale = 2.0 ** rng.integers(-10, 11, size=inst.p)
    return PreferenceInstance(
        inst.alternatives * scale, inst.reference_index, inst.preferred_indices
    )


def _append_unjudged(inst, rng):
    # random_instance draws coordinates in [-3, 3]; these rows cannot collide
    extra = rng.integers(4, 10, size=(int(rng.integers(1, 4)), inst.p))
    extra = np.unique(extra, axis=0)
    return PreferenceInstance(
        np.vstack([inst.alternatives, extra]),
        inst.reference_index,
        inst.preferred_indices,
    )


TRANSFORMS = [
    _permute_criteria,
    _permute_judgements,
    _translate,
    _scale_criteria,
    _append_unjudged,
]


def _answer(inst):
    gens = generators(inst, 0.0)
    pointed = consistency_verdict(inst).pointed
    assert pointed == exact_pointed(gens)
    return pointed, extreme_rays(gens).n_facets


@pytest.mark.parametrize("transform", TRANSFORMS, ids=lambda f: f.__name__.lstrip("_"))
def test_verdict_invariant_under_symmetry(transform):
    rng = np.random.default_rng(20261018)
    for draw in range(N_DRAWS):
        inst = random_instance(rng)
        moved = transform(inst, rng)
        assert _answer(moved) == _answer(inst), (draw, transform.__name__)
