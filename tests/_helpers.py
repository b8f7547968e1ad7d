"""Shared generators for randomized tests; everything is seeded by the caller."""

from __future__ import annotations

import numpy as np

from prefcone import PreferenceInstance, ValueFunctionHandle, make_psi
from prefcone.cones import CLASSIFY_TOL, FacetCone


def random_instance(
    rng: np.random.Generator,
    p_max: int = 4,
    t_max: int = 6,
    lo: int = -3,
    hi: int = 3,
) -> PreferenceInstance:
    """Valid instance with distinct integer-coordinate alternatives."""
    p = int(rng.integers(1, p_max + 1))
    t = int(rng.integers(1, t_max + 1))
    m_wanted = t + 1 + int(rng.integers(0, 3))
    alts = _distinct_points(rng, m_wanted, p, lo, hi)
    m = alts.shape[0]
    t = min(t, m - 1)
    order = rng.permutation(m)
    reference = int(order[0])
    preferred = [int(j) for j in order[1 : 1 + t]]
    return PreferenceInstance(alts, reference, preferred)


def synthetic_dm_instance(
    rng: np.random.Generator,
    p_max: int = 4,
    t_max: int = 6,
    lo: int = -3,
    hi: int = 3,
) -> PreferenceInstance:
    """Instance whose judgements come from a random positive linear scorer."""
    while True:
        p = int(rng.integers(1, p_max + 1))
        weights = rng.uniform(0.5, 2.0, size=p)
        m_wanted = int(rng.integers(3, t_max + 3))
        alts = _distinct_points(rng, m_wanted, p, lo, hi)
        scores = alts @ weights
        reference = int(np.argmin(scores))
        better = [int(j) for j in np.flatnonzero(scores > scores[reference] + 1e-9)]
        if not better:
            continue
        rng.shuffle(better)
        preferred = better[: min(t_max, len(better))]
        return PreferenceInstance(alts, reference, preferred)


def twin_judgement_instance(seed: int) -> PreferenceInstance:
    """A scorer instance (p <= 7) with one judgement repeated 1e-7..1e-9 apart."""
    rng = np.random.default_rng([seed, 11])
    inst = synthetic_dm_instance(rng, p_max=7, t_max=20)
    alts = np.array(inst.alternatives)
    j = inst.preferred_indices[int(rng.integers(inst.t))]
    alts = np.vstack([alts, alts[j] + 10.0 ** -rng.uniform(7, 9) * rng.normal(size=inst.p)])
    preferred = list(inst.preferred_indices) + [alts.shape[0] - 1]
    return PreferenceInstance(alts, inst.reference_index, preferred)


def noisy_scorer_instance(
    rng: np.random.Generator, t: int, p: int, noise: float
) -> PreferenceInstance:
    """t judgements from a positive linear scorer whose scores carry noise.

    Alternatives are N(0, 1) in p criteria, the weights U(0.5, 2), and the
    noise Gaussian at ``noise`` times the scores' spread.  Of t + 3
    alternatives, the t best by noisy score are preferred to the next one.
    """
    alts = rng.normal(size=(t + 3, p))
    scores = alts @ rng.uniform(0.5, 2.0, size=p)
    scores = scores + rng.normal(0.0, noise * scores.std(), size=t + 3)
    order = np.argsort(-scores, kind="stable")
    return PreferenceInstance(alts, int(order[t]), [int(j) for j in order[:t]])


def gaussian_scorer_instance(t: int, p: int) -> PreferenceInstance:
    """The double description timing instance for (t, p), seeded by ``[t, p, 7]``.

    t + 1 alternatives N(0, 1) in p criteria and a positive linear scorer
    with weights U(0.5, 2): every alternative is preferred to the
    lowest-scored one, the reference.
    """
    rng = np.random.default_rng([t, p, 7])
    alts = rng.normal(size=(t + 1, p))
    scores = alts @ rng.uniform(0.5, 2.0, size=p)
    reference = int(np.argmin(scores))
    return PreferenceInstance(alts, reference, [j for j in range(t + 1) if j != reference])


# Facet counts of gaussian_scorer_instance(t, p), as double description gives them
GAUSSIAN_SCORER_FACETS = {
    (40, 6): 142,
    (40, 7): 436,
    (40, 8): 826,
    (40, 9): 1483,
    (40, 10): 10080,
    (40, 11): 24108,
    (30, 10): 4086,
    (30, 11): 5084,
    (30, 12): 15598,
}


# Pointed cones, by exact arithmetic, whose scale the package's tolerances
# misread; the reference is alternative 0 and every other one is preferred
HARD_SCALE_ALTERNATIVES = [
    [[0.0], [1e9], [1.0]],  # any positive weight separates
    [[0.0, 0.0], [32768.0, -3.0517578125e-05], [-32768.0, 6.103515625e-05]],  # d = (3, 2)
    [[0.0], [3.0], [5e-324]],  # a subnormal judgement still has a positive entry
]


def missing_facet_handle(pointed_instance: PreferenceInstance) -> ValueFunctionHandle:
    """psi on ``data/pointed.json`` without its facet y1 + 2 y2 >= 0, so the
    extreme generator (-1, 0.5) is tight on no listed facet."""
    psi = make_psi(pointed_instance)
    A = psi.facet_cone.facet_normals
    np.testing.assert_allclose(A, [[0.0, 1.0], [1 / np.sqrt(5.0), 2 / np.sqrt(5.0)]], atol=1e-15)
    handle = ValueFunctionHandle(
        kind="psi", reference=psi.reference,
        facet_cone=FacetCone(psi.facet_cone.generators, A[:1]),
    )
    np.testing.assert_array_equal(facet_tight_columns(handle).any(axis=0), [0, 0, 0, 1, 0])
    return handle


def facet_tight_columns(handle: ValueFunctionHandle) -> np.ndarray:
    """(k, n) bool table: the generators of the handle's cone record tight
    on each of its facets, by the test ``nnls`` starts a row with, ``|a.g|
    <= CLASSIFY_TOL`` on the unit generators."""
    cone = handle.facet_cone
    return np.abs(cone.facet_normals @ cone.generators.T) <= CLASSIFY_TOL


def _distinct_points(rng, m_wanted, p, lo, hi) -> np.ndarray:
    capacity = (hi - lo + 1) ** p
    m_wanted = min(m_wanted, capacity)
    seen: dict[tuple, None] = {}
    while len(seen) < m_wanted:
        point = tuple(int(v) for v in rng.integers(lo, hi + 1, size=p))
        seen.setdefault(point, None)
    return np.array(list(seen), dtype=float).reshape(m_wanted, p)
