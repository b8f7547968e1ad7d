import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prefcone import (
    DimensionMismatchError,
    InvalidInstanceError,
    ParseError,
    PreferenceInstance,
    generators,
    parse_instance,
)
from prefcone.instance import validate

POINTED_JSON = (
    '{"alternatives": [[0, 2], [0, 1.5], [0, 3], [1, 1]],'
    ' "reference_index": 3, "preferred_indices": [0, 1, 2]}'
)


def test_alternatives_are_read_only():
    alts = np.array([[0.0, 2.0], [1.0, 1.0]])
    inst = PreferenceInstance(alts, 1, [0])
    with pytest.raises(ValueError, match="read-only"):
        inst.alternatives[0, 0] = 5.0
    alts[0, 0] = 5.0  # the caller's array is copied, not frozen
    assert inst.alternatives[0, 0] == 0.0


def test_parse_json_fields():
    inst = parse_instance(POINTED_JSON)
    assert inst.p == 2 and inst.t == 3 and inst.m == 4
    assert inst.reference_index == 3
    assert inst.preferred_indices == (0, 1, 2)
    np.testing.assert_array_equal(inst.alternatives[1], [0.0, 1.5])


def test_parse_csv_roles_and_order(data_dir):
    inst = parse_instance((data_dir / "pointed.csv").read_text(), "csv")
    assert inst.reference_index == 3
    assert inst.preferred_indices == (0, 1, 2)
    np.testing.assert_array_equal(inst.alternatives[3], [1.0, 1.0])


def test_csv_duplicate_of_reference_is_invalid():
    text = "1,1,pref\n1,1,ref\n"  # the shape is fine, the instance is not
    with pytest.raises(InvalidInstanceError) as parsed:
        parse_instance(text, "csv")
    assert [code for code, _ in parsed.value.violations] == ["DUPLICATE_ALTERNATIVE"]
    with pytest.raises(InvalidInstanceError) as built:
        PreferenceInstance([[1, 1], [1, 1]], 1, [0])
    assert parsed.value.violations == built.value.violations


def test_json_mixed_dimensions_rejected():
    bad = '{"alternatives": [[1, 2], [1]], "reference_index": 0, "preferred_indices": [1]}'
    with pytest.raises(DimensionMismatchError):
        parse_instance(bad)


@pytest.mark.parametrize(
    "alternatives, match",
    [([[0.0, 1.0], [2.0]], "not rectangular"), (np.zeros(3), "2-d matrix, got 1")],
    ids=["ragged", "one-dimensional"],
)
def test_instance_rejects_non_matrix_alternatives(alternatives, match):
    with pytest.raises(DimensionMismatchError, match=match):
        PreferenceInstance(alternatives, 0, [1])


def test_unknown_format_rejected():
    with pytest.raises(ValueError, match="unknown instance format 'xml'"):
        parse_instance(POINTED_JSON, "xml")


def test_csv_blank_lines_between_rows_are_skipped(data_dir):
    text = (data_dir / "pointed.csv").read_text()
    plain = parse_instance(text, "csv")
    spaced = parse_instance(text.replace("\n", "\n\n   \n", 2), "csv")
    np.testing.assert_array_equal(spaced.alternatives, plain.alternatives)
    assert spaced.reference_index == plain.reference_index == 3
    assert spaced.preferred_indices == plain.preferred_indices == (0, 1, 2)


def test_csv_mixed_dimensions_rejected_with_line():
    with pytest.raises(DimensionMismatchError, match="line 2"):
        parse_instance("1,2,ref\n1,pref\n", "csv")


def test_csv_bad_number_position():
    with pytest.raises(ParseError) as err:
        parse_instance("1,x,ref\n", "csv")
    assert err.value.line == 1 and err.value.field == 2


@pytest.mark.parametrize(
    "text,match",
    [
        ("1,1,boss\n", "unknown role"),
        ("1,1,pref\n2,2,pref\n", "exactly one 'ref'"),
        ("1,1,ref\n2,2,ref\n", "exactly one 'ref'"),
        ("", "no data rows"),
    ],
)
def test_csv_structural_errors(text, match):
    with pytest.raises(ParseError, match=match):
        parse_instance(text, "csv")


def test_malformed_json():
    with pytest.raises(ParseError):
        parse_instance("{not json")
    with pytest.raises(ParseError, match="missing required field"):
        parse_instance('{"alternatives": [[1]]}')
    with pytest.raises(ParseError, match="non-numeric"):
        parse_instance(
            '{"alternatives": [["a", 2]], "reference_index": 0, "preferred_indices": []}'
        )


def test_json_integers_past_float64_are_parse_errors():
    # float() rounds integers below 2**1024 - 2**970 to a double, the rest overflow
    doc = '{{"alternatives": [[0, 0], [{}, 1]], "reference_index": 0, "preferred_indices": [1]}}'
    largest = parse_instance(doc.format(2**1024 - 2**970 - 1))
    assert largest.alternatives[1, 0] == np.finfo(float).max
    for value in (2**1024 - 2**970, -(10**400)):
        with pytest.raises(ParseError, match="alternative 1 contains an integer too large"):
            parse_instance(doc.format(value))
    with pytest.raises(InvalidInstanceError) as err:  # a float literal overflows to inf
        parse_instance(doc.format("1e400"))
    assert [c for c, _ in err.value.violations] == ["NON_FINITE_VALUE"]


def test_validate_ok_on_fixture(pointed_instance):
    assert validate(pointed_instance) == ()


@pytest.mark.parametrize(
    "inst,code",
    [
        (([[1, 1], [1, 1], [0, 0]], 2, [0, 1]), "DUPLICATE_ALTERNATIVE"),
        (([[1, 1], [2, 2]], 0, [0, 1]), "REFERENCE_IN_PREFERRED"),
        (([[1, 1], [2, 2]], 5, [1]), "REFERENCE_OUT_OF_RANGE"),
        (([[1, 1], [2, 2]], 0, [9]), "PREFERRED_OUT_OF_RANGE"),
        (([[1, 1], [2, 2]], 0, [1, 1]), "DUPLICATE_PREFERRED"),
        (([[1, 1], [2, 2]], 0, []), "NO_JUDGEMENTS"),
        (([[np.inf, 1], [2, 2]], 0, [1]), "NON_FINITE_VALUE"),
        (([[-1e308, 0], [1e308, 1]], 0, [1]), "NON_FINITE_DIRECTION"),
    ],
)
def test_validate_violations(inst, code):
    # inst holds the constructor's arguments, since no invalid instance can be built
    with pytest.raises(InvalidInstanceError) as built:
        PreferenceInstance(*inst)
    assert [c for c, _ in built.value.violations] == [code]
    doc = dict(zip(("alternatives", "reference_index", "preferred_indices"), inst))
    with pytest.raises(InvalidInstanceError) as parsed:
        parse_instance(json.dumps(doc))
    assert parsed.value.violations == built.value.violations


def test_generators_fixture_values(pointed_instance, halfplane_instance):
    np.testing.assert_array_equal(
        generators(pointed_instance, 0.0), [[-1, 1], [-1, 0.5], [-1, 2]]
    )
    np.testing.assert_allclose(
        generators(pointed_instance, 0.1),
        [[-1.1, 0.9], [-1.1, 0.4], [-1.1, 1.9]],
        atol=1e-12,
    )
    np.testing.assert_array_equal(
        generators(halfplane_instance, 0.0), [[-1, 1], [1, -1]]
    )


def test_instance_without_judgements_cannot_be_built():
    # generators never sees an instance without judgements: none can be built
    with pytest.raises(InvalidInstanceError) as err:
        PreferenceInstance([[1, 1], [2, 2]], 0, [])
    assert [c for c, _ in err.value.violations] == ["NO_JUDGEMENTS"]


def test_generators_reject_negative_epsilon(pointed_instance):
    with pytest.raises(ValueError):
        generators(pointed_instance, -0.5)


# hypothesis strategy: valid instances with small integer coordinates
@st.composite
def instances(draw):
    p = draw(st.integers(1, 4))
    m = draw(st.integers(2, 7))
    rows = draw(
        st.lists(
            st.lists(st.integers(-3, 3).map(float), min_size=p, max_size=p),
            min_size=m,
            max_size=m,
            unique_by=tuple,
        )
    )
    m = len(rows)
    if m < 2:
        rows.append([v + 1.0 for v in rows[0]])
        m = 2
    ref = draw(st.integers(0, m - 1))
    others = [i for i in range(m) if i != ref]
    t = draw(st.integers(1, len(others)))
    pref = draw(st.permutations(others)).copy()[:t]
    return PreferenceInstance(rows, ref, pref)


@given(instances())
@settings(max_examples=100, deadline=None)
def test_json_round_trip_is_bit_exact(inst):
    text = json.dumps(
        {
            "alternatives": inst.alternatives.tolist(),
            "reference_index": inst.reference_index,
            "preferred_indices": list(inst.preferred_indices),
        }
    )
    again = parse_instance(text)
    assert again.alternatives.tobytes() == inst.alternatives.tobytes()  # -0.0 too
    assert again.alternatives.shape == inst.alternatives.shape
    assert again.reference_index == inst.reference_index
    assert again.preferred_indices == inst.preferred_indices


@given(instances())
@settings(max_examples=100, deadline=None)
def test_generators_recover_alternatives_exactly(inst):
    gens = generators(inst, 0.0)
    for row, j in zip(gens, inst.preferred_indices):
        assert np.array_equal(row + inst.reference, inst.alternatives[j])


@given(instances(), st.floats(0.0, 1.0), st.floats(0.01, 1.0))
@settings(max_examples=100, deadline=None)
def test_generators_antitone_in_epsilon(inst, eps1, gap):
    eps2 = eps1 + gap
    g1 = generators(inst, eps1)
    g2 = generators(inst, eps2)
    np.testing.assert_allclose(g1 - g2, gap, atol=1e-12)
