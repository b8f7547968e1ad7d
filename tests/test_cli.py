import json
import logging
import os
import re
import shlex
import shutil
import subprocess
import sys
import warnings
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import prefcone.cones
import prefcone.consistency
import prefcone.lp
import prefcone.valuefn
from prefcone.cli import _membership, main, run
from prefcone.plotting import plot2d
from prefcone import (
    MaxIterExceededError,
    NnlsMaxIterError,
    NotPointedError,
    NumericalError,
    PrefconeError,
    UnsupportedDimensionError,
    WholeSpaceError,
    consistency_verdict,
    epsilon_search,
    evaluate,
    extract_linear_weights,
    generators,
    make_psi,
    make_vartheta,
    parse_instance,
)
from _helpers import random_instance, synthetic_dm_instance
from oracle import backtrack_epsilon, classify


def run_cli(capsys, *argv):
    code = run(list(argv))
    return code, capsys.readouterr().out


def test_test_subcommand_consistent(capsys, data_dir):
    code, out = run_cli(capsys, "test", str(data_dir / "pointed.json"))
    assert code == 0
    doc = json.loads(out)
    assert doc["pointed"] is True
    assert doc["z_star"] == 0.0
    assert "facet_count" not in doc
    assert doc["epsilon_bar"] == pytest.approx(0.01)
    assert set(doc["equivalent_statements"].values()) == {True}


@pytest.mark.parametrize("consistent", [True, False])
@pytest.mark.parametrize("p", [13, 20])
def test_test_subcommand_wide_instance(capsys, tmp_path, p, consistent):
    # past the double description cap; the verdict is the LP's alone
    eye = np.eye(p)
    alts = [np.zeros(p)] + [eye[j] - 0.5 * eye[(j + 1) % p] for j in range(p)]
    if not consistent:
        alts += [eye[0] - eye[1], eye[1] - eye[0]]
    path = tmp_path / "wide.json"
    path.write_text(json.dumps({
        "alternatives": [a.tolist() for a in alts],
        "reference_index": 0,
        "preferred_indices": list(range(1, len(alts))),
    }))
    code, out = run_cli(capsys, "test", str(path))
    doc = json.loads(out)
    assert code == (0 if consistent else 1)
    assert doc["pointed"] is consistent
    assert doc["verdict_text"].splitlines()[-1].startswith(
        "(4) the feasibility program attains optimum zero"
    )


def test_test_subcommand_runs_no_double_description(capsys, monkeypatch, data_dir):
    def answers():
        return [
            (consistency_verdict(parse_instance(path.read_text())).to_dict(),
             run_cli(capsys, "test", str(path)))
            for path in sorted(data_dir.glob("*.json"))
        ]

    def no_dd(hrep):
        raise AssertionError("double description ran")

    want = answers()
    for module in (prefcone.cones, prefcone.consistency, prefcone.valuefn):
        monkeypatch.setattr(module, "extreme_rays", no_dd)
    assert answers() == want


def test_stalled_simplex_is_typed_cli_error(capsys, monkeypatch, tmp_path):
    # the generators [5, 5] and [6, 4] make the LP cycle once pivots are disabled
    path = tmp_path / "diag.json"
    path.write_text(
        '{"alternatives": [[0, 0], [5, 5], [6, 4]], "reference_index": 0,'
        ' "preferred_indices": [1, 2]}'
    )
    monkeypatch.setattr(prefcone.lp, "_pivot", lambda T, row, col: None)
    code, out = run_cli(capsys, "weights", str(path))
    assert code == 3
    assert json.loads(out)["error"]["code"] == "MAX_ITER_EXCEEDED"


def test_exhausted_epsilon_schedule_exits_3(capsys, monkeypatch, data_dir):
    # the schedule's last positive value is 0.01 * 0.5**1068 == 5e-324, and an
    # eps* at or below it exhausts the schedule; weights that pass their check
    # keep eps* above 1 / sum(w) > 5.6e-309, so eps* is stubbed here
    margin = prefcone.consistency._margin
    monkeypatch.setattr(prefcone.consistency, "_margin", lambda inst: (5e-324, margin(inst)[1]))
    path = str(data_dir / "pointed.json")
    for argv in (
        ["epsilon", path],
        ["test", path],
        ["eval", "--instance", path, "--function", "vartheta", "--point=-2,-2"],
    ):
        code, out = run_cli(capsys, *argv)
        assert code == 3
        assert json.loads(out)["error"] == {
            "code": "MAX_ITER_EXCEEDED",
            "message": "no positive schedule value from 0.01 lies below eps* = 5e-324",
        }


def test_tiny_eps_star_gets_a_schedule_value(capsys, tmp_path):
    # eps* ~ 5.8e-303 lies far below 0.01 * 2**-59; the schedule runs on
    # until it underflows, so it still finds a value below eps*
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps(TINY_EPS_STAR))
    eps_star = prefcone.consistency._margin(parse_instance(path.read_text()))[0]
    eps_bar = 0.5**998 * 1e-2
    assert eps_bar < eps_star <= 0.5**997 * 1e-2
    path = str(path)
    for argv in (
        ["epsilon", path],
        ["test", path],
        ["eval", "--instance", path, "--function", "vartheta", "--point=-1"],
    ):
        code, out = run_cli(capsys, *argv)
        assert code == 0
        if argv[0] != "eval":
            assert json.loads(out)["epsilon_bar"] == eps_bar


def test_nnls_iteration_cap_exits_3(capsys, monkeypatch, data_dir):
    def stalled(columns, target, *, facets=None):
        raise NnlsMaxIterError("active-set iterations exceeded 0")

    monkeypatch.setattr(prefcone.valuefn, "nnls", stalled)
    code, out = run_cli(
        capsys, "eval", "--instance", str(data_dir / "pointed.json"),
        "--function", "psi", "--point=-2,-2",
    )
    assert code == 3
    assert json.loads(out)["error"]["code"] == "NNLS_MAX_ITER"


@pytest.mark.parametrize("function", ["psi", "vartheta", "linear"])
@pytest.mark.parametrize(
    "point",
    [
        *(
            pytest.param([f"--point={x}"], id=x)
            for x in ["nan,1", "inf,1", "1,-inf", "-inf,1", "-nan,1"]
        ),
        *(
            pytest.param(["--point", x], id=f"spaced {x}")
            for x in ["nan,1", "1,-inf", "-inf,1", "-nan,1", "-Inf,1", "-NaN,1"]
        ),
        # finite, but the squared distance to the reference overflows float64
        *(pytest.param([f"--point={x}"], id=x) for x in ["1e308,1e308", "-1e308,-1e308"]),
    ],
)
def test_eval_non_finite_point_is_bad_argument(capsys, data_dir, function, point):
    code, out = run_cli(
        capsys, "eval", "--instance", str(data_dir / "pointed.json"),
        "--function", function, *point,
    )
    assert code == 2
    assert json.loads(out)["error"]["code"] == "BAD_ARGUMENT"


def test_eval_vartheta_solves_each_lp_once(capsys, monkeypatch, data_dir):
    # one margin LP, solved by epsilon_search inside make_vartheta and nowhere else
    calls = []
    solve = prefcone.consistency.solve

    def counting_solve(lp):
        calls.append(lp)
        return solve(lp)

    monkeypatch.setattr(prefcone.consistency, "solve", counting_solve)
    code, out = run_cli(
        capsys, "eval", "--instance", str(data_dir / "pointed.json"),
        "--function", "vartheta", "--point", "3,3",
    )
    assert code == 0
    assert len(calls) == 1


@pytest.mark.parametrize("k", range(-9, 10))
def test_epsilon_bar_from_two_lps_at_any_scale(capsys, monkeypatch, data_dir, tmp_path, k):
    # one margin program gives the verdict, the weights and epsilon_bar at every scale
    doc = json.loads((data_dir / "pointed.json").read_text())
    doc["alternatives"] = (np.array(doc["alternatives"]) * 10.0**k).tolist()
    path = tmp_path / "scaled.json"
    path.write_text(json.dumps(doc))
    inst = parse_instance(path.read_text())
    want = backtrack_epsilon(inst)
    assert epsilon_search(inst) == want
    d = extract_linear_weights(inst)
    assert (d >= 1).all() and (generators(inst) @ d >= 1).all()  # exactly, in float64

    calls = []
    solve = prefcone.consistency.solve

    def counting_solve(lp):
        calls.append(lp)
        return solve(lp)

    monkeypatch.setattr(prefcone.consistency, "solve", counting_solve)
    for argv, key in [
        (["epsilon", str(path)], "epsilon_bar"),
        (["test", str(path)], "epsilon_bar"),
        (["plot", str(path), "--output", str(tmp_path / "scaled.svg")], None),
    ]:
        calls.clear()
        code, out = run_cli(capsys, *argv)
        assert code == 0
        assert len(calls) == 1
        if key:
            assert json.loads(out)[key] == want
    svg = (tmp_path / "scaled.svg").read_text()
    assert json.loads(svg.split("<metadata>")[1].split("</metadata>")[0])["epsilon_bar"] == want


def test_test_subcommand_inconsistent_exit_1(capsys, data_dir):
    code, out = run_cli(capsys, "test", str(data_dir / "halfplane.json"))
    assert code == 1
    doc = json.loads(out)
    assert doc["pointed"] is False
    assert doc["z_star"] == pytest.approx(2.0)


@pytest.mark.parametrize(
    "alternatives",
    [
        [[0, 0], [1, -1], [-0.9999999981373549, 1]],  # 1 - 2**-29
        [[0, 0], [3, -1], [-2.9999999925494194, 1]],
    ],
)
def test_consistency_boundary_gets_one_answer(capsys, tmp_path, alternatives):
    # the margin LP reads these as unbounded while the paper's program reads
    # z* = 0; every subcommand reports the margin LP's verdict
    path = tmp_path / "boundary.json"
    path.write_text(json.dumps(
        {"alternatives": alternatives, "reference_index": 0, "preferred_indices": [1, 2]}
    ))
    code, out = run_cli(capsys, "test", str(path))
    assert code == 1
    doc = json.loads(out)
    assert doc["pointed"] is False and doc["z_star"] == 0.0
    assert doc["verdict_text"].splitlines()[-1] == (
        "the judgements lie within the LP tolerance of the consistency boundary"
    )
    for subcommand in ("weights", "epsilon"):
        code, out = run_cli(capsys, subcommand, str(path))
        assert code == 1
        assert json.loads(out)["error"]["code"] == "NOT_POINTED"


def test_test_output_byte_identical(capsys, data_dir):
    _, first = run_cli(capsys, "test", str(data_dir / "pointed.json"))
    _, second = run_cli(capsys, "test", str(data_dir / "pointed.json"))
    assert first == second


def test_csv_input_by_extension(capsys, data_dir):
    code, out = run_cli(capsys, "test", str(data_dir / "pointed.csv"))
    assert code == 0
    assert json.loads(out)["pointed"] is True


def test_csv_suffix_is_case_insensitive(capsys, data_dir, tmp_path):
    path = tmp_path / "P.CSV"
    shutil.copy(data_dir / "pointed.csv", path)
    assert run_cli(capsys, "test", str(path)) == run_cli(
        capsys, "test", str(data_dir / "pointed.csv")
    )


@pytest.mark.parametrize("suffix", [".json", ".csv"])
def test_utf8_bom_is_not_data(capsys, data_dir, tmp_path, suffix):
    # Excel and Notepad start UTF-8 files with a byte order mark
    path = tmp_path / f"bom{suffix}"
    path.write_bytes(b"\xef\xbb\xbf" + (data_dir / f"pointed{suffix}").read_bytes())
    assert run_cli(capsys, "test", str(path)) == run_cli(
        capsys, "test", str(data_dir / f"pointed{suffix}")
    )


@pytest.mark.parametrize(
    "text, code",
    [
        ("[1, 2]", "PARSE_ERROR"),  # top level is not an object
        ('{"alternatives": [], "reference_index": 0, "preferred_indices": []}', "PARSE_ERROR"),
        ('{"alternatives": [[0, 0], 1], "reference_index": 0, "preferred_indices": [0]}',
         "PARSE_ERROR"),
        ('{"alternatives": [[0, 0], [1, 1]], "reference_index": 0.0, "preferred_indices": [1]}',
         "PARSE_ERROR"),
        ('{"alternatives": [[0, 0], [1, 1]], "reference_index": 0, "preferred_indices": 1}',
         "PARSE_ERROR"),
        ("ref\n", "PARSE_ERROR"),  # a CSV row with no score
        ('{"alternatives": [[0, 0], [1' + "0" * 400 + ', 1]], "reference_index": 0,'
         ' "preferred_indices": [1]}', "PARSE_ERROR"),  # an integer with no float64 value
        ('{"alternatives": [[], []], "reference_index": 0, "preferred_indices": [1]}',
         "INVALID_INSTANCE"),  # ZERO_DIMENSION
    ],
    ids=[
        "not-an-object", "no-alternatives", "row-not-a-list", "non-integer-reference",
        "non-list-preferred", "csv-row-without-score", "huge-integer", "zero-dimension",
    ],
)
def test_malformed_input_exits_2(capsys, tmp_path, text, code):
    path = tmp_path / ("in.csv" if text.startswith("ref") else "in.json")
    path.write_text(text)
    status, out = run_cli(capsys, "test", str(path))
    assert status == 2
    doc = json.loads(out)
    assert doc["error"]["code"] == code
    if code == "INVALID_INSTANCE":
        assert "ZERO_DIMENSION" in {v["code"] for v in doc["violations"]}


def test_judgement_direction_near_float64_max(capsys, tmp_path):
    # max|G| >= 2**1023: the margin LP's power-of-two scale is capped at 2**1023
    path = tmp_path / "edge.json"
    path.write_text(
        '{"alternatives": [[0, 0], [1.7e308, 1]], "reference_index": 0, "preferred_indices": [1]}'
    )
    for subcommand in ("test", "epsilon"):
        assert run_cli(capsys, subcommand, str(path))[0] == 0
    code, out = run_cli(capsys, "weights", str(path))
    assert code == 0
    d = np.array(json.loads(out)["weights"])
    assert (d >= 1).all() and np.array([1.7e308, 1]) @ d >= 1

    svg_path = tmp_path / "edge.svg"
    assert run_cli(capsys, "plot", str(path), "--output", str(svg_path))[0] == 0
    svg = svg_path.read_text()
    coords = re.findall(r'(?:points|x1|y1|x2|y2|cx|cy|x|y)="([^"]*)"', svg)
    numbers = [float(v) for c in coords for v in re.split(r"[ ,]", c)]
    assert len(numbers) > 200 and np.isfinite(numbers).all()


_PAST_MAX = (
    '{"alternatives": [[0.0, 0.0], [1.7e308, 1.7e308]], "reference_index": 0,'
    ' "preferred_indices": [1]}'
)


@pytest.mark.parametrize(
    "argv, key, want",
    [
        (["test", "{json}"], "weight_certificate", [1.0, 1.0]),
        (["weights", "{json}"], "weights", [1.0, 1.0]),
        (["epsilon", "{json}"], "epsilon_bar", 0.01),
        (["eval", "--instance", "{json}", "--function", "psi", "--point=1,-1"], "value", -1.0),
        (["eval", "--instance", "{json}", "--function", "psi", "--point=-1,-1"], "value",
         -np.sqrt(2.0)),
        (["eval", "--instance", "{json}", "--function", "vartheta", "--point=-1,-1"], "value",
         -np.sqrt(2.0)),
        (["plot", "{json}", "--output", "{svg}"], "svg", None),
    ],
    ids=["test", "weights", "epsilon", "psi-exterior", "psi-corner", "vartheta", "plot"],
)
def test_judgement_past_float64_max_warns_nothing(capsys, tmp_path, argv, key, want):
    # the judgement's row sum and norm, 3.4e308 and 2.4e308, pass float64's
    # largest value; neither is formed, so no overflow warning (an error
    # under this suite's filter) is raised and the answers stay exact
    path = tmp_path / "past_max.json"
    path.write_text(_PAST_MAX)
    argv = [a.format(json=path, svg=tmp_path / "past_max.svg") for a in argv]
    code, out = run_cli(capsys, *argv)
    assert code == 0
    value = json.loads(out)[key]
    if want is None:
        assert Path(value).read_text().startswith("<")
    else:
        assert value == want


@pytest.mark.parametrize("command", ["weights", "test"])
def test_judgement_sum_past_float64_min_gets_finite_weights(capsys, tmp_path, command):
    # the judgement's row sum, -2e308, passes float64's most negative value, so
    # lam = 2 (1 - min_j g_j.1) is inf; lam / scale is finite, and no weight is NaN
    from fractions import Fraction

    g = [-1.5e308, -1.5e308, 1e308]
    path = tmp_path / "past_min.json"
    path.write_text(json.dumps(
        {"alternatives": [[0.0, 0.0, 0.0], g], "reference_index": 0, "preferred_indices": [1]}
    ))
    code, out = run_cli(capsys, command, str(path))
    assert code == 0
    doc = json.loads(out)
    w = doc["weights"] if command == "weights" else doc["weight_certificate"]
    assert np.isfinite(w).all()
    w = [Fraction(v) for v in w]
    assert min(w) >= 1
    assert sum(Fraction(a) * b for a, b in zip(g, w)) >= 1


def test_subnormal_judgement_weights_are_not_nan(capsys, tmp_path):
    # max|G| is subnormal, so 1 / scale is inf; no finite float64 w has
    # G w >= 1 here, so the weights fail their check: a typed numerical
    # error, exit 3, rather than an infinite weight
    path = tmp_path / "subnormal.json"
    path.write_text(
        '{"alternatives": [[0.0, 0.0], [1e-323, -5e-324]], "reference_index": 0,'
        ' "preferred_indices": [1]}'
    )
    code, out = run_cli(capsys, "weights", str(path))
    assert code == 3
    assert json.loads(out)["error"]["code"] == "NUMERICAL_FAILURE"


# pointed in float64 by the margin LP's reading, but its weights, w1 = 1.84e24,
# miss G.w >= 1 by 6.0e6; exact arithmetic finds the cone not pointed
_FAILED_WEIGHTS = json.dumps({
    "alternatives": [
        [0.00390625, 256.0, 786432.0, 0.0, 2.0], [-0.00390625, -512.0, -786432.0, 0.0234375, 1.0],
        [0.001953125, 512.0, 524288.0, 0.0, 3.0], [0.0, 768.0, -786432.0, -0.0078125, -1.0],
        [-0.005859375, 256.0, 262144.0, 0.0078125, 2.0],
        [-0.005859375, -512.0, 524288.0, -0.0078125, -1.0],
        [-0.005859375, -512.0, 0.0, -0.0234375, 3.0], [0.0, -768.0, -786432.0, 0.015625, 2.0],
        [0.001953125, 0.0, -262144.0, -0.0078125, 2.0],
        [0.005859375, 768.0, -524288.0, 0.0234375, -2.0],
    ],
    "reference_index": 4,
    "preferred_indices": [7, 6, 2, 8, 0, 5, 9],
})


@pytest.mark.parametrize("command", ["test", "weights", "epsilon"])
def test_weights_that_fail_their_check_exit_3(capsys, tmp_path, command):
    path = tmp_path / "failed_weights.json"
    path.write_text(_FAILED_WEIGHTS)
    code, out = run_cli(capsys, command, str(path))
    assert code == 3
    error = json.loads(out)["error"]
    assert error["code"] == "NUMERICAL_FAILURE"
    assert "fail their check" in error["message"]


@pytest.mark.parametrize(
    "alternatives, message",
    [
        # overflow in the pivots makes the ratio test's minimum NaN, where
        # its tie set was empty and read as a bad argument
        ([[0.0, 0.0], [-4.0, 8192.0], [-1.4044477616111843e306, 1.0715086071862673e301],
          [-2.1944496275174755e304, 7.022238808055922e305]], "ratio test"),
        # the paper's program, whose objective is >= 0, read as unbounded,
        # where test printed "z_star": -Infinity
        ([[0.0], [2147483648.0], [2.0]], "read as unbounded"),
    ],
    ids=["nan-ratio", "unbounded-feasibility"],
)
def test_simplex_numerical_failure_exits_3(capsys, tmp_path, alternatives, message):
    # the suite turns RuntimeWarning into an error, so no overflow warning escapes
    path = tmp_path / "extreme.json"
    n = len(alternatives)
    path.write_text(json.dumps(
        {"alternatives": alternatives, "reference_index": 0, "preferred_indices": list(range(1, n))}
    ))
    code, out = run_cli(capsys, "test", str(path))
    assert code == 3
    error = json.loads(out)["error"]
    assert error["code"] == "NUMERICAL_FAILURE"
    assert message in error["message"]


# subnormal judgements: lam / scale times the dual passes float64's largest
# value, which warned "overflow encountered in multiply" before the check
SUBNORMAL_JUDGEMENTS = {
    "alternatives": [[0.0, 0.0], [5.562684646268003e-309, 1.6e-322],
                     [1.8227805048890994e-304, 1.0609978955e-314]],
    "reference_index": 0,
    "preferred_indices": [1, 2],
}
# one judgement of 5.8e-303 on one criterion, which is also its eps*
TINY_EPS_STAR = {
    "alternatives": [[0.0], [5.832897615645118e-303]],
    "reference_index": 0,
    "preferred_indices": [1],
}
# pointed, but its certificate needs d1 ~ 3.6e308: the paper's program
# overflows in a pivot and its final tableau holds nan and -inf, where test
# printed "z_star": 1.0 and exit 1
OVERFLOWING_TABLEAU = {
    "alternatives": [[0.0, 0.0], [0.015625, -5.617791046444737e306]],
    "reference_index": 0,
    "preferred_indices": [1],
}


@pytest.mark.parametrize("command", ["test", "weights", "epsilon", "eval", "plot"])
def test_subnormal_judgement_weights_exit_3_without_a_warning(capsys, tmp_path, command):
    # the suite turns RuntimeWarning into an error
    path = tmp_path / "subnormal.json"
    path.write_text(json.dumps(SUBNORMAL_JUDGEMENTS))
    argv = {
        "eval": ["--instance", str(path), "--function", "vartheta", "--point=1,1"],
        "plot": [str(path), "--output", str(tmp_path / "plot.svg")],
    }.get(command, [str(path)])
    code, out = run_cli(capsys, command, *argv)
    assert code == 3
    error = json.loads(out)["error"]
    assert error["code"] == "NUMERICAL_FAILURE"
    assert "fail their check" in error["message"]


def test_non_finite_tableau_exits_3(capsys, tmp_path):
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps(OVERFLOWING_TABLEAU))
    code, out = run_cli(capsys, "test", str(path))
    assert code == 3
    error = json.loads(out)["error"]
    assert error["code"] == "NUMERICAL_FAILURE"
    assert "tableau went non-finite" in error["message"]


def test_numerical_errors_share_one_base():
    for error in (MaxIterExceededError, NnlsMaxIterError):
        assert issubclass(error, NumericalError) and error.code != NumericalError.code
    assert issubclass(NumericalError, PrefconeError)


def test_overflowing_judgement_direction_is_invalid(capsys, tmp_path):
    # both alternatives are finite, their difference x_1 - x_0 is not
    path = tmp_path / "overflow.json"
    path.write_text(
        '{"alternatives": [[-1e308, 0], [1e308, 1]], "reference_index": 0,'
        ' "preferred_indices": [1]}'
    )
    code, out = run_cli(capsys, "validate", str(path))
    assert code == 2
    assert [v["code"] for v in json.loads(out)["violations"]] == ["NON_FINITE_DIRECTION"]
    commands = [["test"], ["weights"], ["epsilon"], ["plot", "--output", str(tmp_path / "o.svg")]]
    for argv in commands:
        code, out = run_cli(capsys, argv[0], str(path), *argv[1:])
        assert code == 2
        assert json.loads(out)["error"]["code"] == "INVALID_INSTANCE"
    for function in ("psi", "vartheta", "linear"):
        code, out = run_cli(
            capsys, "eval", "--instance", str(path), "--function", function, "--point", "0,0"
        )
        assert code == 2
        assert json.loads(out)["error"]["code"] == "INVALID_INSTANCE"


def test_validate_subcommand(capsys, data_dir, tmp_path):
    code, out = run_cli(capsys, "validate", str(data_dir / "pointed.json"))
    assert code == 0 and json.loads(out)["ok"] is True

    bad = tmp_path / "bad.json"
    bad.write_text(
        '{"alternatives": [[1, 1], [1, 1]], "reference_index": 0, "preferred_indices": [1]}'
    )
    code, out = run_cli(capsys, "validate", str(bad))
    assert code == 2
    codes = {v["code"] for v in json.loads(out)["violations"]}
    assert "DUPLICATE_ALTERNATIVE" in codes


@pytest.mark.parametrize(
    "name, text",
    [
        (
            "signed.json",
            '{"alternatives": [[0.0, 1.0], [-0.0, 1.0], [2.0, 2.0]],'
            ' "reference_index": 0, "preferred_indices": [1, 2]}',
        ),
        ("signed.csv", "0,1,ref\n-0,1,pref\n2,2,pref\n"),
    ],
    ids=["json", "csv"],
)
def test_signed_zero_alternatives_are_identical(capsys, tmp_path, name, text):
    # -0.0 == 0.0, so these alternatives are equal and the judgement 0 -> 1 is zero
    path = tmp_path / name
    path.write_text(text)
    for command in ("validate", "test"):
        code, out = run_cli(capsys, command, str(path))
        assert code == 2
        assert "alternatives 0 and 1 are identical" in out


def test_missing_file_is_input_error(capsys):
    code, out = run_cli(capsys, "test", "no_such_file.json")
    assert code == 2
    assert json.loads(out)["error"]["code"] == "IO_ERROR"


@pytest.mark.parametrize("instance", ["pointed.json", "no_such_file.json"])
def test_unwritable_output_is_io_error_on_stdout(capsys, data_dir, tmp_path, instance):
    # a success report and an error report alike: neither can be written there
    unwritable = tmp_path / "no_such_dir" / "report.json"
    code, out = run_cli(capsys, "test", str(data_dir / instance), "--output", str(unwritable))
    assert code == 2
    error = json.loads(out)["error"]
    assert error["code"] == "IO_ERROR" and str(unwritable) in error["message"]
    assert not unwritable.parent.exists()


def test_import_loads_no_scipy():
    # scipy is a test extra only; the package's runtime dependency is numpy
    src = Path(prefcone.cones.__file__).resolve().parents[1]
    code = (
        "import sys, prefcone, prefcone.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert result.stdout == "[]\n"


def test_commands_run_where_scipy_cannot_be_imported(data_dir, tmp_path):
    # numpy is the only runtime dependency (README); a None entry in
    # sys.modules makes every scipy import raise ImportError
    src = Path(prefcone.cones.__file__).resolve().parents[1]
    code = (
        "import sys; sys.modules['scipy'] = None; "
        "import prefcone; from prefcone.cli import run; sys.exit(run(sys.argv[1:]))"
    )
    path = str(data_dir / "pointed.json")
    svg = tmp_path / "pointed.svg"
    for argv, key in (
        (["test", path], "pointed"),
        (["eval", "--instance", path, "--function", "psi", "--point=3,3"], "value"),
        (["plot", path, "--output", str(svg)], "svg"),
    ):
        result = subprocess.run(
            [sys.executable, "-c", code, *argv], capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": str(src)},
        )
        assert result.returncode == 0, result.stderr
        assert key in json.loads(result.stdout)
    assert svg.read_text().startswith("<svg")


def test_verbose_logs_tableaux_on_stderr(data_dir):
    src = Path(prefcone.cones.__file__).resolve().parents[1]
    result = subprocess.run(
        [sys.executable, "-m", "prefcone.cli", "-v", "test", str(data_dir / "pointed.json")],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert result.returncode == 0 and json.loads(result.stdout)["pointed"] is True
    assert "DEBUG:prefcone.lp:initial tableau" in result.stderr
    assert "DEBUG:prefcone.lp:pivot: enter" in result.stderr


def test_verbose_logs_for_its_own_run_only(capsys, data_dir):
    # in process, where a host (here pytest) may already have root handlers
    log = logging.getLogger("prefcone")
    level = log.level
    path = str(data_dir / "pointed.json")
    assert run(["-v", "test", path]) == 0
    assert "DEBUG:prefcone.lp:initial tableau" in capsys.readouterr().err
    assert run(["test", path]) == 0
    assert capsys.readouterr().err == ""
    assert log.level == level


def test_main_exits_with_run_code(monkeypatch, capsys, data_dir):
    monkeypatch.setattr(sys, "argv", ["prefcone", "test", str(data_dir / "halfplane.json")])
    with pytest.raises(SystemExit) as exit_info:
        main()
    assert exit_info.value.code == 1
    assert json.loads(capsys.readouterr().out)["pointed"] is False


def test_usage_errors_exit_64(capsys):
    assert run([]) == 64
    assert run(["frobnicate"]) == 64
    assert run(["eval", "--instance", "x.json"]) == 64  # missing required flags


def test_epsilon_schedule_flags_are_usage_errors(capsys, data_dir, tmp_path):
    # the schedule 0.01 * 0.5**i is fixed; its old flags are unknown options
    path = str(data_dir / "pointed.json")
    commands = [
        ["epsilon", path],
        ["test", path],
        ["eval", "--instance", path, "--function", "vartheta", "--point", "3,3"],
        ["plot", path, "--output", str(tmp_path / "pointed.svg")],
    ]
    for argv in commands:
        for flag in (["--epsilon0", "0.01"], ["--beta", "0.5"], ["--max-iter", "60"]):
            assert run(argv + flag) == 64, argv + flag
    assert capsys.readouterr().out == ""
    assert not (tmp_path / "pointed.svg").exists()


def test_weights_subcommand(capsys, data_dir):
    code, out = run_cli(capsys, "weights", str(data_dir / "pointed.json"))
    assert code == 0
    weights = json.loads(out)["weights"]
    assert len(weights) == 2 and all(w >= 1 - 1e-7 for w in weights)

    code, out = run_cli(capsys, "weights", str(data_dir / "halfplane.json"))
    assert code == 1
    assert json.loads(out)["error"]["code"] == "NOT_POINTED"


def test_epsilon_subcommand(capsys, data_dir):
    code, out = run_cli(capsys, "epsilon", str(data_dir / "pointed.json"))
    assert code == 0
    assert json.loads(out)["epsilon_bar"] == pytest.approx(0.01)


def test_eval_subcommand(capsys, data_dir):
    path = str(data_dir / "pointed.json")
    code, out = run_cli(
        capsys, "eval", "--instance", path, "--function", "psi", "--point", "3,3"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["value"] == pytest.approx(2.0)
    assert doc["classification"] == "interior"

    code, out = run_cli(
        capsys, "eval", "--instance", path, "--function", "linear", "--point", "0,2"
    )
    assert code == 0
    assert json.loads(out)["classification"] is None

    code, out = run_cli(
        capsys, "eval", "--instance", path, "--function", "vartheta", "--point", "0,2"
    )
    assert code == 0
    assert json.loads(out)["value"] > 0


@pytest.mark.parametrize("fixture", ["pointed.json", "halfplane.json"])
def test_eval_label_matches_oracle_on_fixtures(capsys, data_dir, fixture):
    path = str(data_dir / fixture)
    inst = parse_instance((data_dir / fixture).read_text())
    points = ["3,3", "2,1", "1,0", "0,0", "-2,-2", "0.5,0.25", "-1,1", "1,-1", "0,3"]
    for function in ("psi", "vartheta"):
        try:
            handle = make_psi(inst) if function == "psi" else make_vartheta(inst)
        except NotPointedError:
            continue
        for point in points:
            code, out = run_cli(
                capsys, "eval", "--instance", path, "--function", function, f"--point={point}"
            )
            assert code == 0
            y = np.array([float(v) for v in point.split(",")]) - inst.reference
            assert json.loads(out)["classification"] == classify(y, handle.facet_cone).value


def test_eval_label_matches_oracle_on_random_handles():
    # the reference, the generator rays and sums of generator pairs sit on the
    # boundary whenever they lie on a facet, so every label occurs
    rng = np.random.default_rng(61)
    labels = Counter()
    for k in range(60):
        inst = (synthetic_dm_instance if k % 2 else random_instance)(rng)
        try:
            handles = [make_psi(inst)]
        except WholeSpaceError:
            continue
        try:
            handles.append(make_vartheta(inst))
        except NotPointedError:
            pass
        for handle in handles:
            G = handle.generator_matrix.T
            pairs = G[:, None, :] + G[None, :, :]
            Y = np.vstack([
                np.zeros((1, inst.p)),
                G * rng.uniform(0.1, 5.0, size=(G.shape[0], 1)),
                pairs.reshape(-1, inst.p),
                rng.uniform(-4, 4, size=(20, inst.p)),
            ])
            for y in Y:
                label = _membership(handle.kind, evaluate(handle, handle.reference + y))
                want = classify(y, handle.facet_cone).value
                assert label == want, (k, handle.kind, y)
                labels[label] += 1
    assert min(labels[key] for key in ("interior", "boundary", "exterior")) > 200


@pytest.mark.parametrize("scale", [1e-13, 1e-3])
def test_eval_keeps_a_small_judgement_in_facets_and_projection(capsys, tmp_path, scale):
    # the cone of (1, -1) and the orthant, at two scales: the facets and the
    # projection keep every nonzero generator, so both give the same answer
    path = tmp_path / "small.json"
    path.write_text(json.dumps({
        "alternatives": [[0, 0], [scale, -scale]], "reference_index": 0, "preferred_indices": [1],
    }))
    code, out = run_cli(
        capsys, "eval", "--instance", str(path), "--function", "psi", "--point=2,-1"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["value"] == pytest.approx(1 / np.sqrt(2.0), rel=1e-12)
    assert doc["classification"] == "interior"


def test_eval_negative_point_after_space(capsys, data_dir):
    base = ["eval", "--instance", str(data_dir / "pointed.json"), "--function", "psi"]
    for point in ("-2,-2", "-.5,1", "-0.5,-3e-1"):
        spaced = run_cli(capsys, *base, "--point", point)
        assert spaced[0] == 0
        assert spaced == run_cli(capsys, *base, f"--point={point}")
    # a flag after --point still leaves it without a value
    assert run([*base, "--point", "--format", "json"]) == 64
    assert run([*base, "--point"]) == 64


def test_eval_whole_space_is_domain_failure(capsys, data_dir):
    code, out = run_cli(
        capsys,
        "eval",
        "--instance",
        str(data_dir / "whole_plane.json"),
        "--function",
        "psi",
        "--point",
        "1,1",
    )
    assert code == 1
    assert json.loads(out)["error"]["code"] == "WHOLE_SPACE"


def test_eval_bad_point_is_input_error(capsys, data_dir):
    code, out = run_cli(
        capsys,
        "eval",
        "--instance",
        str(data_dir / "pointed.json"),
        "--function",
        "psi",
        "--point",
        "a,b",
    )
    assert code == 2


def test_output_file_and_text_format(capsys, data_dir, tmp_path):
    out_path = tmp_path / "report.json"
    code, _ = run_cli(
        capsys, "test", str(data_dir / "pointed.json"), "--output", str(out_path)
    )
    assert code == 0
    assert json.loads(out_path.read_text())["pointed"] is True

    code, out = run_cli(
        capsys, "test", str(data_dir / "pointed.json"), "--format", "text"
    )
    assert code == 0
    assert "pointed: True" in out and "verdict_text:" in out


def test_plot_subcommand(capsys, data_dir, tmp_path):
    out_svg = tmp_path / "pointed.svg"
    code, out = run_cli(
        capsys, "plot", str(data_dir / "pointed.json"), "--output", str(out_svg)
    )
    assert code == 0
    svg = out_svg.read_text()
    assert svg.startswith("<svg")
    meta = json.loads(svg.split("<metadata>")[1].split("</metadata>")[0])
    rays = np.array(meta["boundary_rays"])
    want = {(1.0, 0.0), tuple(np.array([-2.0, 1.0]) / np.sqrt(5.0))}
    for ray in rays:
        assert min(np.linalg.norm(ray - np.array(w)) for w in want) < 1e-9
    assert meta["epsilon_bar"] == pytest.approx(0.01)
    assert 'class="cone-shade"' in svg and 'class="generator-arrow"' in svg


def test_plot_whole_plane_annotation(capsys, data_dir, tmp_path):
    out_svg = tmp_path / "whole.svg"
    code, _ = run_cli(
        capsys, "plot", str(data_dir / "whole_plane.json"), "--output", str(out_svg)
    )
    assert code == 0
    svg = out_svg.read_text()
    meta = json.loads(svg.split("<metadata>")[1].split("</metadata>")[0])
    assert meta["whole_space"] is True
    assert "whole plane" in svg


def test_plot_halfplane_shading(capsys, data_dir, tmp_path):
    out_svg = tmp_path / "half.svg"
    code, _ = run_cli(
        capsys, "plot", str(data_dir / "halfplane.json"), "--output", str(out_svg)
    )
    assert code == 0
    meta = json.loads(out_svg.read_text().split("<metadata>")[1].split("</metadata>")[0])
    assert meta["whole_space"] is False
    assert meta["epsilon_bar"] is None
    rays = meta["boundary_rays"]
    # boundary of the half-plane {y1 + y2 >= 0}: the two opposite diagonal directions
    assert all(abs(r[0] + r[1]) < 1e-9 for r in rays)


def test_plot_rejects_other_dimensions(capsys, tmp_path):
    path = tmp_path / "p3.json"
    path.write_text(
        '{"alternatives": [[0,0,0],[1,1,1]], "reference_index": 0, "preferred_indices": [1]}'
    )
    code, out = run_cli(capsys, "plot", str(path))
    assert code == 2
    assert json.loads(out)["error"]["code"] == "UNSUPPORTED_DIMENSION"

    inst = parse_instance(path.read_text())
    with pytest.raises(UnsupportedDimensionError):
        plot2d(inst, tmp_path / "nope.svg")


def test_plot_output_deterministic(capsys, data_dir, tmp_path):
    a, b = tmp_path / "a.svg", tmp_path / "b.svg"
    run_cli(capsys, "plot", str(data_dir / "pointed.json"), "--output", str(a))
    run_cli(capsys, "plot", str(data_dir / "pointed.json"), "--output", str(b))
    assert a.read_text() == b.read_text()


def _drawing(inst, svg_path):
    """The SVG that ``plot2d`` writes, after its metadata block."""
    plot2d(inst, svg_path)
    return svg_path.read_text().split("</metadata>", 1)[1]


def test_plot_shared_huge_coordinate_is_finite(capsys, tmp_path):
    # every alternative has x = 2**60, where a box centre +- 0.85 rounds back to 2**60
    path, svg = tmp_path / "shared.json", tmp_path / "shared.svg"
    path.write_text(
        '{"alternatives": [[1152921504606846976, 1], [1152921504606846976, 2], '
        '[1152921504606846976, 3]], "reference_index": 0, "preferred_indices": [1, 2]}'
    )
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, _ = run_cli(capsys, "plot", str(path), "--output", str(svg))
    assert code == 0 and caught == []
    drawing = svg.read_text().split("</metadata>", 1)[1]
    assert not re.search(r"\b(nan|inf)\b", drawing)
    circles = re.findall(r'<circle class="alt-point" cx="([^"]+)" cy="([^"]+)"', drawing)
    assert {cx for cx, _ in circles} == {"320.00"}
    assert len({cy for _, cy in circles}) == 3


@pytest.mark.parametrize(
    "fixture, k, shift",
    [(name, k, 0.0) for name in ("halfplane", "whole_plane") for k in (-1070, -30, 30, 1000)]
    + [("halfplane", 0, 2.0**40), ("whole_plane", 0, 2.0**40)]
    + [("pointed", k, 0.0) for k in (-30, 30, 1000)],
)
def test_plot_drawing_survives_scale_and_translation(data_dir, tmp_path, fixture, k, shift):
    """The drawing is made in the box's own frame, so scaling every entry by
    2**k or adding one offset to all of them changes no byte after the
    metadata; only the shrunk cone's fan moves, as epsilon_bar is absolute."""
    inst = parse_instance((data_dir / f"{fixture}.json").read_text())
    moved = parse_instance(json.dumps({
        "alternatives": (np.ldexp(inst.alternatives, k) + shift).tolist(),
        "reference_index": inst.reference_index,
        "preferred_indices": list(inst.preferred_indices),
    }))

    def without_eps(drawing):
        return [line for line in drawing.splitlines() if "cone-shade-eps" not in line]

    want = without_eps(_drawing(inst, tmp_path / "a.svg"))
    assert without_eps(_drawing(moved, tmp_path / "b.svg")) == want
    assert len(want) > 5


def _readme_cli_lines():
    """The ``prefcone ...`` lines of README's CLI block, with their comments."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## CLI", 1)[1].split("```bash\n", 1)[1].split("```", 1)[0]
    return [line for line in block.splitlines() if line.startswith("prefcone ")]


def test_readme_cli_block_runs_as_documented(capsys, monkeypatch, data_dir, tmp_path):
    # each line exits with the code its comment states, or 0 when it states none
    shutil.copytree(data_dir, tmp_path / "data")
    monkeypatch.chdir(tmp_path)
    lines = _readme_cli_lines()
    assert len(lines) >= 7
    for line in lines:
        command, _, comment = line.partition("#")
        stated = re.search(r"\bexit (\d+)", comment)
        code = run(shlex.split(command)[1:])
        capsys.readouterr()
        assert code == (int(stated.group(1)) if stated else 0), line
