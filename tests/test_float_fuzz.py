"""The adversarial-float fuzz of ``scripts/float_fuzz.py`` at tier-1 size."""

import sys
from pathlib import Path

import pytest

from test_cli import OVERFLOWING_TABLEAU, SUBNORMAL_JUDGEMENTS

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "scripts"))
from float_fuzz import GATED, check, fuzz  # noqa: E402


def _gated(counts):
    return {name: counts[name] for name in GATED}


def test_float_fuzz_finds_no_gated_failure():
    counts = fuzz(400, seed=1)
    assert counts["valid draws"] > 350
    assert _gated(counts) == dict.fromkeys(GATED, 0)


@pytest.mark.parametrize(
    "doc, failing",
    [
        (SUBNORMAL_JUDGEMENTS, ["test", "weights", "epsilon", "eval vartheta", "plot"]),
        (OVERFLOWING_TABLEAU, ["test"]),
    ],
    ids=["subnormal-weights", "non-finite-tableau"],
)
def test_float_fuzz_fixtures_fail_typed(tmp_path, doc, failing):
    counts = check(doc, tmp_path)
    assert _gated(counts) == dict.fromkeys(GATED, 0)
    assert sorted(k for k in counts if k.startswith("exit 3 from ")) == sorted(
        f"exit 3 from {name} (NUMERICAL_FAILURE)" for name in failing
    )
