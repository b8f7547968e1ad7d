#!/usr/bin/env python3
"""Adversarial-float fuzz of the CLI.

Draws seeded instances of 1-3 criteria and 2-4 alternatives: alternative 0
is the reference, at the origin, and every other one is preferred to it.
Each other entry is, with equal chance, 0 or +-1..3, +-2^k for k in
[-60, 60], a tiny +-2^k for k in [-1074, -1000] (subnormal below -1022), or
a huge +-2^k for k in [1000, 1022].  Each draw runs twice: as drawn, and
with 2^60 added to its first criterion, so that the alternatives share a
large coordinate and the reference is off the origin.  Every copy that
builds a valid instance runs ``test``, ``weights``, ``epsilon``, ``eval`` (psi
and vartheta, at the point -1 in every criterion) and ``plot`` in process,
and the script counts each outcome class over both passes.  Each of these
failures prints its command and the instance, and the script exits 1 when
one of their counts is not zero:

* an exit code outside 0-3;
* exit 2 on the valid file (``plot``'s ``UNSUPPORTED_DIMENSION`` aside);
* NaN or Infinity in stdout;
* a ``RuntimeWarning``, or an exception escaping the CLI (a traceback);
* weights from ``weights`` that miss ``w >= 1`` or ``G w >= 1`` in exact
  rational arithmetic, G being the rows ``x_j - x_0`` as float64 forms them;
* ``nan`` or ``inf`` in the drawing (the part after the metadata) of the SVG
  that ``plot`` wrote.

It also reports, without failing on them, the exit-3 numerical failures
per command and error code, as ``exit 3 from epsilon (MAX_ITER_EXCEEDED)``,
and the ``test`` verdicts that differ from the exact-rational verdict of
``tests/oracle.py`` (``exact_pointed``); the scale defect behind the wrong
verdicts is still open.

    python scripts/float_fuzz.py -n 2500 --seed 1
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import re
import sys
import tempfile
import traceback
import warnings
from collections import Counter
from fractions import Fraction
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
from oracle import exact_pointed  # noqa: E402

from prefcone import InvalidInstanceError, parse_instance  # noqa: E402
from prefcone.cli import run  # noqa: E402

GATED = (
    "exit code outside 0-3",
    "exit 2 on a valid file",
    "NaN or Infinity in stdout",
    "RuntimeWarning",
    "traceback",
    "weights failing their exact check",
    "NaN or Infinity in the SVG drawing",
)


def draw(rng: np.random.Generator) -> dict:
    """One instance document: the reference at the origin, all others preferred."""
    p = int(rng.integers(1, 4))
    m = int(rng.integers(2, 5))
    kind = rng.integers(0, 4, size=(m - 1, p))
    sign = rng.choice([-1.0, 1.0], size=kind.shape)
    exps = np.select(
        [kind == 1, kind == 2, kind == 3],
        [rng.integers(-60, 61, kind.shape), rng.integers(-1074, -999, kind.shape),
         rng.integers(1000, 1023, kind.shape)],
    )
    small = rng.integers(0, 4, size=kind.shape).astype(float)  # 0 or 1..3
    entries = np.where(kind == 0, small, np.ldexp(1.0, exps)) * sign + 0.0
    alternatives = np.vstack([np.zeros(p), entries])
    return {
        "alternatives": alternatives.tolist(),
        "reference_index": 0,
        "preferred_indices": list(range(1, m)),
    }


def translated(doc: dict) -> dict:
    """The same document with 2^60 added to every alternative's first criterion."""
    alternatives = np.asarray(doc["alternatives"], dtype=float)
    alternatives[:, 0] += 2.0**60
    return dict(doc, alternatives=alternatives.tolist())


def _reject(token: str):
    raise ValueError(f"{token} in the output")


def _weights_pass(weights: list[float], gens: np.ndarray) -> bool:
    w = [Fraction(x) for x in weights]
    return min(w) >= 1 and all(
        sum(Fraction(g) * x for g, x in zip(row, w)) >= 1 for row in gens.tolist()
    )


def check(doc: dict, workdir: Path) -> Counter:
    """Run every command on one instance document and count its outcome
    classes; each gated failure prints its command and the document."""
    counts = Counter()

    def fail(name: str, command: str, times: int = 1) -> None:
        if times:
            counts[name] += times
            print(f"{name.upper()} from {command}: {json.dumps(doc)}")

    try:
        inst = parse_instance(json.dumps(doc))
    except InvalidInstanceError:
        counts["invalid draws (skipped)"] += 1
        return counts
    counts["valid draws"] += 1
    path, svg = workdir / "draw.json", workdir / "draw.svg"
    path.write_text(json.dumps(doc), encoding="utf-8")
    point = "--point=" + ",".join(["-1"] * inst.p)
    commands = {
        "test": ["test", str(path)],
        "weights": ["weights", str(path)],
        "epsilon": ["epsilon", str(path)],
        "eval psi": ["eval", "--instance", str(path), "--function", "psi", point],
        "eval vartheta": ["eval", "--instance", str(path), "--function", "vartheta", point],
        "plot": ["plot", str(path), "--output", str(svg)],
    }
    alternatives = np.asarray(doc["alternatives"], dtype=float)
    gens = alternatives[1:] - alternatives[0]  # the judgement rows, as float64 forms them
    for name, argv in commands.items():
        out = io.StringIO()
        with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stdout(out):
            warnings.simplefilter("always", RuntimeWarning)
            try:
                code = run(argv)
            except Exception:  # noqa: BLE001 - each escaping exception is one count
                traceback.print_exc()
                code = None
        fail("RuntimeWarning", name, sum(issubclass(w.category, RuntimeWarning) for w in caught))
        if code is None:
            fail("traceback", name)
            continue
        if code not in (0, 1, 2, 3):
            fail("exit code outside 0-3", name)
        try:
            payload = json.loads(out.getvalue(), parse_constant=_reject)
        except ValueError:
            fail("NaN or Infinity in stdout", name)
            continue
        error = payload.get("error", {}).get("code")
        if code == 2 and not (name == "plot" and error == "UNSUPPORTED_DIMENSION"):
            fail("exit 2 on a valid file", name)
        if code == 3:
            counts[f"exit 3 from {name} ({error})"] += 1
        if name == "weights" and code == 0 and not _weights_pass(payload["weights"], gens):
            fail("weights failing their exact check", name)
        if name == "plot" and code == 0:
            drawing = svg.read_text(encoding="utf-8").split("</metadata>")[1]
            if re.search(r"\b(nan|inf)\b", drawing):
                fail("NaN or Infinity in the SVG drawing", name)
        if name == "test" and code in (0, 1) and (code == 0) != exact_pointed(gens):
            counts["wrong test verdicts (not gated)"] += 1
    return counts


def fuzz(n: int, seed: int) -> Counter:
    """Counts over ``n`` seeded draws, each run as drawn and translated."""
    rng = np.random.default_rng(seed)
    counts = Counter()
    with tempfile.TemporaryDirectory() as tmp:
        for _ in range(n):
            doc = draw(rng)
            counts.update(check(doc, Path(tmp)))
            counts.update(check(translated(doc), Path(tmp)))
    return counts


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("-n", "--draws", type=int, default=1000)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    counts = fuzz(args.draws, args.seed)
    for name in GATED:
        print(f"{name}: {counts[name]}")
    for name in sorted(set(counts) - set(GATED)):
        print(f"{name}: {counts[name]}")
    sys.exit(1 if any(counts[name] for name in GATED) else 0)


if __name__ == "__main__":
    main()
