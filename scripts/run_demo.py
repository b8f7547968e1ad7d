#!/usr/bin/env python3
"""End-to-end tour of the bundled fixtures.

Runs the consistency test on each instance under data/, prints the verdict,
evaluates the constructed value functions at a few probe points, and writes
SVG schematics to out/.
"""

from __future__ import annotations

import argparse
from pathlib import Path

import numpy as np

from prefcone import (
    WholeSpaceError,
    consistency_verdict,
    dual_hrep,
    evaluate,
    extreme_rays,
    make_linear,
    make_psi,
    make_vartheta,
    parse_instance,
    plot2d,
    preference_cone,
)

ROOT = Path(__file__).resolve().parent.parent


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--data", default=ROOT / "data", type=Path)
    parser.add_argument("--out", default=ROOT / "out", type=Path)
    args = parser.parse_args()
    args.out.mkdir(exist_ok=True)

    for path in sorted(args.data.glob("*.json")):
        inst = parse_instance(path.read_text())
        report = consistency_verdict(inst)
        print(f"=== {path.name} ===")
        print(report.verdict_text)
        print(f"facets: {extreme_rays(dual_hrep(preference_cone(inst, 0.0))).n_facets}")

        try:
            psi = make_psi(inst)
        except WholeSpaceError:
            print("signed distance undefined: the cone covers the whole space")
            psi = None
        if psi is not None:
            for probe in (inst.reference + 2.0, inst.reference, inst.reference - 2.0):
                print(f"  psi({np.round(probe, 3).tolist()}) = {evaluate(psi, probe):+.6f}")
        if report.pointed:
            vartheta = make_vartheta(inst, report.epsilon_bar)
            linear = make_linear(inst)
            for j in inst.preferred_indices:
                x_j = inst.alternatives[j]
                print(
                    f"  judgement x{j}: vartheta {evaluate(vartheta, x_j):+.6f}"
                    f"  linear {evaluate(linear, x_j):+.3f}"
                    f" vs reference {evaluate(linear, inst.reference):+.3f}"
                )
        if inst.p == 2:
            svg = args.out / f"{path.stem}.svg"
            plot2d(inst, svg)
            print(f"  wrote {svg}")
        print()


if __name__ == "__main__":
    main()
