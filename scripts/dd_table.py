#!/usr/bin/env python3
"""Double description timing table on Gaussian-scorer instances.

For each (t, p) size, builds ``gaussian_scorer_instance(t, p)`` (t + 1
N(0, 1) alternatives, a positive linear scorer, every alternative preferred
to the lowest-scored one; seeded by ``[t, p, 7]``), runs ``extreme_rays``
on its judgement generators once and prints one table row: t, p, the facet
count and the seconds taken.  Exits 1 if a facet count differs from the one
recorded in ``tests/_helpers.py::GAUSSIAN_SCORER_FACETS``.

    python scripts/dd_table.py              # every recorded size, up to p=12
    python scripts/dd_table.py --max-p 9    # t=40, p=6..9
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
from _helpers import GAUSSIAN_SCORER_FACETS, gaussian_scorer_instance  # noqa: E402

from prefcone import generators  # noqa: E402
from prefcone.cones import extreme_rays  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--max-p", type=int, default=12, help="largest p to run")
    args = parser.parse_args()

    print("| t, p | facets | seconds |")
    print("|---|---|---|")
    wrong = []
    for (t, p), recorded in GAUSSIAN_SCORER_FACETS.items():
        if p > args.max_p:
            continue
        gens = generators(gaussian_scorer_instance(t, p), 0.0)
        start = time.perf_counter()
        facets = extreme_rays(gens).n_facets
        seconds = time.perf_counter() - start
        print(f"| {t}, {p} | {facets} | {seconds:.3f} |", flush=True)
        if facets != recorded:
            wrong.append(f"t={t}, p={p}: {facets} facets, recorded {recorded}")
    for line in wrong:
        print("facet count differs:", line, file=sys.stderr)
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
