"""Reference checks on the answers the timed loop collected.

Run after the timed region.  Every answer is held against references that do
not come from prefcone: the HiGHS verdict recorded at generation, a direct
check of the weight certificate, HiGHS on the cone shrunk by
``epsilon_bar``, and scipy's NNLS distance for ``psi``.  Each check returns
``None`` for a correct answer or a one-line reason.
"""

from __future__ import annotations

import json

import numpy as np

from workloads import highs_pointed

# The certificate promises d >= 1 and g.d >= 1; allow float dust relative to
# the size of the products involved.
CERT_ABS_TOL = 1e-7
CERT_REL_TOL = 1e-9
# psi on an exterior point is minus the Euclidean distance to the cone.
PSI_REL_TOL = 1e-8


class Checker:
    def __init__(self, instance_texts: list[str], truth: dict, resid=None, points=None):
        self.gens = []
        for text in instance_texts:
            doc = json.loads(text)
            alts = np.array(doc["alternatives"], dtype=float)
            self.gens.append(alts[doc["preferred_indices"]] - alts[doc["reference_index"]])
        self.pointed = [row["pointed"] for row in truth["instances"]]
        self.resid = resid
        self.points = points
        self._highs: dict[tuple[int, float], bool] = {}

    def _verdict(self, k: int, pointed, weights, epsilon_bar) -> str | None:
        """Verdict, weight certificate and ``epsilon_bar`` for instance ``k``."""
        if pointed != self.pointed[k]:
            return f"instance {k}: pointed={pointed}, HiGHS says {self.pointed[k]}"
        if not pointed:
            return None
        gens = self.gens[k]
        d = np.asarray(weights, dtype=float)
        if d.shape != (gens.shape[1],) or not np.all(np.isfinite(d)):
            return f"instance {k}: malformed weight certificate {weights!r}"
        if (d < 1.0 - CERT_ABS_TOL).any():
            return f"instance {k}: certificate has d < 1 (min {d.min()!r})"
        slack = gens @ d - 1.0
        tol = CERT_ABS_TOL + CERT_REL_TOL * (np.abs(gens) @ np.abs(d))
        if (slack < -tol).any():
            return f"instance {k}: certificate has g.d < 1 (min slack {slack.min()!r})"
        if epsilon_bar is None or not epsilon_bar > 0:
            return f"instance {k}: epsilon_bar {epsilon_bar!r} is not positive"
        key = (k, float(epsilon_bar))
        if key not in self._highs:
            self._highs[key] = highs_pointed(gens - epsilon_bar)
        if not self._highs[key]:
            return f"instance {k}: HiGHS finds the cone shrunk by {epsilon_bar!r} not pointed"
        return None

    def cli(self, k: int, answer) -> str | None:
        """``prefcone test`` exit code and stdout for instance ``k``."""
        code, stdout = answer
        if code not in (0, 1):
            return f"instance {k}: exit code {code}: {stdout[:200]!r}"
        try:
            report = json.loads(stdout)
        except json.JSONDecodeError:
            return f"instance {k}: report is not JSON: {stdout[:200]!r}"
        if report.get("pointed") != (code == 0):
            return f"instance {k}: exit code {code} disagrees with report {report.get('pointed')!r}"
        return self._verdict(k, code == 0, report.get("weight_certificate"),
                             report.get("epsilon_bar"))

    def psi(self, k: int, values) -> str | None:
        """``evaluate_batch`` of ``psi`` on the points of instance ``k``."""
        v = np.asarray(values, dtype=float)
        resid = self.resid[k]
        if v.shape != resid.shape or not np.all(np.isfinite(v)):
            return f"instance {k}: malformed values of shape {v.shape}"
        if v[0] != 0.0:
            return f"instance {k}: psi(reference) = {v[0]!r}, expected 0"
        tol = PSI_REL_TOL * (1.0 + np.linalg.norm(self.points[k] - self.points[k][0], axis=1))
        outside = v < 0
        bad = np.flatnonzero(outside & (np.abs(v + resid) > tol))
        if bad.size:
            i = bad[0]
            return f"instance {k} point {i}: psi {v[i]!r}, scipy nnls residual {resid[i]!r}"
        bad = np.flatnonzero(~outside & (resid > tol))
        if bad.size:
            i = bad[0]
            return f"instance {k} point {i}: psi {v[i]!r} >= 0 but nnls residual {resid[i]!r}"
        return None
