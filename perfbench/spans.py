"""In-memory span recorder for the traced benchmark run.

The package has no tracing of its own, so the recorder wraps prefcone's
functions at the module attributes where their callers look them up (for
example ``prefcone.consistency.solve`` is the name ``test_pointedness``
calls).  Each call becomes a span ``(name, start, end, parent, op)``; a
few hooks add counts measured at the same boundary.  Spans stay in memory
until :meth:`Recorder.dump`.
"""

from __future__ import annotations

import importlib
import json
import time
from array import array
from collections import defaultdict

# (module, attribute, span name) for every call the workloads make.  A
# layer is the span name's first part.
TARGETS = [
    ("prefcone.cli", "run", "cli.run"),
    ("prefcone.cli", "parse_instance", "instance.parse"),
    ("prefcone.instance", "validate", "instance.validate"),
    ("prefcone.cli", "consistency_verdict", "consistency.verdict"),
    ("prefcone.consistency", "epsilon_search", "consistency.epsilon_search"),
    ("prefcone.consistency", "test_pointedness", "consistency.test_pointedness"),
    ("prefcone.consistency", "build_pointedness_lp", "lp.build"),
    ("prefcone.consistency", "solve", "lp.solve"),
    ("prefcone.consistency", "extreme_rays", "cones.extreme_rays"),
    ("prefcone.valuefn", "extreme_rays", "cones.extreme_rays"),
    ("prefcone.valuefn", "nnls", "cones.nnls"),
    ("prefcone.valuefn", "make_psi", "valuefn.make_psi"),
    ("prefcone.valuefn", "evaluate_batch", "valuefn.evaluate_batch"),
]

LAYERS = ("cli", "instance", "consistency", "lp", "cones", "valuefn")


class Recorder:
    """Spans live in flat arrays, which the garbage collector never scans, so
    a long traced run does not slow the program down as it grows."""

    def __init__(self):
        self.names: list[str] = []
        self._code: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")  # -1 for a root span
        self.op = array("i")
        self.counts: dict[str, float] = defaultdict(float)
        self.built_lps: list = []  # StandardLPs built in the current op
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._op = -1
        self._ops = 0
        self._saved: list[tuple] = []
        self._root = None

    def install(self) -> None:
        """Replace every target attribute that exists with a recording wrapper."""
        self.missing = []
        hooks = {
            "consistency.test_pointedness": _count_trial,
            "lp.build": _count_lp,
            "cones.extreme_rays": _count_facets,
        }
        for mod_name, attr, name in TARGETS:
            module = importlib.import_module(mod_name)
            fn = getattr(module, attr, None)
            if fn is None:
                self.missing.append(f"{mod_name}.{attr}")
                continue
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(name, fn, hooks.get(name)))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    def _wrap(self, name, fn, hook):
        code = self._code.setdefault(name, len(self.names))
        if code == len(self.names):
            self.names.append(name)
        names, starts, ends, parents, ops = self.name, self.start, self.end, self.parent, self.op
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(starts)
            names.append(code)
            parents.append(stack[-1] if stack else -1)
            ops.append(self._op)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
                if hook is not None:
                    hook(self, result, args, kwargs)
                return result
            finally:
                ends[idx] = clock()
                stack.pop()

        wrapper.__wrapped__ = fn
        return wrapper

    def run_op(self, fn, k):
        """Call ``fn(k)`` as the root span ``op`` of the next operation."""
        if self._root is None:
            self._root = self._wrap("op", lambda f, x: f(x), None)
        self._op = self._ops
        self._ops += 1
        self.built_lps.clear()
        try:
            return self._root(fn, k)
        finally:
            self._op = -1

    def in_span(self, name: str) -> bool:
        code = self._code.get(name)
        return any(self.name[i] == code for i in self._stack)

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i in range(len(self.start)):
                parent = self.parent[i]
                fh.write(json.dumps([self.names[self.name[i]], self.start[i], self.end[i],
                                     None if parent < 0 else parent, self.op[i]]) + "\n")

    def summary(self) -> dict:
        """Totals over all spans: duration and calls per span name, and self
        time (duration minus the child spans' durations) per span name."""
        n = len(self.start)
        child_time = [0.0] * n
        for i in range(n):
            if self.parent[i] >= 0:
                child_time[self.parent[i]] += self.end[i] - self.start[i]
        dur: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        own: dict[str, float] = defaultdict(float)
        for i in range(n):
            name = self.names[self.name[i]]
            span = self.end[i] - self.start[i]
            dur[name] += span
            calls[name] += 1
            own[name] += span - child_time[i]
        return {"dur": dict(dur), "calls": dict(calls), "self": dict(own)}


def _count_trial(rec: Recorder, result, args, kwargs) -> None:
    epsilon = args[1] if len(args) > 1 else kwargs.get("epsilon", 0.0)
    if epsilon > 0 and rec.in_span("consistency.epsilon_search"):
        rec.counts["consistency.epsilon_trials"] += 1


def _count_lp(rec: Recorder, result, args, kwargs) -> None:
    rows, cols = result.constraint_matrix.shape
    rec.counts["lp.tableau_cells"] += rows * cols
    rec.built_lps.append(result)


def _count_facets(rec: Recorder, result, args, kwargs) -> None:
    rec.counts["cones.facets"] += result.n_facets
