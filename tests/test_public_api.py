import importlib.util
from pathlib import Path

import prefcone
import prefcone.cones

PUBLIC_NAMES = [
    "ConsistencyReport",
    "DimensionMismatchError",
    "DimensionTooLargeError",
    "InvalidInstanceError",
    "MaxIterExceededError",
    "NnlsMaxIterError",
    "NotPointedError",
    "NumericalError",
    "ParseError",
    "PrefconeError",
    "PreferenceInstance",
    "UnsupportedDimensionError",
    "ValueFunctionHandle",
    "WholeSpaceError",
    "consistency_verdict",
    "epsilon_search",
    "evaluate",
    "evaluate_batch",
    "extract_linear_weights",
    "generators",
    "make_linear",
    "make_psi",
    "make_vartheta",
    "parse_instance",
    "plot2d",
]

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def test_public_names_are_exactly_the_exported_ones():
    assert sorted(prefcone.__all__) == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        getattr(prefcone, name)
    # the paper's program gives z* only; the verdict is consistency_verdict's
    for name in ("test_pointedness", "PointednessResult", "Z_STAR_TOL"):
        assert not hasattr(prefcone, name), name
    # the cone engine is private, as the LP solver is
    for name in ("FacetCone", "extreme_rays", "nnls"):
        assert not hasattr(prefcone, name), name
        assert name in prefcone.cones.__all__
        getattr(prefcone.cones, name)


def test_every_benchmark_span_target_resolves():
    # the traced benchmark wraps these attributes by name; one that is gone
    # drops its span from every report
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.TARGETS
    for module, attr, _ in spans.TARGETS:
        assert callable(getattr(importlib.import_module(module), attr, None)), f"{module}.{attr}"
