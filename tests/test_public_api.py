import prefcone

PUBLIC_NAMES = [
    "ConsistencyReport",
    "DimensionMismatchError",
    "DimensionTooLargeError",
    "FacetCone",
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
    "extreme_rays",
    "generators",
    "make_linear",
    "make_psi",
    "make_vartheta",
    "nnls",
    "parse_instance",
    "plot2d",
]


def test_public_names_are_exactly_the_exported_ones():
    assert sorted(prefcone.__all__) == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        getattr(prefcone, name)
    # the paper's program gives z* only; the verdict is consistency_verdict's
    for name in ("test_pointedness", "PointednessResult", "Z_STAR_TOL"):
        assert not hasattr(prefcone, name), name
