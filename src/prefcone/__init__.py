"""Consistency tests and constructed value functions for pairwise preferences.

Given alternatives scored on p criteria and judgements "x_j is better than
the fixed reference x_k", decide whether some increasing quasi-concave
value function reproduces the judgements, and build explicit witnesses
(a concave signed-distance function, a strictly separating perturbed one,
and a linear one) whenever the answer is yes.
"""

from .consistency import (
    ConsistencyReport,
    consistency_verdict,
    epsilon_search,
    extract_linear_weights,
)
from .cones import FacetCone, extreme_rays, nnls
from .errors import (
    DimensionMismatchError,
    DimensionTooLargeError,
    InvalidInstanceError,
    MaxIterExceededError,
    NnlsMaxIterError,
    NotPointedError,
    NumericalError,
    ParseError,
    PrefconeError,
    UnsupportedDimensionError,
    WholeSpaceError,
)
from .instance import PreferenceInstance, generators, parse_instance
from .plotting import plot2d
from .valuefn import (
    ValueFunctionHandle,
    evaluate,
    evaluate_batch,
    make_linear,
    make_psi,
    make_vartheta,
)

__version__ = "0.1.0"

__all__ = [
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
