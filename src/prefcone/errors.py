"""Exception types shared across the package.

Every error carries a stable machine-readable ``code`` that the CLI maps
into its JSON error reports, and the ``exit_code`` the CLI exits with: 1
for an inconsistent answer, 2 for an input problem, 3 for a numerical
failure on a valid input.
"""

from __future__ import annotations


class PrefconeError(Exception):
    """Base class for all library errors."""

    code = "ERROR"
    exit_code = 2


class ParseError(PrefconeError):
    """Malformed instance file; carries a 1-based line/field position."""

    code = "PARSE_ERROR"

    def __init__(self, message: str, line: int | None = None, field: int | None = None):
        self.line = line
        self.field = field
        where = ""
        if line is not None:
            where = f" (line {line}" + (f", field {field})" if field is not None else ")")
        super().__init__(message + where)


class DimensionMismatchError(PrefconeError):
    code = "DIMENSION_MISMATCH"


class InvalidInstanceError(PrefconeError):
    """Raised when an instance is built from data that breaks an invariant;
    ``violations`` lists each broken one as a ``(code, message)`` pair."""

    code = "INVALID_INSTANCE"

    def __init__(self, violations):
        self.violations = list(violations)
        details = "; ".join(f"{code}: {msg}" for code, msg in self.violations)
        super().__init__(f"instance is invalid: {details}")


class NotPointedError(PrefconeError):
    code = "NOT_POINTED"
    exit_code = 1


class NumericalError(PrefconeError):
    """A valid input on which float64 arithmetic failed: an overflow, a
    stalled iteration, or a certificate that fails its own check."""

    code = "NUMERICAL_FAILURE"
    exit_code = 3


class MaxIterExceededError(NumericalError):
    code = "MAX_ITER_EXCEEDED"


class WholeSpaceError(PrefconeError):
    code = "WHOLE_SPACE"
    exit_code = 1


class NnlsMaxIterError(NumericalError):
    code = "NNLS_MAX_ITER"


class DimensionTooLargeError(PrefconeError):
    code = "DIMENSION_TOO_LARGE"


class UnsupportedDimensionError(PrefconeError):
    code = "UNSUPPORTED_DIMENSION"
