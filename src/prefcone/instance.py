"""Preference data sets: parsing, validation, and judgement direction vectors.

An instance is a set of alternatives (real vectors scored on p criteria),
one fixed reference alternative, and an ordered set of alternatives the
decision maker declared strictly better than the reference.  Instances are
immutable after construction (the alternatives array is read-only) and safe
to share across threads; each one validates itself at most once.

File formats
------------
JSON::

    {"alternatives": [[r, ...], ...], "reference_index": k,
     "preferred_indices": [j, ...]}

CSV: one row per alternative, ``p`` decimal literals followed by a ``role``
column whose value is one of ``ref``, ``pref``, ``other``; exactly one row
carries ``ref``.  All indices are 0-based.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DimensionMismatchError, InvalidInstanceError, ParseError

__all__ = [
    "PreferenceInstance",
    "ValidationReport",
    "parse_instance",
    "validate",
    "require_valid",
    "generators",
]

_CSV_ROLES = ("ref", "pref", "other")
_INT_OVERFLOW = 2**1024 - 2**970  # the least integer that float() cannot round to a double


@dataclass(frozen=True, eq=False)
class PreferenceInstance:
    """Alternatives matrix plus the judgement structure over it.

    Attributes:
        alternatives: (m, p) read-only float array, one row per alternative.
        reference_index: row index of the fixed reference alternative.
        preferred_indices: ordered tuple of row indices judged strictly
            better than the reference.
    """

    alternatives: np.ndarray
    reference_index: int
    preferred_indices: tuple[int, ...]

    def __post_init__(self):
        try:
            alts = np.array(self.alternatives, dtype=float)
        except ValueError as exc:
            raise DimensionMismatchError(f"alternatives are not rectangular: {exc}") from None
        if alts.ndim != 2:
            raise DimensionMismatchError(
                f"alternatives must form a 2-d matrix, got {alts.ndim} dimension(s)"
            )
        alts.flags.writeable = False
        object.__setattr__(self, "alternatives", alts)
        object.__setattr__(self, "reference_index", int(self.reference_index))
        object.__setattr__(
            self, "preferred_indices", tuple(int(j) for j in self.preferred_indices)
        )

    @property
    def m(self) -> int:
        return self.alternatives.shape[0]

    @property
    def p(self) -> int:
        return self.alternatives.shape[1]

    @property
    def t(self) -> int:
        return len(self.preferred_indices)

    @property
    def reference(self) -> np.ndarray:
        return self.alternatives[self.reference_index]

    @cached_property
    def _validation(self) -> "ValidationReport":
        return validate(self)


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of :func:`validate`; ``ok`` iff ``violations`` is empty."""

    violations: tuple[tuple[str, str], ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_dict(self) -> dict:
        return {
            "ok": self.ok,
            "violations": [{"code": c, "message": m} for c, m in self.violations],
        }


def parse_instance(text: str, format: str = "json") -> PreferenceInstance:
    """Parse an instance file body.

    Only shape is checked here (rectangular matrix, well-formed fields);
    semantic checks live in :func:`validate`.
    """
    if format == "json":
        return _parse_json(text)
    if format == "csv":
        return _parse_csv(text)
    raise ValueError(f"unknown instance format {format!r}; expected 'json' or 'csv'")


def _parse_json(text: str) -> PreferenceInstance:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc.msg}", line=exc.lineno, field=exc.colno) from None
    if not isinstance(doc, dict):
        raise ParseError("top-level JSON value must be an object")
    for key in ("alternatives", "reference_index", "preferred_indices"):
        if key not in doc:
            raise ParseError(f"missing required field {key!r}")
    alts = doc["alternatives"]
    if not isinstance(alts, list) or not alts:
        raise ParseError("'alternatives' must be a non-empty list of rows")
    widths = set()
    for i, row in enumerate(alts):
        if not isinstance(row, list):
            raise ParseError(f"alternative {i} is not a list")
        if not all(type(v) is float or type(v) is int and abs(v) < _INT_OVERFLOW for v in row):
            numeric = all(type(v) in (float, int) for v in row)  # json.loads' exact types
            what = "an integer too large for a float" if numeric else "a non-numeric value"
            raise ParseError(f"alternative {i} contains {what}")
        widths.add(len(row))
    if len(widths) > 1:
        raise DimensionMismatchError(
            f"alternatives have mixed dimensions {sorted(widths)}"
        )
    if not isinstance(doc["reference_index"], int) or isinstance(doc["reference_index"], bool):
        raise ParseError("'reference_index' must be an integer")
    pref = doc["preferred_indices"]
    if not isinstance(pref, list) or any(
        not isinstance(j, int) or isinstance(j, bool) for j in pref
    ):
        raise ParseError("'preferred_indices' must be a list of integers")
    return PreferenceInstance(
        alternatives=alts,
        reference_index=doc["reference_index"],
        preferred_indices=pref,
    )


def _parse_csv(text: str) -> PreferenceInstance:
    rows = []
    roles = []
    width = None
    for lineno, record in enumerate(csv.reader(text.splitlines()), start=1):
        if not record or all(not cell.strip() for cell in record):
            continue
        if len(record) < 2:
            raise ParseError("row needs at least one score and a role", line=lineno)
        role = record[-1].strip()
        if role not in _CSV_ROLES:
            raise ParseError(
                f"unknown role {role!r}; expected one of {', '.join(_CSV_ROLES)}",
                line=lineno,
                field=len(record),
            )
        values = []
        for field, cell in enumerate(record[:-1], start=1):
            try:
                values.append(float(cell))
            except ValueError:
                raise ParseError(f"not a number: {cell!r}", line=lineno, field=field) from None
        if width is None:
            width = len(values)
        elif len(values) != width:
            raise DimensionMismatchError(
                f"line {lineno}: row has {len(values)} scores, expected {width}"
            )
        rows.append(values)
        roles.append(role)
    if not rows:
        raise ParseError("no data rows found")
    ref_rows = [i for i, r in enumerate(roles) if r == "ref"]
    if len(ref_rows) != 1:
        raise ParseError(f"expected exactly one 'ref' row, found {len(ref_rows)}")
    return PreferenceInstance(
        alternatives=rows,
        reference_index=ref_rows[0],
        preferred_indices=[i for i, r in enumerate(roles) if r == "pref"],
    )


def validate(inst: PreferenceInstance) -> ValidationReport:
    """Check every structural invariant; violations are reported, not raised."""
    bad = []
    m, p = inst.alternatives.shape
    top = float(np.abs(inst.alternatives).max(initial=0.0))  # NaN or inf if an entry is
    if p < 1:
        bad.append(("ZERO_DIMENSION", "alternatives must have at least one criterion"))
    if not math.isfinite(top):
        bad.append(("NON_FINITE_VALUE", "alternatives contain NaN or infinite entries"))
    if not 0 <= inst.reference_index < m:
        bad.append(
            ("REFERENCE_OUT_OF_RANGE", f"reference_index {inst.reference_index} not in [0, {m})")
        )
    out = [j for j in inst.preferred_indices if not 0 <= j < m]
    if out:
        bad.append(("PREFERRED_OUT_OF_RANGE", f"preferred indices {out} not in [0, {m})"))
    if not bad and top >= 2.0**1022:  # no difference of smaller entries overflows
        with np.errstate(over="ignore"):
            directions = inst.alternatives[list(inst.preferred_indices)] - inst.reference
        if not np.isfinite(directions).all():
            bad.append(("NON_FINITE_DIRECTION", "a judgement direction x_j - x_k overflows"))
    if len(set(inst.preferred_indices)) != len(inst.preferred_indices):
        bad.append(("DUPLICATE_PREFERRED", "preferred_indices contains repeats"))
    if inst.reference_index in inst.preferred_indices:
        bad.append(
            ("REFERENCE_IN_PREFERRED", "the reference alternative cannot be preferred to itself")
        )
    if inst.t < 1:
        bad.append(("NO_JUDGEMENTS", "at least one preference judgement is required"))
    # Distinctness is exact equality of stored doubles; a tolerance here would
    # silently alter the problem.  Adding 0.0 maps -0.0 to +0.0, its equal.
    alternatives = inst.alternatives + 0.0
    seen: dict[bytes, int] = {}
    for i in range(m):
        key = alternatives[i].tobytes()
        if key in seen:
            bad.append(
                ("DUPLICATE_ALTERNATIVE", f"alternatives {seen[key]} and {i} are identical")
            )
        else:
            seen[key] = i
    return ValidationReport(tuple(bad))


def require_valid(inst: PreferenceInstance) -> None:
    report = inst._validation
    if not report.ok:
        raise InvalidInstanceError(report.violations)


def generators(inst: PreferenceInstance, epsilon: float = 0.0) -> np.ndarray:
    """Judgement direction vectors ``x_j - epsilon*ones - x_k``, in input order.

    These generate the judgement part of the preference cone; the unit axis
    directions are added where the cone is used (``extreme_rays`` and the
    signed-distance value functions).  ``epsilon > 0`` shrinks
    every generator by the same amount on each coordinate.
    """
    require_valid(inst)
    epsilon = float(epsilon)
    if not math.isfinite(epsilon) or epsilon < 0:
        raise ValueError(f"epsilon must be a finite nonnegative real, got {epsilon}")
    idx = list(inst.preferred_indices)
    return inst.alternatives[idx] - epsilon - inst.reference
