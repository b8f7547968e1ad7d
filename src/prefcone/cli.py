"""Command-line front end.

Exit codes: 0 for a consistent verdict or any successful output, 1 when the
judgements are inconsistent (a domain answer, so pipelines can branch on
it), 2 for input problems (unreadable or invalid files, wrong dimensions),
3 for numerical failures on a valid input (a stalled simplex, a non-finite
pivot or LP answer, an epsilon schedule that underflows to 0 before it
falls below eps*, weights that fail their check, or an NNLS iteration
cap), and 64 for malformed flags.
"""

from __future__ import annotations

import argparse
import functools
import json
import logging
import re
import sys
from pathlib import Path

from .consistency import consistency_verdict, epsilon_search, extract_linear_weights
from .errors import InvalidInstanceError, ParseError, PrefconeError
from .instance import parse_instance
from .plotting import plot2d
from .valuefn import evaluate, make_linear, make_psi, make_vartheta

__all__ = ["run", "main"]

_INPUT_ERRORS = 2
_USAGE = 64


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse reads "-2" as a value but "-2,-2", "-1e-3" and "-inf,1" as unknown options
        self._negative_number_matcher = re.compile(r"-(\.?\d|inf|nan)", re.IGNORECASE)

    def error(self, message):
        raise _UsageError(message)


@functools.cache
def _build_parser() -> _Parser:
    parser = _Parser(
        prog="prefcone",
        description=(
            "Test whether pairwise judgements against one reference alternative "
            "admit an increasing quasi-concave value function, and construct "
            "explicit consistent value functions when they do."
        ),
    )
    parser.add_argument("-v", "--verbose", action="store_true", help="debug logging (LP tableaux)")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_common(sp, positional_instance=True):
        if positional_instance:
            sp.add_argument("instance", help="instance file (.json or .csv)")
        sp.add_argument("--output", help="write the report here instead of stdout")
        sp.add_argument("--format", choices=("json", "text"), default="json")

    for name, text in (
        ("validate", "check the instance file invariants"),
        ("test", "run the consistency test and print the verdict"),
        ("weights", "extract strictly separating linear weights"),
        ("epsilon", "pick a perturbation size that keeps the cone pointed"),
    ):
        add_common(sub.add_parser(name, help=text))

    sp = sub.add_parser("eval", help="evaluate a constructed value function at a point")
    sp.add_argument("--instance", required=True, help="instance file (.json or .csv)")
    sp.add_argument("--function", choices=("psi", "vartheta", "linear"), required=True)
    sp.add_argument("--point", required=True, help='comma-separated coordinates, e.g. "3,3"')
    add_common(sp, positional_instance=False)

    sp = sub.add_parser("plot", help="write a 2-criteria SVG schematic")
    sp.add_argument("instance", help="instance file (.json or .csv)")
    sp.add_argument("--output", help="SVG path (default: instance path with .svg)")
    sp.add_argument("--format", choices=("json", "text"), default="json")
    return parser


def run(argv=None) -> int:
    parser = _build_parser()
    try:
        ns = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"prefcone: error: {exc}", file=sys.stderr)
        return _USAGE
    if not ns.verbose:
        return _answer(ns)
    # -v logs for this run only, whatever handlers the host process has
    log = logging.getLogger("prefcone")
    handler, level = logging.StreamHandler(), log.level
    handler.setFormatter(logging.Formatter(logging.BASIC_FORMAT))
    log.addHandler(handler)
    log.setLevel(logging.DEBUG)
    try:
        return _answer(ns)
    finally:
        log.removeHandler(handler)
        log.setLevel(level)


def _answer(ns) -> int:
    """Run the parsed command, write its report and return its exit code."""
    try:
        payload, code = _dispatch(ns)
    except PrefconeError as exc:
        payload, code = _error(exc.code, exc), exc.exit_code
        if isinstance(exc, InvalidInstanceError):
            payload["violations"] = _violations(exc)
    except OSError as exc:
        payload, code = _error("IO_ERROR", exc), _INPUT_ERRORS
    except ValueError as exc:
        payload, code = _error("BAD_ARGUMENT", exc), _INPUT_ERRORS
    if ns.output and ns.subcommand != "plot":
        try:
            Path(ns.output).write_text(_render(payload, ns), encoding="utf-8")
            return code
        except OSError as exc:  # an unwritable --output: report that on stdout instead
            payload, code = _error("IO_ERROR", exc), _INPUT_ERRORS
    sys.stdout.write(_render(payload, ns))
    return code


def _error(code: str, exc: Exception) -> dict:
    return {"error": {"code": code, "message": str(exc)}}


def _violations(exc: InvalidInstanceError) -> list[dict]:
    return [{"code": c, "message": m} for c, m in exc.violations]


def _dispatch(ns) -> tuple[dict, int]:
    if ns.subcommand == "validate":
        try:
            _load(ns.instance)
        except InvalidInstanceError as exc:
            return {"ok": False, "violations": _violations(exc)}, _INPUT_ERRORS
        return {"ok": True, "violations": []}, 0

    inst = _load(ns.instance)

    if ns.subcommand == "test":
        report = consistency_verdict(inst)
        return report.to_dict(), 0 if report.pointed else 1

    if ns.subcommand == "weights":
        return {"weights": extract_linear_weights(inst).tolist()}, 0

    if ns.subcommand == "epsilon":
        return {"epsilon_bar": epsilon_search(inst)}, 0

    if ns.subcommand == "eval":
        point = _parse_point(ns.point)
        if ns.function == "psi":
            handle = make_psi(inst)
        elif ns.function == "vartheta":
            handle = make_vartheta(inst)
        else:
            handle = make_linear(inst)
        value = evaluate(handle, point)
        return {"value": value, "classification": _membership(handle.kind, value)}, 0

    if ns.subcommand == "plot":
        out = ns.output or str(Path(ns.instance).with_suffix(".svg"))
        plot2d(inst, out)
        return {"svg": out}, 0

    raise AssertionError(f"unhandled subcommand {ns.subcommand}")


def _load(path: str):
    try:
        text = Path(path).read_text(encoding="utf-8-sig")  # a leading BOM is not data
    except UnicodeDecodeError as exc:
        raise ParseError(f"not UTF-8 text: {exc.reason} at offset {exc.start}") from None
    fmt = "csv" if path.lower().endswith(".csv") else "json"
    return parse_instance(text, fmt)


def _membership(kind: str, value: float) -> str | None:
    """The point's place in the cone, read off the sign of a signed distance."""
    if kind == "linear":
        return None
    return "interior" if value > 0.0 else "exterior" if value < 0.0 else "boundary"


def _parse_point(text: str):
    try:
        return [float(part) for part in text.split(",")]
    except ValueError:
        raise ValueError(f"--point must be comma-separated numbers, got {text!r}") from None


def _render(payload: dict, ns) -> str:
    if ns.format == "text":
        return _as_text(payload)
    return json.dumps(payload, indent=2) + "\n"


def _as_text(payload: dict, indent: str = "") -> str:
    lines = []
    for key, value in payload.items():
        if isinstance(value, dict):
            lines.append(f"{indent}{key}:")
            lines.append(_as_text(value, indent + "  ").rstrip("\n"))
        elif isinstance(value, str) and "\n" in value:
            lines.append(f"{indent}{key}:")
            lines.extend(f"{indent}  {part}" for part in value.splitlines())
        else:
            lines.append(f"{indent}{key}: {value}")
    return "\n".join(lines) + "\n"


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
