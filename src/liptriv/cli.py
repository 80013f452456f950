"""Command-line entry point.

Subcommands: analyze, factor, jelonek, critical, infinity, probe, compare.
Exit codes: 0 success, 2 parse/usage error, 3 resource budget exhausted (a
partial report is still emitted when possible).  Diagnostics go to stderr;
reports go to stdout, and their JSON to --json-path.  The probe flags are
--seed and --radii; the properness verdict's thresholds and the restart and
step counts are constants of properness.py.  The documents themselves are
built in report.py.
"""

from __future__ import annotations

import argparse
import functools
import re
import sys
from fractions import Fraction
from math import isinf

from . import __version__, report
from .classifier import (
    AnalysisConfig,
    classify,
    complexification_compare,
    rational_grid,
    tube_distance_probe,
)
from .critical import critical_ideal, real_critical_values
from .dependence import factor_through_projection
from .groebner import DEFAULT_BUDGET, BudgetExceededError, GroebnerBudget, Ideal, MonomialOrder, buchberger
from .infinity import fiber_infinity
from .parsing import _MAX_DIGITS, ParseError, parse_input
from .polycore import PolyMap
from .properness import ProbeSchedule, certifier, jelonek_ideal, properness_probe_real
from .rational import RationalMap

_PROBE = ProbeSchedule()


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process: parse_args keeps no state between calls."""
    parser = argparse.ArgumentParser(
        prog="liptriv",
        description="Analyze Lipschitz trivial values of polynomial mappings.",
    )
    parser.add_argument("--version", action="version", version=f"liptriv {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, with_field: bool = True):
        p.add_argument("-i", "--input", required=True, help="mapping file (.map)")
        if with_field:
            p.add_argument(
                "--field", choices=("real", "complex"), default="complex",
                help="coefficient field for the analysis (default complex)",
            )
        p.add_argument("--seed", type=int, default=_PROBE.seed, help=f"probe seed (default {_PROBE.seed})")
        p.add_argument(
            "--radii", default=None,
            help="comma-separated increasing radii of the sphere properness probe (default "
            + ",".join(f"{r:g}" for r in _PROBE.radii) + "); the tube probe keeps its own",
        )
        p.add_argument("--max-basis", type=int, default=DEFAULT_BUDGET.max_basis)
        p.add_argument("--max-degree", type=int, default=DEFAULT_BUDGET.max_degree)
        p.add_argument("--output", choices=("text", "json"), default="text")
        p.add_argument("--json-path", default=None, help="also write the JSON report here")

    common(sub.add_parser("analyze", help="full classification pipeline"))
    common(sub.add_parser("factor", help="invariance subspace and factorization only"))
    common(sub.add_parser("jelonek", help="exact complex non-properness ideal"))
    common(sub.add_parser("critical", help="critical value ideal and real roots"))

    p_inf = sub.add_parser("infinity", help="fiber closure and cone at infinity")
    common(p_inf)
    p_inf.add_argument(
        "--values", default=None,
        help="semicolon-separated values, components comma-separated (e.g. '1,0;2,3')",
    )

    p_probe = sub.add_parser("probe", help="real properness probe at given values")
    common(p_probe, with_field=False)
    p_probe.add_argument(
        "--values", required=True,
        help="semicolon-separated values to probe (e.g. '2;0.5')",
    )
    p_probe.add_argument(
        "--tube", default=None,
        help="pair of values 'c|t' for an inter-level tube distance probe",
    )

    common(sub.add_parser("compare", help="real vs complexification containment"))
    return parser


def _chunks(text: str) -> list[str]:
    """The values of a ';'-separated list, as the text the user gave."""
    return [chunk.strip() for chunk in text.split(";") if chunk.strip()]


# The decimal exponent that ends a literal such as '1e400': its sign and digits.
_EXPONENT = re.compile(r"[eE]([-+]?)([0-9_]+)\Z")


def _literal(chunk: str, s: str, floats: bool) -> Fraction:
    """One coordinate of the value `chunk`, exact.  A literal with more
    digits than the map parser takes (`_MAX_DIGITS`, or Python's int
    conversion limit when that is lower) or a decimal exponent past
    +-`_MAX_DIGITS` is refused before `Fraction` expands it, which for
    '1e10000000' takes seconds.  For the probes (`floats`) an exponent past
    it whose literal has an infinite float raises OverflowError, as the
    float of a smaller exact value past the float range does."""
    exponent = _EXPONENT.search(s)
    mantissa = s[: exponent.start()] if exponent else s
    digits = sum(ch.isdigit() for ch in mantissa)
    limit = min(_MAX_DIGITS, sys.get_int_max_str_digits() or _MAX_DIGITS)
    if digits > limit:
        raise ValueError(f"value {chunk!r} has {digits} digits, more than {limit}")
    if exponent:
        power = exponent[2].replace("_", "").lstrip("0")
        if len(power) > len(str(_MAX_DIGITS)) or int(power or "0") > _MAX_DIGITS:
            if floats and exponent[1] != "-" and isinf(float(s)):
                raise OverflowError
            raise ValueError(f"value {chunk!r} has a decimal exponent past {_MAX_DIGITS}")
    return Fraction(s)


def _parse_values(text: str, p: int, floats: bool):
    """The ';'-separated values of `text`, each p comma-separated
    coordinates: exact, or as floats for the probes, where a value past the
    float range is rejected by its text, not by the digits of the number."""
    out = []
    for chunk in _chunks(text):
        parts = [s.strip() for s in chunk.split(",")]
        if len(parts) != p:
            raise ValueError(f"value {chunk!r} needs {p} components")
        try:
            value = tuple(_literal(chunk, s, floats) for s in parts)
            out.append(tuple(float(x) for x in value) if floats else value)
        except ZeroDivisionError:
            raise ValueError(f"value {chunk!r} divides by zero") from None
        except OverflowError:
            raise ValueError(f"value {chunk!r} is too large for a float") from None
    if not out:
        raise ValueError("no values given")
    return out


def _parse_tube(text: str, p: int):
    """The two levels of '--tube c|t', each one value of p components, as floats."""
    levels = [_parse_values(level, p, floats=True) for level in text.split("|")]
    if len(levels) != 2 or any(len(values) != 1 for values in levels):
        raise ValueError(f"tube {text!r} needs two values 'c|t'")
    return [values[0] for values in levels]


def _config(args) -> AnalysisConfig:
    radii = _PROBE.radii
    if args.radii:
        radii = tuple(float(s) for s in args.radii.split(","))
    return AnalysisConfig(
        ProbeSchedule(radii=radii, seed=args.seed),
        GroebnerBudget(max_basis=args.max_basis, max_degree=args.max_degree),
    )


def _load(path: str):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise ParseError(f"cannot read input: {exc}", 0, 0) from exc
    return parse_input(text)


def _emit(args, payload, text) -> None:
    """Write payload() (JSON) to --json-path, and it or text() to stdout."""
    json_text = payload() if args.json_path or args.output == "json" else None
    if args.json_path:
        try:
            with open(args.json_path, "w", encoding="utf-8") as handle:
                handle.write(json_text)
        except OSError as exc:
            raise ValueError(f"cannot write {args.json_path!r}: {exc.strerror}") from exc
    sys.stdout.write(json_text if args.output == "json" else text())


def _document(args, poly: PolyMap, cfg: AnalysisConfig) -> dict:
    """Run one subcommand other than analyze and build its document."""
    if args.command == "infinity":
        if args.values:
            values = _parse_values(args.values, poly.p, floats=False)
        else:
            values = rational_grid(poly.p, 2)
        grevlex = MonomialOrder.grevlex()
        bases = (buchberger(Ideal.fiber(poly, c), grevlex, cfg.budget) for c in values)
        reports = [fiber_infinity(basis, c) for basis, c in zip(bases, values)]
        return report.infinity_document(poly, args.field, reports)
    if args.command == "compare":
        return report.compare_document(poly, *complexification_compare(poly, cfg))
    if args.command == "probe":
        return _probe_document(args, poly, cfg)

    fact = factor_through_projection(poly)
    g = fact.g
    if args.command == "factor":
        return report.factor_document(poly, args.field, fact)
    if args.command == "jelonek":
        return report.jelonek_document(poly, args.field, g, jelonek_ideal(g, cfg.budget))
    if args.command == "critical":
        crit = critical_ideal(g, cfg.budget)
        roots = None
        if g.p == 1 and not crit.has_unit_generator():
            roots = real_critical_values(g, crit, cfg.probe.seed)
        return report.critical_document(poly, args.field, g, crit, roots)


def _probe_document(args, poly: PolyMap, cfg: AnalysisConfig) -> dict:
    # Every value and both tube levels are read as floats before any stage
    # runs; g has the p components of poly.
    points = _parse_values(args.values, poly.p, floats=True)
    tube = _parse_tube(args.tube, poly.p) if args.tube else None
    # The tube probe runs first, so equal levels are refused before any
    # properness probe; the two outputs are independent and seeded.
    if tube is not None:
        tube = tube_distance_probe(poly, *tube, seed=cfg.probe.seed)
    # Properness per value is meaningful for the reduced mapping, the silent
    # coordinates of a suspension make every fiber unbounded.
    g = factor_through_projection(poly).g
    certify = certifier(g, None, cfg.budget)
    verdicts = [properness_probe_real(g, point, cfg.probe, certify) for point in points]
    return report.probe_document(poly, g, points, verdicts, tube)


def run(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    try:
        mapping = _load(args.input)
        cfg = _config(args)
        if args.command == "analyze":
            result = classify(mapping, args.field, cfg)
            _emit(args, lambda: report.emit_report(result), lambda: report.render_text(result))
            return 3 if result.flags else 0

        if isinstance(mapping, RationalMap):
            print(
                "this subcommand needs a polynomial mapping; "
                "use 'analyze' for rational input",
                file=sys.stderr,
            )
            return 2
        doc = _document(args, mapping, cfg)
        _emit(args, lambda: report.dumps(doc), lambda: report.render(args.command, doc))
        # Only compare's document carries flags: its stages keep going past a budget.
        return 3 if doc.get("flags") else 0
    except BudgetExceededError as exc:
        print(f"resource budget exhausted: {exc}", file=sys.stderr)
        return 3
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return 2


def main() -> None:  # pragma: no cover - thin wrapper
    sys.exit(run())


if __name__ == "__main__":  # pragma: no cover
    main()
