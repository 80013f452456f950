"""Command-line entry point.

Subcommands: analyze, factor, jelonek, critical, infinity, probe, compare.
Exit codes: 0 success, 2 parse/usage error, 3 resource budget exhausted (a
partial report is still emitted when possible).  Diagnostics go to stderr;
reports go to stdout or --json-path.  LTV_SEED overrides the seed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction
from functools import cache

from . import __version__
from .classifier import (
    AnalysisConfig,
    classify,
    classify_rational,
    complexification_compare,
    tube_distance_probe,
)
from .groebner import BudgetExceededError, GroebnerBudget
from .infinity import fiber_infinity
from .parsing import ParseError, parse_input, print_polynomial
from .polycore import PolyMap
from .properness import jelonek_ideal, properness_probe_real
from .rational import RationalMap
from .report import emit_report, render_text, report_document, schema_skeleton


def _build_parser() -> argparse.ArgumentParser:
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
        p.add_argument("--seed", type=int, default=None, help="probe seed (default 42)")
        p.add_argument(
            "--radii", default=None,
            help="comma-separated increasing probe radii (default 10,100,1000,10000)",
        )
        p.add_argument("--tol-zero", type=float, default=1e-6)
        p.add_argument("--mu-floor", type=float, default=1e-3)
        p.add_argument("--max-basis", type=int, default=5000)
        p.add_argument("--max-degree", type=int, default=60)
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


def _parse_values(text: str, p: int):
    out = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        parts = [s.strip() for s in chunk.split(",")]
        if len(parts) != p:
            raise ValueError(f"value {chunk!r} needs {p} components")
        out.append(tuple(Fraction(s) for s in parts))
    if not out:
        raise ValueError("no values given")
    return out


def _config(args) -> AnalysisConfig:
    seed = args.seed
    if seed is None:
        seed = int(os.environ.get("LTV_SEED", "42"))
    radii = (10.0, 100.0, 1000.0, 10000.0)
    if args.radii:
        radii = tuple(float(s) for s in args.radii.split(","))
    return AnalysisConfig(
        seed=seed,
        radii=radii,
        tol_zero=args.tol_zero,
        mu_floor=args.mu_floor,
        budget=GroebnerBudget(max_basis=args.max_basis, max_degree=args.max_degree),
    )


def _load(path: str):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise ParseError(f"cannot read input: {exc}", 0, 0) from exc
    return parse_input(text)


def _emit(args, report) -> None:
    payload = emit_report(report)
    if args.json_path:
        with open(args.json_path, "w", encoding="utf-8") as handle:
            handle.write(payload)
    if args.output == "json":
        sys.stdout.write(payload)
    else:
        sys.stdout.write(render_text(report))


def _emit_json(args, doc: dict) -> None:
    payload = json.dumps(doc, indent=2, allow_nan=False) + "\n"
    if args.json_path:
        with open(args.json_path, "w", encoding="utf-8") as handle:
            handle.write(payload)
    sys.stdout.write(payload)


def run(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    try:
        mapping = _load(args.input)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2

    cfg = _config(args)
    is_rational = isinstance(mapping, RationalMap) and not mapping.is_polynomial()

    try:
        if args.command == "analyze":
            if is_rational:
                report = classify_rational(mapping, getattr(args, "field", "real"), cfg)
            else:
                poly = mapping.to_polymap() if isinstance(mapping, RationalMap) else mapping
                report = classify(poly, args.field, cfg)
            _emit(args, report)
            return 3 if report.flags else 0

        if is_rational:
            print(
                "this subcommand needs a polynomial mapping; "
                "use 'analyze' for rational input",
                file=sys.stderr,
            )
            return 2
        poly: PolyMap = mapping.to_polymap() if isinstance(mapping, RationalMap) else mapping

        if args.command == "factor":
            from .dependence import factor_through_projection

            fact = factor_through_projection(poly)
            doc = schema_skeleton(poly, args.field)
            doc["invariance_dim"] = fact.V.dim
            doc["invariance_basis"] = [[str(x) for x in v] for v in fact.V.basis]
            doc["reduced_dim"] = fact.m
            doc["projection_matrix"] = [[str(x) for x in row] for row in fact.pi.rows]
            doc["reduced_vars"] = list(fact.g.vars)
            doc["reduced_map"] = [print_polynomial(c) for c in fact.g.components]
            if args.output == "json":
                _emit_json(args, doc)
            else:
                print(f"invariance subspace dimension: {doc['invariance_dim']}")
                for vec in doc["invariance_basis"]:
                    print(f"  direction: ({', '.join(vec)})")
                print(f"m = {doc['reduced_dim']}")
                print("projection matrix rows:")
                for row in doc["projection_matrix"]:
                    print(f"  ({', '.join(row)})")
                print(
                    f"reduced map g({', '.join(doc['reduced_vars'])}) = "
                    f"({', '.join(doc['reduced_map'])})"
                )
            return 0

        if args.command == "jelonek":
            from .dependence import factor_through_projection

            fact = factor_through_projection(poly)
            jel = jelonek_ideal(fact.g, cfg.budget)
            doc = schema_skeleton(poly, args.field)
            doc["reduced_map"] = [print_polynomial(c) for c in fact.g.components]
            doc["jelonek_generators"] = [
                print_polynomial(g) for g in jel.ideal.generators
            ]
            doc["jelonek_empty"] = jel.is_empty_set()
            if args.output == "json":
                _emit_json(args, doc)
            else:
                gens = ", ".join(doc["jelonek_generators"]) or "0"
                print(f"jelonek ideal of the reduced map: <{gens}>")
            return 0

        if args.command == "critical":
            from .critical import critical_ideal, real_critical_values
            from .dependence import factor_through_projection

            fact = factor_through_projection(poly)
            crit = critical_ideal(fact.g, cfg.budget)
            doc = schema_skeleton(poly, args.field)
            doc["reduced_map"] = [print_polynomial(c) for c in fact.g.components]
            doc["critical_generators"] = [
                print_polynomial(g) for g in crit.ideal.generators
            ]
            doc["note"] = crit.note
            if fact.g.p == 1 and not crit.is_empty_set():
                roots = real_critical_values(fact.g, cfg.budget, seed=cfg.seed, crit=crit)
                doc["real_roots"] = [
                    {
                        "interval": [str(r.interval[0]), str(r.interval[1])],
                        "approx": r.approx,
                        "status": r.status,
                    }
                    for r in roots
                ]
            if args.output == "json":
                _emit_json(args, doc)
            else:
                gens = ", ".join(doc["critical_generators"]) or "0"
                print(f"critical ideal (closure of K0): <{gens}>")
                for entry in doc.get("real_roots", []):
                    print(
                        f"  real root ~{entry['approx']}: {entry['status']} "
                        f"(interval [{entry['interval'][0]}, {entry['interval'][1]}])"
                    )
            return 0

        if args.command == "infinity":
            if args.values:
                values = _parse_values(args.values, poly.p)
            else:
                from .classifier import rational_grid

                values = rational_grid(poly.p, 2)
            entries = []
            for value in values:
                rep = fiber_infinity(poly, value, cfg.budget)
                entries.append(
                    {
                        "value": [str(x) for x in value],
                        "fiber_empty": rep.fiber_is_empty,
                        "dim_infinity": rep.dim_infinity,
                        "m_candidate": rep.m_candidate,
                        "cone_is_linear": rep.cone_is_linear,
                        "cone_subspace": [
                            [str(x) for x in vec] for vec in rep.cone_subspace.basis
                        ]
                        if rep.cone_subspace is not None
                        else None,
                        "closure_generators": [
                            print_polynomial(g) for g in rep.closure_ideal.generators
                        ],
                    }
                )
            doc = schema_skeleton(poly, args.field)
            doc["infinity_values"] = entries
            doc["field_caveat"] = "computed over C (Zariski closure)"
            if args.output == "json":
                _emit_json(args, doc)
            else:
                for entry in entries:
                    print(
                        f"value ({', '.join(entry['value'])}): dim_infinity = "
                        f"{entry['dim_infinity']}, m_candidate = {entry['m_candidate']}, "
                        f"cone linear: {entry['cone_is_linear']}"
                    )
            return 0

        if args.command == "probe":
            from .dependence import factor_through_projection

            # Properness per value is meaningful for the reduced mapping: the
            # silent coordinates of a suspension make every fiber unbounded.
            reduced = factor_through_projection(poly).g
            values = _parse_values(args.values, reduced.p)
            sched = cfg.schedule()
            # J(g) at most once, and only once a finite fiber needs it, so a
            # budget error surfaces at the same value as without the cache.
            jelonek = cache(lambda: jelonek_ideal(reduced, cfg.budget))
            entries = []
            for value in values:
                verdict = properness_probe_real(
                    reduced, [float(x) for x in value], sched, mu_floor=cfg.mu_floor,
                    jelonek=jelonek, budget=cfg.budget,
                )
                entries.append(
                    {
                        "value": [float(x) for x in value],
                        "verdict": verdict.verdict,
                        "mode": verdict.mode,
                        "evidence": verdict.evidence,
                    }
                )
            doc = schema_skeleton(poly, "real")
            doc["reduced_map"] = [print_polynomial(c) for c in reduced.components]
            doc["probes"] = entries
            if args.tube:
                c_text, t_text = args.tube.split("|")
                c = [float(Fraction(s)) for s in c_text.split(",")]
                t = [float(Fraction(s)) for s in t_text.split(",")]
                doc["tube"] = tube_distance_probe(poly, c, t, seed=cfg.seed)
            if args.output == "json":
                _emit_json(args, doc)
            else:
                for entry in entries:
                    print(f"c = {entry['value']}: {entry['verdict']} ({entry['mode']})")
                if "tube" in doc:
                    tube = doc["tube"]
                    print(
                        f"tube probe c={tube['c']} t={tube['t']}: collapse = {tube['collapse']}"
                    )
            return 0

        if args.command == "compare":
            real_report, complex_report, check = complexification_compare(poly, cfg)
            doc = schema_skeleton(poly, "real")
            doc["complex_ltv"] = report_document(complex_report)["ltv"]
            doc["real_ltv"] = report_document(real_report)["ltv"]
            doc["containment"] = {"verdict": check.verdict, "data": check.data}
            doc["checks"] = [
                {"name": check.name, "verdict": check.verdict, "data": check.data}
            ]
            if args.output == "json":
                _emit_json(args, doc)
            else:
                print(f"complex Ltv: {doc['complex_ltv']}")
                print(f"real Ltv: {doc['real_ltv']}")
                print(f"containment check: {check.verdict}")
            return 0

        raise AssertionError(f"unhandled command {args.command!r}")
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
