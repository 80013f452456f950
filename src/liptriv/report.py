"""JSON and text documents of every subcommand, with deterministic bytes.

Two key orders.  `analyze` (report_document): tool_version, input, field,
invariance_dim, invariance_basis, projection_matrix, reduced_map,
reduced_vars, reduced_dim (rational input: only invariance_dim,
projection_matrix and reduced_map, all null), jelonek_generators,
critical_generators, ltv, the verdict-specific extras (reason /
ltv_complement / ltv_real), flags if a budget ran out, seed, checks.
Every other subcommand fills schema_skeleton (tool_version, input, field,
invariance_dim, projection_matrix, reduced_map, jelonek_generators,
critical_generators, ltv, checks; null where not computed) and appends its
own keys after checks, in the order its builder lists them.  The same
analysis always serializes to identical bytes.

Check data, evidence and the builders hold Fractions and Polynomials; only
dumps and render turn them into text, by one walker (_plain).
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import isfinite

from . import __version__
from .classifier import CheckResult, LtvReport
from .critical import RealCriticalValue
from .dependence import FactorizationResult
from .groebner import Ideal
from .infinity import InfinityReport
from .parsing import print_polynomial
from .polycore import PolyMap, Polynomial
from .properness import PropernessVerdict
from .rational import RationalMap


# -- sections shared by the documents ------------------------------------------


def _root(r: RealCriticalValue) -> dict:
    return {
        "interval": r.interval,
        "approx": r.approx,
        "status": r.status,
    }


def _check(c: CheckResult) -> dict:
    return {"name": c.name, "verdict": c.verdict, "data": c.data}


def input_block(src: PolyMap | RationalMap) -> dict:
    if isinstance(src, RationalMap):
        components = [
            num
            if den.is_constant() and den.constant_value() == 1
            else f"({print_polynomial(num)}) / ({print_polynomial(den)})"
            for num, den in zip(src.numerators, src.denominators)
        ]
        kind = "ratmap"
    else:
        components = src.components
        kind = "map"
    return {
        "kind": kind,
        "name": src.name,
        "ring": list(src.vars),
        "components": components,
        "n": src.n,
        "p": src.p,
    }


def schema_skeleton(src, field_name: str, **fields) -> dict:
    """All schema keys, unfilled ones null; `fields` fill them or follow checks."""
    skeleton = {
        "tool_version": __version__,
        "input": input_block(src),
        "field": field_name,
        "invariance_dim": None,
        "projection_matrix": None,
        "reduced_map": None,
        "jelonek_generators": None,
        "critical_generators": None,
        "ltv": None,
        "checks": [],
    }
    return {**skeleton, **fields}


def _plain(node):
    """node as JSON data, the one place exact values become text: a Fraction
    as str, a Polynomial printed, and a non-finite float (the `mu` of a probe
    with no finite minimum) as None, like a value not computed."""
    if isinstance(node, dict):
        return {key: _plain(value) for key, value in node.items()}
    if isinstance(node, (list, tuple)):
        return [_plain(value) for value in node]
    if isinstance(node, Fraction):
        return str(node)
    if isinstance(node, Polynomial):
        return print_polynomial(node)
    return None if isinstance(node, float) and not isfinite(node) else node


def dumps(doc: dict) -> str:
    """Deterministic JSON text of a document (stable key order, trailing newline)."""
    return json.dumps(_plain(doc), indent=2, allow_nan=False) + "\n"


# -- analyze ------------------------------------------------------------------


def report_document(report: LtvReport) -> dict:
    """Schema-shaped plain dict, ready for json.dumps."""
    doc: dict = {"tool_version": __version__}
    doc["input"] = input_block(report.source)
    doc["field"] = report.field

    if report.factorization is not None:
        fact = report.factorization
        doc["invariance_dim"] = fact.V.dim
        doc["invariance_basis"] = fact.V.basis
        doc["projection_matrix"] = fact.pi
        doc["reduced_map"] = fact.g.components
        doc["reduced_vars"] = list(fact.g.vars)
        doc["reduced_dim"] = fact.m
    else:
        doc["invariance_dim"] = None
        doc["projection_matrix"] = None
        doc["reduced_map"] = None

    doc["jelonek_generators"] = report.jelonek.generators if report.jelonek is not None else None
    doc["critical_generators"] = report.critical.generators if report.critical is not None else None

    ltv = report.ltv
    doc["ltv"] = ltv.kind.replace("_", " ")
    if ltv.reason:
        doc["reason"] = ltv.reason
    if ltv.kind == "complement":
        doc["ltv_complement"] = ltv.generators
    if ltv.kind == "real_complement" or (
        ltv.kind == "undetermined" and (ltv.critical_candidates or ltv.probe_table)
    ):
        real_block: dict = {}
        if ltv.generators:
            real_block["exact_complement_generators"] = ltv.generators
        if ltv.critical_candidates:
            real_block["critical_candidates"] = [
                {**_root(r), "witness": list(r.witness) if r.witness else None}
                for r in ltv.critical_candidates
            ]
        if ltv.probe_table:
            real_block["probe_table"] = [
                {"value": list(v), "verdict": verdict, "mode": mode}
                for v, verdict, mode in ltv.probe_table
            ]
        if ltv.note:
            real_block["note"] = ltv.note
        doc["ltv_real"] = real_block

    if report.flags:
        doc["flags"] = dict(sorted(report.flags.items()))
    doc["seed"] = report.seed
    doc["checks"] = [_check(c) for c in report.checks]
    return _plain(doc)


def emit_report(report: LtvReport) -> str:
    """Deterministic JSON text for the report (stable key order, trailing newline)."""
    return dumps(report_document(report))


def render_text(report: LtvReport) -> str:
    """Compact human-readable summary for terminal output."""
    return render("analyze", report_document(report))


def _analyze_text(doc: dict) -> list[str]:
    lines = []
    src = doc["input"]
    lines.append(f"mapping {src['name']}: K^{src['n']} -> K^{src['p']}  [{doc['field']}]")
    lines.append("  components: " + ", ".join(src["components"]))
    if doc.get("invariance_dim") is not None:
        lines.append(
            f"  invariance subspace: dim {doc['invariance_dim']}"
            + (
                "  basis " + "; ".join(str(v) for v in doc.get("invariance_basis", []))
                if doc.get("invariance_basis")
                else ""
            )
        )
        lines.append(f"  reduced map (m = {doc['reduced_dim']}): " + ", ".join(doc["reduced_map"]))
    if doc.get("jelonek_generators") is not None:
        lines.append("  jelonek ideal: <" + ", ".join(doc["jelonek_generators"] or ["0"]) + ">")
    if doc.get("critical_generators") is not None:
        lines.append("  critical ideal: <" + ", ".join(doc["critical_generators"] or ["0"]) + ">")
    lines.append(f"  Ltv: {doc['ltv']}")
    if doc.get("reason"):
        lines.append(f"    reason: {doc['reason']}")
    if doc.get("ltv_complement") is not None:
        lines.append("    complement of V(" + ", ".join(doc["ltv_complement"]) + ")")
    real_block = doc.get("ltv_real")
    if real_block:
        if "exact_complement_generators" in real_block:
            lines.append(
                "    exact part: complement of V("
                + ", ".join(real_block["exact_complement_generators"])
                + ")"
            )
        for entry in real_block.get("critical_candidates", []):
            lines.append(
                f"    critical candidate {entry['approx']}: {entry['status']}"
            )
        for entry in real_block.get("probe_table", []):
            lines.append(
                f"    probe c={entry['value']}: {entry['verdict']} ({entry['mode']})"
            )
    for check in doc["checks"]:
        lines.append(f"  check {check['name']}: {check['verdict']}")
    if doc.get("flags"):
        for key, value in doc["flags"].items():
            lines.append(f"  flag {key}: {value}")
    return lines


# -- the other subcommands ------------------------------------------------------


def factor_document(src: PolyMap, field_name: str, fact: FactorizationResult) -> dict:
    return schema_skeleton(
        src, field_name,
        invariance_dim=fact.V.dim,
        invariance_basis=fact.V.basis,
        reduced_dim=fact.m,
        projection_matrix=fact.pi,
        reduced_vars=list(fact.g.vars),
        reduced_map=fact.g.components,
    )


def _factor_text(doc: dict) -> list[str]:
    lines = [f"invariance subspace dimension: {doc['invariance_dim']}"]
    for vec in doc["invariance_basis"]:
        lines.append(f"  direction: ({', '.join(vec)})")
    lines.append(f"m = {doc['reduced_dim']}")
    lines.append("projection matrix rows:")
    for row in doc["projection_matrix"]:
        lines.append(f"  ({', '.join(row)})")
    lines.append(
        f"reduced map g({', '.join(doc['reduced_vars'])}) = "
        f"({', '.join(doc['reduced_map'])})"
    )
    return lines


def jelonek_document(src: PolyMap, field_name: str, g: PolyMap, jelonek: Ideal) -> dict:
    return schema_skeleton(
        src, field_name,
        reduced_map=g.components,
        jelonek_generators=jelonek.generators,
        jelonek_empty=jelonek.has_unit_generator(),
    )


def _jelonek_text(doc: dict) -> list[str]:
    gens = ", ".join(doc["jelonek_generators"]) or "0"
    return [f"jelonek ideal of the reduced map: <{gens}>"]


def critical_document(
    src: PolyMap, field_name: str, g: PolyMap, critical: Ideal,
    roots: list[RealCriticalValue] | None,
) -> dict:
    """`roots` are the real critical values, None when not isolated."""
    doc = schema_skeleton(
        src, field_name,
        reduced_map=g.components,
        critical_generators=critical.generators,
        note="closure_of_K0",
    )
    if roots is not None:
        doc["real_roots"] = [_root(r) for r in roots]
    return doc


def _critical_text(doc: dict) -> list[str]:
    gens = ", ".join(doc["critical_generators"]) or "0"
    lines = [f"critical ideal (closure of K0): <{gens}>"]
    for entry in doc.get("real_roots", []):
        lines.append(
            f"  real root ~{entry['approx']}: {entry['status']} "
            f"(interval [{entry['interval'][0]}, {entry['interval'][1]}])"
        )
    return lines


def infinity_document(src: PolyMap, field_name: str, reports: list[InfinityReport]) -> dict:
    entries = [
        {
            "value": rep.value,
            "fiber_empty": rep.closure_ideal.has_unit_generator(),
            "dim_infinity": rep.dim_infinity,
            "m_candidate": rep.m_candidate,
            "cone_is_linear": rep.cone_subspace is not None,
            "cone_subspace": (
                rep.cone_subspace.basis if rep.cone_subspace is not None else None
            ),
            "closure_generators": rep.closure_ideal.generators,
        }
        for rep in reports
    ]
    return schema_skeleton(
        src, field_name,
        infinity_values=entries,
        field_caveat="computed over C (Zariski closure)",
    )


def _infinity_text(doc: dict) -> list[str]:
    return [
        f"value ({', '.join(entry['value'])}): dim_infinity = "
        f"{entry['dim_infinity']}, m_candidate = {entry['m_candidate']}, "
        f"cone linear: {entry['cone_is_linear']}"
        for entry in doc["infinity_values"]
    ]


def probe_document(
    src: PolyMap, g: PolyMap, values: list[tuple[Fraction, ...]],
    verdicts: list[PropernessVerdict], tube: dict | None,
) -> dict:
    """Properness of the reduced map g at each value, and the tube probe if run."""
    entries = [
        {
            "value": [float(x) for x in value],
            "verdict": verdict.verdict,
            "mode": verdict.mode,
            "evidence": verdict.evidence,
        }
        for value, verdict in zip(values, verdicts)
    ]
    doc = schema_skeleton(src, "real", reduced_map=g.components, probes=entries)
    if tube is not None:
        doc["tube"] = tube
    return doc


def _probe_text(doc: dict) -> list[str]:
    lines = []
    for entry in doc["probes"]:
        lines.append(f"c = {entry['value']}: {entry['verdict']} ({entry['mode']})")
    if "tube" in doc:
        tube = doc["tube"]
        lines.append(
            f"tube probe c={tube['c']} t={tube['t']}: collapse = {tube['collapse']}"
        )
    return lines


def compare_document(
    src: PolyMap, real_report: LtvReport, complex_report: LtvReport, check: CheckResult
) -> dict:
    """The two fields' verdicts and the containment check; `flags`, both
    reports' flags, only when a budget ran out."""
    doc = schema_skeleton(
        src, "real",
        complex_ltv=complex_report.ltv.kind.replace("_", " "),
        real_ltv=real_report.ltv.kind.replace("_", " "),
        containment={"verdict": check.verdict, "data": check.data},
        checks=[_check(check)],
    )
    flags = {**complex_report.flags, **real_report.flags}
    if flags:
        doc["flags"] = dict(sorted(flags.items()))
    return doc


def _compare_text(doc: dict) -> list[str]:
    return [
        f"complex Ltv: {doc['complex_ltv']}",
        f"real Ltv: {doc['real_ltv']}",
        f"containment check: {doc['containment']['verdict']}",
    ] + [f"  flag {key}: {value}" for key, value in doc.get("flags", {}).items()]


_TEXT = {
    "analyze": _analyze_text,
    "factor": _factor_text,
    "jelonek": _jelonek_text,
    "critical": _critical_text,
    "infinity": _infinity_text,
    "probe": _probe_text,
    "compare": _compare_text,
}


def render(command: str, doc: dict) -> str:
    """Terminal text of one subcommand's document."""
    return "\n".join(_TEXT[command](_plain(doc))) + "\n"
