"""Golden corpus reports and probe outputs, byte for byte.

tests/golden/ holds the JSON report of every corpus map in both fields, with
the exit codes and the interpreter version they were recorded with in
MANIFEST.json.  A change that keeps the analyzer's answers must leave every
byte of them as it is, probe `mu` values included.

The `probe.*.json` files pin the float probes directly: the full output of
`tube_distance_probe` and `lipschitz_gradient_probe`, and the verdict and
evidence of `properness_probe_real`, written by `dump` below.

The `cli.*` files pin the standard output of further `liptriv` invocations
(see CLI_CASES): the JSON and the text of every other subcommand, the text of
`analyze` on the corpus, and `analyze` runs that exhaust a Groebner budget.
"""

import json
import sys
from pathlib import Path

import pytest

from conftest import DATA_DIR
from liptriv.classifier import lipschitz_gradient_probe, tube_distance_probe
from liptriv.cli import run
from liptriv.parsing import parse_input, parse_mapping
from liptriv.properness import properness_probe_real

GOLDEN = Path(__file__).resolve().parent / "golden"
MANIFEST = json.loads((GOLDEN / "MANIFEST.json").read_text())
CASES = sorted(MANIFEST["exit_codes"])
RUNNING = f"{sys.version_info.major}.{sys.version_info.minor}"

pytestmark = pytest.mark.skipif(
    RUNNING != MANIFEST["python"],
    reason=(
        f"golden reports were recorded on Python {MANIFEST['python']}, this is "
        f"{RUNNING}: probe mu values depend on the interpreter's float sum() "
        "(compensated since 3.12) and the C library's pow"
    ),
)


def _cli(command, name, *extra):
    return [command, "-i", str(DATA_DIR / f"{name}.map"), *extra]


_SUBCOMMANDS = {
    "factor.ex_simple": _cli("factor", "ex_simple"),
    "factor.motzkin": _cli("factor", "motzkin"),
    "jelonek.ex_simple": _cli("jelonek", "ex_simple"),
    "jelonek.cube": _cli("jelonek", "cube"),
    "critical.motzkin": _cli("critical", "motzkin"),
    "critical.cube": _cli("critical", "cube"),
    "infinity.bad.values": _cli("infinity", "bad", "--values", "1,0;2,0"),
    "infinity.ex_simple": _cli("infinity", "ex_simple"),
    "probe.motzkin.values": _cli(
        "probe", "motzkin", "--values", "0.5;2", "--radii", "10,100,1000"
    ),
    "probe.ex_simple.tube": _cli(
        "probe", "ex_simple", "--values", "1,1", "--tube", "1,0|2,0"
    ),
    "compare.ex_simple": _cli("compare", "ex_simple"),
    "compare.cube": _cli("compare", "cube"),
}

# File name (after "cli.") -> argv; the suffix names the --output format.
CLI_CASES = {
    **{f"{key}.json": argv for key, argv in _SUBCOMMANDS.items()},
    **{f"{key}.txt": argv for key, argv in _SUBCOMMANDS.items()},
    **{
        f"analyze.{case}.txt": _cli("analyze", case.split(".")[0], "--field", case.split(".")[1])
        for case in CASES
    },
    # Exhausted budgets; each run pins the set of flags and their messages.
    **{
        f"analyze.{name}.{field}.max-degree-{deg}.json": _cli(
            "analyze", name, "--field", field, "--max-degree", str(deg)
        )
        for name, field, deg in (
            ("ex_simple", "complex", 2),
            ("ex_simple", "real", 2),
            ("ex_simple", "complex", 3),
            ("cube", "complex", 4),
            ("motzkin", "complex", 1),
        )
    },
}


def run_cli_case(case, capsys) -> tuple[int, str]:
    output = "json" if case.endswith(".json") else "text"
    code = run(CLI_CASES[case] + ["--output", output])
    return code, capsys.readouterr().out


@pytest.mark.parametrize("case", sorted(CLI_CASES))
def test_cli_output_matches_golden(case, capsys):
    code, out = run_cli_case(case, capsys)
    assert code == MANIFEST["cli_exit_codes"][case]
    assert out == (GOLDEN / f"cli.{case}").read_text(encoding="utf-8")


@pytest.mark.parametrize("case", CASES)
def test_analyze_report_matches_golden(case, capsys):
    name, field = case.split(".")
    code = run(
        ["analyze", "-i", str(DATA_DIR / f"{name}.map"), "--field", field,
         "--output", "json"]
    )
    out = capsys.readouterr().out
    assert code == MANIFEST["exit_codes"][case]
    assert out == (GOLDEN / f"{case}.json").read_text(encoding="utf-8")


SEXTIC = "x^4*y^2 + x^2*y^4 - 3*x^2*y^2 + 1"


def _mapping(ring, expr):
    return parse_mapping(f"ring Q[{ring}]; map f: ({expr})")


def _properness(ring, expr, value):
    verdict = properness_probe_real(_mapping(ring, expr), [value])
    return {"value": verdict.value, "mode": verdict.mode, "verdict": verdict.verdict,
            "evidence": verdict.evidence}


PROBES = {
    # The unreduced sextic: its fiber at 0.5 contains a line, yet the probe
    # answers inconclusive.  The pinned bytes keep that known defect as it is.
    "properness.sextic3@0.5": lambda: _properness("x,y,z", SEXTIC, 0.5),
    "properness.sextic2@2": lambda: _properness("x,y", SEXTIC, 2.0),
    "properness.xy@1": lambda: _properness("x,y", "x*y", 1.0),
    "tube.sextic2@2-3": lambda: tube_distance_probe(
        _mapping("x,y", SEXTIC), [2.0], [3.0], radii=(10.0, 25.0), restarts=3
    ),
    "gradient.regulous@0": lambda: lipschitz_gradient_probe(
        parse_input((DATA_DIR / "regulous.map").read_text(encoding="utf-8")),
        (0.0,), radii=(10.0, 1e2, 1e4, 1e6),
    ),
    "gradient.sextic2@2": lambda: lipschitz_gradient_probe(
        _mapping("x,y", SEXTIC), (2.0,), radii=(1.0, 10.0, 100.0)
    ),
}


def dump(output) -> str:
    """The probe output as JSON; floats keep every bit (repr round-trips)."""
    return json.dumps(output, indent=1, sort_keys=True) + "\n"


@pytest.mark.parametrize("case", sorted(PROBES))
def test_probe_output_matches_golden(case):
    got = dump(PROBES[case]())
    assert got == (GOLDEN / f"probe.{case}.json").read_text(encoding="utf-8")
