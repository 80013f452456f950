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

A change that moves probe floats on purpose re-records the files it moves,
each by name, through the same runs the tests make:

    PYTHONPATH=src python tests/test_golden.py --record motzkin.real.json ...

The re-record refuses, writes nothing and exits 1 when an exit code or any
leaf of a file other than a float differs from what is on disk: a verdict,
a flag, a generator or a key.  A text file has no float leaves, so it can
only be re-recorded unchanged.
"""

import argparse
import contextlib
import dataclasses
import io
import json
import sys
from pathlib import Path

import pytest

from conftest import DATA_DIR
from liptriv.classifier import classify, lipschitz_gradient_probe, tube_distance_probe
from liptriv.cli import run
from liptriv.parsing import parse_input, parse_mapping
from liptriv.properness import properness_probe_real
from liptriv.report import emit_report

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
    # Low budgets; each run pins the set of flags and their messages, and
    # ex_simple at degrees 2 and 3 and cube at degree 4 pin runs that
    # finish: their default-budget reports.
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


def _stdout_of(argv) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run(argv)
    return code, out.getvalue()


def run_cli_case(case) -> tuple[int, str]:
    output = "json" if case.endswith(".json") else "text"
    return _stdout_of(CLI_CASES[case] + ["--output", output])


def run_analyze_case(case) -> tuple[int, str]:
    name, field = case.split(".")
    return _stdout_of(
        ["analyze", "-i", str(DATA_DIR / f"{name}.map"), "--field", field, "--output", "json"]
    )


@pytest.mark.parametrize("case", sorted(CLI_CASES))
def test_cli_output_matches_golden(case):
    code, out = run_cli_case(case)
    assert code == MANIFEST["cli_exit_codes"][case]
    assert out == (GOLDEN / f"cli.{case}").read_text(encoding="utf-8")


@pytest.mark.parametrize("case", CASES)
def test_analyze_report_matches_golden(case):
    code, out = run_analyze_case(case)
    assert code == MANIFEST["exit_codes"][case]
    assert out == (GOLDEN / f"{case}.json").read_text(encoding="utf-8")


@pytest.mark.parametrize("field", ["complex", "real"])
def test_classify_on_rational_map_matches_golden(field):
    # The library call gives the bytes `analyze` gives for a ratmap.
    regulous = parse_input((DATA_DIR / "regulous.map").read_text(encoding="utf-8"))
    got = emit_report(classify(regulous, field))
    assert got == (GOLDEN / f"regulous.{field}.json").read_text(encoding="utf-8")


SEXTIC = "x^4*y^2 + x^2*y^4 - 3*x^2*y^2 + 1"


def _mapping(ring, expr):
    return parse_mapping(f"ring Q[{ring}]; map f: ({expr})")


def _properness(ring, expr, value):
    verdict = properness_probe_real(_mapping(ring, expr), [value])
    return {"value": [value], "mode": verdict.mode, "verdict": verdict.verdict,
            "evidence": verdict.evidence}


PROBES = {
    # The unreduced sextic: 0.5 is a value of the sextic in (x, y), so the
    # fiber contains a line along z; two exact witness points decide it.
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


# -- re-recording ---------------------------------------------------------------------


def render(name) -> tuple[int | None, str]:
    """The exit code and output that golden file `name` pins (no code for a probe)."""
    if name.startswith("probe."):
        return None, dump(PROBES[name.removeprefix("probe.").removesuffix(".json")]())
    if name.startswith("cli."):
        return run_cli_case(name.removeprefix("cli."))
    return run_analyze_case(name.removesuffix(".json"))


def recorded_code(name) -> int | None:
    if name.startswith("probe."):
        return None
    if name.startswith("cli."):
        return MANIFEST["cli_exit_codes"][name.removeprefix("cli.")]
    return MANIFEST["exit_codes"][name.removesuffix(".json")]


GOLDEN_FILES = sorted(
    [f"{case}.json" for case in CASES]
    + [f"cli.{case}" for case in CLI_CASES]
    + [f"probe.{case}.json" for case in PROBES]
)


def without_floats(name, text):
    """A file's content with every float leaf masked; a text file has none."""
    if not name.endswith(".json"):
        return text

    def mask(node):
        if isinstance(node, dict):
            return {key: mask(value) for key, value in node.items()}
        if isinstance(node, list):
            return [mask(value) for value in node]
        return float if isinstance(node, float) else node

    return mask(json.loads(text))


def record(names, golden=GOLDEN) -> int:
    """Re-record the named golden files; refuse them all if any moved more than floats."""
    if RUNNING != MANIFEST["python"]:
        print(f"golden files are recorded on Python {MANIFEST['python']}, this is {RUNNING}",
              file=sys.stderr)
        return 2
    unknown = [name for name in names if name not in GOLDEN_FILES]
    if unknown:
        print(f"not a golden file: {', '.join(unknown)}", file=sys.stderr)
        return 2
    outputs, refused = {}, []
    for name in names:
        code, text = render(name)
        old = (golden / name).read_text(encoding="utf-8")
        if code != recorded_code(name) or without_floats(name, text) != without_floats(name, old):
            refused.append(name)
        outputs[name] = text
    if refused:
        print(f"refused, more than floats moved: {', '.join(refused)}", file=sys.stderr)
        return 1
    for name, text in outputs.items():
        (golden / name).write_text(text, encoding="utf-8")
        print(f"recorded {name}")
    return 0


def test_record_rewrites_moved_floats(tmp_path):
    name = "probe.properness.xy@1.json"
    moved = json.loads((GOLDEN / name).read_text(encoding="utf-8"))
    moved["evidence"]["mu_trace"][0]["mu"] += 1.0
    (tmp_path / name).write_text(dump(moved), encoding="utf-8")
    assert record([name], tmp_path) == 0
    assert (tmp_path / name).read_text(encoding="utf-8") == render(name)[1]


def test_record_refuses_a_moved_verdict(tmp_path, monkeypatch):
    name = "probe.properness.xy@1.json"
    (tmp_path / name).write_bytes((GOLDEN / name).read_bytes())

    probe = properness_probe_real

    def planted(*args, **kwargs):
        return dataclasses.replace(probe(*args, **kwargs), verdict="proper")

    monkeypatch.setitem(globals(), "properness_probe_real", planted)
    assert record([name], tmp_path) == 1
    assert (tmp_path / name).read_bytes() == (GOLDEN / name).read_bytes()


def test_record_refuses_a_moved_exit_code(tmp_path, monkeypatch):
    name = "cli.factor.motzkin.json"
    (tmp_path / name).write_bytes((GOLDEN / name).read_bytes())
    monkeypatch.setitem(MANIFEST["cli_exit_codes"], "factor.motzkin.json", 3)
    assert record([name], tmp_path) == 1
    assert (tmp_path / name).read_bytes() == (GOLDEN / name).read_bytes()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Re-record golden files whose floats moved.")
    parser.add_argument("--record", nargs="+", metavar="NAME", required=True,
                        help="golden file names, as in tests/golden/")
    return record(parser.parse_args(argv).record)


if __name__ == "__main__":
    sys.exit(main())
