"""Golden corpus reports: `liptriv analyze --output json`, byte for byte.

tests/golden/ holds the JSON report of every corpus map in both fields, with
the exit codes and the interpreter version they were recorded with in
MANIFEST.json.  A change that keeps the analyzer's answers must leave every
byte of them as it is, probe `mu` values included.
"""

import json
import sys
from pathlib import Path

import pytest

from conftest import DATA_DIR
from liptriv.cli import run

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
