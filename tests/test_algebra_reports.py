"""The reports of the algebra benchmark's analyses, pinned by one hash.

`bench.workloads.random_reduced_maps(liptriv, 5, 80)` draws the 80 reduced
maps of the benchmark's `algebra` workload.  Each map, as given and suspended
by 1 and by 2, is classified over C, except map 24, whose critical-ideal
Groebner run does not finish in reasonable time.  The `emit_report` text of
the 237 reports, in map then suspension order, goes into one sha256.  A
change to the exact engine that keeps the analyzer's answers leaves it as it
is; these maps run many more Groebner bases than the corpus does.  The
same reports must meet the benchmark judge's suspension rule.
"""

import hashlib
import sys
from pathlib import Path

import pytest

import liptriv
from liptriv.classifier import classify
from liptriv.dependence import suspend
from liptriv.report import emit_report

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from bench.workloads import random_reduced_maps  # noqa: E402

EXPECTED = "9c13c269cc153e3f15679c19c3f4c12fd44c2551398e2ae5e73dea497e9efb74"
UNFINISHED = 24


@pytest.fixture(scope="module")
def reports():
    """The reports of each map but the unfinished one, as given and
    suspended by 1 and by 2."""
    return [
        [classify(suspend(g, k), "complex") for k in (0, 1, 2)]
        for i, g in enumerate(random_reduced_maps(liptriv, 5, 80))
        if i != UNFINISHED
    ]


def test_algebra_reports_hash(reports):
    digest = hashlib.sha256()
    count = 0
    for suspensions in reports:
        for rep in suspensions:
            digest.update(emit_report(rep).encode())
            count += 1
    assert count == 237
    assert digest.hexdigest() == EXPECTED


def test_suspensions_share_the_description(reports):
    """The benchmark judge's rule: a map's three suspensions have the same
    Ltv description, with no budget flag."""
    for suspensions in reports:
        assert not any(rep.flags for rep in suspensions)
        assert all(rep.ltv == suspensions[0].ltv for rep in suspensions)
