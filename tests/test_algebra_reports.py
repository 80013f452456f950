"""The reports of the algebra benchmark's analyses, pinned by one hash.

`bench.workloads.random_reduced_maps(liptriv, 5, 80)` draws the 80 reduced
maps of the benchmark's `algebra` workload.  Each map, as given and suspended
by 1 and by 2, is classified over C, except map 24, whose critical-ideal
Groebner run does not finish in reasonable time.  The `emit_report` text of
the 237 reports, in map then suspension order, goes into one sha256.  A
change to the exact engine that keeps the analyzer's answers leaves it as it
is; these maps run many more Groebner bases than the corpus does.
"""

import hashlib
import sys
from pathlib import Path

import liptriv
from liptriv.classifier import classify
from liptriv.dependence import suspend
from liptriv.report import emit_report

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from bench.workloads import random_reduced_maps  # noqa: E402

EXPECTED = "9fd86d4a81ef46d0a45d22a8842c9fd28258568e0bfada8a5b361db1d1a66ee1"
UNFINISHED = 24


def test_algebra_reports_hash():
    digest = hashlib.sha256()
    count = 0
    for i, g in enumerate(random_reduced_maps(liptriv, 5, 80)):
        if i == UNFINISHED:
            continue
        for k in (0, 1, 2):
            digest.update(emit_report(classify(suspend(g, k), "complex")).encode())
            count += 1
    assert count == 237
    assert digest.hexdigest() == EXPECTED
