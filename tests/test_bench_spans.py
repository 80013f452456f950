"""Every span that a benchmark workload requires is reached by a few of its
operations.

`bench/run.py --trace 1` exits 1 when a workload's traced run never enters
a span of its `required_spans`.  This test installs the same tracer
(`bench/tracing.py`) around a handful of each workload's operations, so a
change that strands a required span fails here as well.
"""

import sys
from pathlib import Path

import pytest

import liptriv
import liptriv.cli

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))
from bench import tracing, workloads  # noqa: E402

# The operations run: every corpus analysis; algebra maps 0 (m = p) and 2
# (m < p), as given and suspended by 1, map 9 as given, and never the
# hanging map 24; one properness, one tube and one gradient probe.  Only the
# cone comparison saturates, and only for cones that differ as ideals: those
# of maps 0 and 2 do not, those of map 9 do (not as sets), so map 9 alone
# reaches groebner.saturate.
KEYS = {
    "corpus": None,
    "algebra": {"0/0", "0/1", "2/0", "2/1", "9/0"},
    "probe-truth": {"xy@0", "tube sextic3 2|3", "gradient regulous@0"},
}


@pytest.mark.parametrize("name", KEYS)
def test_required_spans_are_reached(name):
    workload = workloads.BUILDERS[name](liptriv, 1, ROOT)
    ops = [op for op in workload.ops if KEYS[name] is None or op.key in KEYS[name]]
    assert len(ops) == len(KEYS[name] or workload.ops)
    tracer = tracing.Tracer(liptriv)
    tracer.install()
    try:
        for op in ops:
            tracer.begin_operation()
            op.call()
    finally:
        tracer.uninstall()
    assert [s for s in workload.required_spans if tracer.stats.calls[s] == 0] == []
