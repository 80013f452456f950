"""Tests of the benchmark itself: small passes, its checks, its tracing and its names.

    python3 -m pytest bench/test_bench.py -q
"""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402

# Fast operations of each workload; algebra keys are "<map>/<suspension>".
TINY = {
    "corpus": ["cube/complex", "ex_simple/complex", "regulous/real"],
    "algebra": ["0/0", "0/1", "0/2", "1/0", "1/1", "1/2"],
    "probe-truth": ["xy@0", "circle@-1", "sextic3@2", "gradient regulous@0"],
}
HANGING_ALGEBRA_OP = "24/0"  # (-3*v^3 - 3*u*v - 2*v, 3*u^2*v - u - v)


@pytest.fixture(scope="module")
def spec():
    return json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def tiny(name, trace=False, passes=1, **kwargs):
    return run.run_workload(name, 1, 0, trace, keys=TINY[name], passes=passes, **kwargs)


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_tiny_pass_is_correct(name):
    result = tiny(name)
    assert result["correct"], result["failures"]
    assert (result["attempted"], result["failed"]) == (len(TINY[name]), 0)


def test_planted_corpus_verdict_is_caught(monkeypatch, tmp_path):
    doc = json.loads(wl.CORPUS_REFERENCE.read_text(encoding="utf-8"))
    doc["outcomes"]["cube/complex"]["ltv"] = "all values"
    planted = tmp_path / "corpus.json"
    planted.write_text(json.dumps(doc), encoding="utf-8")
    monkeypatch.setattr(wl, "CORPUS_REFERENCE", planted)
    result = tiny("corpus")
    assert not result["correct"]
    assert result["failed"] == 1
    assert result["failures"][0].startswith("cube/complex: wrong")


def test_planted_probe_truth_is_caught(monkeypatch):
    cases = tuple(
        (key, ring, expr, value, "proper" if key == "xy@0" else verdict, unbounded)
        for key, ring, expr, value, verdict, unbounded in wl.PROPERNESS_CASES
    )
    monkeypatch.setattr(wl, "PROPERNESS_CASES", cases)
    result = tiny("probe-truth")
    assert not result["correct"]
    assert result["failures"] == ["xy@0: wrong (non_proper, true answer proper)"]


def test_suspension_mismatch_is_caught():
    lt, workload, _ = run.set_up("algebra", 1, keys=TINY["algebra"])
    calls = {op.key: op.call for op in workload.ops}
    values = {key: call() for key, call in calls.items()}
    assert values["0/0"].ltv != values["1/0"].ltv
    values["0/2"] = values["1/0"]
    status = workload.judge(values)
    assert status["0/1"] == ("ok", "")
    assert status["0/2"][0] == "wrong"


def test_deadline_miss_is_a_failed_operation():
    result = run.run_workload("algebra", 1, 0, False, keys=[HANGING_ALGEBRA_OP], passes=1)
    assert result["correct"]
    assert (result["attempted"], result["failed"]) == (1, 1)
    assert result["failures"] == [f"{HANGING_ALGEBRA_OP}: miss (deadline)"]
    assert result["details"]["op_tail_is_failure"]


def test_tail_ranks_failures_last():
    samples = [(False, i / 100) for i in range(20)] + [(True, 0.001)]
    latency, percentile, failed = run.tail(samples)
    assert (latency, failed) == (0.10, False)
    assert percentile == pytest.approx(100 * 11 / 21)


def test_wrappers_replace_every_binding():
    lt = run.import_liptriv()
    original = lt.groebner.buchberger
    tracer = tracing.Tracer(lt)
    tracer.install()
    try:
        for module_name in tracing.WRAPPED:
            module = getattr(lt, module_name)
            for other in (m for n, m in sys.modules.items() if n.startswith("liptriv")):
                for fn_name in tracing.WRAPPED[module_name]:
                    bound = other.__dict__.get(fn_name)
                    if bound is not None and getattr(bound, "__module__", "") == module.__name__:
                        assert hasattr(bound, "__wrapped__"), f"{other.__name__}.{fn_name}"
        assert lt.classifier.buchberger is lt.groebner.buchberger
        assert lt.groebner.buchberger.__wrapped__ is original
        assert hasattr(lt.cli.properness_probe_real, "__wrapped__")
    finally:
        tracer.uninstall()
    assert lt.groebner.buchberger is original
    assert lt.classifier.buchberger is original


def test_self_times_add_up_to_top_level_spans():
    lt = run.import_liptriv()
    tracer = tracing.Tracer(lt)
    tracer.install()
    try:
        mapping = lt.parsing.parse_mapping("ring Q[x,y]; map f: (x*y)")
        lt.properness.properness_probe_real(mapping, [0.0])
        lt.classifier.classify(mapping, "complex")
    finally:
        tracer.uninstall()
    stats = tracer.stats
    assert stats.calls["properness.properness_probe_real"] == 1
    assert stats.calls["classifier.classify"] == 1
    assert stats.calls["groebner.buchberger"] > 0
    assert sum(stats.self_s.values()) == pytest.approx(stats.top_level_s)


def test_unreached_span_is_reported():
    result = tiny("probe-truth", trace=True, passes=2)
    assert "classifier.tube_distance_probe" in result["details"]["spans_missing"]


def test_metric_names_match_benchmark_json(spec):
    e2e = tiny("probe-truth")["metrics"]
    assert {k: u for k, (_, u) in e2e.items()} == {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layers = tiny("probe-truth", trace=True, passes=2)["metrics"]
    assert {k: u for k, (_, u) in layers.items()} == {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_missing_package_exits_without_result(tmp_path):
    # A copy of the benchmark alone, without src/: no result line, nonzero exit.
    import shutil
    import subprocess

    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "corpus", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
