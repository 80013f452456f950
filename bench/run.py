"""liptriv benchmark: one closed-loop caller runs a workload's operations in order.

    python3 bench/run.py --workload corpus|algebra|probe-truth|all \
        --seed N --seconds S --trace 0|1 [--record PATH]

Run from the root of a checkout: the package is imported from ./src and from
nowhere else.  `--seconds` sets how many passes over the workload are made
(at least one), from the workload's nominal pass time.  With `--trace 0` the
last line of standard output is a JSON object with the end-to-end metrics;
with `--trace 1` it has the per-layer metrics from spans around each public
function (see bench/README.md).  `--record PATH` appends the full result, with
the commit, versions, CPU and BLAS thread counts, to a JSON-lines file.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import tracing
import workloads as wl

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5
WORKLOADS = tuple(wl.BUILDERS)
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def cpu_count() -> int:
    return len(os.sched_getaffinity(0))


def limit_blas_threads() -> int:
    """Cap NumPy's BLAS threads at the CPU count; must run before NumPy loads."""
    limit = cpu_count()
    for var in BLAS_VARS:
        try:
            limit = min(limit, int(os.environ[var]))
        except (KeyError, ValueError):
            pass
    limit = max(limit, 1)
    for var in BLAS_VARS:
        os.environ[var] = str(limit)
    return limit


def import_liptriv():
    """Import liptriv afresh from this checkout's src/ (drops any loaded copy)."""
    for name in [n for n in sys.modules if n == "liptriv" or n.startswith("liptriv.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    lt = importlib.import_module("liptriv")
    origin = Path(lt.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise ImportError(f"liptriv imported from {origin}, not from {SRC}")
    importlib.import_module("liptriv.cli")  # the package __init__ does not load it
    return lt


class DeadlineExceeded(BaseException):
    """Raised inside an operation whose CPU-time deadline passed.

    A BaseException, so the package's `except Exception` handlers let it through.
    """


class CpuDeadline:
    """Per-operation deadline on the process's CPU time (ITIMER_PROF).

    CPU time rather than wall time, so that a loaded machine does not turn a
    slow operation into a failed one.
    """

    def __init__(self):
        self._armed = False
        self._previous = signal.signal(signal.SIGPROF, self._on_signal)

    def _on_signal(self, signum, frame):
        if self._armed:
            self._armed = False
            raise DeadlineExceeded()

    def call(self, fn, seconds: float):
        self._armed = True
        signal.setitimer(signal.ITIMER_PROF, seconds)
        try:
            return fn()
        finally:
            self._armed = False
            signal.setitimer(signal.ITIMER_PROF, 0)

    def close(self) -> None:
        signal.signal(signal.SIGPROF, self._previous)


@dataclass
class PassResult:
    wall_s: float
    values: dict
    latency_s: dict
    status: dict


def run_pass(workload, deadline: CpuDeadline, tracer=None) -> PassResult:
    values, latency = {}, {}
    start = time.perf_counter()
    for op in workload.ops:
        if tracer is not None:
            tracer.begin_operation()
        t0 = time.perf_counter()
        try:
            values[op.key] = deadline.call(op.call, workload.deadline_s)
        except DeadlineExceeded:
            values[op.key] = wl.MISSED
        except Exception as exc:  # a crash is a failed operation, not the end of the run
            values[op.key] = wl.Crash(repr(exc))
        latency[op.key] = time.perf_counter() - t0
    wall = time.perf_counter() - start
    return PassResult(wall, values, latency, workload.judge(values))


def set_up(name: str, seed: int, keys=None):
    """Import liptriv and build the inputs SETUP_REPEATS times; keep the last."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        lt = import_liptriv()
        workload = wl.BUILDERS[name](lt, seed, ROOT)
        times.append(time.perf_counter() - t0)
    if keys is not None:
        workload.ops = [op for op in workload.ops if op.key in keys]
    return lt, workload, times


def tail(samples: list[tuple[bool, float]]) -> tuple[float, float, bool]:
    """Latency at the highest percentile with at least ten samples beyond it.

    Failed operations rank above every finished one, as if they never
    returned.  Returns (latency, percentile, whether that sample failed).
    """
    ranked = sorted(samples, key=lambda s: (s[0], s[1]))
    index = max(len(ranked) - 11, 0)
    failed, latency = ranked[index]
    return latency, 100.0 * (index + 1) / len(ranked), failed


def end_to_end(passes: list[PassResult], setup_times: list[float]) -> tuple[dict, dict]:
    """The gated metrics, and the latency percentiles printed and recorded beside them.

    Operation latencies are not gated: on a 2-CPU host whose speed swings by
    up to 2x from second to second, the 10-30 ms corpus analyses sample a few
    of those swings per run, and their median spreads by about a quarter
    across runs.
    """
    samples = [
        (p.status[k][0] != "ok", p.latency_s[k]) for p in passes for k in p.latency_s
    ]
    ranked = [math.inf if failed else lat for failed, lat in samples]
    tail_s, tail_pct, tail_failed = tail(samples)
    failed = sum(1 for f, _ in samples if f)
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "wall_s": (statistics.median(p.wall_s for p in passes), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    details = {
        "op_p50_ms": statistics.median(ranked) * 1e3,
        "op_tail_ms": tail_s * 1e3,
        "op_tail_percentile": round(tail_pct, 2),
        "op_tail_samples": len(samples),
        "op_tail_is_failure": tail_failed,
        "failed_frac": failed / len(samples),
        "pass_wall_s": [round(p.wall_s, 4) for p in passes],
    }
    return metrics, details


def per_layer(workload, stats, traced: list[PassResult], untraced: list[PassResult]) -> dict:
    n = len(traced)
    metrics = {}
    for span in tracing.SPAN_NAMES:
        metrics[f"{span}.calls"] = (stats.calls[span] / n, "count")
        metrics[f"{span}.self_s"] = (stats.self_s[span] / n, "s")
    calls = stats.calls["groebner.buchberger"]
    metrics["groebner.buchberger.repeat_frac"] = (
        stats.buchberger_repeats / calls if calls else 0.0, "fraction")
    metrics["groebner.buchberger.basis_len_max"] = (stats.basis_len_max, "count")
    metrics["groebner.budget_exceeded"] = (stats.budget_exceeded / n, "count")
    for verdict in tracing.PROBE_VERDICTS:
        metrics[f"properness.probe.{verdict}"] = (stats.probe_verdicts[verdict] / n, "count")
    unbounded = [
        p.values[k] for p in traced for k in workload.unbounded_keys if k in p.values
    ]
    hits = sum(1 for v in unbounded if getattr(v, "verdict", None) == "non_proper")
    metrics["properness.probe.unbounded_hit_frac"] = (
        hits / len(unbounded) if unbounded else 0.0, "fraction")
    traced_wall = sum(p.wall_s for p in traced)
    metrics["trace.coverage"] = (stats.top_level_s / traced_wall, "fraction")
    metrics["trace.overhead_frac"] = (
        statistics.median(p.wall_s for p in traced)
        / statistics.median(p.wall_s for p in untraced) - 1.0, "fraction")
    return metrics


def run_workload(name: str, seed: int, seconds: float, trace: bool, keys=None,
                 passes: int | None = None) -> dict:
    """Set up, run and judge one workload; `keys` restricts it to those operations."""
    lt, workload, setup_times = set_up(name, seed, keys)
    if passes is None:
        passes = max(1, round(seconds / workload.nominal_pass_s))
    deadline = CpuDeadline()
    try:
        if not trace:
            results = [run_pass(workload, deadline) for _ in range(passes)]
            metrics, details = end_to_end(results, setup_times)
        else:
            half = max(1, passes // 2)
            untraced = [run_pass(workload, deadline) for _ in range(half)]
            tracer = tracing.Tracer(lt)
            tracer.install()
            try:
                results = [run_pass(workload, deadline, tracer) for _ in range(half)]
            finally:
                tracer.uninstall()
            metrics = per_layer(workload, tracer.stats, results, untraced)
            details = {"spans_missing": [
                s for s in workload.required_spans if tracer.stats.calls[s] == 0
            ]}
    finally:
        deadline.close()

    statuses = [(k, st) for p in results for k, st in sorted(p.status.items())]
    return {
        "workload": name,
        "seed": seed,
        "passes": len(results),
        "ops_per_pass": len(workload.ops),
        "deadline_s": workload.deadline_s,
        "correct": all(st[0] != "wrong" for _, st in statuses),
        "attempted": len(statuses),
        "failed": sum(1 for _, st in statuses if st[0] != "ok"),
        "failures": sorted({f"{k}: {st[0]} ({st[1]})" for k, st in statuses if st[0] != "ok"}),
        "metrics": metrics,
        "details": details,
    }


def environment(blas_threads: int) -> dict:
    import numpy

    try:
        commit = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {
        "commit": commit,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": cpu_count(),
        "blas_threads": blas_threads,
        "machine": platform.machine(),
        "load": "closed loop, one caller, sequential",
    }


def _print_result(result: dict) -> None:
    print(f"workload {result['workload']}: seed {result['seed']}, "
          f"{result['passes']} pass(es) x {result['ops_per_pass']} operations, "
          f"CPU deadline {result['deadline_s']} s per operation")
    for metric, (value, unit) in result["metrics"].items():
        print(f"  {metric:48s} {value:14.6g} {unit}")
    details = result["details"]
    if "op_p50_ms" in details:
        print(f"  {'op_p50_ms':48s} {details['op_p50_ms']:14.6g} ms")
        print(f"  {'op_tail_ms':48s} {details['op_tail_ms']:14.6g} ms"
              f" (p{details['op_tail_percentile']} of {details['op_tail_samples']} samples"
              + (", a failed operation)" if details["op_tail_is_failure"] else ")"))
        print(f"  {'failed_frac':48s} {details['failed_frac']:14.6g}"
              f" ({result['failed']}/{result['attempted']})")
        print(f"  pass wall times: {details['pass_wall_s']} s")
    for line in result["failures"]:
        print(f"  failed: {line}")


def _metrics_json(metrics: dict) -> dict:
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", default=None, help="append the result to this JSON-lines file")
    args = parser.parse_args(argv)

    blas_threads = limit_blas_threads()
    try:
        import_liptriv()
    except ImportError as exc:
        print(f"cannot import liptriv from {SRC}: {exc}", file=sys.stderr)
        return 2
    env = environment(blas_threads)
    print(f"python {env['python']}, numpy {env['numpy']}, nproc {env['nproc']}, "
          f"BLAS threads {env['blas_threads']}, commit {env['commit']}, {env['load']}")

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = [run_workload(n, args.seed, args.seconds, bool(args.trace)) for n in names]

    for result in results:
        _print_result(result)
        missing = result["details"].get("spans_missing")
        if missing:
            print(f"traced run of {result['workload']} never reached: {', '.join(missing)}",
                  file=sys.stderr)
            return 1
    if args.record:
        with open(args.record, "a", encoding="utf-8") as handle:
            for result in results:
                record = dict(result, env=env, seconds=args.seconds, trace=args.trace)
                record["metrics"] = _metrics_json(result["metrics"])
                handle.write(json.dumps(record, sort_keys=True) + "\n")

    if len(results) == 1:
        metrics = _metrics_json(results[0]["metrics"])
    else:
        metrics = {
            f"{r['workload']}.{name}": value
            for r in results for name, value in _metrics_json(r["metrics"]).items()
        }
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
