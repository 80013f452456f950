"""Spans around the calls into liptriv's public functions, from outside the package.

`Tracer.install` wraps each function in WRAPPED.  Several modules bind their
imports by name (`from .groebner import buchberger`), so the wrapper replaces
the function in every loaded `liptriv` module namespace that holds it, not
only in the defining module.  A function's self time is its span's duration
minus the time covered by the wrapped spans it caused.
"""

from __future__ import annotations

import functools
import sys
import time
from dataclasses import dataclass, field

WRAPPED: dict[str, tuple[str, ...]] = {
    "parsing": ("parse_input",),
    "dependence": ("factor_through_projection",),
    "groebner": ("buchberger", "eliminate", "saturate", "intersect", "dimension", "real_roots"),
    "critical": ("critical_ideal", "real_critical_values"),
    "properness": ("jelonek_ideal", "is_proper_at_complex", "properness_probe_real"),
    "infinity": ("fiber_infinity", "cone_constancy_check"),
    "classifier": ("classify", "tube_distance_probe", "lipschitz_gradient_probe"),
    "rational": ("indeterminacy_empty_check",),
    "report": ("emit_report",),
    "cli": ("run",),
}

SPAN_NAMES = tuple(f"{mod}.{fn}" for mod, fns in WRAPPED.items() for fn in fns)

PROBE_VERDICTS = ("proper", "non_proper", "inconclusive")


@dataclass
class _Frame:
    start: float
    child_s: float = 0.0


@dataclass
class LayerStats:
    """What the wrappers saw; counts are totals over every traced pass."""

    calls: dict = field(default_factory=lambda: dict.fromkeys(SPAN_NAMES, 0))
    self_s: dict = field(default_factory=lambda: dict.fromkeys(SPAN_NAMES, 0.0))
    top_level_s: float = 0.0
    buchberger_repeats: int = 0
    basis_len_max: int = 0
    budget_exceeded: int = 0
    probe_verdicts: dict = field(default_factory=lambda: dict.fromkeys(PROBE_VERDICTS, 0))


class Tracer:
    """Installs and removes the wrappers; one instance per traced run."""

    def __init__(self, liptriv_package):
        self._pkg = liptriv_package
        self._budget_error = liptriv_package.groebner.BudgetExceededError
        self._default_order = liptriv_package.groebner.MonomialOrder.grevlex()
        self._stack: list[_Frame] = []
        self._patched: list[tuple[object, str, object]] = []
        self._seen_ideals: set = set()
        self.stats = LayerStats()

    def _modules(self):
        prefix = self._pkg.__name__ + "."
        return [
            m for name, m in sorted(sys.modules.items())
            if m is not None and (name == self._pkg.__name__ or name.startswith(prefix))
        ]

    def install(self) -> None:
        modules = self._modules()
        for mod_name, fn_names in WRAPPED.items():
            home = getattr(self._pkg, mod_name)
            for fn_name in fn_names:
                original = getattr(home, fn_name)
                wrapper = self._wrap(f"{mod_name}.{fn_name}", original)
                for module in modules:
                    if module.__dict__.get(fn_name) is original:
                        self._patched.append((module, fn_name, original))
                        setattr(module, fn_name, wrapper)

    def uninstall(self) -> None:
        for module, fn_name, original in reversed(self._patched):
            setattr(module, fn_name, original)
        self._patched.clear()

    def begin_operation(self) -> None:
        """Repeated Groebner inputs are counted within one operation."""
        self._seen_ideals.clear()

    def _wrap(self, name: str, original):
        stack = self._stack
        stats = self.stats
        on_exit = {
            "groebner.buchberger": self._after_buchberger,
            "properness.properness_probe_real": self._after_probe,
        }.get(name)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if name == "groebner.buchberger":
                self._before_buchberger(args, kwargs)
            frame = _Frame(time.perf_counter())
            stack.append(frame)
            try:
                result = original(*args, **kwargs)
            except self._budget_error as exc:
                # Count each exhausted budget once, where it is first raised.
                if not getattr(exc, "_bench_counted", False):
                    exc._bench_counted = True
                    stats.budget_exceeded += 1
                raise
            finally:
                elapsed = time.perf_counter() - frame.start
                stack.pop()
                stats.calls[name] += 1
                stats.self_s[name] += elapsed - frame.child_s
                if stack:
                    stack[-1].child_s += elapsed
                else:
                    stats.top_level_s += elapsed
            if on_exit is not None:
                on_exit(result)
            return result

        return wrapper

    def _before_buchberger(self, args, kwargs) -> None:
        ideal = args[0] if args else kwargs.get("ideal")
        order = args[1] if len(args) > 1 else kwargs.get("order")
        key = (ideal, order or self._default_order)
        if key in self._seen_ideals:
            self.stats.buchberger_repeats += 1
        else:
            self._seen_ideals.add(key)

    def _after_buchberger(self, basis) -> None:
        self.stats.basis_len_max = max(self.stats.basis_len_max, len(basis.basis))

    def _after_probe(self, verdict) -> None:
        self.stats.probe_verdicts[verdict.verdict] += 1
