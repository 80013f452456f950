"""Decision pipeline for the set of Lipschitz trivial values.

classify() chains the whole analysis: reduce the mapping through its maximal
invariance subspace, compute the exact value-space obstructions (non-properness
and critical ideals of the reduced mapping over C), check the necessary
conditions coming from the fibers' accumulation sets at infinity, and assemble
a field-specific description of the Lipschitz trivial values.

Over C the answer is exact: either empty, all values, or the complement of an
algebraic hypersurface.  Over R the exact algebraic data is reported together
with per-value numeric properness verdicts; no exact semi-algebraic claim is
made beyond what the certificates support.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .critical import CriticalIdeal, RealCriticalValue, critical_ideal, jacobian_minors, real_critical_values
from .dependence import FactorizationResult, factor_through_projection
from .groebner import (
    DEFAULT_BUDGET,
    BudgetExceededError,
    GroebnerBudget,
    Ideal,
    MonomialOrder,
    buchberger,
    intersect,
    is_unit_ideal,
)
from .infinity import ConeConstancyResult, InfinityReport, cone_constancy_check, fiber_infinity
from .polycore import FloatKernel, PolyMap, Polynomial
from .properness import (
    JelonekIdeal,
    ProbeSchedule,
    _sphere_minimize,
    is_proper_at_complex,
    jelonek_ideal,
    properness_probe_real,
    target_ring,
)
from .rational import RationalMap, indeterminacy_empty_check, rational_invariance_subspace


@dataclass(frozen=True)
class AnalysisConfig:
    """Reproducible knobs for the whole pipeline (seeded determinism)."""

    seed: int = 42
    radii: tuple[float, ...] = (10.0, 100.0, 1000.0, 10000.0)
    tol_zero: float = 1e-6
    mu_floor: float = 1e-3
    restarts: int = 32
    max_iter: int = 250
    budget: GroebnerBudget = DEFAULT_BUDGET
    cone_samples: int = 3
    probe_values: tuple[tuple[float, ...], ...] | None = None

    def schedule(self) -> ProbeSchedule:
        return ProbeSchedule(
            radii=self.radii,
            restarts=self.restarts,
            seed=self.seed,
            tol_zero=self.tol_zero,
            max_iter=self.max_iter,
        )


@dataclass(frozen=True)
class CheckResult:
    name: str
    verdict: str
    data: dict


@dataclass(frozen=True)
class LtvDescription:
    """Field-specific description of the Lipschitz trivial values."""

    kind: str  # "empty" | "all_values" | "complement" | "real_complement"
    #          | "undetermined" | "not_applicable"
    reason: str = ""
    generators: tuple[Polynomial, ...] = ()
    critical_candidates: tuple = ()
    probe_table: tuple = ()
    note: str = ""


@dataclass(frozen=True)
class LtvReport:
    field: str
    source: PolyMap | RationalMap
    factorization: FactorizationResult | None
    infinity_samples: tuple[InfinityReport, ...]
    sampled_values: tuple
    jelonek: JelonekIdeal | None
    critical: CriticalIdeal | None
    real_critical: tuple[RealCriticalValue, ...] | None
    ltv: LtvDescription
    checks: tuple[CheckResult, ...]
    flags: dict
    seed: int

    @property
    def infinity(self) -> InfinityReport | None:
        return self.infinity_samples[0] if self.infinity_samples else None


# -- deterministic value sampling ----------------------------------------------

_BASE_GRID = [
    Fraction(1), Fraction(0), Fraction(2), Fraction(3), Fraction(-1),
    Fraction(1), Fraction(3), Fraction(-2), Fraction(1, 2), Fraction(5),
    Fraction(-3), Fraction(2, 3), Fraction(7), Fraction(-4), Fraction(3, 2),
    Fraction(-7), Fraction(4), Fraction(5, 2), Fraction(-9), Fraction(11),
]


def rational_grid(p: int, count: int, start: int = 0) -> list[tuple[Fraction, ...]]:
    """Deterministic low-discrepancy rational grid in the value space."""
    out = []
    j = start
    seen = set()
    while len(out) < count:
        idx = j * p
        value = tuple(
            _BASE_GRID[(idx + i) % len(_BASE_GRID)] + 13 * ((idx + i) // len(_BASE_GRID))
            for i in range(p)
        )
        j += 1
        if value in seen:
            continue
        seen.add(value)
        out.append(value)
    return out


def _vanishes_at(ideal: Ideal | None, c: Sequence[Fraction]) -> bool:
    if ideal is None or not ideal.generators:
        return False
    return all(g.eval_exact(list(c)) == 0 for g in ideal.generators)


def _sample_values(
    f: PolyMap,
    count: int,
    critical: CriticalIdeal | None,
    jelonek: JelonekIdeal | None,
    budget: GroebnerBudget,
) -> list[tuple[Fraction, ...]]:
    """Grid values with nonempty complex fiber, off the known discriminant loci."""
    chosen: list[tuple[Fraction, ...]] = []
    attempts = 0
    j = 0
    while len(chosen) < count and attempts < 40:
        candidate = rational_grid(f.p, 1, start=j)[0]
        j += 1
        attempts += 1
        if _vanishes_at(critical.ideal if critical else None, candidate):
            continue
        if _vanishes_at(jelonek.ideal if jelonek else None, candidate):
            continue
        fiber = Ideal.make(
            f.vars, [comp - ci for comp, ci in zip(f.components, candidate)]
        )
        try:
            if is_unit_ideal(fiber, budget):
                continue
        except BudgetExceededError:
            continue
        chosen.append(candidate)
    return chosen


# -- classify -------------------------------------------------------------------


def classify(
    f: PolyMap, field_name: str = "complex", config: AnalysisConfig | None = None
) -> LtvReport:
    """Full decision pipeline; see the module docstring for the stages."""
    if field_name not in ("real", "complex"):
        raise ValueError("field must be 'real' or 'complex'")
    cfg = config or AnalysisConfig()
    budget = cfg.budget
    checks: list[CheckResult] = []
    flags: dict = {}

    factorization = factor_through_projection(f)
    g = factorization.g
    dim_v = factorization.V.dim
    m = factorization.m

    # Constant mappings: the single attained value admits no trivialization,
    # every other value has empty fibers and is trivially Lipschitz trivial.
    if f.is_constant():
        c0 = tuple(comp.constant_value() for comp in f.components)
        tvars = target_ring(f.p)
        gens = tuple(
            Polynomial.variable(tvars, i) - Polynomial.constant(tvars, c0[i])
            for i in range(f.p)
        )
        ltv = LtvDescription(
            "complement",
            reason="constant mapping: the attained value admits no trivialization",
            generators=gens,
        )
        return LtvReport(
            field_name, f, factorization, (), (), None, None, None, ltv,
            tuple(checks), flags, cfg.seed,
        )

    tvars = target_ring(f.p, g.vars)

    critical: CriticalIdeal | None = None
    try:
        critical = critical_ideal(g, budget, tvars)
    except BudgetExceededError as exc:
        flags["critical_budget"] = str(exc)

    jelonek: JelonekIdeal | None = None
    if m == f.p:
        try:
            jelonek = jelonek_ideal(g, budget, tvars)
        except BudgetExceededError as exc:
            flags["jelonek_budget"] = str(exc)

    # Sampled-value analysis: fiber at infinity and cone constancy.
    samples = _sample_values(f, max(cfg.cone_samples, 2), critical, jelonek, budget)
    inf_report: InfinityReport | None = None
    cone_result: ConeConstancyResult | None = None
    necessary_failed = False
    cone_failed = False
    if samples:
        try:
            inf_report = fiber_infinity(f, samples[0], budget)
            necessary_failed = dim_v < f.n - inf_report.m_candidate
            data = {
                "value": [str(x) for x in samples[0]],
                "dim_V": dim_v,
                "dim_infinity": inf_report.dim_infinity,
                "m_candidate": inf_report.m_candidate,
                "required": f.n - inf_report.m_candidate,
                "condition": "dim V >= n - m_candidate",
            }
            if field_name == "real":
                data["field_caveat"] = (
                    "accumulation set computed over C; the real set can be "
                    "smaller, so this check is advisory for real input"
                )
            checks.append(
                CheckResult(
                    "invariance_vs_infinity",
                    "FAIL" if necessary_failed else "PASS",
                    data,
                )
            )
        except BudgetExceededError as exc:
            flags["infinity_budget"] = str(exc)
    if len(samples) >= 2:
        try:
            cone_result = cone_constancy_check(f, samples, budget)
            cone_failed = cone_result.verdict == "FAIL"
            data = {"values": [[str(x) for x in c] for c in samples]}
            if cone_result.verdict == "PASS" and cone_result.subspace is not None:
                data["cone_subspace_basis"] = _basis_strings(cone_result.subspace.basis)
            if cone_result.verdict == "FAIL" and cone_result.witness is not None:
                i, j = cone_result.witness
                data["witness_values"] = [
                    [str(x) for x in samples[i]],
                    [str(x) for x in samples[j]],
                ]
                data["witness_cones"] = [
                    _cone_string(cone_result.reports[i]),
                    _cone_string(cone_result.reports[j]),
                ]
            if field_name == "real":
                data["field_caveat"] = "cones computed over C"
            checks.append(CheckResult("cone_constancy", cone_result.verdict, data))
        except BudgetExceededError as exc:
            flags["cone_budget"] = str(exc)

    failures = []
    if necessary_failed:
        failures.append(
            "invariance subspace smaller than the codimension of the fiber's "
            "accumulation set at infinity requires"
        )
    if cone_failed:
        failures.append("accumulation cones at infinity differ between sampled values")

    if field_name == "complex":
        ltv = _complex_verdict(f, factorization, jelonek, critical, failures, flags, budget)
    else:
        ltv = _real_verdict(
            f, factorization, jelonek, critical, failures, flags, cfg, checks, budget
        )

    real_critical = None
    if field_name == "real" and ltv.critical_candidates:
        real_critical = ltv.critical_candidates

    if cone_result is not None:
        infinity_samples = cone_result.reports
    elif inf_report is not None:
        infinity_samples = (inf_report,)
    else:
        infinity_samples = ()

    return LtvReport(
        field_name,
        f,
        factorization,
        infinity_samples,
        tuple(samples),
        jelonek,
        critical,
        real_critical,
        ltv,
        tuple(checks),
        flags,
        cfg.seed,
    )


def _basis_strings(basis) -> list[list[str]]:
    return [[str(x) for x in vec] for vec in basis]


def _cone_string(report: InfinityReport) -> dict:
    from .parsing import print_polynomial

    out: dict = {"ideal": [print_polynomial(g) for g in report.cone_ideal.generators]}
    if report.cone_subspace is not None:
        out["subspace_basis"] = _basis_strings(report.cone_subspace.basis)
    return out


def _dominant(g: PolyMap) -> bool:
    """For m = p: dominance is a not-identically-singular Jacobian (char 0)."""
    minors = jacobian_minors(g)
    return any(not q.is_zero() for q in minors)


def _bifurcation_ideal(
    jelonek: JelonekIdeal, critical: CriticalIdeal, budget: GroebnerBudget
) -> Ideal:
    """Reduced generators cutting J(g) union closure K0(g) in the value space."""
    if jelonek.is_empty_set():
        merged = critical.ideal
    elif critical.is_empty_set():
        merged = jelonek.ideal
    else:
        merged = intersect(jelonek.ideal, critical.ideal, budget)
    gb = buchberger(merged, MonomialOrder.grevlex(), budget)
    return Ideal(merged.vars, gb.basis)


def _complex_verdict(
    f: PolyMap,
    factorization: FactorizationResult,
    jelonek: JelonekIdeal | None,
    critical: CriticalIdeal | None,
    failures: list[str],
    flags: dict,
    budget: GroebnerBudget,
) -> LtvDescription:
    m, p = factorization.m, f.p
    if m != p:
        failures = failures + [
            f"reduced domain dimension m = {m} differs from the target dimension "
            f"p = {p}; no dominant factorization through K^p exists"
        ]
    elif not _dominant(factorization.g):
        failures = failures + ["the reduced mapping is not dominant"]

    if failures:
        return LtvDescription("empty", reason="; ".join(failures))

    if jelonek is None or critical is None:
        return LtvDescription(
            "undetermined",
            reason="exact value-space ideals unavailable (resource budget exceeded)",
        )

    try:
        bif = _bifurcation_ideal(jelonek, critical, budget)
    except BudgetExceededError as exc:
        flags["bifurcation_budget"] = str(exc)
        return LtvDescription(
            "undetermined",
            reason="bifurcation ideal unavailable (resource budget exceeded)",
        )
    if not bif.generators:
        # Union of two empty sets only: complement of nothing.
        return LtvDescription("all_values")
    if any(g.is_constant() and not g.is_zero() for g in bif.generators):
        return LtvDescription("all_values")
    return LtvDescription("complement", generators=bif.generators)


def _probe_grid_real(
    p: int,
    candidates: tuple[RealCriticalValue, ...] | None,
    cfg: AnalysisConfig,
) -> list[tuple[float, ...]]:
    if cfg.probe_values is not None:
        return [tuple(float(x) for x in v) for v in cfg.probe_values]
    if p == 1 and candidates:
        roots = sorted(r.approx for r in candidates)
        grid = [roots[0] - 1.0]
        grid += [(a + b) / 2.0 for a, b in zip(roots, roots[1:])]
        grid += [roots[-1] + 1.0, roots[-1] + 4.0]
        return [(v,) for v in grid]
    return [tuple(float(x) for x in c) for c in rational_grid(p, 3)]


def _real_verdict(
    f: PolyMap,
    factorization: FactorizationResult,
    jelonek: JelonekIdeal | None,
    critical: CriticalIdeal | None,
    failures: list[str],
    flags: dict,
    cfg: AnalysisConfig,
    checks: list[CheckResult],
    budget: GroebnerBudget,
) -> LtvDescription:
    g = factorization.g
    m, p = factorization.m, f.p

    if failures:
        # Only the cone obstruction is verdict-driving over R: the invariance
        # condition uses the complex accumulation set, which can overshoot.
        cone_failures = [msg for msg in failures if "cones" in msg]
        if cone_failures:
            return LtvDescription("empty", reason="; ".join(failures))

    candidates: tuple[RealCriticalValue, ...] = ()
    if p == 1 and critical is not None and not critical.is_empty_set():
        try:
            candidates = tuple(
                real_critical_values(g, budget, seed=cfg.seed, crit=critical)
            )
        except BudgetExceededError as exc:
            flags["real_critical_budget"] = str(exc)

    exact_generators: tuple[Polynomial, ...] = ()
    exact_note = ""
    if m == p and jelonek is not None and critical is not None and _dominant(g):
        try:
            bif = _bifurcation_ideal(jelonek, critical, budget)
        except BudgetExceededError as exc:
            flags["bifurcation_budget"] = str(exc)
            bif = None
        if bif is not None:
            if not bif.generators or any(
                q.is_constant() and not q.is_zero() for q in bif.generators
            ):
                return LtvDescription(
                    "all_values",
                    note=(
                        "complex bifurcation set empty: every value is proper and "
                        "regular over C, hence Lipschitz trivial over R"
                    ),
                )
            exact_generators = bif.generators
            exact_note = (
                "real Lipschitz trivial values = R^p minus the real points of the "
                "complex bifurcation set of the reduced mapping"
            )

    grid = _probe_grid_real(p, candidates or None, cfg)
    sched = cfg.schedule()
    table = []
    any_proper = False
    for value in grid:
        try:
            verdict = properness_probe_real(
                g, value, sched, mu_floor=cfg.mu_floor, jelonek=jelonek, budget=budget
            )
        except BudgetExceededError as exc:
            flags["probe_budget"] = str(exc)
            verdict = properness_probe_real(
                g, value, sched, mu_floor=cfg.mu_floor, skip_exact=True
            )
        regular = True
        if critical is not None:
            regular = not _vanishes_at(
                critical.ideal, [Fraction(x) for x in value]
            )
        certified = verdict.mode == "exact_complex" and verdict.verdict == "proper"
        if verdict.verdict == "proper" and regular:
            any_proper = True
        table.append(
            {
                "value": [float(x) for x in value],
                "verdict": verdict.verdict,
                "mode": verdict.mode,
                "regular": regular,
                "certified": bool(certified and regular),
                "mu": [e["mu"] for e in verdict.evidence.get("mu_trace", [])],
            }
        )
    checks.append(
        CheckResult(
            "properness_probe_table",
            "PASS" if any_proper else "NO_PROPER_VALUE_FOUND",
            {"table": table},
        )
    )

    if exact_generators:
        return LtvDescription(
            "real_complement",
            generators=exact_generators,
            critical_candidates=candidates,
            probe_table=tuple(
                (tuple(e["value"]), e["verdict"], e["mode"]) for e in table
            ),
            note=exact_note,
        )

    if not any_proper:
        return LtvDescription(
            "undetermined",
            reason=(
                "no value of properness could be certified or probed; the "
                "real description needs at least one Lipschitz trivial value"
            ),
            critical_candidates=candidates,
            probe_table=tuple(
                (tuple(e["value"]), e["verdict"], e["mode"]) for e in table
            ),
        )

    return LtvDescription(
        "real_complement",
        critical_candidates=candidates,
        probe_table=tuple((tuple(e["value"]), e["verdict"], e["mode"]) for e in table),
        note=(
            "exact critical candidates plus per-value properness verdicts; the "
            "real non-properness set is probed, not computed exactly"
        ),
    )


# -- rational input ---------------------------------------------------------------

RATIONAL_NOT_APPLICABLE = "polynomial factorization theorem not applicable (rational input)"


def classify_rational(
    r: RationalMap, field_name: str = "real", config: AnalysisConfig | None = None
) -> LtvReport:
    """Rational mappings get the counterexample checks, never a classification."""
    cfg = config or AnalysisConfig()
    checks: list[CheckResult] = []
    if r.is_polynomial():
        return classify(r.to_polymap(), field_name, cfg)

    indet = indeterminacy_empty_check(r, cfg.budget)
    checks.append(
        CheckResult(
            "indeterminacy_empty",
            indet.status,
            {"components": list(indet.per_component)},
        )
    )
    inv = rational_invariance_subspace(r)
    checks.append(
        CheckResult(
            "rational_invariance",
            "ZERO" if inv.subspace.is_zero() else "NONZERO",
            {
                "dim": inv.subspace.dim,
                "basis": _basis_strings(inv.subspace.basis),
                "closed_under_addition": inv.closed_under_addition,
            },
        )
    )
    grad = lipschitz_gradient_probe(
        r, tuple(0.0 for _ in range(r.p)), radii=(10.0, 1e2, 1e4, 1e6), config=cfg
    )
    checks.append(CheckResult("gradient_bound", grad["verdict"], grad))

    ltv = LtvDescription("not_applicable", reason=RATIONAL_NOT_APPLICABLE)
    return LtvReport(
        field_name, r, None, (), (), None, None, None, ltv, tuple(checks), {}, cfg.seed
    )


# -- probes shared by the report layer ---------------------------------------------


def lipschitz_gradient_probe(
    mapping: PolyMap | RationalMap,
    value: Sequence[float],
    radii: Sequence[float] = (1.0, 2.0, 5.0, 10.0, 100.0),
    neighborhood: float = 0.5,
    restarts: int = 12,
    config: AnalysisConfig | None = None,
) -> dict:
    """Sampled operator-norm bound of the Jacobian over near-fiber points.

    For each radius, sphere points minimizing |f(x) - c| are kept when they
    land inside the value neighborhood; the largest singular value of the
    Jacobian is recorded there.  Growth of those suprema with the radius is
    reported as UNBOUNDED, which contradicts the Lipschitz bound a trivial
    value would impose.
    """
    cfg = config or AnalysisConfig()
    if isinstance(mapping, RationalMap):
        evaluate, jacobian = mapping.evaluate_float, mapping.jacobian_float
    else:
        kernel = FloatKernel(mapping.components)
        evaluate, jacobian = kernel.value, kernel.jacobian
    cvals = np.array([float(x) for x in value])

    def toward_fiber(x, radius, steps=25):
        """Gauss-Newton from a sphere start toward the fiber, kept in the ball."""
        x = np.array(x, dtype=float)
        for _ in range(steps):
            resid = np.array(evaluate(list(x))) - cvals
            if float(np.linalg.norm(resid)) < 1e-10:
                break
            jac = np.array(jacobian(list(x)))
            try:
                step, *_ = np.linalg.lstsq(jac, resid, rcond=None)
            except np.linalg.LinAlgError:
                break
            if not np.all(np.isfinite(step)):
                break
            x = x - step
            norm = float(np.linalg.norm(x))
            if norm > radius:
                x = x * (radius / norm)
        return x

    per_radius = []
    sups = []
    for k, radius in enumerate(sorted(radii)):
        rng = np.random.default_rng((cfg.seed, 977, k))
        best_norm = None
        best_mu = float("inf")
        for _ in range(restarts):
            u = rng.normal(size=mapping.n)
            u_norm = float(np.linalg.norm(u))
            if u_norm == 0.0:
                continue
            x = toward_fiber(radius * u / u_norm, radius)
            if not np.all(np.isfinite(x)):
                continue
            mu = float(np.linalg.norm(np.array(evaluate(list(x))) - cvals))
            best_mu = min(best_mu, mu)
            if mu < neighborhood:
                jac = np.array(jacobian(list(x)))
                norm = float(np.linalg.svd(jac, compute_uv=False)[0])
                if best_norm is None or norm > best_norm:
                    best_norm = norm
        entry = {"radius": float(radius), "mu": best_mu, "jacobian_norm": best_norm}
        if best_norm is not None:
            sups.append(best_norm)
        per_radius.append(entry)

    kept = [s for s in sups if np.isfinite(s)]
    if len(kept) >= 2 and kept[-1] > 10.0 * max(kept[0], 1e-12) and kept[-1] > kept[-2]:
        verdict = "UNBOUNDED"
    elif kept:
        verdict = "BOUNDED"
    else:
        verdict = "NO_SAMPLES"
    return {
        "verdict": verdict,
        "bound": max(kept) if kept else None,
        "samples": per_radius,
        "value": [float(x) for x in cvals],
    }


def tube_distance_probe(
    f: PolyMap,
    c: Sequence[float],
    t: Sequence[float],
    radii: Sequence[float] = (10.0, 25.0, 50.0),
    restarts: int = 12,
    max_iter: int = 150,
    lambdas: Sequence[float] = (1e-2, 1e-4, 1e-6),
    residual_tol: float = 1e-3,
    collapse_tol: float = 0.05,
    seed: int = 42,
) -> dict:
    """Estimate the distance between two levels inside growing balls.

    Penalty continuation on |f(x)-c|^2 + |f(y)-t|^2 + lambda |x-y|^2 with
    decreasing lambda (optimized in the rescaled form |x-y|^2 + (1/lambda) *
    residuals, whose distance gradient does not vanish), alternated with
    Gauss-Newton projection of each endpoint onto its own fiber.  Each
    penalty stage is one call of the compiled `kernel.penalty_descent`, a
    projected gradient descent with backtracking inside the ball.  A pair of
    levels whose distance decays toward zero while |c - t| stays fixed
    violates the bi-Lipschitz bounds a trivialization over both values would
    impose and is flagged as a collapse.
    """
    from math import isfinite, sqrt

    if list(c) == list(t):
        raise ValueError("levels must differ")
    kernel = FloatKernel(f.components)
    n = f.n
    cv = [float(x) for x in c]
    tv = [float(x) for x in t]

    def project_ball(z, radius):
        norm = sqrt(sum(v * v for v in z))
        if norm <= radius or norm == 0.0:
            return z
        return [radius * v / norm for v in z]

    def fiber_project(z, target, radius, steps=12):
        """Gauss-Newton steps toward {f = target}, kept inside the ball."""
        z = list(z)
        for _ in range(steps):
            resid = np.array(kernel.value(z)) - np.array(target)
            if float(np.linalg.norm(resid)) < 1e-12:
                break
            jac = np.array(kernel.jacobian(z))
            try:
                step, *_ = np.linalg.lstsq(jac, resid, rcond=None)
            except np.linalg.LinAlgError:
                break
            if not np.all(np.isfinite(step)):
                break
            z = project_ball([a - float(s) for a, s in zip(z, step)], radius)
        return z

    def residual_norms(x, y):
        rx = sqrt(sum((a - b) ** 2 for a, b in zip(kernel.value(x), cv)))
        ry = sqrt(sum((a - b) ** 2 for a, b in zip(kernel.value(y), tv)))
        return rx, ry

    per_radius = []
    dists = []
    warm: list[tuple[list[float], list[float]]] = []
    for k, radius in enumerate(sorted(radii)):
        rng = np.random.default_rng((seed, 1733, k))
        best = None
        starts = list(warm)
        for _ in range(restarts):
            x = [radius * float(v) for v in rng.uniform(-1.0, 1.0, size=n)]
            x = project_ball(x, radius)
            y = [v + 0.05 * radius * float(d) for v, d in zip(x, rng.normal(size=n))]
            starts.append((x, project_ball(y, radius)))
        # Structured starts: near-fiber points found on inner spheres, each
        # paired with its own projection onto the other fiber; this reaches
        # thin branches that uniform ball sampling misses.
        for frac_idx, frac in enumerate((0.5, 0.95)):
            for target in (cv, tv):
                sub_rng = np.random.default_rng((seed, 2741, k, frac_idx))
                _, point = _sphere_minimize(
                    kernel, target, frac * radius, sub_rng, 8, max_iter
                )
                if all(np.isfinite(point)):
                    starts.append((list(point), list(point)))
        for x0, y0 in starts:
            x = fiber_project(x0, cv, radius)
            y = fiber_project(y0, tv, radius)
            for lam in sorted(lambdas, reverse=True):
                x, y = kernel.penalty_descent(x, y, 1.0 / lam, radius, cv, tv, max_iter)
            x = fiber_project(x, cv, radius)
            y = fiber_project(y, tv, radius)
            rx, ry = residual_norms(x, y)
            if max(rx, ry) < residual_tol:
                dist = sqrt(sum((a - b) ** 2 for a, b in zip(x, y)))
                if best is None or dist < best[0]:
                    best = (dist, list(x), list(y), max(rx, ry))
        entry = {"radius": float(radius)}
        if best is not None:
            entry["distance"] = best[0]
            entry["residual"] = best[3]
            dists.append(best[0])
            warm = [(best[1], best[2])]
        else:
            entry["distance"] = None
            dists.append(float("nan"))
        per_radius.append(entry)

    finite = [d for d in dists if isfinite(d)]
    collapse = (
        len(finite) >= 2
        and isfinite(dists[-1])
        and dists[-1] < collapse_tol
        and dists[-1] < 0.5 * finite[0]
    )
    separation = sqrt(sum((a - b) ** 2 for a, b in zip(cv, tv)))
    return {
        "c": cv,
        "t": tv,
        "value_separation": separation,
        "per_radius": per_radius,
        "collapse": bool(collapse),
    }


# -- complexification comparison ---------------------------------------------------


def complexification_compare(
    f: PolyMap, config: AnalysisConfig | None = None, sample_count: int = 3
) -> tuple[LtvReport, LtvReport, CheckResult]:
    """Check Ltv(f_C) intersect R^p inside Ltv(f_R) on sampled rational values.

    Sampled values off the complex bifurcation set carry an exact properness
    certificate and a regularity certificate, which together witness real
    Lipschitz triviality; containment therefore holds value by value.
    """
    cfg = config or AnalysisConfig()
    complex_report = classify(f, "complex", cfg)
    real_report = classify(f, "real", cfg)

    if complex_report.ltv.kind == "empty":
        check = CheckResult(
            "complexification_containment",
            "PASS",
            {"detail": "complex Ltv empty; containment is vacuous", "samples": []},
        )
        return real_report, complex_report, check

    if complex_report.ltv.kind not in ("complement", "all_values"):
        check = CheckResult(
            "complexification_containment",
            "INCONCLUSIVE",
            {"detail": f"complex verdict is {complex_report.ltv.kind}"},
        )
        return real_report, complex_report, check

    gens = complex_report.ltv.generators
    g = complex_report.factorization.g
    samples = []
    j = 0
    while len(samples) < sample_count and j < 40:
        candidate = rational_grid(f.p, 1, start=j)[0]
        j += 1
        # Stay strictly inside the open complement of the bifurcation set.
        if gens and any(q.eval_exact(list(candidate)) == 0 for q in gens):
            continue
        samples.append(candidate)

    rows = []
    verdict = "PASS"
    for value in samples:
        proper = is_proper_at_complex(g, value, complex_report.jelonek, cfg.budget)
        regular = not _vanishes_at(
            complex_report.critical.ideal if complex_report.critical else None, value
        )
        member = proper.verdict == "proper" and regular
        if not member:
            verdict = "FAIL"
        rows.append(
            {
                "value": [str(x) for x in value],
                "complex_proper": proper.verdict,
                "regular": regular,
                "in_real_ltv": member,
            }
        )
    check = CheckResult(
        "complexification_containment",
        verdict,
        {"samples": rows},
    )
    return real_report, complex_report, check
