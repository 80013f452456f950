"""Decision pipeline for the set of Lipschitz trivial values.

classify() chains the whole analysis: reduce the mapping through its maximal
invariance subspace, compute the exact value-space obstructions (non-properness
and critical ideals of the reduced mapping over C) and the fibers'
accumulation sets at infinity, once for both fields, then check the necessary
conditions and assemble a field-specific description of the Lipschitz
trivial values.  complexification_compare derives both fields' reports from
one run of the exact stages.

Over C the answer is exact: either empty, all values, or the complement of an
algebraic hypersurface.  Over R the exact algebraic data is reported together
with per-value numeric properness verdicts; no exact semi-algebraic claim is
made beyond what the certificates support.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from math import isfinite
from typing import Callable, Iterator, Sequence

from .critical import RealCriticalValue, critical_ideal, jacobian_minors, real_critical_values
from .dependence import FactorizationResult, factor_through_projection
from .groebner import (
    DEFAULT_BUDGET,
    BudgetExceededError,
    GroebnerBasis,
    GroebnerBudget,
    Ideal,
    MonomialOrder,
    buchberger,
    dimension,
    intersect,
)
from .infinity import ConeConstancyResult, InfinityReport, cone_constancy_check, fiber_infinity
from .polycore import PolyMap, Polynomial, check_value
from .properness import (
    ProbeRun,
    ProbeSchedule,
    PropernessVerdict,
    _gauss_newton_step,
    _largest_singular_value,
    _norm,
    _sphere_minimize,
    certifier,
    check_radii,
    jelonek_ideal,
    properness_probe_real,
    seeded_rng,
    target_ring,
)
from .rational import RationalMap, indeterminacy_empty_check, rational_invariance_subspace


@dataclass(frozen=True)
class AnalysisConfig:
    """Reproducible knobs for the whole pipeline (seeded determinism).

    `probe` holds the probe settings and the seed; bad radii fail when it is
    built, before any stage runs.
    """

    probe: ProbeSchedule = ProbeSchedule()
    budget: GroebnerBudget = DEFAULT_BUDGET


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
    note: str = ""


@dataclass(frozen=True)
class LtvReport:
    field: str
    source: PolyMap | RationalMap
    factorization: FactorizationResult | None
    jelonek: Ideal | None
    critical: Ideal | None
    ltv: LtvDescription
    checks: tuple[CheckResult, ...]
    flags: dict
    seed: int


# -- deterministic value sampling ----------------------------------------------

_BASE_GRID = [
    Fraction(1), Fraction(0), Fraction(2), Fraction(3), Fraction(-1),
    Fraction(1), Fraction(3), Fraction(-2), Fraction(1, 2), Fraction(5),
    Fraction(-3), Fraction(2, 3), Fraction(7), Fraction(-4), Fraction(3, 2),
    Fraction(-7), Fraction(4), Fraction(5, 2), Fraction(-9), Fraction(11),
]


def _grid(p: int) -> Iterator[tuple[Fraction, ...]]:
    """Deterministic low-discrepancy rational grid in the value space, without end."""
    seen = set()
    for idx in itertools.count(0, p):
        value = tuple(
            _BASE_GRID[(idx + i) % len(_BASE_GRID)] + 13 * ((idx + i) // len(_BASE_GRID))
            for i in range(p)
        )
        if value not in seen:
            seen.add(value)
            yield value


def rational_grid(p: int, count: int) -> list[tuple[Fraction, ...]]:
    """The first `count` values of the grid."""
    return list(itertools.islice(_grid(p), count))


def _grid_values(p: int, count: int, keep: Callable[[tuple], bool]) -> list[tuple[Fraction, ...]]:
    """The first `count` distinct grid values, among the first 40, that keep() accepts."""
    chosen: list[tuple[Fraction, ...]] = []
    for value in itertools.islice(_grid(p), 40):
        if keep(value):
            chosen.append(value)
            if len(chosen) == count:
                break
    return chosen


def _on_locus(ideal: Ideal | None, value: Sequence[Fraction]) -> bool:
    """value lies on V(ideal); a missing ideal marks no value."""
    return ideal is not None and ideal.vanishes_at(value)


def _sample_fibers(
    f: PolyMap,
    critical: Ideal | None,
    jelonek: Ideal | None,
    budget: GroebnerBudget,
) -> list[tuple[tuple[Fraction, ...], GroebnerBasis]]:
    """Up to 3 grid values with nonempty complex fiber, off the known
    discriminant loci, each with the reduced grevlex basis that shows its
    fiber nonempty."""
    bases: dict = {}

    def keep(value: tuple[Fraction, ...]) -> bool:
        if _on_locus(critical, value) or _on_locus(jelonek, value):
            return False
        try:
            bases[value] = buchberger(Ideal.fiber(f, value), MonomialOrder.grevlex(), budget)
        except BudgetExceededError:
            return False
        return dimension(bases[value]) >= 0

    return [(value, bases[value]) for value in _grid_values(f.p, 3, keep)]


# -- classify -------------------------------------------------------------------


@dataclass(frozen=True)
class ExactStages:
    """Field-independent exact data of one mapping, each stage computed once.

    f = g o pi, the complex properness certificate of g at a value, the
    critical and Jelonek ideals of g, the fiber_infinity reports of the
    sampled values in sample order, the cone verdict (when there are at
    least two samples) and the bifurcation ideal.  `flags` names each stage
    whose budget ran out; `cone_budget` means that the cone comparison ran
    out.
    """

    f: PolyMap
    factorization: FactorizationResult
    certify: Callable[[tuple[Fraction, ...]], PropernessVerdict]
    critical: Ideal | None = None
    jelonek: Ideal | None = None
    infinity_samples: tuple[InfinityReport, ...] = ()
    cone: ConeConstancyResult | None = None
    dominant: bool = False  # m = p and the Jacobian of g is not identically singular
    bifurcation: Ideal | None = None  # J(g) union closure K0(g), when a verdict reads it
    flags: dict = field(default_factory=dict)


def _within_budget(flags: dict, key: str, stage, *args, **kwargs):
    """stage(*args, **kwargs), or None with flags[key] set if a budget ran out."""
    try:
        return stage(*args, **kwargs)
    except BudgetExceededError as exc:
        flags[key] = str(exc)
        return None


def _exact_stages(f: PolyMap, cfg: AnalysisConfig) -> ExactStages:
    budget = cfg.budget
    factorization = factor_through_projection(f)
    g = factorization.g
    if f.is_constant():
        return ExactStages(f, factorization, certifier(g, None, budget))
    flags: dict = {}

    critical = _within_budget(flags, "critical_budget", critical_ideal, g, budget)
    jelonek = None
    if factorization.m == f.p:
        jelonek = _within_budget(flags, "jelonek_budget", jelonek_ideal, g, budget)

    # Sampled-value analysis: each fiber at infinity once, read off the
    # scan's basis, then the cones compared.
    samples = _sample_fibers(f, critical, jelonek, budget)
    reports = tuple(fiber_infinity(basis, value) for value, basis in samples)
    cone = None
    if len(reports) >= 2:
        cone = _within_budget(flags, "cone_budget", cone_constancy_check, reports, budget)

    # For m = p, dominance is a not-identically-singular Jacobian (char 0).
    dominant = factorization.m == f.p and any(not q.is_zero() for q in jacobian_minors(g))
    # Both verdicts read the bifurcation ideal only here.  The complex one
    # also needs the invariance check to pass, which it does at samples off
    # J(g) and K0(g): there the fiber is a union of translates of V.
    bifurcation = None
    if dominant and jelonek is not None and critical is not None and not (
        cone is not None and cone.verdict == "FAIL"
    ):
        bifurcation = _within_budget(
            flags, "bifurcation_budget", _bifurcation_ideal, jelonek, critical, budget
        )
    certify = certifier(g, jelonek, budget)
    return ExactStages(
        f, factorization, certify, critical, jelonek, reports, cone, dominant, bifurcation,
        flags,
    )


def classify(
    f: PolyMap | RationalMap,
    field_name: str = "complex",
    config: AnalysisConfig = AnalysisConfig(),
) -> LtvReport:
    """Full decision pipeline; see the module docstring for the stages.

    A RationalMap gets the counterexample checks, never a classification.
    """
    if field_name not in ("real", "complex"):
        raise ValueError("field must be 'real' or 'complex'")
    if isinstance(f, RationalMap):
        return _rational_report(f, field_name, config)
    return _field_report(_exact_stages(f, config), field_name, config)


def _field_report(stages: ExactStages, field_name: str, cfg: AnalysisConfig) -> LtvReport:
    """The field's verdict from the exact stages, with its checks and flags."""
    f = stages.f
    checks: list[CheckResult] = []
    flags = dict(stages.flags)
    samples = tuple(r.value for r in stages.infinity_samples)
    failures = []
    if stages.infinity_samples:
        inf_report = stages.infinity_samples[0]
        required = f.n - inf_report.m_candidate
        necessary_failed = stages.factorization.V.dim < required
        data = {
            "value": samples[0],
            "dim_V": stages.factorization.V.dim,
            "dim_infinity": inf_report.dim_infinity,
            "m_candidate": inf_report.m_candidate,
            "required": required,
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
        if necessary_failed:
            failures.append(
                "invariance subspace smaller than the codimension of the fiber's "
                "accumulation set at infinity requires"
            )
    cone_result = stages.cone
    if cone_result is not None:
        reports = stages.infinity_samples
        data = {"values": samples}
        if cone_result.verdict == "PASS":  # every cone linear, so a subspace
            data["cone_subspace_basis"] = reports[0].cone_subspace.basis
        if cone_result.verdict == "FAIL":
            i, j = cone_result.witness
            data["witness_values"] = [samples[i], samples[j]]
            data["witness_cones"] = [_cone_data(reports[i]), _cone_data(reports[j])]
        if field_name == "real":
            data["field_caveat"] = "cones computed over C"
        checks.append(CheckResult("cone_constancy", cone_result.verdict, data))
        if cone_result.verdict == "FAIL":
            failures.append("accumulation cones at infinity differ between sampled values")

    if f.is_constant():
        # The single attained value admits no trivialization, every other
        # value has empty fibers and is trivially Lipschitz trivial.
        c0 = tuple(comp.constant_value() for comp in f.components)
        tvars = target_ring(f.p, ())
        gens = tuple(
            Polynomial.variable(tvars, i) - Polynomial.constant(tvars, c0[i])
            for i in range(f.p)
        )
        ltv = LtvDescription(
            "complement",
            reason="constant mapping: the attained value admits no trivialization",
            generators=gens,
        )
    elif field_name == "complex":
        ltv = _complex_verdict(stages, failures)
    else:
        ltv = _real_verdict(stages, failures, flags, cfg, checks)

    return LtvReport(
        field_name,
        f,
        stages.factorization,
        stages.jelonek,
        stages.critical,
        ltv,
        tuple(checks),
        flags,
        cfg.probe.seed,
    )


def _cone_data(report: InfinityReport) -> dict:
    out: dict = {"ideal": report.cone_basis.basis}
    if report.cone_subspace is not None:
        out["subspace_basis"] = report.cone_subspace.basis
    return out


def _bifurcation_ideal(jelonek: Ideal, critical: Ideal, budget: GroebnerBudget) -> Ideal:
    """Reduced generators cutting J(g) union closure K0(g) in the value space:
    K0(g) and the intersection are kept elements of an elimination's reduced
    basis, so each is its own reduced grevlex basis."""
    # K0(g) is never empty here: for m = p an empty K0(g) makes det Jg a
    # nonzero constant, and such a g that is not proper would refute the
    # Jacobian conjecture.  Either way intersect gives the same basis.
    if jelonek.has_unit_generator():
        return critical
    return intersect(jelonek, critical, budget)


def _complex_verdict(stages: ExactStages, failures: list[str]) -> LtvDescription:
    m, p = stages.factorization.m, stages.f.p
    if m != p:
        failures = failures + [
            f"reduced domain dimension m = {m} differs from the target dimension "
            f"p = {p}; no dominant factorization through K^p exists"
        ]
    elif not stages.dominant:
        failures = failures + ["the reduced mapping is not dominant"]

    if failures:
        return LtvDescription("empty", reason="; ".join(failures))

    if stages.jelonek is None or stages.critical is None:
        return LtvDescription(
            "undetermined",
            reason="exact value-space ideals unavailable (resource budget exceeded)",
        )

    bif = stages.bifurcation
    if bif is None:
        return LtvDescription(
            "undetermined",
            reason="bifurcation ideal unavailable (resource budget exceeded)",
        )
    if bif.has_unit_generator():
        # Both sets empty: complement of nothing.
        return LtvDescription("all_values")
    return LtvDescription("complement", generators=bif.generators)


def _probe_grid_real(
    p: int,
    candidates: tuple[RealCriticalValue, ...],
) -> list[tuple[float, ...]]:
    """Around the finite critical candidates when p = 1, else the rational grid."""
    roots = sorted(r.approx for r in candidates if isfinite(r.approx))
    if p == 1 and roots:
        grid = [roots[0] - 1.0]
        grid += [(a + b) / 2.0 for a, b in zip(roots, roots[1:])]
        grid += [roots[-1] + 1.0, roots[-1] + 4.0]
        return [(v,) for v in grid]
    return [tuple(float(x) for x in c) for c in rational_grid(p, 3)]


def _real_verdict(
    stages: ExactStages,
    failures: list[str],
    flags: dict,
    cfg: AnalysisConfig,
    checks: list[CheckResult],
) -> LtvDescription:
    g = stages.factorization.g
    p = stages.f.p
    critical = stages.critical
    bif = stages.bifurcation

    # Only the cone obstruction is verdict-driving over R: the invariance
    # condition uses the complex accumulation set, which can overshoot.
    if stages.cone is not None and stages.cone.verdict == "FAIL":
        return LtvDescription("empty", reason="; ".join(failures))

    candidates: tuple[RealCriticalValue, ...] = ()
    if p == 1 and critical is not None:
        candidates = tuple(real_critical_values(g, critical, cfg.probe.seed))

    exact_generators: tuple[Polynomial, ...] = ()
    note = (
        "exact critical candidates plus per-value properness verdicts; the "
        "real non-properness set is probed, not computed exactly"
    )
    if bif is not None:
        if bif.has_unit_generator():
            return LtvDescription(
                "all_values",
                note=(
                    "complex bifurcation set empty: every value is proper and "
                    "regular over C, hence Lipschitz trivial over R"
                ),
            )
        exact_generators = bif.generators
        # Proper and regular over C implies proper and regular over R, not
        # the converse: the real non-properness set can be smaller than the
        # real points of the complex one (Jelonek, Math. Z. 2002).
        note = (
            "R^p minus the real points of the complex bifurcation set of the "
            "reduced mapping is contained in the real Lipschitz trivial values; "
            "a real point of that set can be Lipschitz trivial too"
        )

    grid = _probe_grid_real(p, candidates)
    # Out of budget, a value is probed without the exact certificate.
    certify = partial(_within_budget, flags, "probe_budget", stages.certify)
    run = ProbeRun(g, reduced=True)
    table = []
    any_proper = False
    for value in grid:
        verdict = properness_probe_real(g, value, cfg.probe, certify, run=run)
        regular = not _on_locus(critical, [Fraction(x) for x in value])
        certified = verdict.mode in ("exact_complex", "exact_real") and verdict.verdict == "proper"
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

    if not exact_generators and not any_proper:
        return LtvDescription(
            "undetermined",
            reason=(
                "no value of properness could be certified or probed; the "
                "real description needs at least one Lipschitz trivial value"
            ),
            critical_candidates=candidates,
        )
    return LtvDescription(
        "real_complement",
        generators=exact_generators,
        critical_candidates=candidates,
        note=note,
    )


# -- rational input ---------------------------------------------------------------

RATIONAL_NOT_APPLICABLE = "polynomial factorization theorem not applicable (rational input)"


def _rational_report(r: RationalMap, field_name: str, cfg: AnalysisConfig) -> LtvReport:
    """The counterexample checks of a rational mapping."""
    checks: list[CheckResult] = []
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
            "ZERO" if inv.is_zero() else "NONZERO",
            {
                "dim": inv.dim,
                "basis": inv.basis,
                # The directions are the kernel of linear conditions, a subspace.
                "closed_under_addition": True,
            },
        )
    )
    grad = lipschitz_gradient_probe(
        r, tuple(0.0 for _ in range(r.p)), radii=(10.0, 1e2, 1e4, 1e6), seed=cfg.probe.seed
    )
    checks.append(CheckResult("gradient_bound", grad["verdict"], grad))

    ltv = LtvDescription("not_applicable", reason=RATIONAL_NOT_APPLICABLE)
    return LtvReport(
        field_name, r, None, None, None, ltv, tuple(checks), {}, cfg.probe.seed
    )


# -- probes shared by the report layer ---------------------------------------------


def lipschitz_gradient_probe(
    mapping: PolyMap | RationalMap,
    value: Sequence[float],
    radii: Sequence[float],
    seed: int = ProbeSchedule.seed,
) -> dict:
    """Sampled operator-norm bound of the Jacobian over near-fiber points.

    For each radius, 12 seeded sphere starts are pulled toward the fiber and
    kept when they land within 0.5 of the value; the largest singular value
    of the Jacobian is recorded there.  Growth of those suprema with the
    radius is reported as UNBOUNDED, which contradicts the Lipschitz bound a
    trivial value would impose.
    """
    check_radii(radii)
    check_value(value, mapping.p)
    if isinstance(mapping, RationalMap):
        evaluate, jacobian = mapping.evaluate_float, mapping.jacobian_float
    else:
        evaluate, jacobian = mapping.kernel.value, mapping.kernel.jacobian
    cvals = [float(x) for x in value]

    def residual(x):
        return [a - b for a, b in zip(evaluate(x), cvals)]

    def toward_fiber(x, radius):
        """At most 25 Gauss-Newton steps from a sphere start toward the fiber, in the ball."""
        for _ in range(25):
            step = _gauss_newton_step(residual(x), lambda: jacobian(x), 1e-10)
            if step is None:
                break
            x = [a - s for a, s in zip(x, step)]
            norm = _norm(x)
            if norm > radius:
                x = [a * (radius / norm) for a in x]
        return x

    per_radius = []
    sups = []
    for k, radius in enumerate(sorted(radii)):
        rng = seeded_rng(seed, 977, k)
        best_norm = None
        best_mu = float("inf")
        for _ in range(12):
            u = [rng.gauss(0.0, 1.0) for _ in range(mapping.n)]
            u_norm = _norm(u)
            if u_norm == 0.0:
                continue
            try:
                x = toward_fiber([radius * v / u_norm for v in u], radius)
                if not all(isfinite(a) for a in x):
                    continue
                mu = _norm(residual(x))
                # A sample with a non-finite Jacobian has no norm.
                norm = _largest_singular_value(jacobian(x)) if mu < 0.5 else None
            except OverflowError:
                continue  # a power overflows a float on this start's path
            best_mu = min(best_mu, mu)
            if norm is not None and (best_norm is None or norm > best_norm):
                best_norm = norm
        entry = {"radius": float(radius), "mu": best_mu, "jacobian_norm": best_norm}
        if best_norm is not None:
            sups.append(best_norm)
        per_radius.append(entry)

    kept = [s for s in sups if isfinite(s)]
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
        "value": cvals,
    }


# The tube probe's ball radii and its seeded uniform starts per ball; the step
# cap of each sphere descent of its structured starts, and the round cap of
# its alternating projections.
_TUBE_RADII = (10.0, 25.0, 50.0)
_TUBE_RESTARTS = 12
_TUBE_MAX_ITER = 150


def tube_distance_probe(
    f: PolyMap,
    c: Sequence[float],
    t: Sequence[float],
    seed: int = ProbeSchedule.seed,
) -> dict:
    """Estimate the distance between two levels inside the balls of radii
    `_TUBE_RADII`, whatever the properness probe's radii are.

    In each ball it tries `_TUBE_RESTARTS` seeded uniform start pairs, the
    closest pair found in the ball before and up to 4 near-fiber points from
    inner spheres.  Each start pair is projected onto its fibers by
    Gauss-Newton, then alternates projections between them (Lewis and
    Malick, "Alternating projections on manifolds", 2008): a round projects
    the pair's second point onto {f = c} and that point onto {f = t}, all
    inside the ball.
    A round's pair is kept only when it shortens the distance by more than
    1e-4 of it; otherwise, or after `_TUBE_MAX_ITER` rounds, the last kept
    pair stands, so a start's distance never grows.  Only endpoint pairs
    with both residuals below 1e-3 count.  A pair of levels whose distance
    decays toward zero (below 0.05) while |c - t| stays fixed violates the
    bi-Lipschitz bounds a trivialization over both values would impose and
    is flagged as a collapse.

    A scalar map's projection is one call of its kernel's compiled
    `fiber_project`, which solves each step's one equation in floats; with
    p >= 2 each step is `_gauss_newton_step`'s least-squares solve.
    """
    check_value(c, f.p)
    check_value(t, f.p)
    if list(c) == list(t):
        raise ValueError("levels must differ")
    kernel = f.kernel
    n = f.n
    cv = [float(x) for x in c]
    tv = [float(x) for x in t]

    def project_ball(z, radius):
        norm = _norm(z)
        if norm <= radius or norm == 0.0:
            return z
        return [radius * v / norm for v in z]

    def fiber_project(z, target, radius):
        """At most 12 Gauss-Newton steps toward {f = target}, kept inside the ball."""
        if f.p == 1:
            return kernel.fiber_project(z, target[0], radius, 1e-12, 12)
        for _ in range(12):
            resid = [a - b for a, b in zip(kernel.value(z), target)]
            step = _gauss_newton_step(resid, lambda: kernel.jacobian(z), 1e-12)
            if step is None:
                break
            z = project_ball([a - s for a, s in zip(z, step)], radius)
        return z

    def dist(x, y):
        return _norm([a - b for a, b in zip(x, y)])

    def residual_norms(x, y):
        return dist(kernel.value(x), cv), dist(kernel.value(y), tv)

    per_radius = []
    dists = []
    warm: list[tuple[list[float], list[float]]] = []
    for k, radius in enumerate(_TUBE_RADII):
        rng = seeded_rng(seed, 1733, k)
        best = None
        starts = list(warm)
        for _ in range(_TUBE_RESTARTS):
            x = project_ball([radius * rng.uniform(-1.0, 1.0) for _ in range(n)], radius)
            y = [v + 0.05 * radius * rng.gauss(0.0, 1.0) for v in x]
            starts.append((x, project_ball(y, radius)))
        # Structured starts: near-fiber points found on inner spheres, each
        # paired with its own projection onto the other fiber; this reaches
        # thin branches that uniform ball sampling misses.
        for frac_idx, frac in enumerate((0.5, 0.95)):
            for target in (cv, tv):
                sub_rng = seeded_rng(seed, 2741, k, frac_idx)
                _, point = _sphere_minimize(
                    kernel, target, frac * radius, sub_rng, 8, _TUBE_MAX_ITER
                )
                if all(isfinite(v) for v in point):
                    starts.append((list(point), list(point)))
        for x0, y0 in starts:
            try:
                x = fiber_project(x0, cv, radius)
                y = fiber_project(y0, tv, radius)
                d = dist(x, y)
                for _ in range(_TUBE_MAX_ITER):
                    u = fiber_project(y, cv, radius)
                    w = fiber_project(u, tv, radius)
                    e = dist(u, w)
                    if not e < d - 1e-4 * d:
                        break
                    x, y, d = u, w, e
                rx, ry = residual_norms(x, y)
            except OverflowError:
                continue  # a power overflows a float on this start's path
            if max(rx, ry) < 1e-3 and (best is None or d < best[0]):
                best = (d, list(x), list(y), max(rx, ry))
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
        and dists[-1] < 0.05
        and dists[-1] < 0.5 * finite[0]
    )
    separation = dist(cv, tv)
    return {
        "c": cv,
        "t": tv,
        "value_separation": separation,
        "per_radius": per_radius,
        "collapse": bool(collapse),
    }


# -- complexification comparison ---------------------------------------------------


def complexification_compare(
    f: PolyMap, config: AnalysisConfig = AnalysisConfig()
) -> tuple[LtvReport, LtvReport, CheckResult]:
    """Check Ltv(f_C) intersect R^p inside Ltv(f_R) on sampled rational values.

    Sampled values off the complex bifurcation set carry an exact properness
    certificate and a regularity certificate, which together witness real
    Lipschitz triviality; containment therefore holds value by value.
    """
    stages = _exact_stages(f, config)
    complex_report = _field_report(stages, "complex", config)
    real_report = _field_report(stages, "real", config)
    verdict, data = _containment(stages, complex_report.ltv)
    check = CheckResult("complexification_containment", verdict, data)
    return real_report, complex_report, check


def _containment(stages: ExactStages, ltv: LtvDescription) -> tuple[str, dict]:
    """Verdict and data of the containment check for the complex Ltv `ltv`."""
    if ltv.kind == "empty":
        return "PASS", {"detail": "complex Ltv empty; containment is vacuous", "samples": []}
    if ltv.kind not in ("complement", "all_values"):
        return "INCONCLUSIVE", {"detail": f"complex verdict is {ltv.kind}"}

    gens = ltv.generators
    critical = stages.critical

    def off_bifurcation(value: tuple[Fraction, ...]) -> bool:
        # Stay strictly inside the open complement of the bifurcation set.
        return all(q.eval_exact(list(value)) != 0 for q in gens)

    rows = []
    for value in _grid_values(stages.f.p, 3, off_bifurcation):
        proper = stages.certify(value)
        regular = not _on_locus(critical, value)
        rows.append(
            {
                "value": value,
                "complex_proper": proper.verdict,
                "regular": regular,
                "in_real_ltv": proper.verdict == "proper" and regular,
            }
        )
    verdict = "PASS" if all(row["in_real_ltv"] for row in rows) else "FAIL"
    return verdict, {"samples": rows}
