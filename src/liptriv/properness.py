"""Non-properness analysis: exact Jelonek set over C, numeric probes over R.

The exact path closes the graph of the mapping in projective space over the
source, cuts with the hyperplane at infinity, and projects to the target;
the resulting variety is the set of values at which the complex mapping is
not proper.  Real properness at individual values is probed numerically by
minimizing |g(x) - c| over spheres of growing radius.

A mapping compiles once, into its `PolyMap.kernel`, a `polycore.FloatKernel`
that every probe of it shares.  One restart
of the sphere descent (gradient, tangent, Armijo backtracking with retraction
to radius R, stop tests) is a single call of its compiled `sphere_descent`;
only the seeded restarts and the merge by minimum stay in Python.  Its line
search starts each step at no more than 4x the last accepted step, and a
restart stops as stalled when 25 accepted steps have not taken fx below
(1 - 1e-8) times its value before them; its other exits are a non-finite
gradient or tangent, a zero tangent, a failed line search, fx <= 1e-300
and max_iter steps.  The
kernel does the same float operations in the same order as term-by-term
summation and the interpreted reference loop of its tests, so mu, argmin
and verdict are bit-identical to that loop's.  It stays scalar
rather than numpy: at n <= 3 a numpy call costs more than the arithmetic,
and evaluating all restarts as one batch would change the restarts' early
exit and the order of the sums.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from math import isfinite, sqrt
from typing import Callable, Sequence

import numpy as np

from .groebner import (
    DEFAULT_BUDGET,
    GroebnerBudget,
    Ideal,
    dimension,
    eliminate,
    intersect,
    saturate,
)
from .polycore import (
    FloatKernel,
    PolyMap,
    Polynomial,
    as_fraction,
    check_value,
    fresh_name,
)


def target_ring(p: int, taken: Sequence[str] = ()) -> tuple[str, ...]:
    """Names t1..tp for the value space, avoiding collisions with taken names."""
    names: list[str] = []
    pool = list(taken)
    for i in range(p):
        name = fresh_name(f"t{i + 1}", pool)
        names.append(name)
        pool.append(name)
    return tuple(names)


def jelonek_ideal(
    g: PolyMap,
    budget: GroebnerBudget = DEFAULT_BUDGET,
) -> Ideal:
    """Exact ideal, in the target coordinates, of the complex non-properness set J(g).

    Construction: homogenize each component to its degree with x0, impose
    g_i = t_i on the affine chart via gh_i - t_i*x0^{d_i}, saturate by x0
    (closure of the graph), cut with x0 = 0, saturate by the irrelevant ideal
    of the source projective space, and eliminate all source variables.
    """
    tvars = target_ring(g.p, g.vars)
    constant_parts: list[tuple[int, Fraction]] = []
    moving: list[tuple[int, Polynomial]] = []
    for i, comp in enumerate(g.components):
        if comp.is_constant():
            constant_parts.append((i, comp.constant_value()))
        else:
            moving.append((i, comp))

    extra: list[Polynomial] = []
    for i, value in constant_parts:
        extra.append(
            Polynomial.variable(tvars, i) - Polynomial.constant(tvars, value)
        )

    if not moving:
        # Constant mapping: not proper exactly at its value (m >= 1).
        return Ideal.make(tvars, extra)

    hom_var = fresh_name("x0", g.vars + tvars)
    ring = (hom_var,) + g.vars + tvars
    x0 = Polynomial.variable(ring, 0)

    gens = []
    for i, comp in moving:
        d = comp.degree
        gh = comp.homogenize(hom_var).embed(ring)
        ti = Polynomial.variable(ring, 1 + g.n + i)
        gens.append(gh - ti * x0**d)

    graph = Ideal.make(ring, gens)
    closed = saturate(graph, x0, budget)
    at_infinity = Ideal.make(ring, list(closed.generators) + [x0])

    # Remove the irrelevant locus x1 = ... = xm = 0 of the source projective
    # space: saturate by the irrelevant ideal, i.e. intersect the saturations
    # by the individual source variables.
    cleaned: Ideal | None = None
    for j in range(g.n):
        xj = Polynomial.variable(ring, 1 + j)
        part = saturate(at_infinity, xj, budget)
        cleaned = part if cleaned is None else intersect(cleaned, part, budget)

    assert cleaned is not None
    projected = eliminate(cleaned, (hom_var,) + g.vars, budget)
    return Ideal.make(tvars, list(projected.generators) + extra)


def check_radii(radii: Sequence[float]) -> None:
    """Reject an empty radius list and any radius that is not finite and > 0."""
    if not radii or not all(isfinite(r) and r > 0 for r in radii):
        raise ValueError("need radii, each finite and positive")


@dataclass(frozen=True)
class ProbeSchedule:
    """Deterministic configuration for the sphere-minimum properness probe."""

    radii: tuple[float, ...] = (10.0, 100.0, 1000.0, 10000.0)
    restarts: int = 32
    seed: int = 42
    tol_zero: float = 1e-6
    max_iter: int = 250
    mu_floor: float = 1e-3

    def __post_init__(self):
        check_radii(self.radii)
        if list(self.radii) != sorted(self.radii) or len(set(self.radii)) != len(self.radii):
            raise ValueError("radii must be strictly increasing")
        # No descent step at all leaves each start where it was drawn.
        if self.restarts < 1 or self.max_iter < 1:
            raise ValueError("need at least one restart and one descent step")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        if not all(isfinite(t) and t > 0 for t in (self.tol_zero, self.mu_floor)):
            raise ValueError("tol_zero and mu_floor must each be finite and positive")


@dataclass(frozen=True)
class PropernessVerdict:
    mode: str  # "exact_complex" | "probe_real"
    verdict: str  # "proper" | "non_proper" | "inconclusive"
    evidence: dict


def is_proper_at_complex(
    g: PolyMap,
    c: Sequence[Fraction],
    jelonek: Callable[[], Ideal],
    budget: GroebnerBudget,
) -> PropernessVerdict:
    """Exact certificate: proper iff c misses J(g) and the fiber is finite.

    J(g) is needed only when the fiber is finite.  `jelonek` is a function
    returning it, called only then; `certifier` builds the one that
    computes and keeps it.
    """
    check_value(c, g.p)
    cvec = tuple(as_fraction(x) for x in c)

    fiber_dim = dimension(Ideal.fiber(g, cvec), budget)
    evidence: dict = {"fiber_dimension": fiber_dim}
    if fiber_dim > 0:
        # Positive-dimensional fiber: never proper at c, no need for J(g).
        return PropernessVerdict("exact_complex", "non_proper", evidence)

    ideal = jelonek()
    values = [gen.eval_exact(list(cvec)) for gen in ideal.generators]
    off_jelonek = any(v != 0 for v in values)
    evidence["jelonek_values"] = values

    return PropernessVerdict("exact_complex", "proper" if off_jelonek else "non_proper", evidence)


def certifier(
    g: PolyMap, jelonek: Ideal | None, budget: GroebnerBudget
) -> Callable[[tuple[Fraction, ...]], PropernessVerdict]:
    """is_proper_at_complex on g, once per exact value.

    J(g) is `jelonek` when given, else computed on first need and kept once
    it succeeds; a budget error is not cached, so it recurs at the same value.
    """
    ideal = (lambda: jelonek) if jelonek is not None else cache(lambda: jelonek_ideal(g, budget))
    return cache(lambda value: is_proper_at_complex(g, value, ideal, budget))


def _gauss_newton_step(resid: np.ndarray, jacobian: Callable[[], list], tol: float):
    """The least-squares step solving jacobian() @ step = resid, or None to
    stop: |resid| < tol, a failed solve or a step that is not finite.  It
    stops before LAPACK sees a non-finite input, which it reports on stderr,
    and the norm of a finite residual past the float range is a quiet inf."""
    with np.errstate(over="ignore"):
        if not np.all(np.isfinite(resid)) or float(np.linalg.norm(resid)) < tol:
            return None
    jac = np.array(jacobian())
    if not np.all(np.isfinite(jac)):
        return None
    try:
        step, *_ = np.linalg.lstsq(jac, resid, rcond=None)
    except np.linalg.LinAlgError:
        return None
    return step if np.all(np.isfinite(step)) else None


def _sphere_minimize(
    kernel: FloatKernel,
    c: Sequence[float],
    radius: float,
    rng: np.random.Generator,
    restarts: int,
    max_iter: int,
    stop_below: float = 0.0,
) -> tuple[float, list[float]]:
    """Multi-start projected gradient descent for min |g(x)-c|^2 on |x| = R.

    Each restart draws a seeded start on the sphere and runs one
    `kernel.sphere_descent`: backtracking Armijo line search along the sphere
    tangent, retracted by normalization.  Restarts are independent; results
    merge by minimum, and a restart whose powers overflow a float is dropped.
    """
    n = kernel.n
    cvals = [float(v) for v in c]
    sphere_descent = kernel.sphere_descent
    best_val = float("inf")
    best_x = [float("nan")] * n
    for _ in range(restarts):
        u = rng.normal(size=n)
        norm = float(np.linalg.norm(u))
        if norm == 0.0:
            continue
        try:
            fx, x = sphere_descent([radius * float(v) / norm for v in u], radius, cvals, max_iter)
        except OverflowError:
            continue  # a power overflows a float on this restart's path
        if fx < best_val and all(isfinite(xv) for xv in x):
            best_val = fx
            best_x = x
        if best_val <= stop_below:
            break
    return sqrt(best_val), best_x


def properness_probe_real(
    g: PolyMap,
    c: Sequence[float],
    sched: ProbeSchedule = ProbeSchedule(),
    certify: Callable[[tuple[Fraction, ...]], PropernessVerdict | None] | None = None,
) -> PropernessVerdict:
    """Per-value real properness verdict with full mu(R) evidence.

    mu(R) estimates the minimum of |g(x) - c| over the sphere of radius R.
    Non-properness needs mu at the largest radius below tol_zero and halving
    over the last two steps; properness needs mu bounded below by mu_floor
    and non-decreasing at the end.  A complex-properness certificate wins
    immediately (restricting a proper map to a closed subset stays proper).
    `certify(value)` gives that certificate, or None when there is none;
    None means `certifier(g, None, DEFAULT_BUDGET)`.
    """
    check_value(c, g.p)
    cvec = tuple(float(x) for x in c)

    # Floats are dyadic rationals, so the conversion is exact and the
    # complex certificate applies to the probed value itself.
    value = tuple(Fraction(x) for x in cvec)
    exact = (certify or certifier(g, None, DEFAULT_BUDGET))(value)
    if exact is not None and exact.verdict == "proper":
        evidence = dict(exact.evidence)
        evidence["certificate"] = "complex properness restricts to the reals"
        return PropernessVerdict("exact_complex", "proper", evidence)

    trace = []
    mus = []
    stop_below = (sched.tol_zero * 1e-3) ** 2
    for k, radius in enumerate(sched.radii):
        rng = np.random.default_rng((sched.seed, k))
        mu, arg = _sphere_minimize(
            g.kernel, cvec, radius, rng, sched.restarts, sched.max_iter, stop_below
        )
        mus.append(mu)
        trace.append(
            {
                "radius": radius,
                "mu": mu,
                "argmin": [float(v) for v in arg],
            }
        )

    evidence = {"mu_trace": trace, "tol_zero": sched.tol_zero, "mu_floor": sched.mu_floor}
    if not all(np.isfinite(mus)):
        return PropernessVerdict("probe_real", "inconclusive", evidence)

    # The sphere keeps meeting the fiber (mu ~ 0 throughout: unbounded fiber)
    # or the minima decay geometrically toward an asymptotic value; either way
    # points escape to infinity with images pinned near c.
    small = [m < sched.tol_zero for m in mus]
    halving_tail = (
        len(mus) >= 3
        and mus[-1] < mus[-2] / 2.0
        and mus[-2] < mus[-3] / 2.0
    )
    if small[-1] and (all(small[1:]) or halving_tail):
        return PropernessVerdict("probe_real", "non_proper", evidence)

    bounded_below = all(m >= sched.mu_floor for m in mus)
    nondecreasing_tail = len(mus) >= 2 and mus[-1] >= 0.99 * mus[-2]
    if bounded_below and nondecreasing_tail:
        return PropernessVerdict("probe_real", "proper", evidence)

    return PropernessVerdict("probe_real", "inconclusive", evidence)
