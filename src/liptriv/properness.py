"""Non-properness analysis: exact Jelonek set over C, numeric probes over R.

The exact path closes the graph of the mapping in projective space over the
source, cuts with the hyperplane at infinity, and projects to the target;
the resulting variety is the set of values at which the complex mapping is
not proper.  Real properness at an individual value is decided exactly
when one of three certificates applies (complex properness, a coercive
component, a value of the reduced map of an unreduced scalar map), and
otherwise probed numerically by minimizing |g(x) - c| over spheres of
growing radius.

A mapping compiles once, into its `PolyMap.kernel`, a `polycore.FloatKernel`
that every probe of it shares.  One restart
of the sphere descent (gradient, tangent, Armijo backtracking with retraction
to radius R, stop tests) is a single call of its compiled `sphere_descent`;
only the seeded restarts, the merge by minimum and the stop once a
radius's mu is below `_TOL_ZERO` stay in Python.  Likewise the Gauss-Newton
steps of a scalar map toward a level are one call of its compiled
`fiber_project`.  The descent's line search starts each step at no more
than 4x the last accepted step, and a
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
from math import inf, isfinite, sqrt
from typing import Callable, Sequence

import numpy as np

from .dependence import factor_through_projection
from .groebner import (
    DEFAULT_BUDGET,
    GroebnerBudget,
    Ideal,
    MonomialOrder,
    buchberger,
    dimension,
    eliminate,
)
from .polycore import (
    FloatKernel,
    PolyMap,
    Polynomial,
    as_fraction,
    check_value,
    float_or_inf,
    fresh_name,
)


def target_ring(p: int, taken: Sequence[str], base: str = "t") -> tuple[str, ...]:
    """Names base1..basep (t1..tp for the value space), avoiding collisions
    with taken names."""
    names: list[str] = []
    pool = list(taken)
    for i in range(p):
        name = fresh_name(f"{base}{i + 1}", pool)
        names.append(name)
        pool.append(name)
    return tuple(names)


def graph_ideal(g: PolyMap) -> Ideal:
    """The graph (g_i - t_i) of g, in g.vars + target_ring(g.p, g.vars)."""
    ring = g.vars + target_ring(g.p, g.vars)
    graph = [comp.embed(ring) - Polynomial.variable(ring, g.n + i) for i, comp in enumerate(g.components)]
    return Ideal.make(ring, graph)


def jelonek_ideal(
    g: PolyMap,
    budget: GroebnerBudget = DEFAULT_BUDGET,
) -> Ideal:
    """Exact ideal, in the target coordinates, of the complex non-properness set J(g).

    Construction: one Buchberger run gives the reduced basis of the graph
    (g_i - t_i) under the elimination order of the source variables, which
    compares the x-degree first.  Homogenized in the x_i alone, that basis
    generates the closure of the graph in P^n x C^p (Cox, Little and O'Shea,
    Ideals, Varieties, and Algorithms, ch. 8 section 4, Thm 4, with the t_i
    as coefficients), so the top x-degree forms of its elements generate
    the closure's cut at infinity.  The cut is then saturated by the
    irrelevant ideal (x1, ..., xn) of the source projective space and all
    source variables are eliminated, in one elimination: for an ideal I,
    I : (x1, ..., xn)^infinity = (I + (1 - sum_j y_j*x_j)) meet Q[x, t]
    with fresh y1..yn (ibid., ch. 4), so adjoining that generator and
    eliminating the x_j and y_j leaves J(g).  Two Groebner runs in all,
    whatever n is.  A constant component c_i gives the graph equation
    t_i - c_i, its own top form, so a constant map is not proper exactly
    at its value.
    """
    graph = graph_ideal(g)
    ring = graph.vars
    closed = buchberger(graph, MonomialOrder.elimination(range(g.n)), budget)
    yvars = target_ring(g.n, ring, "y")
    cut_ring = ring + yvars
    no_y = (0,) * g.n
    cut = []
    for q in closed.basis:
        top = max(sum(e[: g.n]) for e, _ in q.terms)
        cut.append(Polynomial.from_dict(cut_ring, {e + no_y: c for e, c in q.terms if sum(e[: g.n]) == top}))
    rabinowitsch = Polynomial.constant(cut_ring, 1)
    for j in range(g.n):
        rabinowitsch -= Polynomial.variable(cut_ring, g.n + g.p + j) * Polynomial.variable(cut_ring, j)
    return eliminate(Ideal.make(cut_ring, cut + [rabinowitsch]), g.vars + yvars, budget)


def check_radii(radii: Sequence[float]) -> None:
    """Reject an empty radius list and any radius that is not finite and > 0."""
    if not radii or not all(isfinite(r) and r > 0 for r in radii):
        raise ValueError("need radii, each finite and positive")


# Seeded restarts on each sphere of the properness probe, and the step cap of
# each restart's descent.
_RESTARTS = 32
_MAX_ITER = 250
# The properness verdict's thresholds: a sphere's mu below _TOL_ZERO counts
# as small, and `proper` needs every mu at least _MU_FLOOR.
_TOL_ZERO = 1e-6
_MU_FLOOR = 1e-3


@dataclass(frozen=True)
class ProbeSchedule:
    """The settings of the float probes, one per probe flag of the CLI.

    `radii` are the sphere radii of the properness probe and `seed` seeds
    every probe.  Each sphere runs `_RESTARTS` restarts of at most
    `_MAX_ITER` descent steps, and the verdict's thresholds are `_TOL_ZERO`
    and `_MU_FLOOR`; the tube probe has its own radii and restarts.
    """

    radii: tuple[float, ...] = (10.0, 100.0, 1000.0, 10000.0)
    seed: int = 42

    def __post_init__(self):
        check_radii(self.radii)
        if list(self.radii) != sorted(self.radii) or len(set(self.radii)) != len(self.radii):
            raise ValueError("radii must be strictly increasing")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")


@dataclass(frozen=True)
class PropernessVerdict:
    mode: str  # "exact_complex" | "exact_real" | "probe_real"
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
    cvec = tuple(as_fraction(x) for x in c)

    fiber_dim = dimension(buchberger(Ideal.fiber(g, cvec), MonomialOrder.grevlex(), budget))
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
    """The minimum-norm least-squares step solving jacobian() @ step = resid
    by numpy's `lstsq`, or None to stop: |resid| < tol, a failed solve or a
    step that is not finite.  It stops before LAPACK sees a non-finite
    input, which it reports on stderr, and the norm of a finite residual
    past the float range is a quiet inf.  It serves the tube probe when
    p >= 2, the gradient probe and the Newton witness search; a scalar map's
    projections are its kernel's compiled `fiber_project`."""
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
    mu_below: float = 0.0,
) -> tuple[float, list[float]]:
    """Multi-start projected gradient descent for min |g(x)-c|^2 on |x| = R,
    returned as mu = sqrt of that minimum and its point.

    Each restart draws a seeded start on the sphere and runs one
    `kernel.sphere_descent`: backtracking Armijo line search along the sphere
    tangent, retracted by normalization.  Restarts are independent; results
    merge by minimum, and a restart whose powers overflow a float is dropped.
    The restarts stop at an exact zero, or once mu is below `mu_below`.
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
        if best_val <= 0.0 or sqrt(best_val) < mu_below:
            break
    return sqrt(best_val), best_x


def _coercive_component(g: PolyMap) -> dict | None:
    """A component h of g with |h| -> inf as |x| -> inf, as evidence, or None.

    The test: every variable x_i has a highest pure power a_i x_i^(2k_i),
    the a_i share one sign, and every other term x^e has weight
    sum_i e_i / (2k_i) < 1.  Then sign * h is at least its weighted
    principal part sum_i |a_i| x_i^(2k_i), which is positive away from 0,
    minus terms of lower weight, so it tends to +inf and every fiber of g
    is compact.  A pure power other than the highest has weight < 1 by
    construction, so only mixed terms are weighed.
    """
    for index, h in enumerate(g.components):
        top: dict[int, tuple[int, Fraction]] = {}
        mixed = []
        for exp, coeff in h.terms:
            support = [i for i, k in enumerate(exp) if k]
            if len(support) == 1:
                i = support[0]
                if exp[i] > top.get(i, (0, None))[0]:
                    top[i] = (exp[i], coeff)
            elif support:
                mixed.append(exp)
        if len(top) < g.n:
            continue
        degrees = [top[i][0] for i in range(g.n)]
        signs = {top[i][1] > 0 for i in range(g.n)}
        if any(d % 2 for d in degrees) or len(signs) != 1:
            continue
        if all(sum(Fraction(k, d) for k, d in zip(exp, degrees)) < 1 for exp in mixed):
            return {
                "certificate": "a coercive component: |f| -> inf, so every fiber is compact",
                "component": index,
                "sign": 1 if signs.pop() else -1,
                "pure_degrees": degrees,
            }
    return None


def _image_witness(f: PolyMap, value: tuple[Fraction, ...], seed: int) -> dict | None:
    """Two points where the reduced map of a scalar f = g o pi with ker pi != 0
    is <= c and >= c, evaluated exactly, as evidence, or None.

    g(R^m) is connected, so such points put c in g(R^m), and the fiber of f
    at c then contains a line along ker pi: f is not proper at c.  Each of 4
    seeded starts takes at most 60 Gauss-Newton steps (the kernel's
    `fiber_project`, with no ball) toward c - delta and toward c + delta,
    delta = 1e-3 * max(1, |c|), stopping within delta / 2 of the target;
    the end points are read as exact rationals.  The evidence gives the two
    points, the floats of g there and the exact signs of g - c.  None when
    f is reduced, p >= 2, or no start gives both sides.
    """
    if f.p != 1:
        return None
    fact = factor_through_projection(f)
    if fact.V.is_zero():
        return None
    g = fact.g
    c = value[0]
    kernel = g.kernel
    rng = np.random.default_rng((seed, 4099))
    cf = float(c)
    delta = 1e-3 * max(1.0, abs(cf))
    below = above = None
    for _ in range(4):
        start = [float(v) for v in rng.normal(size=g.n)]
        for target in (cf - delta, cf + delta):
            try:
                x = kernel.fiber_project(start, target, inf, delta / 2, 60)
            except OverflowError:
                continue  # a power overflows a float on this start's path
            if not all(isfinite(v) for v in x):
                continue
            exact = g.components[0].eval_exact([Fraction(v) for v in x])
            if exact <= c and below is None:
                below = (x, exact)
            if exact >= c and above is None:
                above = (x, exact)
        if below is not None and above is not None:
            return {
                "certificate": (
                    "g(a) <= c <= g(b) for the reduced map g: c is a value of g, "
                    "and the fiber contains a line along ker pi"
                ),
                "reduced_vars": list(g.vars),
                "points": [below[0], above[0]],
                "values": [float_or_inf(below[1]), float_or_inf(above[1])],
                "signs": [(v > c) - (v < c) for v in (below[1], above[1])],
            }
    return None


def properness_probe_real(
    g: PolyMap,
    c: Sequence[float],
    sched: ProbeSchedule = ProbeSchedule(),
    certify: Callable[[tuple[Fraction, ...]], PropernessVerdict | None] | None = None,
) -> PropernessVerdict:
    """Per-value real properness verdict with full mu(R) evidence.

    mu(R) estimates the minimum of |g(x) - c| over the sphere of radius R,
    for each R of `sched.radii`, with restarts seeded by `sched.seed`.
    Non-properness needs mu at the largest radius below `_TOL_ZERO` and
    halving over the last two steps; properness needs mu bounded below by
    `_MU_FLOOR` and non-decreasing at the end.  A radius's restarts stop at
    the first whose mu is below `_TOL_ZERO`, the verdict's own test, so no
    skipped restart could change whether that radius counts as small; its
    mu is then that restart's, an upper bound on the sphere's minimum.  A
    radius with no such restart runs them all and gives their minimum.
    Only the halving test reads a small radius's mu itself.

    A complex-properness certificate wins immediately (restricting a proper
    map to a closed subset stays proper).  `certify(value)` gives that
    certificate, or None when there is none; None means
    `certifier(g, None, DEFAULT_BUDGET)`.  Without it, two exact real
    certificates come before the spheres, in mode "exact_real": a coercive
    component (`_coercive_component`) makes g proper, and for an unreduced
    scalar map a value of its reduced map (`_image_witness`) makes it
    non-proper.
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

    coercive = _coercive_component(g)
    if coercive is not None:
        return PropernessVerdict("exact_real", "proper", coercive)
    witness = _image_witness(g, value, sched.seed)
    if witness is not None:
        return PropernessVerdict("exact_real", "non_proper", witness)

    trace = []
    mus = []
    for k, radius in enumerate(sched.radii):
        rng = np.random.default_rng((sched.seed, k))
        mu, arg = _sphere_minimize(g.kernel, cvec, radius, rng, _RESTARTS, _MAX_ITER, _TOL_ZERO)
        mus.append(mu)
        trace.append(
            {
                "radius": radius,
                "mu": mu,
                "argmin": [float(v) for v in arg],
            }
        )

    evidence = {"mu_trace": trace, "tol_zero": _TOL_ZERO, "mu_floor": _MU_FLOOR}
    if not all(np.isfinite(mus)):
        return PropernessVerdict("probe_real", "inconclusive", evidence)

    # The sphere keeps meeting the fiber (mu ~ 0 throughout: unbounded fiber)
    # or the minima decay geometrically toward an asymptotic value; either way
    # points escape to infinity with images pinned near c.
    small = [m < _TOL_ZERO for m in mus]
    halving_tail = (
        len(mus) >= 3
        and mus[-1] < mus[-2] / 2.0
        and mus[-2] < mus[-3] / 2.0
    )
    if small[-1] and (all(small[1:]) or halving_tail):
        return PropernessVerdict("probe_real", "non_proper", evidence)

    bounded_below = all(m >= _MU_FLOOR for m in mus)
    nondecreasing_tail = len(mus) >= 2 and mus[-1] >= 0.99 * mus[-2]
    if bounded_below and nondecreasing_tail:
        return PropernessVerdict("probe_real", "proper", evidence)

    return PropernessVerdict("probe_real", "inconclusive", evidence)
