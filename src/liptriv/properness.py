"""Non-properness analysis: exact Jelonek set over C, numeric probes over R.

The exact path closes the graph of the mapping in projective space over the
source, cuts with the hyperplane at infinity, and projects to the target;
the resulting variety is the set of values at which the complex mapping is
not proper.  Real properness at an individual value is decided exactly
when one of three certificates applies (complex properness, a coercive
component, a value of the reduced map of an unreduced scalar map), and
otherwise probed numerically: mu(c, R), the distance from c to the image
of the sphere of radius R, over spheres of growing radius.

For a scalar map in m >= 2 variables the sphere is connected, so its image
is an interval [lo(R), hi(R)], and mu(c, R) is the distance from c to it
for every c at once.  A `ProbeRun` keeps that interval per sphere
(`_SphereImage`) for all the values of one probe table: seeded descents of
g and of -g find its ends, drawn only as values need them, and mu is 0.0
only where two points found bracket c in exact arithmetic
(`Polynomial.eval_at_floats`).  Otherwise, when m = 1 or p >= 2, each value
minimizes |g(x) - c|^2 on each sphere (`_sphere_minimize`).

A mapping compiles once, into its `PolyMap.kernel`, a `polycore.FloatKernel`
that every probe of it shares.  One restart of a sphere descent (gradient,
tangent, Armijo backtracking with retraction to radius R, stop tests) is a
single call of its compiled `sphere_descent` (of |g - c|^2) or
`sphere_extreme` (of g or -g); only the seeded restarts, their merge and
their early stops stay in Python.  Likewise the Gauss-Newton
steps of a scalar map toward a level are one call of its compiled
`fiber_project`.  The descent's line search starts each step at no more
than 4x the last accepted step and backtracks by quadratic interpolation,
clipped to [0.1, 0.5] times the rejected step; a restart stops with no
progress when an accepted step does not take fx below its value in
floats.  Its other exits are a non-finite gradient or tangent, a zero
tangent, a failed line search, fx <= 1e-300 (of |g - c|^2 only) and
max_iter steps.  The kernel does the same float operations in the same
order as term-by-term summation and the interpreted reference loop of its
tests, so mu, argmin and verdict are bit-identical to that loop's.

The probes run on Python floats alone, with no numpy: at n <= 3 an array
call costs more than the arithmetic, and evaluating all restarts as one
batch would change the restarts' early exit and the order of the sums.
Their seeded starts come from `seeded_rng`, a `random.Random` per key.
Every other least-squares step, of the tube probe when p >= 2, the
gradient probe and the Newton witness search, is `_gauss_newton_step`, a
minimum-norm solve by a fixed-order one-sided Jacobi SVD (`_jacobi_svd`),
which also gives the gradient probe its largest singular value.  Every
sum is added left to right, so no BLAS kernel, LAPACK build or Python
version's `sum` rounding reaches the bits.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property
from math import inf, isfinite, nan, sqrt
from sys import float_info
from typing import Callable, Sequence

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


def seeded_rng(*key) -> random.Random:
    """The random stream of one probe's starts, seeded by its key tuple: its
    items joined by spaces, so (42, 3) and (423,) differ."""
    return random.Random(" ".join(map(str, key)))


def _norm(v: Sequence[float]) -> float:
    """The Euclidean norm, its squares added left to right from 0.0; past
    the float range it is a quiet inf."""
    total = 0.0
    for a in v:
        total += a * a
    return sqrt(total)


_EPS = float_info.epsilon
# Sweeps of `_jacobi_svd` before it gives up; n <= 3 takes a handful.
_SWEEPS = 30


def _jacobi_svd(rows: Sequence[Sequence[float]]):
    """One-sided Jacobi SVD (Hestenes; Demmel and Veselic, SIAM J. Matrix
    Anal. Appl. 1992) of a matrix A given by its rows, as (scale, triples),
    or None when A is not finite or `_SWEEPS` sweeps leave it unconverged.

    A is first divided by scale, its largest |entry|, as `fiber_project`
    divides its row, so no square of an entry overflows and the largest
    singular value of A / scale is in [1, sqrt(rows * cols)].  The rotations
    run on the columns of A / scale, or on its rows when it has fewer rows
    than columns, so they pair the fewer vectors.  Each sweep visits the
    pairs (i, j), i < j, in order and rotates a pair whose dot product is
    above eps times the product of their norms; a pair with a zero vector
    is skipped.  The result is one triple (x_j, r_j, sigma_j) per vector:
    A / scale is the sum of r_j x_j^T, each family orthogonal, one vector
    of each triple of norm 1 and the other of norm sigma_j, so the
    pseudo-inverse of A / scale is the sum of x_j r_j^T / sigma_j^2.  A zero
    matrix gives (0.0, []).
    """
    flat = [v for row in rows for v in row]
    if not all(map(isfinite, flat)):
        return None
    scale = max(map(abs, flat))
    if scale == 0.0:
        return 0.0, []
    wide = len(rows) < len(rows[0])
    if wide:
        vecs = [[v / scale for v in row] for row in rows]
    else:
        vecs = [[row[j] / scale for row in rows] for j in range(len(rows[0]))]
    k = len(vecs)
    rot = [[float(i == j) for i in range(k)] for j in range(k)]
    pairs = [(i, j) for i in range(k - 1) for j in range(i + 1, k)]
    for _ in range(_SWEEPS):
        rotated = False
        for i, j in pairs:
            a, b = vecs[i], vecs[j]
            alpha = beta = gamma = 0.0
            for x, y in zip(a, b):
                alpha += x * x
                beta += y * y
                gamma += x * y
            if alpha == 0.0 or beta == 0.0 or abs(gamma) <= _EPS * sqrt(alpha) * sqrt(beta):
                continue
            rotated = True
            zeta = (beta - alpha) / (2.0 * gamma)
            if abs(zeta) > 1e150:
                t = 0.5 / zeta  # zeta^2 would overflow
            else:
                t = (1.0 if zeta >= 0.0 else -1.0) / (abs(zeta) + sqrt(1.0 + zeta * zeta))
            c = 1.0 / sqrt(1.0 + t * t)
            s = c * t
            vecs[i] = [c * x - s * y for x, y in zip(a, b)]
            vecs[j] = [s * x + c * y for x, y in zip(a, b)]
            a, b = rot[i], rot[j]
            rot[i] = [c * x - s * y for x, y in zip(a, b)]
            rot[j] = [s * x + c * y for x, y in zip(a, b)]
        if not rotated:
            # On the columns A / scale is the sum of vecs_j rot_j^T, on the
            # rows the sum of rot_j vecs_j^T.
            triples = zip(vecs, rot, map(_norm, vecs)) if wide else zip(rot, vecs, map(_norm, vecs))
            return scale, list(triples)
    return None


def _largest_singular_value(rows: Sequence[Sequence[float]]) -> float | None:
    """The largest singular value of a matrix, by `_jacobi_svd`, or None
    where that gives none."""
    svd = _jacobi_svd(rows)
    if svd is None:
        return None
    scale, triples = svd
    return scale * max((sigma for _, _, sigma in triples), default=0.0)


def _gauss_newton_step(resid: Sequence[float], jacobian: Callable[[], list], tol: float):
    """The minimum-norm least-squares step solving jacobian() @ step = resid,
    as a list, or None to stop: a non-finite residual, |resid| < tol, a
    non-finite Jacobian, an unconverged SVD or a step that is not finite.

    It is numpy's `lstsq` with its default cutoff, in Python floats: by
    `_jacobi_svd`, a singular value at most eps * max(rows, cols) * sigma_max
    counts as zero, and the step is the sum of x_j (r_j . resid) / sigma_j^2
    over the others, divided by the scale.  A zero Jacobian gives the zero
    step.  It serves the tube probe when p >= 2, the gradient probe and the
    Newton witness search; a scalar map's projections are its kernel's
    compiled `fiber_project`."""
    if not all(map(isfinite, resid)) or _norm(resid) < tol:
        return None
    jac = jacobian()
    svd = _jacobi_svd(jac)
    if svd is None:
        return None
    scale, triples = svd
    cutoff = _EPS * max(len(jac), len(jac[0])) * max((sigma for _, _, sigma in triples), default=0.0)
    step = [0.0] * len(jac[0])
    for x, r, sigma in triples:
        if sigma > cutoff:
            coef = 0.0
            for a, b in zip(r, resid):
                coef += a * b
            coef = coef / sigma / sigma / scale
            step = [a + coef * b for a, b in zip(step, x)]
    return step if all(map(isfinite, step)) else None


def _sphere_minimize(
    kernel: FloatKernel,
    c: Sequence[float],
    radius: float,
    rng: random.Random,
    restarts: int,
    max_iter: int,
    mu_below: float = 0.0,
) -> tuple[float, list[float]]:
    """Multi-start projected gradient descent for min |g(x)-c|^2 on |x| = R,
    returned as mu = sqrt of that minimum and its point.

    Each restart draws a seeded start on the sphere and runs one
    `kernel.sphere_descent`: an Armijo line search along the sphere tangent
    that backtracks by clipped quadratic interpolation, retracted by
    normalization, until a step no longer lowers |g(x)-c|^2 in floats.
    Restarts are independent; results merge by minimum, and a restart whose
    powers overflow a float is dropped.  The restarts stop at an exact zero,
    or once mu is below `mu_below`.
    """
    n = kernel.n
    cvals = [float(v) for v in c]
    sphere_descent = kernel.sphere_descent
    best_val = float("inf")
    best_x = [float("nan")] * n
    for _ in range(restarts):
        u = [rng.gauss(0.0, 1.0) for _ in range(n)]
        norm = _norm(u)
        if norm == 0.0:
            continue
        try:
            fx, x = sphere_descent([radius * v / norm for v in u], radius, cvals, max_iter)
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


def _image_witness(g: PolyMap, value: tuple[Fraction, ...], seed: int) -> dict | None:
    """Two points where g, the reduced map of a scalar f = g o pi with
    ker pi != 0, is <= c and >= c, evaluated exactly, as evidence, or None.

    g(R^m) is connected, so such points put c in g(R^m), and the fiber of f
    at c then contains a line along ker pi: f is not proper at c.  Each of 4
    seeded starts takes at most 60 Gauss-Newton steps (the kernel's
    `fiber_project`, with no ball) toward c - delta and toward c + delta,
    delta = 1e-3 * max(1, |c|), stopping within delta / 2 of the target;
    the end points are read as exact rationals.  The evidence gives the two
    points, the floats of g there and the exact signs of g - c.  None when
    no start gives both sides.
    """
    c = value[0]
    kernel = g.kernel
    rng = seeded_rng(seed, 4099)
    cf = float(c)
    delta = 1e-3 * max(1.0, abs(cf))
    below = above = None
    for _ in range(4):
        start = [rng.gauss(0.0, 1.0) for _ in range(g.n)]
        for target in (cf - delta, cf + delta):
            try:
                x = kernel.fiber_project(start, target, inf, delta / 2, 60)
            except OverflowError:
                continue  # a power overflows a float on this start's path
            if not all(isfinite(v) for v in x):
                continue
            exact = g.components[0].eval_at_floats(x)
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


class _Point:
    """A point of a sphere, the float of g there from the compiled kernel,
    and the exact value once some value has needed it."""

    __slots__ = ("x", "value", "exact")

    def __init__(self, x: list[float], value: float):
        self.x, self.value, self.exact = x, value, None


class _SphereImage:
    """The image of a scalar map g in m >= 2 variables on the sphere S_R, as
    far as its restarts have found it.

    S_R is connected, so g(S_R) is an interval [lo, hi], and mu(c, R) is
    the distance from c to it for every value c at once.  Two sides find
    the interval: the low side descends g and the high side -g, each with
    at most `_RESTARTS` restarts of `kernel.sphere_extreme` (at most
    `_MAX_ITER` steps) from starts on its own seeded stream.  A restart
    gives two points of S_R, its start and the end of its descent.  For a
    value c each side reads its points in order, start then end, and stops
    at the first that reaches c (g <= c low, g >= c high), so a start that
    already reaches c is not descended.  Points are drawn and descended
    only when a value reads them, and kept for the next value; what one
    value reads does not depend on the values read before it.
    """

    def __init__(self, g: PolyMap, radius: float, seed: int, k: int):
        self.poly, self.kernel, self.radius = g.components[0], g.kernel, radius
        self.sides = [(sign, seeded_rng(seed, k, sign), []) for sign in (1, -1)]

    def _exact(self, point: _Point) -> Fraction:
        if point.exact is None:
            point.exact = self.poly.eval_at_floats(point.x)
        return point.exact

    def _points(self, sign: int, rng: random.Random, kept: list):
        """The side's points in order, each restart's start and then its end,
        drawn and descended on first read.  A restart whose draw is zero or
        whose powers overflow a float gives no point, and neither does a
        point where g is not finite in floats."""
        for index in range(2 * _RESTARTS):
            if index == len(kept):
                kept.append(self._start(rng, sign) if index % 2 == 0 else self._end(kept[-1], sign))
            if kept[index] is not None:
                yield kept[index]

    def _start(self, rng: random.Random, sign: int) -> _Point | None:
        """A seeded start on the sphere, g there read off a descent of 0
        steps, so that the probe compiles no other kernel function."""
        u = [rng.gauss(0.0, 1.0) for _ in range(self.kernel.n)]
        norm = _norm(u)
        if norm == 0.0:
            return None
        x = [self.radius * v / norm for v in u]
        return self._point(x, sign, 0)

    def _end(self, start: _Point | None, sign: int) -> _Point | None:
        return None if start is None else self._point(start.x, sign, _MAX_ITER)

    def _point(self, x: list[float], sign: int, max_iter: int) -> _Point | None:
        """The end of at most max_iter steps of `sphere_extreme` from x."""
        try:
            fx, x = self.kernel.sphere_extreme(x, self.radius, sign, max_iter)
        except OverflowError:
            return None  # a power overflows a float on this restart's path
        if not (isfinite(fx) and all(isfinite(v) for v in x)):
            return None
        return _Point(x, sign * fx)

    def _reaches(self, point: _Point, sign: int, c: float, cv: Fraction, checked: dict) -> bool:
        """g <= c at the point for the low side (sign 1), g >= c for the high
        side (sign -1), in exact arithmetic; the float is trusted only when
        it says no.  A point checked goes into `checked`, with its exact
        value, and `cv` is c as a `Fraction`."""
        if sign * point.value > sign * c:
            return False
        exact = checked[point] = self._exact(point)
        return exact <= cv if sign > 0 else exact >= cv

    def distance(self, c: float) -> tuple[float, list[float]]:
        """mu(c, R) and its point.

        mu is 0.0 only on an exact bracket: two points that the sides read
        for c with g(a) <= c <= g(b) in exact arithmetic, as when both
        sides reach c; the point is the one of the two nearer c in floats.
        Otherwise mu is the float distance from c to the interval that the
        points' values span, and the point is the end of that interval
        nearer c.  An end of that interval whose float would put c inside
        it is checked exactly and counts at its exact value.  Which points
        count exactly depends on c alone, not on what earlier values
        checked.  With no point at all mu is inf.
        """
        cv = Fraction(c)
        found, ends, checked = [], [], {}
        for sign, rng, kept in self.sides:
            for point in self._points(sign, rng, kept):
                found.append(point)
                if self._reaches(point, sign, c, cv, checked):
                    ends.append(point)
                    break
        if len(ends) == 2:
            a, b = ends
            return 0.0, (a.x if c - a.value <= b.value - c else b.x)
        if not found:
            return inf, [nan] * self.kernel.n

        def key(point: _Point) -> float:
            return float_or_inf(checked[point]) if point in checked else point.value

        def side(point: _Point) -> int:
            """The sign of g - c at the point: exact once checked, else the float's."""
            v, w = (checked[point], cv) if point in checked else (point.value, c)
            return (v > w) - (v < w)

        while True:
            lo, hi = min(found, key=key), max(found, key=key)
            if side(lo) > 0 or side(hi) < 0:
                break
            if lo in checked and hi in checked:
                return 0.0, (lo.x if c - lo.value <= hi.value - c else hi.x)
            checked[lo], checked[hi] = self._exact(lo), self._exact(hi)
        end, sign = (lo, 1) if side(lo) > 0 else (hi, -1)
        if end in checked:
            return float_or_inf(sign * (checked[end] - cv)), end.x
        return sign * (end.value - c), end.x


class ProbeRun:
    """What the real properness probes of one map g keep from value to value.

    A run serves one probe table: the classifier builds one per analysis
    and `liptriv probe` one per invocation, and a lone
    `properness_probe_real` call builds its own, so nothing outlives it.
    It reads g's coercive component and, for a scalar g, its reduced map
    once, and keeps the image of a scalar g in m >= 2 variables on each
    sphere (`_SphereImage`).  `reduced` says that g is known to be reduced,
    so no factorization is computed.
    """

    def __init__(self, g: PolyMap, reduced: bool):
        self.g = g
        self.known_reduced = reduced
        self.spheres: dict[tuple, _SphereImage] = {}

    @cached_property
    def coercive(self) -> dict | None:
        return _coercive_component(self.g)

    @cached_property
    def reduction(self) -> PolyMap | None:
        """The reduced map of an unreduced scalar g, or None."""
        if self.g.p != 1 or self.known_reduced:
            return None
        fact = factor_through_projection(self.g)
        return None if fact.V.is_zero() else fact.g

    def sphere(self, seed: int, k: int, radius: float) -> _SphereImage:
        """The image memo of the k-th radius under this seed."""
        key = (seed, k, radius)
        if key not in self.spheres:
            self.spheres[key] = _SphereImage(self.g, radius, seed, k)
        return self.spheres[key]


def properness_probe_real(
    g: PolyMap,
    c: Sequence[float],
    sched: ProbeSchedule = ProbeSchedule(),
    certify: Callable[[tuple[Fraction, ...]], PropernessVerdict | None] | None = None,
    run: ProbeRun | None = None,
) -> PropernessVerdict:
    """Per-value real properness verdict with full mu(R) evidence.

    mu(R) estimates the minimum of |g(x) - c| over the sphere of radius R,
    for each R of `sched.radii`, with restarts seeded by `sched.seed`.
    Non-properness needs mu at the largest radius below `_TOL_ZERO` and
    halving over the last two steps; properness needs mu bounded below by
    `_MU_FLOOR` and non-decreasing at the end.  For a scalar map in m >= 2
    variables mu is the distance from c to the image interval of the
    sphere that `run` keeps (`_SphereImage.distance`): 0.0 on an exact
    bracket of c, else the float distance to the interval found; each side
    of the interval stops at its first point that reaches c.  Otherwise
    (`_sphere_minimize`) a radius's restarts stop at the first whose mu is
    below `_TOL_ZERO`, and its mu is then that restart's, an upper bound on
    the sphere's minimum; a radius with no such restart runs them all and
    gives their minimum.  Either way no skipped restart could change
    whether a radius counts as small, and only the halving test reads a
    small radius's mu itself.

    A complex-properness certificate wins immediately (restricting a proper
    map to a closed subset stays proper).  `certify(value)` gives that
    certificate, or None when there is none; None means
    `certifier(g, None, DEFAULT_BUDGET)`.  Without it, two exact real
    certificates come before the spheres, in mode "exact_real": a coercive
    component (`_coercive_component`) makes g proper, and for an unreduced
    scalar map a value of its reduced map (`_image_witness`) makes it
    non-proper.  `run` is the `ProbeRun` of g that the values of one table
    share; None builds one for this call alone.
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

    if run is None:
        run = ProbeRun(g, False)
    elif run.g != g:
        raise ValueError("the probe run is of another map")
    if run.coercive is not None:
        return PropernessVerdict("exact_real", "proper", run.coercive)
    if run.reduction is not None:
        witness = _image_witness(run.reduction, value, sched.seed)
        if witness is not None:
            return PropernessVerdict("exact_real", "non_proper", witness)

    interval = g.p == 1 and g.n >= 2
    trace = []
    mus = []
    for k, radius in enumerate(sched.radii):
        if interval:
            mu, arg = run.sphere(sched.seed, k, radius).distance(cvec[0])
        else:
            rng = seeded_rng(sched.seed, k)
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
    if not all(isfinite(mu) for mu in mus):
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
