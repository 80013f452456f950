"""Critical values: Jacobian-minor elimination and real-root extraction.

Elimination yields the Zariski closure of the critical value set; whether a
real root of the eliminated ideal is actually attained by a real critical
point is then checked numerically by multi-start Newton on the gradient
system, since the image of the critical locus need not be closed.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import isfinite, sqrt

import numpy as np

from .groebner import (
    DEFAULT_BUDGET,
    GroebnerBudget,
    Ideal,
    eliminate,
    real_roots,
)
from .polycore import FloatKernel, PolyMap, Polynomial
from .properness import target_ring


def jacobian(g: PolyMap) -> tuple[tuple[Polynomial, ...], ...]:
    """p x m matrix of partial derivatives of the components."""
    return tuple(
        tuple(comp.partial(j) for j in range(g.n)) for comp in g.components
    )


def _poly_det(rows: list[list[Polynomial]]) -> Polynomial:
    """Determinant of a small polynomial matrix by cofactor expansion."""
    k = len(rows)
    if k == 1:
        return rows[0][0]
    if k == 2:
        return rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]
    vars_ = rows[0][0].vars
    acc = Polynomial.zero(vars_)
    for j in range(k):
        minor = [[rows[i][col] for col in range(k) if col != j] for i in range(1, k)]
        term = rows[0][j] * _poly_det(minor)
        acc = acc + term if j % 2 == 0 else acc - term
    return acc


def jacobian_minors(g: PolyMap) -> list[Polynomial]:
    """All p x p minors of the Jacobian (complete enumeration, no sampling)."""
    jac = jacobian(g)
    p, m = g.p, g.n
    if p > m:
        return []
    minors = []
    for cols in combinations(range(m), p):
        rows = [[jac[i][j] for j in cols] for i in range(p)]
        minors.append(_poly_det(rows))
    return minors


def critical_ideal(
    g: PolyMap,
    budget: GroebnerBudget = DEFAULT_BUDGET,
) -> Ideal:
    """Closure of the critical value set K0(g) by eliminating the source variables.

    The result is an ideal in the target coordinates.  For p <= m the
    critical locus is cut by all p x p Jacobian minors; for p > m the
    differential can never be surjective, so every point is critical and the
    result is the closure of the whole image.
    """
    tvars = target_ring(g.p, g.vars)
    ring = g.vars + tvars
    gens = []
    for i, comp in enumerate(g.components):
        ti = Polynomial.variable(ring, g.n + i)
        gens.append(comp.embed(ring) - ti)
    if g.p <= g.n:
        # When all minors vanish identically every point is critical and
        # only the graph equations remain.
        for minor in jacobian_minors(g):
            if not minor.is_zero():
                gens.append(minor.embed(ring))
    projected = eliminate(Ideal.make(ring, gens), g.vars, budget)
    return Ideal.make(tvars, projected.generators)


@dataclass(frozen=True)
class RealCriticalValue:
    """An isolated real candidate critical value with its attainment status."""

    interval: tuple[Fraction, Fraction]
    approx: float
    status: str  # "attained" | "candidate_only"
    witness: tuple[float, ...] | None
    residual: float | None


# Residual and value gap below which a Newton point witnesses a critical value.
_NEWTON_TOL = 1e-8


def real_critical_values(
    g: PolyMap,
    budget: GroebnerBudget = DEFAULT_BUDGET,
    seed: int = 42,
    crit: Ideal | None = None,
) -> list[RealCriticalValue]:
    """Real roots of the eliminated critical ideal, flagged by attainment.

    Requires p = 1.  Attainment looks for a real critical point via
    200-start Newton on the gradient system and accepts a witness whose
    gradient residual and value gap are both below the tolerance.
    """
    if g.p != 1:
        raise ValueError("real critical value extraction needs p = 1")
    crit = crit or critical_ideal(g, budget)
    gens = crit.generators
    if not gens or crit.has_unit_generator():
        return []
    # The target ring is univariate, so the elimination ideal is principal;
    # the reduced basis has a single generator.
    generator = gens[0]
    roots = real_roots(generator)

    witnesses = _newton_critical_points(g, seed)
    value_at = FloatKernel(g.components).value
    out = []
    for interval in roots:
        mid = (interval[0] + interval[1]) / 2
        approx = float(mid)
        status = "candidate_only"
        best_witness = None
        best_resid = None
        for point, resid in witnesses:
            value = value_at(point)[0]
            gap = abs(value - approx)
            if interval[0] != interval[1]:
                gap = max(0.0, gap - float(interval[1] - interval[0]))
            if resid < _NEWTON_TOL and gap < _NEWTON_TOL:
                status = "attained"
                best_witness = tuple(point)
                best_resid = resid
                break
        out.append(
            RealCriticalValue(interval, approx, status, best_witness, best_resid)
        )
    return out


def _norm(v: list[float]) -> float:
    return sqrt(sum([a * a for a in v]))


def _newton_critical_points(
    g: PolyMap, seed: int
) -> list[tuple[list[float], float]]:
    """Multi-start Newton for the gradient system of a scalar map.

    Each step is numpy's least-squares solve of J(x) s = -grad(x); around
    it the loop runs on Python floats, since the map has at most a few
    variables.  The least-squares solve takes the minimum-norm step where
    the Hessian is singular (everywhere for `-2*x^2` in Q[x,y,z], on the
    line x = 0 for `x^2*y`), where an elimination step would stop.  A start
    whose powers overflow a float is dropped.
    """
    m = g.n
    comp = g.components[0]
    gmap = FloatKernel([comp.partial(j) for j in range(m)])

    rng = np.random.default_rng(seed)
    found: list[tuple[list[float], float]] = []
    for _ in range(200):
        x = rng.uniform(-3.0, 3.0, size=m).tolist()
        try:
            for _ in range(60):
                val = gmap.value(x)
                if not all(isfinite(v) for v in val) or _norm(val) < _NEWTON_TOL * 1e-4:
                    break
                try:
                    step = np.linalg.lstsq(gmap.jacobian(x), [-v for v in val], rcond=None)[0].tolist()
                except (OverflowError, np.linalg.LinAlgError):
                    break
                if not all(isfinite(s) for s in step):
                    break
                x = [a + s for a, s in zip(x, step)]
                if _norm(step) < 1e-14 * (1.0 + _norm(x)):
                    break
            resid = _norm(gmap.value(x))
        except OverflowError:
            continue
        if all(isfinite(a) for a in x) and resid < _NEWTON_TOL:
            found.append((x, resid))
    return found
