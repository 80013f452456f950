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


@dataclass(frozen=True)
class CriticalIdeal:
    """Ideal in the target coordinates cutting the closure of K0(g) over C."""

    ideal: Ideal
    note: str = "closure_of_K0"


def critical_ideal(
    g: PolyMap,
    budget: GroebnerBudget = DEFAULT_BUDGET,
    tvars: tuple[str, ...] | None = None,
) -> CriticalIdeal:
    """Closure of the critical value set by eliminating the source variables.

    For p <= m the critical locus is cut by all p x p Jacobian minors; for
    p > m the differential can never be surjective, so every point is
    critical and the result is the closure of the whole image.
    """
    tvars = tvars or target_ring(g.p, g.vars)
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
    result = Ideal.make(tvars, projected.generators)
    return CriticalIdeal(result)


@dataclass(frozen=True)
class RealCriticalValue:
    """An isolated real candidate critical value with its attainment status."""

    interval: tuple[Fraction, Fraction]
    approx: float
    status: str  # "attained" | "candidate_only"
    witness: tuple[float, ...] | None
    residual: float | None


def real_critical_values(
    g: PolyMap,
    budget: GroebnerBudget = DEFAULT_BUDGET,
    newton_tol: float = 1e-8,
    restarts: int = 200,
    seed: int = 42,
    crit: CriticalIdeal | None = None,
) -> list[RealCriticalValue]:
    """Real roots of the eliminated critical ideal, flagged by attainment.

    Requires p = 1.  Attainment looks for a real critical point via
    multi-start Newton on the gradient system and accepts a witness whose
    gradient residual and value gap are both below the tolerance.
    """
    if g.p != 1:
        raise ValueError("real critical value extraction needs p = 1")
    crit = crit or critical_ideal(g, budget)
    gens = crit.ideal.generators
    if not gens or crit.ideal.has_unit_generator():
        return []
    # The target ring is univariate, so the elimination ideal is principal;
    # the reduced basis has a single generator.
    generator = gens[0]
    roots = real_roots(generator)

    witnesses = _newton_critical_points(g, restarts, seed, newton_tol)
    out = []
    for interval in roots:
        mid = (interval[0] + interval[1]) / 2
        approx = float(mid)
        status = "candidate_only"
        best_witness = None
        best_resid = None
        for point, resid in witnesses:
            value = g.components[0].eval_float(point)
            gap = abs(value - approx)
            if interval[0] != interval[1]:
                gap = max(0.0, gap - float(interval[1] - interval[0]))
            if resid < newton_tol and gap < newton_tol:
                status = "attained"
                best_witness = tuple(point)
                best_resid = resid
                break
        out.append(
            RealCriticalValue(interval, approx, status, best_witness, best_resid)
        )
    return out


def _newton_critical_points(
    g: PolyMap, restarts: int, seed: int, tol: float
) -> list[tuple[list[float], float]]:
    """Multi-start Newton for the gradient system of a scalar map."""
    m = g.n
    comp = g.components[0]
    gmap = FloatKernel([comp.partial(j) for j in range(m)])

    rng = np.random.default_rng(seed)
    found: list[tuple[list[float], float]] = []
    for _ in range(restarts):
        x = rng.uniform(-3.0, 3.0, size=m)
        for _ in range(60):
            val = np.array(gmap.value(list(x)))
            if not np.all(np.isfinite(val)):
                break
            if float(np.linalg.norm(val)) < tol * 1e-4:
                break
            jac = np.array(gmap.jacobian(list(x)))
            try:
                step, *_ = np.linalg.lstsq(jac, -val, rcond=None)
            except np.linalg.LinAlgError:
                break
            if not np.all(np.isfinite(step)):
                break
            x = x + step
            if float(np.linalg.norm(step)) < 1e-14 * (1.0 + float(np.linalg.norm(x))):
                break
        val = np.array(gmap.value(list(x)))
        resid = float(np.linalg.norm(val))
        if np.all(np.isfinite(x)) and resid < tol:
            found.append(([float(v) for v in x], resid))
    return found
