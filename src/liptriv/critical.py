"""Critical values: Jacobian-minor elimination and real-root extraction.

Elimination yields the Zariski closure of the critical value set; whether a
real root of the eliminated ideal is actually attained by a real critical
point is then checked numerically by multi-start Newton on the gradient
system, since the image of the critical locus need not be closed; the starts
stop once every real root has a witness.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import isfinite, sqrt
from typing import Iterator

import numpy as np

from .groebner import (
    DEFAULT_BUDGET,
    GroebnerBudget,
    Ideal,
    eliminate,
    real_roots,
)
from .polycore import FloatKernel, PolyMap, Polynomial
from .properness import ProbeSchedule, _gauss_newton_step, target_ring


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
    minors = []
    # No p columns to choose when p > m: no minor at all.
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
    # For p > m, or when all minors vanish identically, every point is
    # critical and only the graph equations remain (Ideal.make drops zeros).
    gens += [minor.embed(ring) for minor in jacobian_minors(g)]
    projected = eliminate(Ideal.make(ring, gens), g.vars, budget)
    return Ideal.make(tvars, projected.generators)


@dataclass(frozen=True)
class RealCriticalValue:
    """An isolated real candidate critical value, with a real critical point
    attaining it when Newton found one."""

    interval: tuple[Fraction, Fraction]
    witness: tuple[float, ...] | None

    @property
    def approx(self) -> float:
        """The isolating interval's midpoint as a float."""
        return float((self.interval[0] + self.interval[1]) / 2)

    @property
    def status(self) -> str:
        """Whether Newton found a witness: "attained", else "candidate_only"."""
        return "candidate_only" if self.witness is None else "attained"


# Gradient norm and value gap below which a Newton point witnesses a critical value.
_NEWTON_TOL = 1e-8


def real_critical_values(
    g: PolyMap, crit: Ideal, seed: int = ProbeSchedule.seed
) -> list[RealCriticalValue]:
    """Real roots of the eliminated critical ideal `crit` of g, flagged by attainment.

    Requires p = 1.  A root's witness is the first Newton end point, in start
    order, whose value is within the tolerance of the root's interval; the
    search stops once every root has one, and starts only if there is a root.
    """
    if g.p != 1:
        raise ValueError("real critical value extraction needs p = 1")
    if crit.has_unit_generator():
        return []
    # The target ring is univariate, so the elimination ideal is principal;
    # the reduced basis has a single generator.
    out = [RealCriticalValue(interval, None) for interval in real_roots(crit.generators[0])]
    value_at = FloatKernel(g.components).value
    for point in _newton_critical_points(g, seed) if out else ():
        value = value_at(point)[0]
        for i, root in enumerate(out):
            lo, hi = root.interval
            if root.witness is None and abs(value - root.approx) - float(hi - lo) < _NEWTON_TOL:
                out[i] = RealCriticalValue(root.interval, tuple(point))
        if all(root.witness is not None for root in out):
            break
    return out


def _norm(v: list[float]) -> float:
    return sqrt(sum([a * a for a in v]))


def _newton_critical_points(g: PolyMap, seed: int) -> Iterator[list[float]]:
    """Multi-start Newton for the gradient system of a scalar map: yields, in
    start order, the end points whose gradient norm is below _NEWTON_TOL.

    Each step is `_gauss_newton_step` on the gradient and the Hessian; around
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
    for _ in range(200):
        x = rng.uniform(-3.0, 3.0, size=m).tolist()
        try:
            for _ in range(60):
                step = _gauss_newton_step(
                    np.array(gmap.value(x)), lambda: gmap.jacobian(x), _NEWTON_TOL * 1e-4
                )
                if step is None:
                    break
                step = step.tolist()
                x = [a - s for a, s in zip(x, step)]
                if _norm(step) < 1e-14 * (1.0 + _norm(x)):
                    break
            resid = _norm(gmap.value(x))
        except OverflowError:
            continue
        if all(isfinite(a) for a in x) and resid < _NEWTON_TOL:
            yield x
