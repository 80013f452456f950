"""Minimal rational-mapping support: indeterminacy and invariance checks.

Rational maps are kept as one numerator/denominator pair per component.
These checks exist to witness that the polynomial factorization theorem has
no rational analogue; no Ltv classification is attempted for rational input.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

from .dependence import Subspace, condition_kernel
from .groebner import (
    DEFAULT_BUDGET,
    GroebnerBudget,
    Ideal,
    MonomialOrder,
    buchberger,
    dimension,
)
from .polycore import FloatKernel, Polynomial


@dataclass(frozen=True)
class RationalMap:
    """Componentwise fractions num_i/den_i over a shared ring."""

    vars: tuple[str, ...]
    numerators: tuple[Polynomial, ...]
    denominators: tuple[Polynomial, ...]
    name: str = "f"

    def __post_init__(self):
        if len(self.numerators) != len(self.denominators):
            raise ValueError("component count mismatch")
        if not self.numerators:
            raise ValueError("a mapping needs at least one component")
        for q in self.numerators + self.denominators:
            if q.vars != self.vars:
                raise ValueError("components live in different rings")
        for q in self.denominators:
            if q.is_zero():
                raise ValueError("zero denominator")

    @property
    def n(self) -> int:
        return len(self.vars)

    @property
    def p(self) -> int:
        return len(self.numerators)

    @cached_property
    def _float_kernel(self) -> FloatKernel:
        """Numerators, then denominators, and their partials, compiled once."""
        return FloatKernel(self.numerators + self.denominators)

    def evaluate_float(self, point: Sequence[float]) -> tuple[float, ...]:
        # Python floats: a power past the float range raises OverflowError, which
        # the gradient probe catches, even for a point of numpy scalars.
        vals = self._float_kernel.value([float(v) for v in point])
        p = self.p
        return tuple(vals[i] / vals[p + i] for i in range(p))

    def jacobian_float(self, point: Sequence[float]) -> list[list[float]]:
        """Quotient-rule Jacobian evaluated at a float point."""
        x = [float(v) for v in point]
        vals = self._float_kernel.value(x)
        jac = self._float_kernel.jacobian(x)
        p = self.p
        rows = []
        for i in range(p):
            nv, dv = vals[i], vals[p + i]
            rows.append(
                [(npv * dv - nv * dpv) / (dv * dv) for npv, dpv in zip(jac[i], jac[p + i])]
            )
        return rows


def is_one_plus_sum_of_squares(p: Polynomial) -> bool:
    """Syntactic certificate p = c0 + (positive coefficients) * (even monomials).

    Such a polynomial is bounded below by c0 > 0 on all of R^n, hence has no
    real zeros.  This covers denominators of the shape 1 + sum x_i^2.
    """
    constant = p.coefficient((0,) * p.nvars)
    if constant <= 0:
        return False
    for exp, coeff in p.terms:
        if sum(exp) == 0:
            continue
        if coeff <= 0 or any(k % 2 for k in exp):
            return False
    return True


@dataclass(frozen=True)
class IndeterminacyVerdict:
    per_component: tuple[dict, ...]

    @property
    def status(self) -> str:
        """PASS when every component passes, else FAIL."""
        return "PASS" if all(e["verdict"] == "PASS" for e in self.per_component) else "FAIL"


def indeterminacy_empty_check(
    r: RationalMap, budget: GroebnerBudget = DEFAULT_BUDGET
) -> IndeterminacyVerdict:
    """PASS when no component's numerator and denominator vanish together.

    The unit ideal <num, den> certifies emptiness over C (hence over R); a
    denominator of the form c0 + sum-of-squares certifies real emptiness even
    when the complex common zero set is nonempty.
    """
    details = []
    for num, den in zip(r.numerators, r.denominators):
        if den.is_constant():
            entry = {"certificate": "constant denominator", "verdict": "PASS"}
        elif is_one_plus_sum_of_squares(den):
            # den >= c0 > 0 on R^n: no real zeros at all, so no real common zeros.
            entry = {
                "certificate": "sum_of_squares",
                "detail": "denominator is a positive constant plus a sum of even squares",
                "verdict": "PASS",
            }
        elif dimension(
            gb := buchberger(Ideal.make(r.vars, [num, den]), MonomialOrder.grevlex(), budget)
        ) == -1:
            entry = {
                "certificate": "unit_ideal",
                "detail": "numerator and denominator generate the unit ideal over C",
                "verdict": "PASS",
            }
        else:
            entry = {
                "verdict": "FAIL",
                "common_zero_ideal": gb.basis,
            }
        details.append(entry)
    return IndeterminacyVerdict(tuple(details))


def rational_invariance_subspace(r: RationalMap) -> Subspace:
    """Directions v with d_v(num)*den - num*d_v(den) = 0 for every component.

    The condition is linear in v, so these directions are exactly the kernel
    of the linear conditions, a subspace.
    """
    n = r.n
    conditions = [
        [num.partial(j) * den - num * den.partial(j) for j in range(n)]
        for num, den in zip(r.numerators, r.denominators)
    ]
    return condition_kernel(conditions, n)
