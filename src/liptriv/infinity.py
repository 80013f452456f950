"""Accumulation set at infinity of a fiber, its dimension, and its cone.

The fiber f^{-1}(c) is closed up in projective space by homogenizing the
equations f_i - c_i and saturating by the homogenization variable; cutting
with that variable gives the part at infinity.  All computations here are
Zariski (over the algebraic closure); for real input the true real
accumulation set can be strictly smaller, which callers must flag.

One Groebner basis answers every question about the part at infinity.  Its
ideal is J + (x0), where J, the cone ideal, cuts the closure's generators at
x0 = 0, so no generator of J involves x0.  The reduced grevlex basis of
J + (x0) is therefore J's reduced grevlex basis plus x0, and its variety
{0} x V(J) has the dimension of V(J).  The dimension at infinity, the cone
and its linearity are all read off J's basis.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .dependence import Subspace
from .groebner import (
    DEFAULT_BUDGET,
    GroebnerBasis,
    GroebnerBudget,
    Ideal,
    MonomialOrder,
    buchberger,
    saturate,
)
from .polycore import PolyMap, Polynomial, as_fraction, check_value, fresh_name, kernel_basis


@dataclass(frozen=True)
class InfinityReport:
    """Projective data of one fiber: closure, part at infinity, cone."""

    value: tuple[Fraction, ...]
    closure_ideal: Ideal  # homogeneous, saturated with respect to the prepended x0
    dim_infinity: int  # projective dimension of the fiber at infinity
    m_candidate: int  # n - 1 - dim_infinity
    cone_ideal: Ideal  # in the affine variables, cuts the cone over infinity
    cone_basis: tuple[Polynomial, ...]  # reduced grevlex basis of cone_ideal
    cone_is_linear: bool
    cone_subspace: Subspace | None


def fiber_infinity(
    f: PolyMap,
    c: Sequence[Fraction],
    budget: GroebnerBudget = DEFAULT_BUDGET,
) -> InfinityReport:
    """Projective closure of the fiber over c and its part at infinity.

    dim_infinity follows the convention dim(empty) = -1: the dimension of the
    cone drops by one, clamped at -1 when the cone is a point or empty.  The
    cone ideal's reduced grevlex basis is the one Groebner basis computed
    after the saturation: the infinity ideal closure + (x0) has that basis
    plus x0 and the same dimension (see the module docstring), so it is
    never built.  A budget therefore runs out, or does not, on the cone's
    basis, which lacks the element x0.
    """
    check_value(c, f.p)
    cvec = tuple(as_fraction(x) for x in c)
    hom_var = fresh_name("x0", f.vars)
    hom_vars = (hom_var,) + f.vars

    hom_gens = []
    for comp, ci in zip(f.components, cvec):
        shifted = comp - ci
        if shifted.is_zero():
            # Component identically equal to c_i: the fiber condition is vacuous.
            continue
        hom_gens.append(shifted.homogenize(hom_var))

    x0 = Polynomial.variable(hom_vars, 0)
    # With no equations left the closure is the zero ideal, which saturate keeps.
    closure = saturate(Ideal.make(hom_vars, hom_gens), x0, budget)

    cone_ideal = _cone_ideal(closure, f.vars)
    cone_basis = buchberger(cone_ideal, MonomialOrder.grevlex(), budget)
    dim_cone = cone_basis.dimension()
    dim_inf = max(dim_cone - 1, -1)
    m_candidate = f.n - 1 - dim_inf
    linear, subspace = _linearity(cone_basis, dim_cone)

    return InfinityReport(
        value=cvec,
        closure_ideal=closure,
        dim_infinity=dim_inf,
        m_candidate=m_candidate,
        cone_ideal=cone_ideal,
        cone_basis=cone_basis.basis,
        cone_is_linear=linear,
        cone_subspace=subspace,
    )


def _cone_ideal(closure: Ideal, affine_vars: tuple[str, ...]) -> Ideal:
    """Set the homogenization variable x0, the first, to zero: keep the terms free of it."""
    cuts = [
        Polynomial.from_dict(affine_vars, {e[1:]: c for e, c in g.terms if not e[0]})
        for g in closure.generators
    ]
    return Ideal.make(affine_vars, cuts)


def _linearity(gb: GroebnerBasis, dim_cone: int) -> tuple[bool, Subspace | None]:
    """Decide whether the cone is a linear subspace; if so return it.

    `gb` is the cone ideal's reduced grevlex basis and `dim_cone` is
    `gb.dimension()`.  The cone over the empty set is the null subspace.
    Otherwise the cone is linear exactly when every basis element is a
    linear form, and it is then their common kernel (all of K^n with no
    generators).  A reduced element that is not a linear form is in normal
    form with respect to the linear forms, so it lies outside their ideal,
    the ideal of that kernel.
    """
    n = len(gb.vars)
    if dim_cone <= 0:
        # The cone is at most the origin.
        return True, Subspace.zero(n)
    if any(sum(e) != 1 for g in gb.basis for e, _ in g.terms):
        return False, None
    units = [tuple(int(i == j) for i in range(n)) for j in range(n)]
    rows = [[g.coefficient(e) for e in units] for g in gb.basis]
    return True, Subspace.from_vectors(n, kernel_basis(rows, n))


@dataclass(frozen=True)
class ConeConstancyResult:
    """Outcome of comparing fiber cones across sampled values."""

    verdict: str  # "PASS" | "FAIL" | "CONSTANT_NOT_LINEAR"
    reports: tuple[InfinityReport, ...]
    witness: tuple[int, int] | None = None  # indices of the first differing pair

    @property
    def subspace(self) -> Subspace | None:
        if self.verdict == "PASS":
            return self.reports[0].cone_subspace
        return None


def cone_constancy_check(
    f: PolyMap,
    samples: Sequence[Sequence[Fraction]],
    budget: GroebnerBudget = DEFAULT_BUDGET,
) -> ConeConstancyResult:
    """PASS when every sampled cone is the same linear subspace.

    Cones are compared as reduced Groebner bases of their ideals, so two
    differing non-linear cones also FAIL; constant but non-linear cones get
    their own verdict since linearity over the reals may still hold.
    """
    if len(samples) < 2:
        raise ValueError("need at least two sample values")
    reports = tuple(fiber_infinity(f, c, budget) for c in samples)
    for i in range(1, len(reports)):
        if reports[i].cone_basis != reports[0].cone_basis:
            return ConeConstancyResult("FAIL", reports, (0, i))
    if all(r.cone_is_linear for r in reports):
        return ConeConstancyResult("PASS", reports)
    return ConeConstancyResult("CONSTANT_NOT_LINEAR", reports)
