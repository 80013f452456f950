"""Accumulation set at infinity of a fiber, its dimension, and its cone.

The fiber f^{-1}(c) is closed up in projective space by homogenizing a
grevlex basis of its ideal (f_i - c_i), which generates the closure since
grevlex is graded; cutting with x0 gives the part at infinity.  All
computations here are Zariski (over the algebraic closure); for real input
the true real accumulation set can be strictly smaller, which callers must
flag.

One Groebner basis answers every question about the part at infinity.  Its
ideal is J + (x0), where J, the cone ideal, cuts the closure's generators at
x0 = 0, so no generator of J involves x0.  The reduced grevlex basis of
J + (x0) is therefore J's reduced grevlex basis plus x0, and its variety
{0} x V(J) has the dimension of V(J).  The dimension at infinity, the cone
and its linearity are all read off J's basis.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
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
    dimension,
)
from .polycore import as_fraction, fresh_name, kernel_basis


@dataclass(frozen=True)
class InfinityReport:
    """Projective data of one fiber: the closure and the cone's basis, which
    the budgeted runs give, and what is read off them."""

    value: tuple[Fraction, ...]
    closure_ideal: Ideal  # homogeneous, saturated with respect to the prepended x0
    cone_basis: GroebnerBasis  # reduced grevlex basis of cone_ideal

    @property
    def cone_ideal(self) -> Ideal:
        """In the affine variables, cuts the cone over infinity."""
        return _cone_ideal(self.closure_ideal)

    @cached_property
    def dim_infinity(self) -> int:
        """Projective dimension of the fiber at infinity; -1 when it is empty."""
        # The cone's dimension less one, clamped at -1 for a point or no cone.
        return max(dimension(self.cone_basis) - 1, -1)

    @cached_property
    def cone_subspace(self) -> Subspace | None:
        """The cone, when it is a linear subspace."""
        return _linearity(self.cone_basis)

    @property
    def m_candidate(self) -> int:
        """The paper's m as this fiber suggests it: the codimension n - 1 -
        dim_infinity of the accumulation set at infinity."""
        return len(self.cone_basis.vars) - 1 - self.dim_infinity


def fiber_infinity(
    fiber: GroebnerBasis,
    c: Sequence[Fraction],
    budget: GroebnerBudget = DEFAULT_BUDGET,
) -> InfinityReport:
    """Projective closure of the fiber over c and its part at infinity.

    `fiber` is the reduced grevlex basis of the fiber ideal (`Ideal.fiber`).
    Homogenized, it generates the closure (f - c)^h : x0^infinity (Cox,
    Little and O'Shea, Ideals, Varieties, and Algorithms, ch. 8 section 4,
    Thm 4), whose reduced grevlex basis one Buchberger run gives.  The cone
    ideal's basis is the one other run: the infinity ideal closure + (x0)
    has that basis plus x0 and the same dimension (see the module
    docstring), so it is never built, and a budget runs out, or does not,
    on the cone's basis, which lacks x0.
    """
    grevlex = MonomialOrder.grevlex()
    if fiber.order != grevlex:
        raise ValueError("the fiber's basis must be a grevlex basis")
    hom_var = fresh_name("x0", fiber.vars)
    hom_vars = (hom_var,) + fiber.vars
    hom_gens = tuple(q.homogenize(hom_var) for q in fiber.basis)
    closure = Ideal(hom_vars, buchberger(Ideal(hom_vars, hom_gens), grevlex, budget).basis)
    cone_basis = buchberger(_cone_ideal(closure), grevlex, budget)
    return InfinityReport(tuple(as_fraction(x) for x in c), closure, cone_basis)


def _cone_ideal(closure: Ideal) -> Ideal:
    """The closure cut at x0 = 0, x0 being the first variable, in the affine
    variables; Ideal.make drops a generator that was a multiple of x0."""
    return Ideal.make(closure.vars[1:], [q.drop_vars([0]) for q in closure.generators])


def _linearity(gb: GroebnerBasis) -> Subspace | None:
    """The cone as a linear subspace, or None when it is not one.

    `gb` is the cone ideal's reduced grevlex basis.  The cone over the empty
    set is the null subspace.  Otherwise the cone is linear exactly when
    every basis element is a linear form, and it is then their common kernel
    (all of K^n with no generators).  A reduced element that is not a linear
    form is in normal form with respect to the linear forms, so it lies
    outside their ideal, the ideal of that kernel.
    """
    n = len(gb.vars)
    if dimension(gb) <= 0:
        # The cone is at most the origin.
        return Subspace.zero(n)
    if any(sum(e) != 1 for g in gb.basis for e, _ in g.terms):
        return None
    units = [tuple(int(i == j) for i in range(n)) for j in range(n)]
    rows = [[g.coefficient(e) for e in units] for g in gb.basis]
    return Subspace.from_vectors(n, kernel_basis(rows, n))


@dataclass(frozen=True)
class ConeConstancyResult:
    """Outcome of comparing fiber cones across sampled values."""

    verdict: str  # "PASS" | "FAIL" | "CONSTANT_NOT_LINEAR"
    witness: tuple[int, int] | None = None  # indices of the first differing pair


def cone_constancy_check(reports: Sequence[InfinityReport]) -> ConeConstancyResult:
    """PASS when the cones of all reports are the same linear subspace.

    `reports` holds one `fiber_infinity` report per sampled value, and the
    witness indexes into it.  Cones are compared as reduced Groebner bases
    of their ideals, so two differing non-linear cones also FAIL; constant
    but non-linear cones get their own verdict since linearity over the
    reals may still hold.
    """
    for i in range(1, len(reports)):
        if reports[i].cone_basis != reports[0].cone_basis:
            return ConeConstancyResult("FAIL", (0, i))
    if all(r.cone_subspace is not None for r in reports):
        return ConeConstancyResult("PASS")
    return ConeConstancyResult("CONSTANT_NOT_LINEAR")
