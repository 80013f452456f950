"""Accumulation set at infinity of a fiber, its dimension, and its cone.

The fiber f^{-1}(c) is closed up in projective space by homogenizing a
grevlex basis of its ideal (f_i - c_i) with x0 as the last variable, which
generates the closure since grevlex is graded; cutting with x0 gives the
part at infinity.  All computations here are Zariski (over the algebraic
closure); for real input the true real accumulation set can be strictly
smaller, which callers must flag.

One Groebner run per fiber answers every question about the part at
infinity.  The closure is homogeneous and saturated by x0, and grevlex
orders x0 last, so no leading monomial of its reduced grevlex basis is
divisible by x0 (Bayer and Stillman, Invent. Math. 1987).  Setting x0 = 0
in that basis keeps every leading term, so the cut is the reduced grevlex
basis of the cone ideal.  The variety of the infinity ideal closure + (x0)
is {0} x V(cone ideal), so the dimension at infinity, the cone and its
linearity are all read off the cut.
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
    saturate,
)
from .polycore import as_fraction, fresh_name, kernel_basis


@dataclass(frozen=True)
class InfinityReport:
    """Projective data of one fiber: the closure, which the budgeted run
    gives, and what is read off it."""

    value: tuple[Fraction, ...]
    closure_ideal: Ideal  # reduced grevlex basis, saturated by the appended x0

    @cached_property
    def cone_basis(self) -> GroebnerBasis:
        """Reduced grevlex basis, in the affine variables, of the ideal that
        cuts the cone over infinity: the closure at x0 = 0."""
        n = len(self.closure_ideal.vars) - 1
        basis = tuple(q.drop_vars([n]) for q in self.closure_ideal.generators)
        return GroebnerBasis(self.closure_ideal.vars[:n], MonomialOrder.grevlex(), basis)

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
    Homogenized with x0 last, it generates the closure (f - c)^h :
    x0^infinity (Cox, Little and O'Shea, Ideals, Varieties, and Algorithms,
    ch. 8 section 4, Thm 4), whose reduced grevlex basis one Buchberger run
    gives.  That run is the only one: its cut at x0 = 0 is the cone's
    reduced basis (see the module docstring).
    """
    grevlex = MonomialOrder.grevlex()
    if fiber.order != grevlex:
        raise ValueError("the fiber's basis must be a grevlex basis")
    hom_var = fresh_name("x0", fiber.vars)
    hom_vars = fiber.vars + (hom_var,)
    hom_gens = tuple(q.homogenize(hom_var) for q in fiber.basis)
    closure = buchberger(Ideal(hom_vars, hom_gens), grevlex, budget)
    return InfinityReport(tuple(as_fraction(x) for x in c), Ideal(hom_vars, closure.basis))


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


def cone_constancy_check(
    reports: Sequence[InfinityReport], budget: GroebnerBudget
) -> ConeConstancyResult:
    """PASS when the cones of all reports are the same linear subspace.

    `reports` holds one `fiber_infinity` report per sampled value, and the
    witness indexes into it.  Cones are compared as sets, since the paper's
    m reads the accumulation set at infinity: cones that differ as sets
    FAIL, linear or not; constant but non-linear cones get their own
    verdict since linearity over the reals may still hold.
    """
    for i in range(1, len(reports)):
        if not _same_cone(reports[0].cone_basis, reports[i].cone_basis, budget):
            return ConeConstancyResult("FAIL", (0, i))
    if all(r.cone_subspace is not None for r in reports):
        return ConeConstancyResult("PASS")
    return ConeConstancyResult("CONSTANT_NOT_LINEAR")


def _same_cone(a: GroebnerBasis, b: GroebnerBasis, budget: GroebnerBudget) -> bool:
    """V(a) = V(b): each element h of one basis that is not an element of the
    other lies in the other ideal's radical, that is, saturating that ideal
    by h gives the unit ideal."""
    if a == b:
        return True
    return all(
        saturate(Ideal(other.vars, other.basis), h, budget).has_unit_generator()
        for one, other in ((a, b), (b, a))
        for h in one.basis
        if h not in other.basis
    )
