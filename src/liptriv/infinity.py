"""Accumulation set at infinity of a fiber, its dimension, and its cone.

The fiber f^{-1}(c) is closed up in projective space by homogenizing the
equations f_i - c_i and saturating by the homogenization variable; cutting
with that variable gives the part at infinity.  All computations here are
Zariski (over the algebraic closure); for real input the true real
accumulation set can be strictly smaller, which callers must flag.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .dependence import Subspace, kernel_basis
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
from .polycore import PolyMap, Polynomial, as_fraction, fresh_name


@dataclass(frozen=True)
class InfinityReport:
    """Projective data of one fiber: closure, part at infinity, cone."""

    value: tuple[Fraction, ...]
    hom_var: str
    closure_ideal: Ideal  # homogeneous, saturated with respect to hom_var
    infinity_ideal: Ideal  # closure + (hom_var)
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

    dim_infinity follows the convention dim(empty) = -1: the cone dimension in
    the n+1 homogeneous variables drops by one, clamped at -1 when the cone is
    a point or empty.
    """
    if len(c) != f.p:
        raise ValueError("value must have one coordinate per component")
    cvec = tuple(as_fraction(x) for x in c)
    hom_var = fresh_name("x0", f.vars)
    hom_vars = (hom_var,) + f.vars

    hom_gens = []
    for comp, ci in zip(f.components, cvec):
        shifted = comp - ci
        if shifted.is_zero():
            # Component identically equal to c_i: the fiber condition is vacuous.
            continue
        hom_gens.append(shifted.homogenize(shifted.degree, hom_var))

    x0 = Polynomial.variable(hom_vars, 0)
    # With no equations left the closure is the zero ideal, which saturate keeps.
    closure = saturate(Ideal.make(hom_vars, hom_gens), x0, budget)

    infinity_ideal = Ideal.make(hom_vars, list(closure.generators) + [x0])
    dim_cone = dimension(infinity_ideal, budget)
    dim_inf = max(dim_cone - 1, -1)
    m_candidate = f.n - 1 - dim_inf

    cone_ideal = _cone_ideal(infinity_ideal, f.vars, hom_var)
    cone_basis = buchberger(cone_ideal, MonomialOrder.grevlex(), budget)
    linear, subspace = _linearity(cone_basis)

    return InfinityReport(
        value=cvec,
        hom_var=hom_var,
        closure_ideal=closure,
        infinity_ideal=infinity_ideal,
        dim_infinity=dim_inf,
        m_candidate=m_candidate,
        cone_ideal=cone_ideal,
        cone_basis=cone_basis.basis,
        cone_is_linear=linear,
        cone_subspace=subspace,
    )


def _cone_ideal(infinity_ideal: Ideal, affine_vars: tuple[str, ...], hom_var: str) -> Ideal:
    """Set the homogenization variable to zero and remove it from the ring."""
    idx = infinity_ideal.vars.index(hom_var)
    gens = []
    for g in infinity_ideal.generators:
        cut = g.substitute_value(idx, 0)
        if cut.is_zero():
            continue
        gens.append(cut.drop_vars([idx]))
    return Ideal.make(affine_vars, gens)


def _linearity(gb: GroebnerBasis) -> tuple[bool, Subspace | None]:
    """Decide whether the cone is a linear subspace; if so return it.

    `gb` is the cone ideal's reduced grevlex basis.  Its degree-one elements
    cut a candidate subspace A; the cone always sits inside A.  Equality is
    verified by substituting a symbolic parametrization of A into every
    generator, which must vanish identically.  The cone over the empty set
    is the null subspace; with no generators the cone is all of K^n.
    """
    n = len(gb.vars)
    dim_cone = gb.dimension()
    if dim_cone <= 0:
        # The cone is at most the origin.
        return True, Subspace.zero(n)

    linear_forms = [g for g in gb.basis if g.degree == 1]
    units = [tuple(int(i == j) for i in range(n)) for j in range(n)]
    rows = [[g.coefficient(e) for e in units] for g in linear_forms]
    # With no linear forms the kernel is all of K^n.
    candidate = Subspace.from_vectors(n, kernel_basis(rows, n))
    if candidate.dim != dim_cone:
        return False, None

    # Substitute x = sum_k s_k b_k into every generator; all must vanish.
    params = tuple(f"s{k + 1}" for k in range(candidate.dim))
    images = []
    for j in range(n):
        acc = Polynomial.zero(params)
        for k, vec in enumerate(candidate.basis):
            if vec[j]:
                acc = acc + Polynomial.variable(params, k) * vec[j]
        images.append(acc)
    for g in gb.basis:
        if not g.subs(params, images).is_zero():
            return False, None
    return True, candidate


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
