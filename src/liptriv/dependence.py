"""Maximal linear invariance subspace and the factorization f = g o pi.

A direction v is an invariance direction of f when the directional derivative
of every component along v vanishes identically.  Those directions form a
linear subspace V; f factors exactly through the projection along V onto any
complement, and the reduced mapping has no invariance direction left.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .polycore import PolyMap, Polynomial, fresh_name, kernel_basis, rref


@dataclass(frozen=True)
class Subspace:
    """Linear subspace of K^n, basis stored in reduced row-echelon form."""

    ambient_dim: int
    basis: tuple[tuple[Fraction, ...], ...]

    @staticmethod
    def from_vectors(ambient_dim: int, vectors: Sequence[Sequence[Fraction]]) -> "Subspace":
        reduced, _ = rref([list(v) for v in vectors])
        return Subspace(ambient_dim, tuple(tuple(row) for row in reduced))

    @staticmethod
    def zero(ambient_dim: int) -> "Subspace":
        return Subspace(ambient_dim, ())

    @property
    def dim(self) -> int:
        return len(self.basis)

    def is_zero(self) -> bool:
        return not self.basis

    def pivot_columns(self) -> list[int]:
        return [next(j for j, x in enumerate(row) if x != 0) for row in self.basis]


@dataclass(frozen=True)
class FactorizationResult:
    """Data of f = g o pi with pi surjective linear and g fully reduced."""

    V: Subspace
    g: PolyMap

    @property
    def m(self) -> int:
        """Dimension of g's domain K^m: the codimension of V."""
        return self.V.ambient_dim - self.V.dim

    @property
    def pi(self) -> tuple[tuple[Fraction, ...], ...]:
        """The rows of the projection along V: for each free column j of V's
        basis, e_j - sum_k b_k[j] e_{p_k}, b_k being the k-th basis vector
        and p_k its pivot; a constant map, with no free column, has the one
        zero row."""
        n = self.V.ambient_dim
        pivots = self.V.pivot_columns()
        rows = []
        for j in (j for j in range(n) if j not in pivots):
            row = [Fraction(int(i == j)) for i in range(n)]
            for b, p in zip(self.V.basis, pivots):
                row[p] = -b[j]
            rows.append(tuple(row))
        return tuple(rows) or ((Fraction(0),) * n,)


def condition_kernel(conditions: Sequence[Sequence[Polynomial]], n: int) -> Subspace:
    """Directions v in K^n with sum_j v_j * q[j] = 0 for every list q in conditions.

    Solved as the exact kernel of the linear system whose rows are, for every
    q and every monomial of its entries, the coefficient vector over j.
    """
    rows: list[list[Fraction]] = []
    for qs in conditions:
        monomials = sorted({e for q in qs for e, _ in q.terms})
        for mono in monomials:
            rows.append([q.coefficient(mono) for q in qs])
    return Subspace.from_vectors(n, kernel_basis(rows, n))


def invariance_subspace(f: PolyMap) -> Subspace:
    """Maximal subspace of directions v with the derivative of f along v zero.

    The condition on v for each component is sum_j v_j * d f_i / d x_j = 0.
    """
    return condition_kernel(
        [[comp.partial(j) for j in range(f.n)] for comp in f.components], f.n
    )


def factor_through_projection(f: PolyMap) -> FactorizationResult:
    """Factor f as g o pi with g free of invariance directions.

    V's basis is in reduced row-echelon form, so its pivot columns and the
    free columns split the coordinates.  f is constant along V, so g is f on
    the free coordinates with every pivot coordinate set to zero: the terms
    free of the pivot variables.  pi moves x along V into that coordinate
    subspace.  g keeps f's own coefficients, and the result is unique because
    V's RREF basis is.
    """
    n = f.n
    sub = invariance_subspace(f)
    pivots = sub.pivot_columns()
    free = [j for j in range(n) if j not in pivots]
    if not free:
        # Constant mapping; g lives on a one-variable dummy domain onto whose
        # zero subspace pi collapses everything.
        dummy = (fresh_name("u1", f.vars),)
        g_components = tuple(
            Polynomial.constant(dummy, comp.constant_value()) for comp in f.components
        )
        return FactorizationResult(sub, PolyMap(dummy, g_components, f.name))

    # The surviving coordinates keep their original names (keeps reports
    # readable and makes suspension round-trips exact).
    g_components = tuple(comp.drop_vars(pivots) for comp in f.components)
    return FactorizationResult(sub, PolyMap(g_components[0].vars, g_components, f.name))


def suspend(g: PolyMap, extra_vars: int) -> PolyMap:
    """Extend the domain by unused coordinates: returns g o pi0, pi0 dropping them."""
    if extra_vars < 0:
        raise ValueError("extra_vars must be non-negative")
    if extra_vars == 0:
        return g
    names = list(g.vars)
    for i in range(extra_vars):
        names.append(fresh_name(f"s{i + 1}", names))
    vs = tuple(names)
    comps = tuple(c.embed(vs) for c in g.components)
    return PolyMap(vs, comps, g.name)
