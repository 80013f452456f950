"""Invariance subspaces, factorization through projections, suspensions."""

import random
from fractions import Fraction

import pytest

from conftest import (
    apply,
    compose_linear,
    directional_derivative,
    evaluate,
    identity,
    inverse,
    poly,
    rand_poly,
    rank,
    subs,
)
from liptriv.dependence import (
    FactorizationResult,
    Subspace,
    factor_through_projection,
    invariance_subspace,
    suspend,
)
from liptriv.polycore import PolyMap, Polynomial, as_fraction, kernel_basis, rref

XYZ = ("x", "y", "z")


def verify_factorization(f: PolyMap, result: FactorizationResult) -> bool:
    """Check the exact polynomial identity f = g o pi by substitution."""
    if result.m == 0:
        point = [Fraction(0)] * result.g.n
        values = evaluate(result.g, point)
        return all(
            comp.is_constant() and comp.constant_value() == val
            for comp, val in zip(f.components, values)
        )
    composed = compose_linear(result.g, result.pi, new_vars=f.vars)
    return composed.components == f.components


def contains(sub: Subspace, vector) -> bool:
    """vector lies in sub: stacking it on the basis keeps the rank."""
    stacked = [list(b) for b in sub.basis] + [[as_fraction(x) for x in vector]]
    reduced, _ = rref(stacked)
    return len(reduced) == sub.dim


def is_surjective(rows) -> bool:
    return rank(rows) == len(rows)


def hidden_direction_maps(rng: random.Random, count: int):
    """Pairs (f, A): f = g(A x) for A of r < n rows with rational entries.

    Each term of g is a product of the r linear forms A x, so f is invariant
    along the kernel of A, and along more when g happens not to be reduced.
    """
    out = []
    while len(out) < count:
        n = rng.randint(2, 4)
        r = rng.randint(1, n - 1)
        xs = tuple(f"x{i}" for i in range(n))
        rows = [[Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n)] for _ in range(r)]
        forms = [
            sum((Polynomial.constant(xs, c) * Polynomial.variable(xs, j) for j, c in enumerate(row)), Polynomial.zero(xs))
            for row in rows
        ]
        comps = []
        for _ in range(rng.randint(1, 2)):
            acc = Polynomial.zero(xs)
            for _ in range(rng.randint(1, 3)):
                term = Polynomial.constant(xs, rng.choice([-2, -1, 1, 3]))
                for _ in range(rng.randint(0, 3)):
                    term = term * forms[rng.randrange(r)]
                acc = acc + term
            comps.append(acc)
        f = PolyMap(xs, tuple(comps))
        if not f.is_constant():  # the constant map has its own test
            out.append((f, rows))
    return out


class TestInvarianceSubspace:
    def test_shear_has_one_direction(self, simple_map):
        sub = invariance_subspace(simple_map)
        assert sub.dim == 1
        assert sub.basis == ((Fraction(0), Fraction(1), Fraction(-1)),)

    def test_twisted_shear_has_none(self, bad_map):
        assert invariance_subspace(bad_map).dim == 0

    def test_constant_map_full_space(self):
        f = PolyMap(XYZ, (poly(XYZ, "7"),))
        assert invariance_subspace(f).dim == 3

    def test_directional_derivative_vanishes_on_basis(self, simple_map, motzkin_map):
        for f in (simple_map, motzkin_map):
            sub = invariance_subspace(f)
            for v in sub.basis:
                dd = directional_derivative(f, v)
                assert all(c.is_zero() for c in dd.components)

    def test_translation_invariance_along_basis(self, simple_map):
        # f(x + t v) - f(x) must vanish identically in the ring extended by t.
        sub = invariance_subspace(simple_map)
        ext = simple_map.vars + ("t",)
        t = Polynomial.variable(ext, 3)
        for v in sub.basis:
            images = [
                Polynomial.variable(ext, i) + Polynomial.constant(ext, v[i]) * t for i in range(3)
            ]
            for comp in simple_map.components:
                shifted = subs(comp, ext, images)
                assert shifted - comp.embed(ext) == Polynomial.zero(ext)

    def test_permutation_conjugates_subspace(self):
        rng = random.Random(5)
        for _ in range(20):
            f = PolyMap(XYZ, (rand_poly(rng, XYZ, 3), rand_poly(rng, XYZ, 3)))
            perm = list(range(3))
            rng.shuffle(perm)
            mat = [[Fraction(int(perm[i] == j)) for j in range(3)] for i in range(3)]
            permuted = compose_linear(f, mat, new_vars=XYZ)
            sub = invariance_subspace(f)
            sub_p = invariance_subspace(permuted)
            mapped = Subspace.from_vectors(
                3, [apply(inverse(mat), v) for v in sub.basis]
            )
            assert sub_p == mapped


class TestFactorization:
    def test_shear_reduces_to_two_variables(self, simple_map):
        res = factor_through_projection(simple_map)
        assert res.m == 2
        assert verify_factorization(simple_map, res)
        assert invariance_subspace(res.g).dim == 0
        # Level sets of the reduced map match the product structure.
        assert res.g.p == 2

    def test_suspension_projection_drops_unused_coordinate(self, motzkin_map):
        res = factor_through_projection(motzkin_map)
        assert res.m == 2
        assert res.g.vars == ("x", "y")
        assert res.g.components[0] == motzkin_map.components[0].drop_vars([2])
        assert res.pi == (
            (Fraction(1), Fraction(0), Fraction(0)),
            (Fraction(0), Fraction(1), Fraction(0)),
        )

    def test_identity_map_is_fixed(self):
        f = PolyMap(XYZ, tuple(Polynomial.variable(XYZ, i) for i in range(3)))
        res = factor_through_projection(f)
        assert res.m == 3
        assert res.g == f
        assert res.pi == identity(3)

    def test_pi_kills_invariance_subspace_and_keeps_free_coordinates(self, simple_map):
        maps = [simple_map] + [f for f, _ in hidden_direction_maps(random.Random(29), 20)]
        for f in maps:
            res = factor_through_projection(f)
            for b in res.V.basis:
                assert all(x == 0 for x in apply(res.pi, b))
            pivots = res.V.pivot_columns()
            free = [j for j in range(f.n) if j not in pivots]
            assert tuple(tuple(row[j] for j in free) for row in res.pi) == identity(res.m)
            assert is_surjective(res.pi)

    def test_exact_identity_on_hidden_rational_directions(self):
        # g(Ax) with A rank-deficient and non-integer: V holds the kernel of
        # A, and pi has entries other than 0 and +-1.
        unusual = 0
        for f, a in hidden_direction_maps(random.Random(31), 40):
            res = factor_through_projection(f)
            assert verify_factorization(f, res)
            assert all(contains(res.V, v) for v in kernel_basis(a, f.n))
            assert invariance_subspace(res.g).dim == 0
            unusual += any(x not in (0, 1, -1) for row in res.pi for x in row)
        assert unusual > 0

    def test_exact_identity_on_random_suspensions(self):
        rng = random.Random(17)
        done = 0
        while done < 25:
            core_vars = ("u", "v")
            g = PolyMap(core_vars, (rand_poly(rng, core_vars, 3),))
            if g.is_constant():
                continue
            f = suspend(g, rng.randint(1, 2))
            res = factor_through_projection(f)
            assert verify_factorization(f, res)
            assert invariance_subspace(res.g).dim == 0
            done += 1

    def test_constant_map_reduces_to_dimension_zero(self):
        f = PolyMap(XYZ, (poly(XYZ, "2"), poly(XYZ, "-1/3")))
        res = factor_through_projection(f)
        assert res.m == 0
        assert verify_factorization(f, res)


class TestSuspend:
    def test_cubic_gains_silent_variable(self):
        g = PolyMap(("u",), (poly(("u",), "u^3"),))
        f = suspend(g, 1)
        assert f.n == 2
        assert f.components[0].degree == 3
        assert not f.components[0].uses_var(1)

    def test_zero_extension_is_identity(self, simple_map):
        assert suspend(simple_map, 0) is simple_map

    def test_roundtrip_recovers_reduced_dimension(self, cube_map):
        base = factor_through_projection(cube_map)
        lifted = suspend(base.g, 2)
        again = factor_through_projection(lifted)
        assert again.m == base.m
        assert again.g.components == base.g.components

    def test_suspension_grows_invariance_dimension(self, simple_map):
        base_dim = invariance_subspace(simple_map).dim
        for k in (1, 2):
            lifted = suspend(simple_map, k)
            assert invariance_subspace(lifted).dim == base_dim + k

    def test_negative_extension_rejected(self, simple_map):
        with pytest.raises(ValueError):
            suspend(simple_map, -1)


class TestSubspace:
    def test_rref_canonical_form(self):
        a = Subspace.from_vectors(3, [[2, 0, -2], [0, 3, 3]])
        b = Subspace.from_vectors(3, [[1, 3, 2], [1, 0, -1]])
        assert a == b

    def test_contains(self):
        sub = Subspace.from_vectors(3, [[0, 1, -1]])
        assert contains(sub, [0, 5, -5])
        assert not contains(sub, [1, 0, 0])
