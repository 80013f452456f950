"""Critical value ideals by minor elimination and real attainment checks."""

import random
from fractions import Fraction

import numpy as np
import pytest

from conftest import compose_linear, is_invertible, poly
from liptriv.critical import critical_ideal, jacobian, real_critical_values
from liptriv.groebner import buchberger
from liptriv.parsing import print_polynomial
from liptriv.polycore import LinearMap, PolyMap

F = Fraction


@pytest.fixture(scope="module")
def reduced_shear():
    ring = ("x", "w")
    return PolyMap(ring, (poly(ring, "x"), poly(ring, "x*w")))


@pytest.fixture(scope="module")
def plane_sextic(motzkin_map):
    return PolyMap(("x", "y"), (motzkin_map.components[0].drop_vars([2]),))


class TestJacobian:
    def test_shear(self, reduced_shear):
        jac = jacobian(reduced_shear)
        ring = ("x", "w")
        assert jac == (
            (poly(ring, "1"), poly(ring, "0")),
            (poly(ring, "w"), poly(ring, "x")),
        )

    def test_identity(self):
        ring = ("x", "y")
        ident = PolyMap(ring, (poly(ring, "x"), poly(ring, "y")))
        jac = jacobian(ident)
        assert jac[0][0] == poly(ring, "1") and jac[1][1] == poly(ring, "1")
        assert jac[0][1].is_zero() and jac[1][0].is_zero()

    def test_constant(self):
        ring = ("x", "y")
        f = PolyMap(ring, (poly(ring, "4"),))
        assert all(q.is_zero() for row in jacobian(f) for q in row)


class TestCriticalIdeal:
    def test_shear_single_critical_value_at_origin(self, reduced_shear):
        crit = critical_ideal(reduced_shear)
        tv = ("t1", "t2")
        assert set(crit.generators) == {poly(tv, "t1"), poly(tv, "t2")}

    def test_plane_sextic_roots_zero_and_one(self, plane_sextic):
        crit = critical_ideal(plane_sextic)
        gens = [print_polynomial(g) for g in crit.generators]
        assert gens == ["t1^2 - t1"]

    def test_cubic_power(self):
        g = PolyMap(("u",), (poly(("u",), "u^3"),))
        crit = critical_ideal(g)
        assert [print_polynomial(q) for q in crit.generators] == ["t1"]

    def test_invertible_linear_map_has_no_critical_values(self):
        ring = ("x", "y")
        f = PolyMap(ring, (poly(ring, "x + 2*y"), poly(ring, "x - y")))
        assert critical_ideal(f).has_unit_generator()

    def test_invariant_under_domain_conjugation(self):
        rng = random.Random(71)
        ring = ("x", "y")
        from conftest import rand_poly

        checked = 0
        while checked < 20:
            g = PolyMap(ring, (rand_poly(rng, ring, 2),))
            if g.is_constant():
                continue
            rows = [[F(rng.randint(-2, 2)) for _ in range(2)] for _ in range(2)]
            lin = LinearMap.from_rows(rows)
            if not is_invertible(lin):
                continue
            conj = compose_linear(g, lin, new_vars=ring)
            a = buchberger(critical_ideal(g)).basis
            b = buchberger(critical_ideal(conj)).basis
            assert a == b
            checked += 1


class TestRealCriticalValues:
    def test_plane_sextic_attains_both(self, plane_sextic):
        roots = real_critical_values(plane_sextic)
        assert [(r.approx, r.status) for r in roots] == [
            (0.0, "attained"),
            (1.0, "attained"),
        ]
        for r in roots:
            assert r.residual is not None and r.residual < 1e-8
            value = plane_sextic.components[0].eval_float(list(r.witness))
            assert abs(value - r.approx) < 1e-8

    def test_square_attains_minimum(self):
        g = PolyMap(("u",), (poly(("u",), "u^2"),))
        roots = real_critical_values(g)
        assert [(r.approx, r.status) for r in roots] == [(0.0, "attained")]

    def test_shifted_paraboloid(self):
        ring = ("x", "y")
        g = PolyMap(ring, (poly(ring, "x^2 + y^2 + 1"),))
        roots = real_critical_values(g)
        assert [(r.approx, r.status) for r in roots] == [(1.0, "attained")]
        # Gradient vanishes only at the origin.
        assert np.linalg.norm(roots[0].witness) < 1e-6

    def test_requires_single_component(self, reduced_shear):
        with pytest.raises(ValueError):
            real_critical_values(reduced_shear)

    def test_witness_is_rank_deficient(self, plane_sextic):
        # For p = 1 rank deficiency is a vanishing gradient.
        grads = [plane_sextic.components[0].partial(j) for j in range(2)]
        for r in real_critical_values(plane_sextic):
            g0 = grads[0].eval_float(list(r.witness))
            g1 = grads[1].eval_float(list(r.witness))
            assert (g0 * g0 + g1 * g1) ** 0.5 < 1e-8
