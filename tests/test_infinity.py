"""Fiber closures at infinity, their dimensions, and cone comparisons.

All computations here are Zariski (complex); the degree-six suspension case
documents where the real accumulation set is strictly smaller.
"""

from fractions import Fraction

import pytest

from conftest import poly
from liptriv.dependence import Subspace, factor_through_projection, suspend
from liptriv.groebner import Ideal, buchberger, saturate
from liptriv.infinity import cone_constancy_check, fiber_infinity
from liptriv.polycore import PolyMap, Polynomial

F = Fraction


class TestFiberInfinity:
    def test_shear_fiber_line_at_infinity(self, simple_map):
        rep = fiber_infinity(simple_map, [F(1), F(1)])
        expected = Ideal.make(
            rep.closure_ideal.vars,
            [
                poly(("x0", "x", "y", "z"), "x - x0"),
                poly(("x0", "x", "y", "z"), "y + z - x0"),
            ],
        )
        assert buchberger(rep.closure_ideal).basis == buchberger(expected).basis
        assert rep.dim_infinity == 0
        assert rep.m_candidate == 2

    def test_twisted_shear_line_fiber(self, bad_map):
        rep = fiber_infinity(bad_map, [F(1), F(0)])
        assert rep.dim_infinity == 0
        assert rep.m_candidate == 2
        assert rep.cone_is_linear
        assert rep.cone_subspace.basis == ((F(0), F(1), F(-1)),)

    def test_compact_complex_fiber_has_empty_infinity(self):
        f = PolyMap(("x",), (poly(("x",), "x^2 + 1"),))
        rep = fiber_infinity(f, [F(0)])
        assert rep.dim_infinity == -1
        assert rep.m_candidate == 1
        # Cone over the empty set is the null subspace.
        assert rep.cone_is_linear
        assert rep.cone_subspace.dim == 0

    def test_empty_fiber_detected(self):
        f = PolyMap(("x", "y"), (poly(("x", "y"), "x"), poly(("x", "y"), "x + 1")))
        rep = fiber_infinity(f, [F(0), F(0)])
        assert rep.closure_ideal.has_unit_generator()

    def test_value_length_checked(self, simple_map):
        with pytest.raises(ValueError):
            fiber_infinity(simple_map, [F(1)])

    def test_arithmetic_identity_m_candidate(self, simple_map, bad_map, motzkin_map):
        for f in (simple_map, bad_map, motzkin_map):
            rep = fiber_infinity(f, [F(2)] * f.p)
            assert rep.m_candidate + rep.dim_infinity == f.n - 1

    def test_saturation_idempotent_on_closure(self, simple_map):
        rep = fiber_infinity(simple_map, [F(1), F(1)])
        x0 = Polynomial.variable(rep.closure_ideal.vars, 0)
        again = saturate(rep.closure_ideal, x0)
        assert buchberger(again).basis == buchberger(rep.closure_ideal).basis

    def test_degree_six_suspension_complex_dimension(self, motzkin_map):
        # Over C the fiber curve has asymptotic directions x=0, y=0, x^2+y^2=0,
        # so the suspended fiber meets infinity in dimension 1; the real set is
        # only the silent-coordinate direction (dimension 0), which is exactly
        # the caveat the classifier reports for real input.
        rep = fiber_infinity(motzkin_map, [F(2)])
        assert rep.dim_infinity == 1
        assert rep.m_candidate == 1
        assert not rep.cone_is_linear


class TestConeAtInfinity:
    def test_shear_cone_constant_direction(self, simple_map):
        for c in ([F(1), F(0)], [F(2), F(3)]):
            rep = fiber_infinity(simple_map, c)
            assert rep.cone_is_linear
            assert rep.cone_subspace.basis == ((F(0), F(1), F(-1)),)

    def test_twisted_shear_cone_moves_with_value(self, bad_map):
        sub1 = fiber_infinity(bad_map, [F(1), F(0)]).cone_subspace
        sub2 = fiber_infinity(bad_map, [F(2), F(0)]).cone_subspace
        assert sub1.basis == ((F(0), F(1), F(-1)),)
        assert sub2.basis == ((F(0), F(1), F(-2)),)

    def test_suspended_finite_fiber_cone_is_projection_kernel(self):
        g = PolyMap(("u", "v"), (poly(("u", "v"), "u"), poly(("u", "v"), "v")))
        f = suspend(g, 1)
        res = factor_through_projection(f)
        rep = fiber_infinity(f, [F(1), F(2)])
        assert rep.cone_is_linear
        # Kernel of pi is spanned by the silent coordinate.
        kernel = Subspace.from_vectors(3, [[F(0), F(0), F(1)]])
        assert rep.cone_subspace == kernel
        assert all(sum(row[2] for row in res.pi.rows) == 0 for _ in (0,))


class TestConeConstancy:
    def test_constant_cone_passes(self, simple_map):
        result = cone_constancy_check(
            simple_map, [[F(1), F(0)], [F(2), F(3)], [F(-1), F(1)]]
        )
        assert result.verdict == "PASS"
        assert result.subspace.basis == ((F(0), F(1), F(-1)),)

    def test_moving_cone_fails_with_witness(self, bad_map):
        result = cone_constancy_check(bad_map, [[F(1), F(0)], [F(2), F(0)]])
        assert result.verdict == "FAIL"
        i, j = result.witness
        assert result.reports[i].cone_subspace.basis == ((F(0), F(1), F(-1)),)
        assert result.reports[j].cone_subspace.basis == ((F(0), F(1), F(-2)),)

    def test_constant_nonlinear_reported(self, motzkin_map):
        result = cone_constancy_check(motzkin_map, [[F(2)], [F(3)]])
        assert result.verdict == "CONSTANT_NOT_LINEAR"

    def test_needs_two_samples(self, simple_map):
        with pytest.raises(ValueError):
            cone_constancy_check(simple_map, [[F(1), F(0)]])
