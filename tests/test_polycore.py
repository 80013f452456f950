"""Exact polynomial arithmetic: examples and algebraic invariants."""

import random
from fractions import Fraction
from math import sqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    apply,
    compose_linear,
    directional_derivative,
    eval_float,
    evaluate,
    identity,
    poly,
    rand_poly,
    subs,
)
from liptriv.polycore import PolyMap, Polynomial, fresh_name

XY = ("x", "y")
XYZ = ("x", "y", "z")


class TestArithmetic:
    def test_difference_of_squares(self):
        assert poly(XY, "x + y") * poly(XY, "x - y") == poly(XY, "x^2 - y^2")

    def test_additive_identity(self):
        p = poly(XY, "3*x^2*y - 1/2*y")
        assert p + Polynomial.zero(XY) == p

    def test_monomial_product_adds_exponents(self):
        # x^2*y times x*y^4: exponents (2,1) + (1,4) = (3,5).
        assert poly(XY, "x^2*y") * poly(XY, "x*y^4") == poly(XY, "x^3*y^5")

    def test_minus_a_scalar(self):
        p = poly(XY, "x*y + 2")
        assert p - 2 == poly(XY, "x*y")
        assert p - Fraction(1, 3) == poly(XY, "x*y + 5/3")

    def test_ring_mismatch_rejected(self):
        with pytest.raises(ValueError, match="ring mismatch"):
            poly(XY, "x") + poly(XYZ, "x")

    def test_product_degree_adds(self):
        rng = random.Random(7)
        for _ in range(50):
            a = rand_poly(rng, XY, 4)
            b = rand_poly(rng, XY, 4)
            if a.is_zero() or b.is_zero():
                continue
            assert (a * b).degree == a.degree + b.degree

    def test_exponent_overflow_guard(self):
        big = Polynomial.from_dict(("x",), {(2**30,): Fraction(1)})
        with pytest.raises(OverflowError):
            big * big


class TestDropVars:
    def test_used_variable_set_to_zero(self):
        assert poly(XY, "x*y + y^2 + x").drop_vars([1]) == poly(("x",), "x")

    def test_unused_variable_removed(self):
        assert poly(XYZ, "x^2 - 3*z").drop_vars([1]) == poly(("x", "z"), "x^2 - 3*z")


class TestPartialDerivative:
    def test_degree_six_polynomial(self, motzkin_poly):
        # d/dx of x^4*y^2 + x^2*y^4 - 3*x^2*y^2 + 1, differentiated by hand.
        inner = motzkin_poly.drop_vars([2])
        assert inner.partial(0) == poly(XY, "4*x^3*y^2 + 2*x*y^4 - 6*x*y^2")

    def test_shear_component(self):
        assert poly(XYZ, "x*y + x*z").partial(2) == poly(XYZ, "x")

    def test_constant(self):
        assert poly(XY, "5").partial(0).is_zero()

    def test_index_out_of_range(self):
        with pytest.raises(IndexError):
            poly(XY, "x").partial(2)

    def test_leibniz_rule(self):
        rng = random.Random(11)
        for _ in range(200):
            p = rand_poly(rng, XY, 3)
            q = rand_poly(rng, XY, 3)
            lhs = (p * q).partial(0)
            rhs = p * q.partial(0) + q * p.partial(0)
            assert lhs == rhs


class TestDirectionalDerivative:
    def test_invariant_direction_annihilates(self, simple_map):
        dd = directional_derivative(simple_map, [0, 1, -1])
        assert all(c.is_zero() for c in dd.components)

    def test_non_invariant_direction(self, bad_map):
        dd = directional_derivative(bad_map, [0, 1, -1])
        assert dd.components[0].is_zero()
        assert dd.components[1] == poly(XYZ, "x - 1")

    def test_zero_direction(self, simple_map):
        dd = directional_derivative(simple_map, [0, 0, 0])
        assert all(c.is_zero() for c in dd.components)

    def test_linearity_in_direction(self, bad_map):
        rng = random.Random(3)
        for _ in range(100):
            u = [Fraction(rng.randint(-3, 3)) for _ in range(3)]
            v = [Fraction(rng.randint(-3, 3)) for _ in range(3)]
            w = [a + b for a, b in zip(u, v)]
            left = directional_derivative(bad_map, w)
            du = directional_derivative(bad_map, u)
            dv = directional_derivative(bad_map, v)
            assert left.components == tuple(
                a + b for a, b in zip(du.components, dv.components)
            )


class TestComposeLinear:
    def test_identity(self, simple_map):
        composed = compose_linear(simple_map, identity(3), simple_map.vars)
        assert composed.components == simple_map.components

    def test_swap_symmetric(self):
        f = PolyMap(XY, (poly(XY, "x*y"),))
        swap = [[0, 1], [1, 0]]
        assert compose_linear(f, swap, new_vars=XY).components == f.components

    def test_sum_substitution_expands(self):
        f = PolyMap(("x",), (poly(("x",), "x^2"),))
        lin = [[1, 1]]
        composed = compose_linear(f, lin, new_vars=("u", "v"))
        assert composed.components[0] == poly(("u", "v"), "u^2 + 2*u*v + v^2")

    def test_evaluation_commutes(self):
        rng = random.Random(19)
        f = PolyMap(XY, (rand_poly(rng, XY, 3), rand_poly(rng, XY, 3)))
        for _ in range(100):
            rows = [[Fraction(rng.randint(-2, 2)) for _ in range(2)] for _ in range(2)]
            x = [Fraction(rng.randint(-4, 4)), Fraction(rng.randint(-4, 4))]
            composed = compose_linear(f, rows, new_vars=XY)
            assert evaluate(composed, x) == evaluate(f, apply(rows, x))


class TestFreshName:
    def test_suffix_counts_past_taken_names(self):
        assert fresh_name("x0", ("x", "y")) == "x0"
        assert fresh_name("x0", ("x0", "y")) == "x0_0"
        assert fresh_name("x0", ["x0", "x0_0", "x0_1"]) == "x0_2"


class TestHomogenize:
    def test_pads_with_new_variable(self):
        h = poly(XYZ, "x*y + z").homogenize("x0")
        assert h == poly(XYZ + ("x0",), "x*y + z*x0")

    def test_homogeneous_input_unchanged(self):
        p = poly(XY, "x^2 + x*y")
        assert p.homogenize("x0") == p.embed(XY + ("x0",))

    def test_constant(self):
        h = poly(XY, "3").homogenize("x0")
        assert h == poly(XY + ("x0",), "3")

    def test_dehomogenize_inverts(self):
        rng = random.Random(23)
        # Each of x, y, z to itself, and x0 -> 1.
        images = [Polynomial.variable(XYZ, i) for i in range(3)] + [Polynomial.constant(XYZ, 1)]
        for _ in range(200):
            p = rand_poly(rng, XYZ, 5)
            if p.is_zero():
                continue
            h = p.homogenize("x0")
            assert len({sum(e) for e, _ in h.terms}) == 1
            assert subs(h, XYZ, images) == p


class TestEvaluate:
    def test_exact_point(self, simple_map):
        assert evaluate(simple_map, [1, 2, 3]) == (Fraction(1), Fraction(5))

    def test_at_origin_gives_constants(self, bad_map):
        assert evaluate(bad_map, [0, 0, 0]) == (Fraction(0), Fraction(0))

    def test_degree_six_zero(self, motzkin_map):
        # 1 + 1 - 3 + 1 = 0: the value 0 is attained.
        assert evaluate(motzkin_map, [1, 1, 0]) == (Fraction(0),)

    def test_dimension_mismatch(self, simple_map):
        with pytest.raises(ValueError):
            evaluate(simple_map, [1, 2])

    def test_float_matches_exact(self):
        rng = random.Random(29)
        for _ in range(100):
            p = rand_poly(rng, XY, 4)
            x = [rng.randint(-3, 3), rng.randint(-3, 3)]
            assert eval_float(p, [float(v) for v in x]) == pytest.approx(
                float(p.eval_exact(x)), rel=1e-12, abs=1e-12
            )


# Coefficients of either sign, with denominators that are not powers of
# two and numerators far past the float range; and float coordinates on a
# sphere of radius 1e4, the probe's largest, or anywhere, subnormals and
# -0.0 included.
exact_coefficients = st.builds(
    lambda num, big, den: Fraction(num * 7**big, den),
    st.integers(-1000, 1000).filter(bool),
    st.sampled_from([0, 0, 400]),
    st.integers(1, 97),
)


@st.composite
def points_and_polynomials(draw):
    n = draw(st.integers(1, 3))
    exps = draw(st.lists(st.lists(st.integers(0, 6), min_size=n, max_size=n), max_size=6))
    q = Polynomial.from_dict(XYZ[:n], {tuple(e): draw(exact_coefficients) for e in exps})
    coords = st.floats(allow_nan=False, allow_infinity=False)
    x = draw(st.lists(coords, min_size=n, max_size=n))
    if draw(st.booleans()):
        norm = sqrt(sum(v * v for v in x))
        if 0.0 < norm < float("inf"):
            x = [1e4 * v / norm for v in x]
    return q, x


class TestEvalAtFloats:
    @settings(max_examples=300, deadline=None)
    @given(points_and_polynomials())
    def test_matches_eval_exact(self, case):
        # The same value, so the same sign of q - c for every c that the
        # sphere probe's exact checks compare it with.
        q, x = case
        assert q.eval_at_floats(x) == q.eval_exact([Fraction(v) for v in x])

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            poly(XY, "x*y").eval_at_floats([1.0])


class TestCanonicalForm:
    def test_add_then_subtract_roundtrip(self):
        rng = random.Random(31)
        for _ in range(1000):
            a = rand_poly(rng, XYZ, 6)
            b = rand_poly(rng, XYZ, 6)
            assert a + b - b == a

    def test_terms_sorted_and_nonzero(self):
        rng = random.Random(37)
        from liptriv.polycore import grevlex_key

        for _ in range(200):
            p = rand_poly(rng, XYZ, 5)
            keys = [grevlex_key(e) for e, _ in p.terms]
            assert keys == sorted(keys, reverse=True)
            assert all(c != 0 for _, c in p.terms)

    def test_equal_polynomials_identical_terms(self):
        a = poly(XY, "x*y + x*y + 2") - poly(XY, "x*y")
        b = poly(XY, "2 + x*y")
        assert a == b and a.terms == b.terms
