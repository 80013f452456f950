"""Groebner engine: bases, normal forms, elimination, saturation, dimension,
real-root isolation, and the resource budget contract."""

import random
from fractions import Fraction

import pytest

from conftest import count_real_roots, normal_form, poly, rand_poly, spolynomial
from liptriv.groebner import (
    BudgetExceededError,
    GroebnerBudget,
    Ideal,
    MonomialOrder,
    buchberger,
    dimension,
    eliminate,
    intersect,
    real_roots,
    saturate,
)

XY = ("x", "y")


def gb_of(variables, *exprs, order=None):
    ideal = Ideal.make(variables, [poly(variables, e) for e in exprs])
    return buchberger(ideal, order or MonomialOrder.grevlex())


class TestBuchberger:
    def test_two_generator_basis_already_groebner(self):
        gb = gb_of(XY, "x^2 - y", "y^2")
        assert set(gb.basis) == {poly(XY, "x^2 - y"), poly(XY, "y^2")}

    def test_monomial_ideal(self):
        gb = gb_of(XY, "x", "y")
        assert set(gb.basis) == {poly(XY, "x"), poly(XY, "y")}

    def test_unit_ideal(self):
        gb = gb_of(("x",), "x - 1", "x")
        assert gb.is_unit()

    def test_spolynomials_reduce_to_zero(self):
        rng = random.Random(41)
        for _ in range(10):
            gens = [rand_poly(rng, XY, 3) for _ in range(2)]
            gens = [g for g in gens if not g.is_zero()]
            if not gens:
                continue
            gb = buchberger(Ideal.make(XY, gens))
            for i in range(len(gb.basis)):
                for j in range(i + 1, len(gb.basis)):
                    s = spolynomial(gb.basis[i], gb.basis[j], gb.order)
                    assert normal_form(s, gb).is_zero()

    def test_input_generators_reduce_to_zero(self):
        rng = random.Random(43)
        for _ in range(10):
            gens = [rand_poly(rng, XY, 3) for _ in range(3)]
            gens = [g for g in gens if not g.is_zero()]
            if not gens:
                continue
            gb = buchberger(Ideal.make(XY, gens))
            for g in gens:
                assert normal_form(g, gb).is_zero()

    def test_basis_is_monic_and_sorted(self):
        gb = gb_of(XY, "2*x^2 - 2*y", "3*y^2")
        keyf = gb.order.key_function(2)
        leads = [max((e for e, _ in g.terms), key=keyf) for g in gb.basis]
        assert leads == sorted(leads, key=keyf)
        for g, lead in zip(gb.basis, leads):
            assert g.coefficient(lead) == 1


class TestNormalForm:
    def test_membership(self):
        gb = gb_of(XY, "x")
        assert normal_form(poly(XY, "x^2"), gb).is_zero()

    def test_non_membership(self):
        gb = gb_of(XY, "x")
        assert normal_form(poly(XY, "y"), gb) == poly(XY, "y")

    def test_two_step_reduction(self):
        gb = gb_of(XY, "x^2 - y", "y^2")
        assert normal_form(poly(XY, "x^2*y"), gb).is_zero()


class TestEliminate:
    def test_substitution_relation(self):
        ring = ("x", "t", "s")
        ideal = Ideal.make(ring, [poly(ring, "x - t"), poly(ring, "x^2 - s")])
        out = eliminate(ideal, ["x"])
        assert out.vars == ("t", "s")
        assert set(out.generators) == {poly(("t", "s"), "t^2 - s")}

    def test_everything_eliminated(self):
        out = eliminate(Ideal.make(("x",), [poly(("x",), "x")]), ["x"])
        assert out.generators == ()

    def test_forced_values_project_fully(self):
        # x = 0 on the variety forces t1 = 0 and, through x*w - t2, also t2 = 0.
        ring = ("x", "w", "t1", "t2")
        ideal = Ideal.make(
            ring,
            [poly(ring, "x - t1"), poly(ring, "x*w - t2"), poly(ring, "x")],
        )
        out = eliminate(ideal, ["x", "w"])
        tvars = ("t1", "t2")
        assert set(out.generators) == {poly(tvars, "t1"), poly(tvars, "t2")}


class TestSaturate:
    def test_cancels_variable_factor(self):
        ring = ("x0", "x")
        out = saturate(Ideal.make(ring, [poly(ring, "x0*x")]), poly(ring, "x0"))
        assert set(out.generators) == {poly(ring, "x")}

    def test_coprime_untouched(self):
        out = saturate(Ideal.make(XY, [poly(XY, "x")]), poly(XY, "y"))
        assert set(out.generators) == {poly(XY, "x")}

    def test_projective_closure_shape(self):
        ring = ("x0", "x", "y", "z")
        ideal = Ideal.make(
            ring, [poly(ring, "x - x0"), poly(ring, "x0*y + x0*z - x0^2")]
        )
        out = saturate(ideal, poly(ring, "x0"))
        expected = Ideal.make(
            ring, [poly(ring, "x - x0"), poly(ring, "y + z - x0")]
        )
        got = buchberger(out)
        want = buchberger(expected)
        assert got.basis == want.basis

    def test_idempotent(self):
        ring = ("x0", "x", "y", "z")
        ideal = Ideal.make(
            ring, [poly(ring, "x - x0"), poly(ring, "x0*y + x0*z - x0^2")]
        )
        once = saturate(ideal, poly(ring, "x0"))
        twice = saturate(once, poly(ring, "x0"))
        assert buchberger(once).basis == buchberger(twice).basis


class TestIntersect:
    def test_line_inside_point_ideal(self):
        tv = ("t1", "t2")
        a = Ideal.make(tv, [poly(tv, "t1")])
        b = Ideal.make(tv, [poly(tv, "t1"), poly(tv, "t2")])
        out = intersect(a, b)
        assert buchberger(out).basis == buchberger(a).basis


class TestDimension:
    def test_hyperplane(self):
        assert dimension(Ideal.make(XY, [poly(XY, "x")])) == 1

    def test_unit_ideal_is_empty_variety(self):
        assert dimension(Ideal.make(XY, [poly(XY, "1")])) == -1

    def test_point(self):
        assert dimension(Ideal.make(XY, [poly(XY, "x"), poly(XY, "y")])) == 0

    def test_zero_ideal_full_space(self):
        assert dimension(Ideal(XY, ())) == 2


class TestRealRoots:
    def test_quadratic_with_exact_roots(self):
        roots = real_roots(poly(("t",), "t^2 - t"))
        assert roots == [(Fraction(0), Fraction(0)), (Fraction(1), Fraction(1))]

    def test_no_real_roots(self):
        assert real_roots(poly(("t",), "t^2 + 1")) == []

    def test_multiplicity_collapses(self):
        assert real_roots(poly(("t",), "t^3")) == [(Fraction(0), Fraction(0))]

    def test_zero_rejected(self):
        from liptriv.polycore import Polynomial

        with pytest.raises(ValueError):
            real_roots(Polynomial.zero(("t",)))

    def test_isolating_intervals_disjoint(self):
        roots = real_roots(poly(("t",), "t^3 - 3*t^2 + 2*t"))
        assert len(roots) == 3
        for (a1, b1), (a2, b2) in zip(roots, roots[1:]):
            assert b1 <= a2

    def test_count_matches_isolation(self):
        rng = random.Random(47)
        for _ in range(50):
            p = rand_poly(rng, ("t",), 6, max_terms=4)
            if p.is_zero() or p.degree < 1:
                continue
            assert count_real_roots(p) == len(real_roots(p))


class TestOrderKeys:
    @pytest.mark.parametrize(
        "order",
        [MonomialOrder.grevlex(), MonomialOrder.lex(), MonomialOrder.elimination([0, 2])],
        ids=["grevlex", "lex", "block-drop-2"],
    )
    def test_each_exponent_keyed_once_per_run(self, order, monkeypatch):
        keyed = []
        key_function = MonomialOrder.key_function

        def counting(self, nvars):
            keyf = key_function(self, nvars)

            def key(e):
                keyed.append(e)
                return keyf(e)

            return key

        monkeypatch.setattr(MonomialOrder, "key_function", counting)
        ring = ("x", "y", "z", "w")
        gens = [
            poly(ring, "x^2 + y*z - w"),
            poly(ring, "y^2 - x*w + 2"),
            poly(ring, "z*w - x*y - 1"),
        ]
        gb = buchberger(Ideal.make(ring, gens), order)
        assert len(gb.basis) > len(gens)
        assert len(keyed) == len(set(keyed))


class TestBudget:
    def test_degree_budget_raises(self):
        ring = ("x", "y", "z")
        gens = [poly(ring, "x^5 + y^4*z"), poly(ring, "y^5 - x*z^3"), poly(ring, "z^5 - x^2*y^2")]
        with pytest.raises(BudgetExceededError):
            buchberger(Ideal.make(ring, gens), budget=GroebnerBudget(max_degree=4))

    def test_basis_budget_raises(self):
        ring = ("x", "y", "z")
        gens = [poly(ring, "x^2 + y*z - 1"), poly(ring, "y^2 + x*z - 2"), poly(ring, "z^2 + x*y - 3")]
        with pytest.raises(BudgetExceededError):
            buchberger(Ideal.make(ring, gens), budget=GroebnerBudget(max_basis=3))

    def test_limit_below_one_rejected(self):
        for limits in ({"max_basis": 0}, {"max_basis": -3}, {"max_degree": 0}, {"max_degree": -1}):
            with pytest.raises(ValueError):
                GroebnerBudget(**limits)

    def test_error_is_explicit_not_truncation(self):
        ring = ("x", "y", "z")
        gens = [poly(ring, "x^2 + y*z - 1"), poly(ring, "y^2 + x*z - 2"), poly(ring, "z^2 + x*y - 3")]
        try:
            buchberger(Ideal.make(ring, gens), budget=GroebnerBudget(max_basis=3))
        except BudgetExceededError as exc:
            assert exc.limit == 3
            assert exc.observed > 3
        else:
            pytest.fail("expected BudgetExceededError")


class TestIsUnitIdeal:
    """The unit-ideal test is dimension -1."""

    def test_unit(self):
        assert dimension(Ideal.make(("x",), [poly(("x",), "x - 1"), poly(("x",), "x")])) == -1

    def test_not_unit(self):
        assert dimension(Ideal.make(XY, [poly(XY, "x")])) >= 0
