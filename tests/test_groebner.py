"""Groebner engine: bases, normal forms, elimination, saturation, dimension,
real-root isolation, and the resource budget contract."""

import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    count_real_roots,
    normal_form,
    order_key,
    poly,
    rand_poly,
    spolynomial,
    two_phase_real_roots,
)
from liptriv.groebner import (
    BudgetExceededError,
    _Packing,
    GroebnerBasis,
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
from liptriv.polycore import MAX_EXPONENT, PolyMap, Polynomial

XY = ("x", "y")


def _times(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


@st.composite
def univariate(draw):
    """A product of (t - r)^k over dyadic roots r, some clustered within
    2^-12 of each other, times a factor with random integer coefficients."""
    coeffs = [Fraction(draw(st.sampled_from([-3, -2, -1, 1, 2, 3])))]
    for _ in range(draw(st.integers(0, 4))):
        root = Fraction(draw(st.integers(-40, 40)), 2 ** draw(st.integers(0, 10)))
        for cluster in range(draw(st.integers(1, 2))):
            r = root + Fraction(cluster, 4096)
            for _ in range(draw(st.integers(1, 3))):
                coeffs = _times(coeffs, [-r, Fraction(1)])
    extra = draw(st.lists(st.integers(-6, 6), max_size=5))
    if any(extra):
        coeffs = _times(coeffs, [Fraction(c) for c in extra])
    return Polynomial.from_dict(("t",), {(i,): c for i, c in enumerate(coeffs) if c})


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
        assert gb.basis == (poly(("x",), "1"),)
        assert gb.dimension() == -1

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
        keyf = order_key(gb.order, 2)
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

    def test_zero_ideal(self):
        ring = ("x", "t", "s")
        assert eliminate(Ideal(ring, ()), ["x"]) == Ideal(("t", "s"), ())

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

    def test_zero_ideal(self):
        assert saturate(Ideal(XY, ()), poly(XY, "y")) == Ideal(XY, ())

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

    def test_with_the_zero_ideal(self):
        tv = ("t1", "t2")
        a = Ideal.make(tv, [poly(tv, "t1"), poly(tv, "t2^2 - 1")])
        zero = Ideal(tv, ())
        assert intersect(a, zero) == zero
        assert intersect(zero, a) == zero
        assert intersect(zero, zero) == zero


def subset_scan_dimension(supports, n: int) -> int:
    """The size of the largest variable subset that holds no support, by
    scanning all 2^n subsets: the oracle of GroebnerBasis.dimension's search."""
    best = 0
    for mask in range(1 << n):
        subset = frozenset(i for i in range(n) if mask >> i & 1)
        if len(subset) > best and all(not s <= subset for s in supports):
            best = len(subset)
    return best


@st.composite
def monomial_supports(draw):
    n = draw(st.integers(1, 8))
    supports = draw(
        st.lists(st.frozensets(st.integers(0, n - 1), min_size=1, max_size=n), max_size=10)
    )
    return n, supports


class TestDimension:
    @given(monomial_supports())
    @settings(max_examples=300, deadline=None)
    @example((4, [frozenset({0, 1}), frozenset({1, 2}), frozenset({2, 3}), frozenset({0, 3})]))
    @example((6, [frozenset({0, 1, 2}), frozenset({3, 4, 5}), frozenset({0, 3})]))
    @example((7, [frozenset({0, 1, 2}), frozenset({2, 3, 4}), frozenset({2, 5, 6})]))
    @example((3, []))
    def test_branch_search_matches_subset_scan(self, case):
        """The leading monomials are the monomials themselves, each with
        exponent 1 or 2 on its support."""
        n, supports = case
        ring = tuple(f"x{i}" for i in range(n))
        basis = tuple(
            Polynomial.from_dict(ring, {tuple(1 + i % 2 if i in s else 0 for i in range(n)): 1})
            for s in supports
        )
        gb = GroebnerBasis(ring, MonomialOrder.grevlex(), basis)
        assert gb.dimension() == subset_scan_dimension(supports, n)

    def test_hyperplane(self):
        assert dimension(Ideal.make(XY, [poly(XY, "x")])) == 1

    def test_unit_ideal_is_empty_variety(self):
        assert dimension(Ideal.make(XY, [poly(XY, "1")])) == -1

    def test_point(self):
        assert dimension(Ideal.make(XY, [poly(XY, "x"), poly(XY, "y")])) == 0

    def test_zero_ideal_full_space(self):
        assert dimension(Ideal(XY, ())) == 2
        assert dimension(Ideal(("x", "y", "z"), ())) == 3

    def test_unit_ideal_within_a_small_degree_budget(self):
        """The constant's pairs are all skipped, so a generator past the
        degree budget is never reduced."""
        ideal = Ideal.make(XY, [poly(XY, "1"), poly(XY, "x^70*y + y^3")])
        assert dimension(ideal, GroebnerBudget(max_degree=2)) == -1


class TestFiberIdeal:
    def test_generators_are_the_differences(self):
        f = PolyMap(XY, (poly(XY, "x*y"), poly(XY, "x + y")))
        fiber = Ideal.fiber(f, (Fraction(2), Fraction(-1, 3)))
        assert fiber.generators == (poly(XY, "x*y - 2"), poly(XY, "x + y + 1/3"))

    def test_component_identically_its_value_dropped(self):
        f = PolyMap(XY, (poly(XY, "x"), poly(XY, "3")))
        assert Ideal.fiber(f, (Fraction(1), Fraction(3))).generators == (poly(XY, "x - 1"),)


class TestRealRoots:
    def test_quadratic_with_exact_roots(self):
        roots = real_roots(poly(("t",), "t^2 - t"))
        assert roots == [(Fraction(0), Fraction(0)), (Fraction(1), Fraction(1))]

    def test_no_real_roots(self):
        assert real_roots(poly(("t",), "t^2 + 1")) == []

    def test_nonzero_constant_has_no_root(self):
        assert real_roots(poly(("t",), "-7/2")) == []

    def test_multiplicity_collapses(self):
        assert real_roots(poly(("t",), "t^3")) == [(Fraction(0), Fraction(0))]

    def test_zero_rejected(self):
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

    def test_roots_past_the_recursion_limit(self):
        # A root bound past 2^990 takes more halvings than Python's recursion limit.
        big = Fraction(2) ** 1000
        roots = [big, big + 1]
        one = Polynomial.from_dict(("t",), {(1,): Fraction(1), (0,): -big})
        two = Polynomial.from_dict(
            ("t",), {(2,): Fraction(1), (1,): -2 * big - 1, (0,): big * (big + 1)}
        )
        assert real_roots(one) == two_phase_real_roots(one)
        intervals = real_roots(two)
        assert len(intervals) == 2
        for (a, b), r in zip(intervals, roots):
            assert a <= r <= b and b - a <= Fraction(1, 64)

    @settings(deadline=None, max_examples=200)
    @given(univariate())
    @example(poly(("t",), "t^3 - 3*t^2 + 2*t"))
    @example(poly(("t",), "(t - 1/3)^2*(t - 1/2)*(t^2 - 2)"))
    @example(poly(("t",), "4096*t^2 - 4096*t + 1023"))  # roots 31/64 and 33/64
    def test_matches_two_phase_bisection(self, p):
        assert real_roots(p) == two_phase_real_roots(p)


class TestPackedMonomials:
    """buchberger keeps monomials as packed ints; their integer order must be
    the monomial order of order_key, the tuple-based oracle."""

    @pytest.mark.parametrize(
        "order",
        [MonomialOrder.grevlex(), MonomialOrder.elimination([0, 2])],
        ids=["grevlex", "block-drop-2"],
    )
    def test_word_order_is_the_monomial_order(self, order):
        nvars, degree = 4, 5
        top = 2 * degree  # the largest total degree a run packs
        packing = _Packing(order, nvars, degree)
        key = order_key(order, nvars)
        rng = random.Random(11)

        def exponent():
            e = [0] * nvars
            for _ in range(rng.randint(0, top)):
                e[rng.randrange(nvars)] += 1
            return tuple(e)

        zero = (0,) * nvars
        # The boundary: the unit, each variable to the full degree, and the
        # full degree split between the first and last variable.
        exps = [zero, (top // 2, 0, 0, top - top // 2)]
        exps += [tuple(top * (i == j) for i in range(nvars)) for j in range(nvars)]
        exps += [exponent() for _ in range(80)]
        for a in exps:
            word = packing.pack(a)
            assert packing.unpack(word) == a
            assert word & packing.mask == sum(a)
            for b in exps:
                other = packing.pack(b)
                assert (word < other) == (key(a) < key(b))
                assert (word == other) == (a == b)
                assert packing.divides(word, other) == all(x <= y for x, y in zip(a, b))
                if sum(a) + sum(b) <= top:
                    ab = tuple(x + y for x, y in zip(a, b))
                    assert packing.pack(ab) == word + other - packing.pack(zero)


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

    def test_exponent_at_the_cap(self):
        """Packed fields are sized from the input degree too, so an exponent
        at MAX_EXPONENT neither wraps nor slips past the degree budget."""
        ring = ("x", "y", "z")
        n = MAX_EXPONENT
        # x divides x^n: the basis is (x) without any term of degree n popped.
        gb = buchberger(Ideal.make(ring, [poly(ring, f"x^{n}"), poly(ring, "x")]))
        assert gb.basis == (poly(ring, "x"),)
        gens = [poly(ring, f"x^{n}*y - y"), poly(ring, f"x^{n}*z - z")]
        with pytest.raises(BudgetExceededError):
            buchberger(Ideal.make(ring, gens))
        # The one S-polynomial reduces to zero, and both are reduced already.
        gb = buchberger(Ideal.make(ring, gens), budget=GroebnerBudget(max_degree=n + 1))
        assert gb.basis == (gens[1], gens[0])
        assert gb.leading_exponents() == [(n, 0, 1), (n, 1, 0)]

    def test_large_degree_budget(self):
        ring = ("x", "y", "z")
        gens = [poly(ring, "x^2 + y*z - 1"), poly(ring, "y^2 + x*z - 2"), poly(ring, "z^2 + x*y - 3")]
        for order in (MonomialOrder.grevlex(), MonomialOrder.elimination([0])):
            expected = buchberger(Ideal.make(ring, gens), order)
            for max_degree in (2**40, 10**30):
                budget = GroebnerBudget(max_degree=max_degree)
                assert buchberger(Ideal.make(ring, gens), order, budget) == expected


class TestIsUnitIdeal:
    """The unit-ideal test is dimension -1."""

    def test_unit(self):
        assert dimension(Ideal.make(("x",), [poly(("x",), "x - 1"), poly(("x",), "x")])) == -1

    def test_not_unit(self):
        assert dimension(Ideal.make(XY, [poly(XY, "x")])) >= 0
