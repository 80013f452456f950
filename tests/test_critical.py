"""Critical value ideals by minor elimination and real attainment checks."""

import random
import struct
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    compose_linear,
    eval_float,
    is_invertible,
    lstsq_solve,
    poly,
    reference_newton_critical_points,
)
from liptriv import critical
from liptriv.critical import RealCriticalValue, critical_ideal, jacobian, real_critical_values
from liptriv.classifier import classify
from liptriv.groebner import buchberger, real_roots
from liptriv.parsing import parse_mapping, print_polynomial
from liptriv.polycore import PolyMap, Polynomial
from liptriv.properness import _gauss_newton_step

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

    def test_more_components_than_variables_keeps_the_graph(self):
        # p = 2 > n = 1: no 2 x 2 minor exists, every point is critical, and
        # the critical values are the whole image, the parabola t2 = t1^2.
        g = PolyMap(("x",), (poly(("x",), "x"), poly(("x",), "x^2")))
        crit = critical_ideal(g)
        assert crit.vars == ("t1", "t2")
        assert crit.generators == (poly(("t1", "t2"), "t1^2 - t2"),)

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
            if not is_invertible(rows):
                continue
            conj = compose_linear(g, rows, new_vars=ring)
            a = buchberger(critical_ideal(g)).basis
            b = buchberger(critical_ideal(conj)).basis
            assert a == b
            checked += 1


class TestRealCriticalValues:
    def test_plane_sextic_attains_both(self, plane_sextic):
        roots = real_critical_values(plane_sextic, critical_ideal(plane_sextic))
        assert [(r.approx, r.status) for r in roots] == [
            (0.0, "attained"),
            (1.0, "attained"),
        ]
        grads = [plane_sextic.components[0].partial(j) for j in range(2)]
        for r in roots:
            point = list(r.witness)
            assert sum(eval_float(d, point) ** 2 for d in grads) ** 0.5 < 1e-8
            value = eval_float(plane_sextic.components[0], point)
            assert abs(value - r.approx) < 1e-8

    def test_square_attains_minimum(self):
        g = PolyMap(("u",), (poly(("u",), "u^2"),))
        roots = real_critical_values(g, critical_ideal(g))
        assert [(r.approx, r.status) for r in roots] == [(0.0, "attained")]

    def test_shifted_paraboloid(self):
        ring = ("x", "y")
        g = PolyMap(ring, (poly(ring, "x^2 + y^2 + 1"),))
        roots = real_critical_values(g, critical_ideal(g))
        assert [(r.approx, r.status) for r in roots] == [(1.0, "attained")]
        # Gradient vanishes only at the origin.
        assert np.linalg.norm(roots[0].witness) < 1e-6

    def test_requires_single_component(self, reduced_shear):
        with pytest.raises(ValueError):
            real_critical_values(reduced_shear, critical_ideal(reduced_shear))

    def test_witness_is_rank_deficient(self, plane_sextic):
        # For p = 1 rank deficiency is a vanishing gradient.
        grads = [plane_sextic.components[0].partial(j) for j in range(2)]
        for r in real_critical_values(plane_sextic, critical_ideal(plane_sextic)):
            g0 = eval_float(grads[0], list(r.witness))
            g1 = eval_float(grads[1], list(r.witness))
            assert (g0 * g0 + g1 * g1) ** 0.5 < 1e-8


# -- the Newton loop against its numpy oracle ---------------------------------------

XYZ = ("x", "y", "z")


def bits(value) -> int:
    return struct.unpack("<q", struct.pack("<d", value))[0]


def scalar_map(ring, text):
    return PolyMap(ring, (poly(ring, text),))


@st.composite
def scalar_maps(draw):
    """Maps of degree <= 4 in 1-3 variables, some of which may be unused."""
    ring = XYZ[: draw(st.integers(1, 3))]
    exps = draw(
        st.lists(
            st.lists(st.integers(0, len(ring) - 1), max_size=4).map(
                lambda idx: tuple(idx.count(i) for i in range(len(ring)))
            ),
            min_size=1,
            max_size=4,
        )
    )
    coeffs = {e: Fraction(draw(st.sampled_from([-3, -2, -1, 1, 2, 3]))) for e in exps}
    return PolyMap(ring, (Polynomial.from_dict(ring, coeffs),))


# The reference's numpy arrays warn where a Newton step overflows.
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=25, deadline=None)
@given(scalar_maps())
# Singular Hessians along a critical line, and variables the map does not use:
# the minimum-norm least-squares step still reaches a critical point.
@example(scalar_map(XYZ, "-2*x^2"))
@example(scalar_map(XYZ[:2], "x*y"))
@example(scalar_map(XYZ[:2], "x^2*y"))
@example(scalar_map(XYZ, "x*y"))
@example(scalar_map(XYZ[:1], "x^3 - 3*x"))
def test_newton_matches_numpy_loop(g):
    got = list(critical._newton_critical_points(g, 42))
    want = reference_newton_critical_points(g, 42, svd_solve)
    assert [[bits(v) for v in x] for x in got] == [[bits(v) for v in x] for x in want]

    # Each root's witness is the first reference end point whose value gap
    # to the root's interval is below the tolerance.
    def first_match(interval):
        lo, hi = interval
        for point in want:
            gap = abs(eval_float(g.components[0], point) - float((lo + hi) / 2))
            if lo != hi:
                gap = max(0.0, gap - float(hi - lo))
            if gap < critical._NEWTON_TOL:
                return point
        return None

    crit = critical_ideal(g)
    roots = real_critical_values(g, crit)
    intervals = [] if crit.has_unit_generator() else real_roots(crit.generators[0])
    assert [r.interval for r in roots] == intervals
    for r in roots:
        expected = first_match(r.interval)
        assert (r.witness and [bits(v) for v in r.witness]) == (
            expected and [bits(v) for v in expected]
        )


def svd_solve(jac, rhs):
    """The package's least-squares step, by its Jacobi SVD."""
    return _gauss_newton_step(rhs, lambda: jac, 0.0)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize(
    "ring, expr",
    [(XYZ, "-2*x^2"), (XYZ[:2], "x*y"), (XYZ[:2], "x^2*y"), (XYZ, "x*y"), (XYZ[:1], "x^3 - 3*x")],
)
def test_newton_with_lstsq_steps_ends_at_the_same_points(ring, expr):
    # The same starts with numpy's lstsq for every step end at the same
    # critical points, singular Hessians included, to 1e-9.
    g = scalar_map(ring, expr)
    got = list(critical._newton_critical_points(g, 42))
    want = reference_newton_critical_points(g, 42, lstsq_solve)
    assert len(got) == len(want) > 0
    for a, b in zip(got, want):
        assert a == pytest.approx(b, rel=0.0, abs=1e-9)


# -- the witness search stops when it is done ---------------------------------------


def taken_points(monkeypatch):
    """Wraps critical._newton_critical_points: one list per call, made when
    it is called, holding the end points taken from that call's generator."""
    original = critical._newton_critical_points
    calls = []

    def counting(g, seed):
        taken = []
        calls.append(taken)

        def points():
            for point in original(g, seed):
                taken.append(point)
                yield point

        return points()

    monkeypatch.setattr(critical, "_newton_critical_points", counting)
    return calls


def test_real_analyses_take_only_the_witnessing_end_points(monkeypatch, cube_map, motzkin_map):
    """`cube` real has one critical value, which the first end point attains;
    `motzkin` real has two: the first end point attains 1 and the 8th 0.  A
    search that ran all 200 starts before matching took every end point
    they found."""
    calls = taken_points(monkeypatch)
    classify(cube_map, "real")
    assert [len(taken) for taken in calls] == [1]
    calls.clear()
    classify(motzkin_map, "real")
    assert [len(taken) for taken in calls] == [8]


def test_no_real_critical_value_starts_no_newton(monkeypatch):
    calls = taken_points(monkeypatch)
    for text, generators in [
        ("ring Q[x]; map f: (x^3 + x)", ["t1^2 + 4/27"]),
        # No critical point: the critical ideal is (1), whose generator has no root.
        ("ring Q[x,y]; map f: (2*x - y + 1)", ["1"]),
    ]:
        g = parse_mapping(text)
        crit = critical_ideal(g)
        assert [print_polynomial(q) for q in crit.generators] == generators
        assert real_critical_values(g, crit) == []
    assert calls == []


def test_approx_past_the_float_range_is_a_signed_inf():
    big = Fraction(7**400)
    assert RealCriticalValue((big, big + 1), None).approx == float("inf")
    assert RealCriticalValue((-big - 1, -big), None).approx == float("-inf")
    assert RealCriticalValue((Fraction(1, 4), Fraction(1, 2)), None).approx == 0.375


def test_newton_search_on_a_huge_residual_is_quiet():
    # The gradient 3*x^2 - 3*7^200 is finite but past the range of its
    # squared norm, whose overflow numpy would report as a RuntimeWarning.
    g = parse_mapping("ring Q[x]; map f: (x^3 - 3*x*7^200)")
    crit = critical_ideal(g)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        roots = real_critical_values(g, crit)
    assert [r.status for r in roots] == ["candidate_only"] * 2
