"""Rational mappings: indeterminacy certificates and invariance directions."""

import random
from fractions import Fraction

import pytest

from conftest import count_calls, poly, rand_poly
from liptriv.classifier import RATIONAL_NOT_APPLICABLE, classify
from liptriv.dependence import invariance_subspace
from liptriv.parsing import parse_input
from liptriv.polycore import PolyMap, Polynomial
from liptriv.rational import (
    RationalMap,
    indeterminacy_empty_check,
    is_one_plus_sum_of_squares,
    rational_invariance_subspace,
)

F = Fraction
XY = ("x", "y")


class TestIndeterminacy:
    def test_regulous_graph_passes_with_sos_certificate(self, regulous_map):
        verdict = indeterminacy_empty_check(regulous_map)
        assert verdict.status == "PASS"
        assert verdict.per_component[0]["certificate"] == "sum_of_squares"

    def test_coordinate_quotient_fails(self, monkeypatch):
        import liptriv.groebner

        r = parse_input("ring Q[x,y]; ratmap f: (x / y)")
        runs = count_calls(monkeypatch, liptriv.groebner, "buchberger")
        verdict = indeterminacy_empty_check(r)
        assert verdict.status == "FAIL"
        assert verdict.per_component[0]["common_zero_ideal"] == (poly(XY, "y"), poly(XY, "x"))
        # The verdict and the printed basis come from one Groebner run.
        assert len(runs) == 1

    def test_polynomial_component_passes(self):
        r = parse_input("ring Q[x,y]; ratmap f: (x*y + x, 1/(1 + x^2))")
        verdict = indeterminacy_empty_check(r)
        assert verdict.status == "PASS"
        assert verdict.per_component[0]["certificate"] == "constant denominator"

    def test_unit_ideal_certificate(self):
        # Numerator 1 never vanishes: common zero set empty over C.
        r = parse_input("ring Q[x,y]; ratmap f: (1 / x)")
        verdict = indeterminacy_empty_check(r)
        assert verdict.status == "PASS"
        assert verdict.per_component[0]["certificate"] == "unit_ideal"


class TestSumOfSquaresPattern:
    def test_accepts_one_plus_squares(self):
        assert is_one_plus_sum_of_squares(poly(XY, "1 + x^2 + y^2"))
        assert is_one_plus_sum_of_squares(poly(XY, "2 + 3*x^4*y^2"))

    def test_rejects_odd_or_negative(self):
        assert not is_one_plus_sum_of_squares(poly(XY, "1 + x"))
        assert not is_one_plus_sum_of_squares(poly(XY, "1 - x^2"))
        assert not is_one_plus_sum_of_squares(poly(XY, "x^2"))


def leaves_invariant(r: RationalMap, v) -> bool:
    """d_v(num)*den - num*d_v(den) is the zero polynomial for every component:
    the quotient-rule condition, built again for one direction v."""
    for num, den in zip(r.numerators, r.denominators):
        acc = Polynomial.zero(r.vars)
        for j, vj in enumerate(v):
            if vj:
                acc = acc + (num.partial(j) * den - num * den.partial(j)) * vj
        if not acc.is_zero():
            return False
    return True


class TestRationalInvariance:
    def test_regulous_graph_has_no_direction(self, regulous_map):
        assert rational_invariance_subspace(regulous_map).dim == 0

    @pytest.mark.parametrize(
        "text, dim",
        [
            ("ring Q[x,y]; ratmap f: ((y*(1 + x^2) - 1) / (1 + x^2))", 0),
            ("ring Q[x,y,z]; ratmap f: ((x + y) / (1 + (x + y)^2), z / (x + y + 1))", 1),
            ("ring Q[x,y,z]; ratmap f: ((x - y)^2 / (1 + z^2 + (x - y)^2))", 1),
            ("ring Q[x,y,z]; ratmap f: (x / (1 + x^2))", 2),
        ],
    )
    def test_kernel_directions_leave_the_map_invariant(self, text, dim):
        r = parse_input(text)
        basis = rational_invariance_subspace(r).basis
        assert len(basis) == dim
        for v in basis:
            assert leaves_invariant(r, v)
        for i, u in enumerate(basis):
            for w in basis[i + 1 :]:
                assert leaves_invariant(r, [a + b for a, b in zip(u, w)])

    def test_unused_variable_direction(self):
        r = parse_input("ring Q[x,y]; ratmap f: (1 / (x^2 + 1))")
        assert rational_invariance_subspace(r).basis == ((F(0), F(1)),)

    def test_consistent_with_polynomial_module(self):
        rng = random.Random(83)
        ring = ("x", "y", "z")
        one = Polynomial.constant(ring, 1)
        done = 0
        while done < 100:
            comps = tuple(rand_poly(rng, ring, 3) for _ in range(rng.randint(1, 2)))
            if any(c.is_zero() for c in comps):
                continue
            f = PolyMap(ring, comps)
            r = RationalMap(ring, comps, tuple(one for _ in comps))
            assert rational_invariance_subspace(r) == invariance_subspace(f)
            done += 1


class TestClassifyRational:
    def test_not_applicable_with_counterexample_evidence(self, regulous_map):
        rep = classify(regulous_map, "real")
        assert rep.ltv.kind == "not_applicable"
        assert rep.ltv.reason == RATIONAL_NOT_APPLICABLE
        names = {c.name: c for c in rep.checks}
        assert names["indeterminacy_empty"].verdict == "PASS"
        assert names["rational_invariance"].verdict == "ZERO"
        assert names["gradient_bound"].verdict == "BOUNDED"
        assert names["gradient_bound"].data["bound"] <= 2.0

    def test_polynomial_ratmap_gets_full_pipeline(self):
        r = parse_input("ring Q[x,y]; ratmap f: ((x + y)^3 / 1)")
        rep = classify(r, "complex")
        assert rep.ltv.kind == "complement"
