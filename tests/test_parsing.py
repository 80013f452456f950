"""Grammar front-end: accepted inputs, positioned rejections, print round-trips."""

import random
from fractions import Fraction

import pytest

from conftest import rand_poly
from liptriv.parsing import (
    ParseError,
    parse_input,
    parse_mapping,
    print_polynomial,
)
from liptriv.polycore import PolyMap
from liptriv.rational import RationalMap


class TestParseMapping:
    def test_two_component_map(self):
        f = parse_mapping("ring Q[x,y,z]; map f: (x, x*y + x*z)")
        assert (f.n, f.p) == (3, 2)
        assert f.name == "f"
        assert print_polynomial(f.components[1]) == "x*y + x*z"

    def test_degree_six_map(self):
        f = parse_mapping("ring Q[x,y,z]; map f: (x^4*y^2 + x^2*y^4 - 3*x^2*y^2 + 1)")
        assert (f.n, f.p) == (3, 1)
        assert f.components[0].degree == 6

    def test_empty_component_list_rejected(self):
        with pytest.raises(ParseError, match="at least one component"):
            parse_mapping("ring Q[x]; map f: ()")

    def test_unknown_variable(self):
        with pytest.raises(ParseError, match="unknown variable 'w'"):
            parse_mapping("ring Q[x,y]; map f: (x + w)")

    def test_unbalanced_parentheses_position(self):
        with pytest.raises(ParseError) as err:
            parse_mapping("ring Q[x]; map f: ((x + 1)")
        assert err.value.line == 1
        assert err.value.col > 0

    def test_non_integer_exponent(self):
        with pytest.raises(ParseError, match="exponent"):
            parse_mapping("ring Q[x]; map f: (x^y)")

    def test_division_rejected_in_map(self):
        with pytest.raises(ParseError, match="division"):
            parse_mapping("ring Q[x,y]; map f: (x / y)")

    def test_decimals_rejected(self):
        with pytest.raises(ParseError, match="decimal"):
            parse_mapping("ring Q[x]; map f: (1.5*x)")

    def test_rational_coefficient(self):
        f = parse_mapping("ring Q[x]; map f: (3/2*x - 1/3)")
        assert f.components[0].coefficient((1,)) == Fraction(3, 2)
        assert f.components[0].coefficient((0,)) == Fraction(-1, 3)

    def test_duplicate_ring_variable(self):
        with pytest.raises(ParseError, match="duplicate"):
            parse_mapping("ring Q[x,x]; map f: (x)")

    def test_unary_minus_binds_factor(self):
        f = parse_mapping("ring Q[x]; map f: (-x^2)")
        assert f.components[0].coefficient((2,)) == -1

    def test_trailing_semicolon_allowed(self):
        f = parse_mapping("ring Q[x]; map f: (x);")
        assert f.p == 1

    def test_error_column_points_at_token(self):
        with pytest.raises(ParseError) as err:
            parse_mapping("ring Q[x];\nmap f: (x + q)")
        assert err.value.line == 2
        assert err.value.col == 13


class TestRatmap:
    def test_fraction_component(self):
        r = parse_input("ring Q[x,y]; ratmap f: ((y*(1 + x^2) - 1) / (1 + x^2))")
        assert isinstance(r, RationalMap)
        assert print_polynomial(r.denominators[0]) == "x^2 + 1"

    def test_plain_components_allowed(self):
        r = parse_input("ring Q[x,y]; ratmap f: (x, x / y)")
        assert r.denominators[0].is_constant()
        assert print_polynomial(r.denominators[1]) == "y"

    def test_map_keyword_yields_polymap(self):
        f = parse_input("ring Q[x]; map f: (x)")
        assert isinstance(f, PolyMap)


class TestPrinting:
    def test_difference_of_squares(self):
        from conftest import poly

        assert print_polynomial(poly(("x", "y"), "x^2 - y^2")) == "x^2 - y^2"

    def test_zero(self):
        from liptriv.polycore import Polynomial

        assert print_polynomial(Polynomial.zero(("x",))) == "0"

    def test_rational_coefficient_style(self):
        from conftest import poly

        assert print_polynomial(poly(("x",), "3/2*x")) == "3/2*x"

    def test_roundtrip_random_maps(self):
        rng = random.Random(101)
        ring_pool = [("x",), ("x", "y"), ("x", "y", "z"), ("x", "y", "z", "w")]
        done = 0
        while done < 1000:
            variables = ring_pool[rng.randrange(len(ring_pool))]
            comps = []
            for _ in range(rng.randint(1, 3)):
                comps.append(rand_poly(rng, variables, 5))
            f = PolyMap(tuple(variables), tuple(comps))
            comps_text = ", ".join(print_polynomial(c) for c in f.components)
            text = f"ring Q[{','.join(f.vars)}]; map f: ({comps_text})"
            back = parse_mapping(text)
            assert back.vars == f.vars
            assert back.components == f.components
            done += 1
