"""Grammar front-end: accepted inputs, positioned rejections, print round-trips."""

import random
from fractions import Fraction

import pytest

from conftest import rand_poly
from liptriv.parsing import (
    _MAX_DIGITS,
    MAX_PARSE_BITS,
    ParseError,
    format_fraction,
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


# Each diagnostic with the input that triggers it and its line:column.
DIAGNOSTICS = [
    ("ring Q[x]; map f: (x @ 1)", "unexpected character '@'", 1, 22),
    ("map f: (x)", "input must start with a ring declaration", 1, 1),
    ("ring R[x]; map f: (x)", "only rational coefficient rings are supported", 1, 6),
    ("ring Q[x]; mop f: (x)", "expected 'map' or 'ratmap'", 1, 12),
    ("ring Q[x]; map f: (x); x", "trailing input after mapping", 1, 24),
    ("ring Q[x]; ratmap f: (x / (x - x))", "zero denominator", 1, 34),
    ("ring Q[x]; map f: (x + 1/0)", "zero denominator in rational literal", 1, 24),
    ("ring Q[x]; map f: (x + )", "expected an expression, found ')'", 1, 24),
]


@pytest.mark.parametrize(
    "text,message,line,col", DIAGNOSTICS, ids=[m for _, m, _, _ in DIAGNOSTICS]
)
def test_diagnostic_message_and_position(text, message, line, col):
    with pytest.raises(ParseError) as err:
        parse_input(text)
    assert (err.value.message, err.value.line, err.value.col) == (message, line, col)


def test_parse_mapping_refuses_a_ratmap():
    with pytest.raises(ParseError) as err:
        parse_mapping("ring Q[x]; ratmap f: (1 / x)")
    assert (err.value.message, err.value.line, err.value.col) == (
        "expected a polynomial map, found ratmap", 1, 1,
    )


class TestIntegerLiterals:
    """A literal is ASCII digits, at most as many as a MAX_PARSE_BITS-bit
    integer has; anything else is refused at its position, whatever limit
    the interpreter puts on int conversion."""

    @pytest.mark.parametrize(
        "text,char,col", [("(²)", "²", 20), ("(x + ٣)", "٣", 24)], ids=["superscript", "arabic-indic"]
    )
    def test_other_digits_are_unexpected_characters(self, text, char, col):
        with pytest.raises(ParseError) as err:
            parse_mapping(f"ring Q[x]; map f: {text}")
        assert err.value.message == f"unexpected character {char!r}"
        assert (err.value.line, err.value.col) == (1, col)

    def test_limit_is_the_digits_of_the_largest_parse_bits_integer(self):
        assert _MAX_DIGITS == len(str(2**MAX_PARSE_BITS - 1)) == 1234

    @pytest.mark.parametrize("digits", [1300, 5000])
    def test_too_long_literal_refused_at_its_position(self, digits):
        with pytest.raises(ParseError) as err:
            parse_mapping(f"ring Q[x];\nmap f: (x + {'7' * digits} * x)")
        assert err.value.message == f"integer literal of {digits} digits exceeds 1234"
        assert (err.value.line, err.value.col) == (2, 13)

    def test_thousand_digit_literal_parses(self):
        f = parse_mapping(f"ring Q[x]; map f: ({'7' * 1000} * x)")
        assert f.components[0].coefficient((1,)) == (10**1000 - 1) // 9 * 7


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

    def test_denominators_all_one_yield_polymap(self):
        r = parse_input("ring Q[x,y]; ratmap f: ((x + y)^3 / 1)")
        assert r == parse_input("ring Q[x,y]; map f: ((x + y)^3)")

    @pytest.mark.parametrize("components", ["x / 2", "x, 1/y"])
    def test_other_denominators_yield_rational_map(self, components):
        r = parse_input(f"ring Q[x,y]; ratmap f: ({components})")
        assert isinstance(r, RationalMap)


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

    @pytest.mark.parametrize("digits", [1, 599, 600, 601, 1200, 1201, 4000])
    def test_format_fraction_is_str(self, digits):
        # Around and past the 600-digit chunks, signed, with a denominator;
        # str itself stays below the default 4,300-digit conversion limit.
        for n in (int("9" * digits), 10 ** (digits - 1) + 7):  # the second pads chunks with 0
            for value in (Fraction(n), Fraction(-n), Fraction(n, 7**900), Fraction(-1, n)):
                assert format_fraction(value) == str(value)

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
