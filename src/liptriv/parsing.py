"""Text front-end for polynomial and rational mappings.

Input grammar (products need an explicit `*`, powers use `^`, no implicit
multiplication)::

    file      := ring_decl ";" map_decl ";"?
    ring_decl := "ring" "Q" "[" ident ("," ident)* "]"
    map_decl  := ("map" | "ratmap") ident ":" "(" component ("," component)* ")"
    component := expr ("/" expr)?          -- the "/" split only in ratmap files
    expr      := term (("+"|"-") term)*
    term      := factor ("*" factor)*
    factor    := base ("^" uint)?
    base      := ident | rational | "(" expr ")" | "-" factor
    rational  := uint ("/" uint)?

Coefficients are integers or a/b rationals; decimals are rejected.  Every
diagnostic carries a line:column position.  A ratmap whose denominators are
all 1 parses as a PolyMap, like the same map file.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from fractions import Fraction
from math import floor, log10

from .groebner import BudgetExceededError
from .polycore import MAX_EXPONENT, Polynomial, PolyMap
from .rational import RationalMap

# Term pairs one product may multiply while parsing.  A power is expanded in
# full before any Groebner budget applies, and a product past this takes
# seconds: (1+x+y+z)^80 would take minutes.
MAX_PARSE_PRODUCT = 100_000

# Coefficient bits, numerator or denominator, that the two factors of one
# product may hold between them; 7^4000000 alone would take seconds.
MAX_PARSE_BITS = 4_096

# Work one parse may do in products: each term pair weighs _PAIR_WEIGHT plus
# the coefficient bits of its two factors.  A pair of small coefficients
# takes about 8 us and one of 3,800 bits about 19 us, so the cap is about
# 2.5 s CPU; under the two per-product caps alone, products chained in one
# input could take seconds each.
MAX_PARSE_WORK = 600_000_000
_PAIR_WEIGHT = 2_048

# Digits of the longest integer literal: as many as a MAX_PARSE_BITS-bit
# integer can have (1,234), below Python's default int conversion limit.
_MAX_DIGITS = floor(MAX_PARSE_BITS * log10(2)) + 1

_DIGITS = set("0123456789")


class ParseError(ValueError):
    """Input rejected by the grammar, with a line:column position."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.message = message
        self.line = line
        self.col = col


@dataclass(frozen=True)
class Token:
    kind: str  # "ident" | "int" | "punct" | "eof"
    text: str
    line: int
    col: int
    number: int = 0  # the value of an "int" literal, converted here only


_PUNCT = set(";,[]():+-*/^")


def _tokenize(text: str) -> list[Token]:
    tokens = []
    line, col = 1, 1
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            col += 1
            i += 1
            continue
        if ch in _DIGITS:
            j = i
            while j < len(text) and text[j] in _DIGITS:
                j += 1
            if j < len(text) and text[j] == ".":
                raise ParseError("decimal literals are not allowed; use a/b rationals", line, col)
            if j - i > _MAX_DIGITS:
                raise ParseError(f"integer literal of {j - i} digits exceeds {_MAX_DIGITS}", line, col)
            try:
                number = int(text[i:j])
            except ValueError:  # past a lowered int conversion limit (PYTHONINTMAXSTRDIGITS)
                limit = sys.get_int_max_str_digits()
                raise ParseError(f"integer literal of {j - i} digits exceeds {limit}", line, col) from None
            tokens.append(Token("int", text[i:j], line, col, number))
            col += j - i
            i = j
            continue
        if ch.isalpha():
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(Token("ident", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch in _PUNCT:
            tokens.append(Token("punct", ch, line, col))
            col += 1
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", line, col)
    tokens.append(Token("eof", "", line, col))
    return tokens


def _bits(p: Polynomial) -> int:
    """The largest bit length of a numerator or denominator of p."""
    return max((max(c.numerator.bit_length(), c.denominator.bit_length()) for _, c in p.terms), default=0)


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.work = 0
        self.ring_vars: tuple[str, ...] = ()
        self.var_index: dict[str, int] = {}

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def error(self, message: str, tok: Token | None = None) -> ParseError:
        tok = tok or self.peek()
        return ParseError(message, tok.line, tok.col)

    def under_cap(self, tok: Token, compute) -> Polynomial:
        """compute(), with an exponent past the cap reported at tok."""
        try:
            return compute()
        except OverflowError:
            raise self.error(f"exponent exceeds cap {MAX_EXPONENT}", tok) from None

    def product(self, tok: Token, a: Polynomial, b: Polynomial) -> Polynomial:
        """a * b, refused past MAX_PARSE_PRODUCT term pairs or MAX_PARSE_BITS
        coefficient bits, or once the parse's work would pass MAX_PARSE_WORK."""
        pairs = len(a.terms) * len(b.terms)
        if pairs > MAX_PARSE_PRODUCT:
            raise BudgetExceededError("parse term pairs of one product", MAX_PARSE_PRODUCT, pairs)
        bits = _bits(a) + _bits(b)
        if bits > MAX_PARSE_BITS:
            raise BudgetExceededError("parse coefficient bits of one product", MAX_PARSE_BITS, bits)
        self.work += pairs * (_PAIR_WEIGHT + bits)
        if self.work > MAX_PARSE_WORK:
            raise BudgetExceededError("parse work of the whole input", MAX_PARSE_WORK, self.work)
        return self.under_cap(tok, lambda: a * b)

    def power(self, tok: Token, base: Polynomial, k: int) -> Polynomial:
        """base ** k by repeated squaring, each product checked by product()."""
        result = Polynomial.constant(self.ring_vars, 1)
        while k:
            if k & 1:
                result = self.product(tok, result, base)
            k >>= 1
            if k:
                base = self.product(tok, base, base)
        return result

    def expect(self, kind: str, text: str | None = None) -> Token:
        tok = self.peek()
        if tok.kind != kind or (text is not None and tok.text != text):
            want = text if text is not None else kind
            got = tok.text if tok.kind != "eof" else "end of input"
            raise self.error(f"expected {want!r}, found {got!r}")
        return self.next()

    # -- header ---------------------------------------------------------------

    def parse_file(self):
        """The PolyMap of a map file or the RationalMap of a ratmap file."""
        kw = self.expect("ident")
        if kw.text != "ring":
            raise self.error("input must start with a ring declaration", kw)
        field = self.expect("ident")
        if field.text != "Q":
            raise self.error("only rational coefficient rings are supported", field)
        self.expect("punct", "[")
        names = [self.expect("ident").text]
        while self.peek().text == ",":
            self.next()
            names.append(self.expect("ident").text)
        self.expect("punct", "]")
        if len(set(names)) != len(names):
            raise self.error("duplicate variable name in ring declaration")
        self.ring_vars = tuple(names)
        self.var_index = {name: i for i, name in enumerate(names)}
        self.expect("punct", ";")

        kw = self.expect("ident")
        if kw.text not in ("map", "ratmap"):
            raise self.error("expected 'map' or 'ratmap'", kw)
        kind = kw.text
        map_name = self.expect("ident").text
        self.expect("punct", ":")
        self.expect("punct", "(")
        if self.peek().text == ")":
            raise self.error("a mapping needs at least one component")
        components = [self.parse_component(kind)]
        while self.peek().text == ",":
            self.next()
            components.append(self.parse_component(kind))
        self.expect("punct", ")")
        if self.peek().text == ";":
            self.next()
        if self.peek().kind != "eof":
            raise self.error("trailing input after mapping")
        nums, dens = zip(*components)
        # A map file has no division, so every denominator is 1; a ratmap
        # whose denominators are all 1 is a polynomial map too.
        if all(d.is_constant() and d.constant_value() == 1 for d in dens):
            return PolyMap(self.ring_vars, nums, map_name)
        return RationalMap(self.ring_vars, nums, dens, map_name)

    def parse_component(self, kind: str):
        num = self.parse_expr()
        if self.peek().text == "/":
            if kind != "ratmap":
                raise self.error("division is not in the grammar (use ratmap for fractions)")
            self.next()
            den = self.parse_expr()
            if den.is_zero():
                raise self.error("zero denominator")
            return (num, den)
        return (num, Polynomial.constant(self.ring_vars, 1))

    # -- expressions ------------------------------------------------------------

    def parse_expr(self) -> Polynomial:
        value = self.parse_term()
        while self.peek().text in ("+", "-"):
            op = self.next().text
            rhs = self.parse_term()
            value = value + rhs if op == "+" else value - rhs
        return value

    def parse_term(self) -> Polynomial:
        value = self.parse_factor()
        while self.peek().text == "*":
            star = self.next()
            value = self.product(star, value, self.parse_factor())
        return value

    def parse_factor(self) -> Polynomial:
        base = self.parse_base()
        if self.peek().text == "^":
            self.next()
            tok = self.peek()
            if tok.kind != "int":
                raise self.error("exponent must be a non-negative integer", tok)
            self.next()
            return self.power(tok, base, tok.number)
        return base

    def parse_base(self) -> Polynomial:
        tok = self.peek()
        if tok.text == "(":
            self.next()
            value = self.parse_expr()
            self.expect("punct", ")")
            return value
        if tok.text == "-":
            self.next()
            return -self.parse_factor()
        if tok.kind == "int":
            self.next()
            numerator = tok.number
            if self.peek().text == "/" and self.tokens[self.pos + 1].kind == "int":
                self.next()
                den = self.next().number
                if den == 0:
                    raise self.error("zero denominator in rational literal", tok)
                return Polynomial.constant(self.ring_vars, Fraction(numerator, den))
            return Polynomial.constant(self.ring_vars, numerator)
        if tok.kind == "ident":
            self.next()
            if tok.text not in self.var_index:
                raise self.error(f"unknown variable {tok.text!r}", tok)
            return Polynomial.variable(self.ring_vars, self.var_index[tok.text])
        got = tok.text if tok.kind != "eof" else "end of input"
        raise self.error(f"expected an expression, found {got!r}", tok)


def parse_mapping(text: str) -> PolyMap:
    """Parse a polynomial mapping file into an exact PolyMap."""
    mapping = parse_input(text)
    if not isinstance(mapping, PolyMap):
        raise ParseError("expected a polynomial map, found ratmap", 1, 1)
    return mapping


def parse_input(text: str):
    """A PolyMap when every denominator is 1 (always for a map file), else a RationalMap."""
    return _Parser(text).parse_file()


# -- printing ---------------------------------------------------------------


# Digits per chunk of a decimal conversion: below 640, the least int
# conversion limit Python accepts, so no PYTHONINTMAXSTRDIGITS refuses one.
_CHUNK_DIGITS = 600
_CHUNK = 10**_CHUNK_DIGITS


def _decimal(n: int) -> str:
    """str(n), converted in chunks of at most _CHUNK_DIGITS digits."""
    if n < 0:
        return "-" + _decimal(-n)
    chunks = []
    while n >= _CHUNK:
        n, low = divmod(n, _CHUNK)
        chunks.append(str(low).zfill(_CHUNK_DIGITS))
    return str(n) + "".join(reversed(chunks))


def format_fraction(c: Fraction) -> str:
    """str(c) under any int conversion limit: "n", or "n/d" in lowest terms."""
    if c.denominator == 1:
        return _decimal(c.numerator)
    return f"{_decimal(c.numerator)}/{_decimal(c.denominator)}"


def _format_monomial(vars_: tuple[str, ...], exp: tuple[int, ...]) -> str:
    parts = []
    for name, k in zip(vars_, exp):
        if k == 1:
            parts.append(name)
        elif k > 1:
            parts.append(f"{name}^{k}")
    return "*".join(parts)


def print_polynomial(p: Polynomial) -> str:
    """Deterministic rendering; parse(print(p)) recovers p exactly."""
    if p.is_zero():
        return "0"
    pieces = []
    for i, (exp, coeff) in enumerate(p.terms):
        mono = _format_monomial(p.vars, exp)
        mag = abs(coeff)
        if not mono:
            body = format_fraction(mag)
        elif mag == 1:
            body = mono
        else:
            body = f"{format_fraction(mag)}*{mono}"
        if i == 0:
            pieces.append(body if coeff > 0 else f"-{body}")
        else:
            pieces.append(f" + {body}" if coeff > 0 else f" - {body}")
    return "".join(pieces)
