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

from dataclasses import dataclass
from fractions import Fraction

from .polycore import MAX_EXPONENT, Polynomial, PolyMap
from .rational import RationalMap


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
        if ch.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            if j < len(text) and text[j] == ".":
                raise ParseError("decimal literals are not allowed; use a/b rationals", line, col)
            tokens.append(Token("int", text[i:j], line, col))
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


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0
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
            rhs = self.parse_factor()
            value = self.under_cap(star, lambda: value * rhs)
        return value

    def parse_factor(self) -> Polynomial:
        base = self.parse_base()
        if self.peek().text == "^":
            self.next()
            tok = self.peek()
            if tok.kind != "int":
                raise self.error("exponent must be a non-negative integer", tok)
            self.next()
            return self.under_cap(tok, lambda: base ** int(tok.text))
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
            numerator = int(tok.text)
            if self.peek().text == "/" and self.tokens[self.pos + 1].kind == "int":
                self.next()
                den = int(self.next().text)
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


def _format_coefficient(c: Fraction) -> str:
    if c.denominator == 1:
        return str(c.numerator)
    return f"{c.numerator}/{c.denominator}"


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
            body = _format_coefficient(mag)
        elif mag == 1:
            body = mono
        else:
            body = f"{_format_coefficient(mag)}*{mono}"
        if i == 0:
            pieces.append(body if coeff > 0 else f"-{body}")
        else:
            pieces.append(f" + {body}" if coeff > 0 else f" - {body}")
    return "".join(pieces)
