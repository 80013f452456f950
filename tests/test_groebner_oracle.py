"""Reduced Groebner bases checked against sympy as an independent oracle."""

from fractions import Fraction

import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from liptriv.groebner import Ideal, MonomialOrder, buchberger, eliminate
from liptriv.polycore import Polynomial

RINGS = (("x",), ("x", "y"), ("x", "y", "z"))


@st.composite
def ideals(draw, min_vars=1):
    """1 to 3 generators of degree <= 3 with small rational coefficients."""
    ring = draw(st.sampled_from([r for r in RINGS if len(r) >= min_vars]))
    exponents = st.tuples(*[st.integers(0, 3) for _ in ring]).filter(lambda e: sum(e) <= 3)
    coefficients = st.fractions(min_value=-5, max_value=5, max_denominator=3)
    term_maps = st.dictionaries(exponents, coefficients, min_size=1, max_size=3)
    gens = draw(st.lists(term_maps, min_size=1, max_size=3))
    return Ideal.make(ring, [Polynomial.from_dict(ring, terms) for terms in gens])


def to_sympy(p: Polynomial):
    gens = sympy.symbols(p.vars)
    terms = {e: sympy.Rational(c.numerator, c.denominator) for e, c in p.terms}
    return sympy.Poly.from_dict(terms, *gens).as_expr()


def sympy_basis(exprs, names, order: str) -> list[dict]:
    """sympy's reduced basis of the ideal generated by exprs, as term maps."""
    if not exprs:
        return []
    gens = sympy.symbols(names)
    basis = sympy.groebner(exprs, *gens, order=order, domain="QQ")
    return [
        {e: Fraction(int(c.p), int(c.q)) for e, c in sympy.Poly(q, *gens).as_dict().items()}
        for q in basis.exprs
    ]


def monic(term_maps, order: MonomialOrder, nvars: int) -> set:
    """Each polynomial divided by its leading coefficient, as a set of term sets."""
    keyf = order.key_function(nvars)
    out = set()
    for terms in term_maps:
        lead = terms[max(terms, key=keyf)]
        out.add(frozenset((e, c / lead) for e, c in terms.items()))
    return out


@settings(deadline=None)
@given(ideals(), st.sampled_from(["grevlex", "lex"]))
def test_buchberger_matches_sympy(ideal, order_name):
    order = MonomialOrder.grevlex() if order_name == "grevlex" else MonomialOrder.lex()
    ours = [dict(g.terms) for g in buchberger(ideal, order).basis]
    exprs = [to_sympy(g) for g in ideal.generators]
    theirs = sympy_basis(exprs, ideal.vars, order_name)
    n = len(ideal.vars)
    assert monic(ours, order, n) == monic(theirs, order, n)


@settings(deadline=None)
@given(ideals(min_vars=2), st.data())
def test_eliminate_matches_sympy(ideal, data):
    drop = data.draw(
        st.lists(st.sampled_from(ideal.vars), min_size=1, max_size=len(ideal.vars) - 1, unique=True)
    )
    keep = tuple(v for v in ideal.vars if v not in drop)
    result = eliminate(ideal, drop)
    assert result.vars == keep

    # A lex basis with the dropped variables first eliminates them; its
    # elements free of them generate the elimination ideal.
    exprs = [to_sympy(g) for g in ideal.generators]
    lex = sympy_basis(exprs, tuple(drop) + keep, "lex")
    free = [
        Polynomial.from_dict(keep, {e[len(drop):]: c for e, c in terms.items()})
        for terms in lex
        if all(not any(e[: len(drop)]) for e in terms)
    ]
    theirs = sympy_basis([to_sympy(q) for q in free], keep, "grevlex")
    ours = [dict(g.terms) for g in result.generators]
    grevlex = MonomialOrder.grevlex()
    assert monic(ours, grevlex, len(keep)) == monic(theirs, grevlex, len(keep))
