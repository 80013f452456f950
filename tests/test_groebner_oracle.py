"""Reduced Groebner bases checked against sympy as an independent oracle."""

from fractions import Fraction
from itertools import combinations

import sympy
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy.polys.orderings import ProductOrder, grevlex

from conftest import normal_form, order_key
from liptriv.groebner import (
    Ideal,
    MonomialOrder,
    buchberger,
    dimension,
    eliminate,
    intersect,
    saturate,
)
from liptriv.polycore import Polynomial

RINGS = (("x",), ("x", "y"), ("x", "y", "z"))

# The orders the pipeline runs, each with sympy's spelling: grevlex, and the
# block order that eliminates the first variable, grevlex within each block.
ORDERS = {
    "grevlex": (MonomialOrder.grevlex(), "grevlex"),
    "block": (
        MonomialOrder.elimination([0]),
        ProductOrder((grevlex, lambda m: m[:1]), (grevlex, lambda m: m[1:])),
    ),
}


def term_maps(ring, max_degree=3):
    """Term maps of at most 3 terms of degree <= max_degree."""
    exponents = st.tuples(*[st.integers(0, max_degree) for _ in ring]).filter(
        lambda e: sum(e) <= max_degree
    )
    coefficients = st.fractions(min_value=-5, max_value=5, max_denominator=3)
    return st.dictionaries(exponents, coefficients, min_size=1, max_size=3)


@st.composite
def ideals(draw, min_vars=1, ring=None, max_gens=3):
    """1 to max_gens generators of degree <= 3 with small rational coefficients."""
    if ring is None:
        ring = draw(st.sampled_from([r for r in RINGS if len(r) >= min_vars]))
    gens = draw(st.lists(term_maps(ring), min_size=1, max_size=max_gens))
    return Ideal.make(ring, [Polynomial.from_dict(ring, terms) for terms in gens])


def to_sympy(p: Polynomial):
    gens = sympy.symbols(p.vars)
    terms = {e: sympy.Rational(c.numerator, c.denominator) for e, c in p.terms}
    return sympy.Poly.from_dict(terms, *gens).as_expr()


def sympy_basis(exprs, names, order) -> list[dict]:
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
    keyf = order_key(order, nvars)
    out = set()
    for terms in term_maps:
        lead = terms[max(terms, key=keyf)]
        out.add(frozenset((e, c / lead) for e, c in terms.items()))
    return out


@settings(deadline=None)
@given(ideals(), st.sampled_from(sorted(ORDERS)))
def test_buchberger_matches_sympy(ideal, order_name):
    order, sympy_order = ORDERS[order_name]
    ours = [dict(g.terms) for g in buchberger(ideal, order).basis]
    exprs = [to_sympy(g) for g in ideal.generators]
    theirs = sympy_basis(exprs, ideal.vars, sympy_order)
    n = len(ideal.vars)
    assert monic(ours, order, n) == monic(theirs, order, n)


@settings(deadline=None)
@given(ideals(), st.sampled_from(sorted(ORDERS)), st.data())
def test_normal_form_matches_sympy(ideal, order_name, data):
    """The remainder modulo a Groebner basis is unique, so both must agree."""
    order, sympy_order = ORDERS[order_name]
    p = Polynomial.from_dict(ideal.vars, data.draw(term_maps(ideal.vars, max_degree=4)))
    ours = dict(normal_form(p, buchberger(ideal, order)).terms)
    gens = sympy.symbols(ideal.vars)
    expr = to_sympy(p)
    exprs = [to_sympy(g) for g in ideal.generators]
    if exprs:
        basis = sympy.groebner(exprs, *gens, order=sympy_order, domain="QQ")
        expr = basis.reduce(expr)[1]
    rem = sympy.Poly(expr, *gens, domain="QQ").as_dict()
    theirs = {e: Fraction(int(c.p), int(c.q)) for e, c in rem.items()}
    assert ours == theirs


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


def eliminated_basis(exprs, drop, keep) -> list[dict]:
    """sympy's reduced grevlex basis of <exprs> intersected with Q[keep]."""
    lex = sympy_basis(exprs, tuple(drop) + tuple(keep), "lex")
    free = [
        Polynomial.from_dict(keep, {e[len(drop):]: c for e, c in terms.items()})
        for terms in lex
        if all(not any(e[: len(drop)]) for e in terms)
    ]
    return sympy_basis([to_sympy(q) for q in free], keep, "grevlex")


@settings(deadline=None)
@given(ideals(max_gens=2), st.data())
def test_saturate_matches_sympy(ideal, data):
    terms = data.draw(term_maps(ideal.vars, max_degree=2).filter(lambda t: any(t.values())))
    h = Polynomial.from_dict(ideal.vars, terms)
    result = saturate(ideal, h)
    assert result.vars == ideal.vars

    # I : h^infinity is <I, 1 - y*h> intersected with Q[vars].
    y = sympy.Symbol("y_oracle")
    exprs = [to_sympy(g) for g in ideal.generators] + [1 - y * to_sympy(h)]
    theirs = eliminated_basis(exprs, ("y_oracle",), ideal.vars)
    ours = [dict(g.terms) for g in result.generators]
    grevlex = MonomialOrder.grevlex()
    n = len(ideal.vars)
    assert monic(ours, grevlex, n) == monic(theirs, grevlex, n)


@settings(deadline=None)
@given(st.sampled_from(RINGS[:2]).flatmap(lambda ring: st.tuples(*[ideals(ring=ring, max_gens=2)] * 2)))
def test_intersect_matches_sympy(pair):
    a, b = pair
    result = intersect(a, b)
    assert result.vars == a.vars

    # I intersect J is <t*I, (1 - t)*J> intersected with Q[vars].
    t = sympy.Symbol("t_oracle")
    exprs = [t * to_sympy(g) for g in a.generators]
    exprs += [(1 - t) * to_sympy(g) for g in b.generators]
    theirs = eliminated_basis(exprs, ("t_oracle",), a.vars)
    ours = [dict(g.terms) for g in result.generators]
    grevlex = MonomialOrder.grevlex()
    n = len(a.vars)
    assert monic(ours, grevlex, n) == monic(theirs, grevlex, n)


@settings(deadline=None)
@given(ideals())
def test_dimension_matches_sympy(ideal):
    """The largest variable set no leading monomial of sympy's basis lives on."""
    n = len(ideal.vars)
    basis = sympy_basis([to_sympy(g) for g in ideal.generators], ideal.vars, "grevlex")
    keyf = order_key(MonomialOrder.grevlex(), n)
    if any(all(not any(e) for e in terms) for terms in basis):
        expected = -1
    else:
        leads = [max(terms, key=keyf) for terms in basis]
        expected = max(
            len(subset)
            for size in range(n + 1)
            for subset in combinations(range(n), size)
            if not any(all(e[i] == 0 for i in range(n) if i not in subset) for e in leads)
        )
    assert dimension(buchberger(ideal)) == expected
