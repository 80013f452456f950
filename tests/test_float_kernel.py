"""Compiled float kernel: bit-identical to the interpreted loops it replaces."""

import io
import keyword
import re
import struct
import tokenize
from fractions import Fraction
from math import sqrt

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import poly
from liptriv.parsing import parse_input
from liptriv.polycore import FloatKernel, Polynomial

F = Fraction
NAMES = ("u", "v", "w")


def bits(value) -> int:
    return struct.unpack("<q", struct.pack("<d", float(value)))[0]


def same_bits(a, b) -> bool:
    return len(a) == len(b) and all(bits(x) == bits(y) for x, y in zip(a, b))


# -- reference copies of the interpreted evaluators the kernel replaced ---------


def reference_value(polys, x):
    """The term-list loop: coefficient times x_i ** k per variable, then a sum."""
    out = []
    for q in polys:
        total = 0.0
        for exp, c in q.terms:
            term = float(c)
            for i, k in enumerate(exp):
                if k:
                    term *= x[i] ** k
            total += term
        out.append(total)
    return out


def reference_trial(polys, x, tangent, alpha, radius, c):
    """One line-search trial of the sphere minimizer, as an interpreted loop."""
    trial = [xv - alpha * tv for xv, tv in zip(x, tangent)]
    tn = sqrt(sum(tv * tv for tv in trial))
    trial = [radius * tv / tn for tv in trial]
    total = 0.0
    for v, cv in zip(reference_value(polys, trial), c):
        r = v - cv
        total += r * r
    return total, trial


# -- strategies -------------------------------------------------------------------

coefficients = st.builds(Fraction, st.integers(-1000, 1000), st.integers(1, 97))
coordinates = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 1e4, -1e4, 0.5, -3.25]),
    st.floats(min_value=-1e4, max_value=1e4, allow_nan=False),
)


def monomials(n):
    """Exponents of total degree <= 6, drawn as a multiset of variable indices."""
    return st.lists(st.integers(0, n - 1), max_size=6).map(
        lambda idx: tuple(idx.count(i) for i in range(n))
    )


@st.composite
def polynomials(draw, n):
    exps = draw(st.lists(monomials(n), max_size=8))
    return Polynomial.from_dict(NAMES[:n], {e: draw(coefficients) for e in exps})


@st.composite
def cases(draw):
    n = draw(st.integers(1, 3))
    polys = draw(st.lists(polynomials(n), min_size=1, max_size=3))
    x = draw(st.lists(coordinates, min_size=n, max_size=n))
    if draw(st.booleans()):
        x = [np.float64(v) for v in x]
    return polys, x


# -- value, Jacobian and trial against the references -------------------------------


@settings(max_examples=200, deadline=None)
@given(cases())
def test_value_matches_eval_float_bitwise(case):
    polys, x = case
    kernel = FloatKernel(polys)
    assert same_bits(kernel.value(x), [q.eval_float(x) for q in polys])
    assert same_bits(kernel.value(x), reference_value(polys, x))


@settings(max_examples=200, deadline=None)
@given(cases())
def test_jacobian_matches_partials_bitwise(case):
    polys, x = case
    jac = FloatKernel(polys).jacobian(x)
    assert len(jac) == len(polys)
    for row, q in zip(jac, polys):
        assert same_bits(row, [q.partial(j).eval_float(x) for j in range(q.nvars)])


# numpy scalars warn when a step's norm is zero (x/0, 0/0), in both versions.
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=200, deadline=None)
@given(
    cases(),
    st.lists(coordinates, min_size=3, max_size=3),
    st.floats(min_value=1e-6, max_value=1e3),
    st.sampled_from([1.0, 10.0, 100.0, 1e4]),
    st.lists(st.floats(min_value=-10, max_value=10), min_size=3, max_size=3),
)
@example(  # numpy's 0/0 NaN meets x ** 1, which flips its sign bit
    case=([Polynomial(("u",), (((1,), F(1)),))], [np.float64(0.0)]),
    tangent=[0.0, 0.0, 0.0], alpha=1.0, radius=1.0, c=[0.0, 0.0, 0.0],
)
def test_sphere_trial_matches_interpreted_loop_bitwise(case, tangent, alpha, radius, c):
    polys, x = case
    n, p = len(x), len(polys)
    t, cv = tangent[:n], c[:p]
    kernel = FloatKernel(polys)
    try:
        ref_ft, ref_trial = reference_trial(polys, x, t, alpha, radius, cv)
    except ZeroDivisionError:
        # The step lands on (or underflows to) the origin: both divide by zero.
        with pytest.raises(ZeroDivisionError):
            kernel.sphere_trial(x, t, alpha, radius, cv)
        return
    ft, trial = kernel.sphere_trial(x, t, alpha, radius, cv)
    assert bits(ft) == bits(ref_ft)
    assert same_bits(trial, ref_trial)


def test_one_variable_constant_and_zero_components():
    ring = ("s",)
    polys = [poly(ring, "3*s^2 - s + 1/3"), poly(ring, "5"), Polynomial.zero(ring)]
    kernel = FloatKernel(polys)
    x = [-1.5]
    assert same_bits(kernel.value(x), [q.eval_float(x) for q in polys])
    # Constant and zero components have zero partials: plain 0.0, sign included.
    assert kernel.jacobian(x) == [[-10.0], [0.0], [0.0]]
    assert [bits(row[0]) for row in kernel.jacobian(x)[1:]] == [bits(0.0)] * 2
    ft, trial = kernel.sphere_trial(x, [0.5], 0.25, 2.0, [1.0, 5.0, 0.0])
    ref = reference_trial(polys, x, [0.5], 0.25, 2.0, [1.0, 5.0, 0.0])
    assert bits(ft) == bits(ref[0]) and same_bits(trial, ref[1])


def test_two_thousand_terms_compile():
    exps = [(a, b, d - a - b) for d in range(22) for a in range(d + 1) for b in range(d - a + 1)]
    big = Polynomial.from_dict(NAMES, {e: F(i % 13 - 6, i % 7 + 1) or 1 for i, e in enumerate(exps[:2000])})
    assert len(big.terms) == 2000
    kernel = FloatKernel([big])
    x = [0.5, -0.75, 0.875]
    assert bits(kernel.value(x)[0]) == bits(big.eval_float(x))
    assert same_bits(kernel.jacobian(x)[0], [big.partial(j).eval_float(x) for j in range(3)])


def test_rings_must_match():
    with pytest.raises(ValueError):
        FloatKernel([poly(("a", "b"), "a"), poly(("a", "c"), "a")])
    with pytest.raises(ValueError):
        FloatKernel([])


# -- generated source ------------------------------------------------------------


def test_source_holds_no_input_text():
    ring = ("foo", "C", "radius")
    polys = [
        poly(ring, "7/3*foo^2*C - 123456789/1000*radius + 11/17"),
        poly(ring, "foo*C*radius - 2"),
    ]
    kernel = FloatKernel(polys)
    positional = re.compile(r"[xtcyv]\d+|d\d+_\d+")
    fixed = {
        "value", "jacobian", "sphere_trial", "x", "t", "alpha", "radius", "c",
        "C", "sqrt", "sum", "tn", "r", "f",
    }
    tokens = list(tokenize.generate_tokens(io.StringIO(kernel.source).readline))
    for tok in tokens:
        if tok.type == tokenize.NAME:
            assert keyword.iskeyword(tok.string) or tok.string in fixed or positional.fullmatch(tok.string), tok
        elif tok.type == tokenize.NUMBER:
            assert tok.string == "0.0" or tok.string.isdigit(), tok
        else:
            assert tok.type in (
                tokenize.OP, tokenize.NEWLINE, tokenize.NL, tokenize.INDENT,
                tokenize.DEDENT, tokenize.ENDMARKER,
            ), tok
    assert "foo" not in kernel.source
    # Renaming the variables leaves the source as it is.
    renamed = [Polynomial(("a", "b", "e"), q.terms) for q in polys]
    assert FloatKernel(renamed).source == kernel.source


# -- rational maps -----------------------------------------------------------------


def reference_rational_value(r, x):
    return tuple(num.eval_float(x) / den.eval_float(x) for num, den in zip(r.numerators, r.denominators))


def reference_rational_jacobian(r, x):
    rows = []
    for num, den in zip(r.numerators, r.denominators):
        nv, dv = num.eval_float(x), den.eval_float(x)
        row = []
        for j in range(r.n):
            npv, dpv = num.partial(j).eval_float(x), den.partial(j).eval_float(x)
            row.append((npv * dv - nv * dpv) / (dv * dv))
        rows.append(row)
    return rows


@pytest.mark.parametrize(
    "text",
    [
        "ring Q[x,y]; ratmap f: ((y*(1 + x^2) - 1) / (1 + x^2))",
        "ring Q[x,y]; ratmap f: ((x^3 - 2/3*y) / (1 + x^2 + y^4), x*y / (2 + y^2))",
    ],
)
def test_rational_float_evaluation_matches_quotient_rule(text):
    r = parse_input(text)
    rng = np.random.default_rng(3)
    for _ in range(50):
        x = list(rng.normal(size=r.n) * 10.0 ** rng.integers(-2, 4))
        value = r.evaluate_float(x)
        assert all(type(v) is float for v in value)
        assert same_bits(value, reference_rational_value(r, x))
        jac = r.jacobian_float(x)
        ref = reference_rational_jacobian(r, x)
        assert all(same_bits(a, b) for a, b in zip(jac, ref))
