"""Compiled float kernel: bit-identical to interpreted reference loops."""

import ast
import io
import keyword
import re
import struct
import tokenize
from collections import Counter
from fractions import Fraction
from math import inf, isfinite, nan, sqrt

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import add, eval_float, poly, reference_fiber_project
from liptriv.classifier import classify
from liptriv.parsing import parse_input
from liptriv.polycore import FloatKernel, Polynomial
from liptriv.properness import ProbeSchedule

F = Fraction
NAMES = ("u", "v", "w")


def bits(value) -> int:
    return struct.unpack("<q", struct.pack("<d", float(value)))[0]


def same_bits(a, b) -> bool:
    return len(a) == len(b) and all(bits(x) == bits(y) for x, y in zip(a, b))


# -- interpreted reference evaluators and loops ---------------------------------


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


def reference_sphere_descent(kernel, x, radius, c, max_iter, seen=None, sign=None):
    """One restart of the sphere minimizer as an interpreted loop.

    The objective is |g - c|^2 (`sphere_descent`), or with a sign, sign * q
    for the kernel's one polynomial q (`sphere_extreme`), which reads no c
    and has no fx <= 1e-300 stop.

    Each step's backtracking starts from the cold step size, capped at 4x
    the last accepted step.  After a rejected trial the next step is the
    minimizer of the quadratic through (0, fx) with slope -|t|^2 and
    through (alpha, f), clipped to [0.1, 0.5] times alpha; a non-finite f
    or minimizer halves alpha.  A restart stops with no progress at an
    accepted trial whose f is not below fx.  `seen` collects the loop's
    exits and branches, so tests can check that their examples reach each
    of them.
    """
    seen = set() if seen is None else seen
    n, p = kernel.n, kernel.p

    def objective(x):
        if sign is not None:
            return sign * kernel.value(x)[0]
        total = 0.0
        for v, cv in zip(kernel.value(x), c):
            r = v - cv
            total += r * r
        return total

    def gradient(x):
        vals = kernel.value(x)
        jac = kernel.jacobian(x)
        if sign is not None:
            return [sign * d for d in jac[0]]
        grad = [0.0] * n
        for i in range(p):
            ri2 = 2.0 * (vals[i] - c[i])
            if ri2 == 0.0:
                seen.add("zero residual")
                continue
            row = jac[i]
            for j in range(n):
                grad[j] += ri2 * row[j]
        return grad

    def backtrack(alpha, f, fx, tt):
        if not isfinite(f):
            seen.add("halved after a non-finite trial")
            return 0.5 * alpha
        den = f - fx + tt * alpha
        q = tt * alpha * alpha / (2.0 * den) if den > 0.0 else inf
        if not isfinite(q):
            seen.add("halved after a non-finite minimizer")
            return 0.5 * alpha
        if q < 0.1 * alpha:
            seen.add("clipped to 0.1")
            return 0.1 * alpha
        if q > 0.5 * alpha:
            seen.add("clipped to 0.5")
            return 0.5 * alpha
        seen.add("interpolated")
        return q

    def trial_point(x, tangent, alpha):
        trial = [xv - alpha * tv for xv, tv in zip(x, tangent)]
        tn = sqrt(add(tv * tv for tv in trial))
        trial = [radius * tv / tn for tv in trial]
        return objective(trial), trial

    r2 = radius * radius
    last = inf
    fx = objective(x)
    if not isfinite(fx):
        seen.add("non-finite start")
    for _ in range(max_iter):
        grad = gradient(x)
        if not all(isfinite(gv) for gv in grad):
            seen.add("non-finite gradient")
            break
        dot = add(gv * xv for gv, xv in zip(grad, x)) / r2
        tangent = [gv - dot * xv for gv, xv in zip(grad, x)]
        tt = add(tv * tv for tv in tangent)
        tnorm = sqrt(tt)
        if tnorm <= 1e-300 or not isfinite(tnorm):
            seen.add("zero tangent" if tnorm <= 1e-300 else "non-finite tangent")
            break
        alpha = min(0.1 * radius / tnorm, 4.0 * last)
        for _ in range(60):
            ft, trial = trial_point(x, tangent, alpha)
            if isfinite(ft) and ft <= fx - 1e-4 * alpha * tnorm * tnorm:
                break
            alpha = backtrack(alpha, ft, fx, tt)
        else:
            seen.add("out of trials")
            break
        progress = ft < fx
        x, fx, last = trial, ft, alpha
        if sign is None and fx <= 1e-300:
            seen.add("converged")
            break
        if not progress:
            seen.add("no progress")
            break
    else:
        seen.add("max_iter")
    return fx, x


def outcome(fn, *args):
    """What a call did: the exception type it raised, or its result."""
    try:
        return "returned", fn(*args)
    except ArithmeticError as exc:
        return "raised", type(exc)


def same_sphere_outcome(got, want) -> bool:
    if got[0] != want[0] or got[0] == "raised":
        return got == want
    (fx, x), (ref_fx, ref_x) = got[1], want[1]
    return bits(fx) == bits(ref_fx) and same_bits(x, ref_x)


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
    assert same_bits(kernel.value(x), [eval_float(q, x) for q in polys])
    assert same_bits(kernel.value(x), reference_value(polys, x))


@settings(max_examples=200, deadline=None)
@given(cases())
def test_jacobian_matches_partials_bitwise(case):
    polys, x = case
    jac = FloatKernel(polys).jacobian(x)
    assert len(jac) == len(polys)
    for row, q in zip(jac, polys):
        assert same_bits(row, [eval_float(q.partial(j), x) for j in range(q.nvars)])


# -- the fused descent loop against the interpreted one --------------------------

levels = st.one_of(
    st.floats(min_value=-10, max_value=10),
    st.sampled_from([0.0, -0.0, inf, -inf, nan]),
)


def level(draw, p):
    return draw(st.lists(levels, min_size=p, max_size=p))


U, UV, UVW = ("u",), ("u", "v"), ("u", "v", "w")

# (polynomials, start, radius, level, max_iter): each exit and branch of the
# sphere loop, checked by test_sphere_examples_reach_every_exit.
SPHERE_EXAMPLES = [
    ([poly(UV, "u + v")], [0.6, 0.8], 1.0, [-5.0], 250),  # interpolated, no progress at the minimum
    ([poly(UV, "u^6 + v^6 - u*v")], [8.0, -6.0], 10.0, [1.0], 250),  # clipped to 0.1, out of trials
    ([poly(UV, "u^3*v + v")], [-4.0, 3.0], 5.0, [1.0], 250),  # clipped to 0.5
    ([poly(UV, "10^270*v^100")], [1.0, 0.01], 1.0, [0.0], 250),  # a trial overflows to inf
    ([poly(UV, "10^150*u^2")], [6.0, 8.0], 10.0, [0.0], 250),  # |t|^2 overflows
    ([poly(UV, "u^2 - v")], [6.0, 8.0], 10.0, [1.0], 2),  # max_iter
    ([poly(UV, "u")], [0.6, 0.8], 1.0, [0.0], 250),  # converged onto the line u = 0
    ([poly(U, "u^3 - 1/3*u")], [2.0], 2.0, [0.0], 20),  # zero tangent (n = 1)
    ([poly(UV, "u*v"), poly(UV, "u")], [0.0, 3.0], 3.0, [0.0, 1.0], 20),  # zero residual
    ([poly(UVW, "u*v*w + w^2")], [1.0, 2.0, 2.0], 3.0, [inf], 20),  # inf start and gradient
    ([poly(UV, "u^4*v^2 + u^2*v^4 - 3*u^2*v^2 + 1")], [3.0, 4.0], 5.0, [2.0], 250),  # converged
    # sphere_extreme: the minimum and the maximum of the sextic, each
    # ending with no progress (the level is not read).
    ([poly(UV, "u^4*v^2 + u^2*v^4 - 3*u^2*v^2 + 1")], [3.0, 4.0], 5.0, [], 250, 1),
    ([poly(UV, "u^4*v^2 + u^2*v^4 - 3*u^2*v^2 + 1")], [3.0, 4.0], 5.0, [], 250, -1),
]

@st.composite
def sphere_cases(draw):
    polys, x = draw(cases())
    radius = draw(st.sampled_from([1.0, 10.0, 100.0, 1e4]))
    if draw(st.booleans()):  # start on the sphere, as the probe does
        norm = sqrt(sum(float(v) * float(v) for v in x))
        if norm > 0.0:
            x = [radius * v / norm for v in x]
    # With a sign, the descent of sign * q for the first polynomial q.
    sign = draw(st.sampled_from([None, 1, -1]))
    if sign is not None:
        polys = polys[:1]
    # Up to 150 steps, so that draws reach the exits after many steps too.
    return polys, x, radius, level(draw, len(polys)), draw(st.integers(0, 150)), sign


def check_sphere(polys, x, radius, c, max_iter, sign=None, seen=None):
    kernel = FloatKernel(polys)
    want = outcome(reference_sphere_descent, kernel, list(x), radius, c, max_iter, seen, sign)
    if sign is None:
        got = outcome(kernel.sphere_descent, list(x), radius, c, max_iter)
    else:
        got = outcome(kernel.sphere_extreme, list(x), radius, sign, max_iter)
    assert same_sphere_outcome(got, want), (got, want)


# numpy scalars warn on x/0, inf - inf and the like, in both versions.
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=200, deadline=None)
@given(sphere_cases())
def test_sphere_descent_matches_interpreted_loop_bitwise(case):
    check_sphere(*case)


def test_sphere_examples_reach_every_exit():
    seen = set()
    for example in SPHERE_EXAMPLES:
        check_sphere(*example, seen=seen)
    assert seen >= {
        "out of trials", "max_iter", "converged", "no progress", "zero tangent",
        "zero residual", "non-finite start", "non-finite gradient", "non-finite tangent",
        "interpolated", "clipped to 0.1", "clipped to 0.5", "halved after a non-finite trial",
    }, seen


# -- the compiled Gauss-Newton projection against the interpreted one --------------

targets = st.one_of(
    st.floats(min_value=-1e4, max_value=1e4),
    st.sampled_from([0.0, -0.0, inf, -inf, nan]),
)


@st.composite
def fiber_cases(draw):
    n = draw(st.integers(1, 3))
    polys = [draw(polynomials(n))]
    x = draw(st.lists(coordinates, min_size=n, max_size=n))
    if draw(st.booleans()):
        x = [np.float64(v) for v in x]
    radius = draw(st.sampled_from([1.0, 10.0, 100.0, 1e4, inf]))
    tol = draw(st.sampled_from([0.0, 1e-12, 1e-3, 0.5]))
    return polys, x, draw(targets), radius, tol, draw(st.integers(0, 60))


def check_fiber(polys, z, target, radius, tol, steps, seen=None):
    kernel = FloatKernel(polys)
    want = outcome(reference_fiber_project, kernel, list(z), target, radius, tol, steps, None, seen)
    got = outcome(kernel.fiber_project, list(z), target, radius, tol, steps)
    if want[0] == "raised" and seen is not None:
        seen.add(want[1].__name__)
    assert got[0] == want[0], (got, want)
    assert got == want if got[0] == "raised" else same_bits(got[1], want[1]), (got, want)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=300, deadline=None)
@given(fiber_cases())
def test_fiber_project_matches_interpreted_loop_bitwise(case):
    check_fiber(*case)


# (polynomials, start, target, radius, tol, steps): each exit of the
# projection, checked by test_fiber_examples_reach_every_exit.
FIBER_EXAMPLES = [
    ([poly(U, "u^2 - 2")], [1.0], 0.0, inf, 1e-12, 12),  # converges under tol
    ([poly(UV, "u*v")], [1.0, 2.0], nan, 10.0, 1e-12, 12),  # non-finite residual
    ([poly(UV, "10^308*u^2 + v")], [0.5, 0.0], 0.0, 10.0, 1e-12, 12),  # non-finite row
    ([poly(UV, "u^2")], [0.0, 5.0], 1.0, 1.0, 1e-12, 12),  # zero row, then the ball, all steps
    ([poly(U, "1/10^300*u")], [1.0], 1e300, inf, 1e-12, 12),  # non-finite step
    ([poly(UV, "u")], [0.0, 0.5], 5.0, 1.0, 1e-12, 12),  # retracted into the ball
    ([poly(UVW, "u^2*v + w")], [1e200, 1.0, 1.0], 0.0, inf, 1e-12, 12),  # a power overflows
]


def test_fiber_examples_reach_every_exit():
    seen = set()
    for example in FIBER_EXAMPLES:
        check_fiber(*example, seen=seen)
    assert seen >= {
        "residual under tol", "non-finite residual", "non-finite row", "zero row",
        "non-finite step", "ball", "steps", "OverflowError",
    }, seen


def test_fiber_project_needs_one_polynomial():
    kernel = FloatKernel([poly(UV, "u"), poly(UV, "v")])
    with pytest.raises(ValueError, match="one polynomial"):
        kernel.fiber_project


def test_sphere_extreme_needs_one_polynomial():
    kernel = FloatKernel([poly(UV, "u"), poly(UV, "v")])
    with pytest.raises(ValueError, match="one polynomial"):
        kernel.sphere_extreme


SPHERE_EXITS = {
    "non-finite gradient", "zero tangent", "non-finite tangent", "out of trials", "converged",
    "no progress", "max_iter",
}


class CountingKernel:
    """A kernel's value and Jacobian, counting calls into `work`: each step
    of the reference loop takes one Jacobian, and each restart one value at
    its start, one per step and one per line-search trial."""

    def __init__(self, kernel, work):
        self.kernel, self.work, self.n, self.p = kernel, work, kernel.n, kernel.p

    def value(self, x):
        self.work["values"] += 1
        return self.kernel.value(x)

    def jacobian(self, x):
        self.work["steps"] += 1
        return self.kernel.jacobian(x)


def motzkin_real_descents(monkeypatch, motzkin_map):
    """Every sphere restart of the motzkin real analysis, run through the
    reference loop: the values of its probe table, the exits of its
    restarts, and its restarts (per radius too), steps and line-search
    trials.  The 0-step calls that read a start's value are not counted."""
    exits, work = Counter(), Counter()

    def tallied(kernel):
        def descent(x, radius, sign, max_iter):
            if not max_iter:  # a start's value, not a descent
                return reference_sphere_descent(kernel, x, radius, None, 0, None, sign)
            seen = set()
            work["restarts"] += 1
            work[radius] += 1
            result = reference_sphere_descent(
                CountingKernel(kernel, work), x, radius, None, max_iter, seen, sign
            )
            exits.update(seen & SPHERE_EXITS)
            return result

        return descent

    monkeypatch.setattr(FloatKernel, "sphere_extreme", property(tallied))
    report = classify(motzkin_map, "real")
    work["trials"] = work["values"] - work["restarts"] - work["steps"]
    table = next(c for c in report.checks if c.name == "properness_probe_table")
    return [row["value"] for row in table.data["table"]], exits, work


def test_motzkin_real_restarts_stop_without_progress(monkeypatch, motzkin_map):
    """Most restarts settle at an extreme of g on the sphere, where an
    accepted trial no longer lowers fx, and stop there; none runs all 250
    steps."""
    _, exits, work = motzkin_real_descents(monkeypatch, motzkin_map)
    assert work["restarts"] == sum(exits.values()) == 128, exits
    assert exits["no progress"] >= 0.9 * work["restarts"], exits
    assert exits["max_iter"] == 0, exits


def test_motzkin_real_descent_work(monkeypatch, motzkin_map):
    """The sphere descents of the motzkin real analysis, at the values -1,
    0.5, 2 and 5 with the probe's seeds and radii: one image interval per
    sphere serves all four values, so the 32 low-side restarts that the
    proper values -1 and 0.5 need are all the descents, and the values 2
    and 5 are bracketed by points already found or by a start.  They take
    994 steps and 1,347 line-search trials; one descent of |g - c|^2 per
    value took 264 restarts, 7,717 steps and 8,602 trials."""
    values, _, work = motzkin_real_descents(monkeypatch, motzkin_map)
    assert values == [[-1.0], [0.5], [2.0], [5.0]], values
    assert work["restarts"] == 128, work
    assert all(work[radius] <= 32 for radius in ProbeSchedule().radii), work
    assert work["steps"] <= 1050, work
    assert work["trials"] <= 1400, work


def test_one_variable_constant_and_zero_components():
    ring = ("s",)
    polys = [poly(ring, "3*s^2 - s + 1/3"), poly(ring, "5"), Polynomial.zero(ring)]
    kernel = FloatKernel(polys)
    x = [-1.5]
    assert same_bits(kernel.value(x), [eval_float(q, x) for q in polys])
    # Constant and zero components have zero partials: plain 0.0, sign included.
    assert kernel.jacobian(x) == [[-10.0], [0.0], [0.0]]
    assert [bits(row[0]) for row in kernel.jacobian(x)[1:]] == [bits(0.0)] * 2
    check_sphere(polys, [2.0], 2.0, [1.0, 5.0, 0.0], 10)


def test_loops_compile_on_first_use():
    kernel = FloatKernel([poly(UV, "u^2*v - v + 1"), poly(UV, "u*v")])
    assert kernel.value([1.0, 2.0]) == [1.0, 2.0]
    kernel.jacobian([1.0, 2.0])
    assert "sphere_descent" not in vars(kernel)
    kernel.sphere_descent([1.0, 0.0], 1.0, [0.0, 0.0], 1)
    assert "sphere_descent" in vars(kernel)
    scalar = FloatKernel([poly(UV, "u^2*v - v + 1")])
    scalar.value([1.0, 2.0])
    assert "fiber_project" not in vars(scalar)
    scalar.fiber_project([1.0, 2.0], 0.0, 10.0, 1e-12, 1)
    assert "fiber_project" in vars(scalar)
    assert "sphere_extreme" not in vars(scalar)
    scalar.sphere_extreme([1.0, 0.0], 1.0, -1, 1)
    assert "sphere_extreme" in vars(scalar) and "sphere_descent" not in vars(scalar)


def test_two_thousand_terms_compile():
    exps = [(a, b, d - a - b) for d in range(22) for a in range(d + 1) for b in range(d - a + 1)]
    big = Polynomial.from_dict(NAMES, {e: F(i % 13 - 6, i % 7 + 1) or 1 for i, e in enumerate(exps[:2000])})
    assert len(big.terms) == 2000
    kernel = FloatKernel([big])
    x = [0.5, -0.75, 0.875]
    assert bits(kernel.value(x)[0]) == bits(eval_float(big, x))
    assert same_bits(kernel.jacobian(x)[0], [eval_float(big.partial(j), x) for j in range(3)])


def test_coefficient_past_float_range_is_a_signed_inf():
    # An underflowing coefficient already gives 0.0.
    polys = [poly(UV, "7^1400*u^2 - v"), poly(UV, "u - 7^1400*v^3"), poly(UV, "1/7^1400*u + v")]
    kernel = FloatKernel(polys)
    assert kernel.value([1.0, 2.0]) == [inf, -inf, 2.0]
    for x in ([1.0, 2.0], [0.0, 0.0], [-0.5, 3.0]):
        assert same_bits(kernel.value(x), [eval_float(q, x) for q in polys])


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
    functions = ("value", "jacobian", "sphere_descent")
    scalar_functions = ("sphere_extreme", "fiber_project")
    kernel, scalar = FloatKernel(polys), FloatKernel(polys[:1])
    sources = [kernel.source(name) for name in functions]
    sources += [scalar.source(name) for name in scalar_functions]
    source = "".join(sources)
    # Coordinates at the points x, y, z, powers and values at x and z,
    # partials at x and z; tangent, gradient, level, step and unit-row
    # components.
    positional = re.compile(r"[xyztcgsu]\d+|[xz]\d+_\d+|v[xz]\d+|d[xz]\d+_\d+")
    fixed = {
        *functions, *scalar_functions, "x", "z", "c", "sign", "radius", "max_iter", "target", "tol",
        "steps",
        "C", "sqrt", "isfinite", "range", "abs", "max", "min", "inf", "_", "r2", "fx", "ri2", "dot",
        "tt", "tnorm", "alpha", "tn", "f", "den", "q", "r", "last", "progress", "m", "scale", "norm",
    }
    literals = {"0.0", "0.1", "1e-4", "1e-300", "2.0", "0.5", "4.0"}
    tokens = list(tokenize.generate_tokens(io.StringIO(source).readline))
    for tok in tokens:
        if tok.type == tokenize.NAME:
            assert keyword.iskeyword(tok.string) or tok.string in fixed or positional.fullmatch(tok.string), tok
        elif tok.type == tokenize.NUMBER:
            assert tok.string in literals or tok.string.isdigit(), tok
        else:
            assert tok.type in (
                tokenize.OP, tokenize.NEWLINE, tokenize.NL, tokenize.INDENT,
                tokenize.DEDENT, tokenize.ENDMARKER,
            ), tok
    assert "foo" not in source
    # Renaming the variables leaves the source as it is.
    renamed = [Polynomial(("a", "b", "e"), q.terms) for q in polys]
    assert [FloatKernel(renamed).source(name) for name in functions] == sources[:3]
    assert [FloatKernel(renamed[:1]).source(name) for name in scalar_functions] == sources[3:]


def longest_chain(source: str, *ops) -> int:
    """The most operations of the given types nested in one expression of source."""

    def depth(node) -> int:
        own = isinstance(node, ast.BinOp) and isinstance(node.op, ops)
        return own + max((depth(child) for child in ast.iter_child_nodes(node)), default=0)

    return depth(ast.parse(source))


def test_values_and_partials_are_one_assignment_each():
    polys = [poly(UV, "u^4*v^2 + u^2*v^4 - 3*u^2*v^2 + 1"), poly(UV, "u*v - 2")]
    kernel, scalar = FloatKernel(polys), FloatKernel(polys[:1])
    block = re.compile(r"v[xyzuw]\d+|d[xyzuw]\d+_\d+")
    sources = [kernel.source(name) for name in ("value", "jacobian", "sphere_descent")]
    for source in sources + [scalar.source(name) for name in ("sphere_extreme", "fiber_project")]:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.AugAssign):
                assert not block.fullmatch(node.target.id), ast.unparse(node)


def test_no_expression_grows_with_the_addends():
    # 300 terms in the value, and 300 addends in each descent or projection
    # step's sums of products and squares: no expression holds them all.
    ring = tuple(f"a{i}" for i in range(300))
    kernel = FloatKernel([poly(ring, " + ".join(f"{i % 7 + 1}*a{i}^{i % 3 + 1}" for i in range(300)))])
    for name in ("value", "jacobian", "sphere_descent", "sphere_extreme", "fiber_project"):
        assert longest_chain(kernel.source(name), ast.Add, ast.Sub) < 300, name


def test_thousands_of_terms_compile():
    # 4,096 terms, and 4,032 in each partial: one expression per sum would
    # nest deeper than CPython's compiler goes.
    factors = [f"(1+{v}^{2 ** k})" for v in "xy" for k in range(6)]
    mapping = parse_input(f"ring Q[x,y]; map f: ({'*'.join(factors)})")
    (q,) = mapping.components
    assert len(q.terms) == 4096
    kernel = FloatKernel([q])
    for x in ([0.5, -0.75], [1.0, 1.0], [-1.1, 0.3]):
        assert same_bits(kernel.value(x), [eval_float(q, x)])
        assert same_bits(kernel.jacobian(x)[0], [eval_float(q.partial(j), x) for j in range(2)])
    assert kernel.sphere_descent and kernel.sphere_extreme


def test_products_of_thousands_of_factors_compile():
    # One term of 3,101 factors (its coefficient and 3,100 powers) and one of
    # 301: as one chain each, the first would nest deeper than CPython's
    # compiler goes.  The Jacobian of such a map is not compiled: its source
    # grows as n^2.
    ring = tuple(f"x{i}" for i in range(3100))
    wide = (1,) * 3100
    short = (2,) * 300 + (0,) * 2800
    q = Polynomial.from_dict(ring, {wide: F(3, 7), short: F(-5)})
    kernel = FloatKernel([q])
    assert longest_chain(kernel.source("value"), ast.Mult) <= 256
    rng = np.random.default_rng(5)
    for low, high in ((1.0, 1.0), (0.9, 1.1), (-1.0, 1.0)):
        x = [float(v) for v in rng.uniform(low, high, size=3100)]
        assert same_bits(kernel.value(x), [eval_float(q, x)])


# -- rational maps -----------------------------------------------------------------


def reference_rational_value(r, x):
    return tuple(eval_float(num, x) / eval_float(den, x) for num, den in zip(r.numerators, r.denominators))


def reference_rational_jacobian(r, x):
    rows = []
    for num, den in zip(r.numerators, r.denominators):
        nv, dv = eval_float(num, x), eval_float(den, x)
        row = []
        for j in range(r.n):
            npv, dpv = eval_float(num.partial(j), x), eval_float(den.partial(j), x)
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
