import random
from fractions import Fraction
from math import inf, isfinite, sqrt
from pathlib import Path

import pytest

from liptriv.parsing import parse_input, parse_mapping

DATA_DIR = Path(__file__).resolve().parents[1] / "src" / "liptriv" / "data"


def data_text(name: str) -> str:
    return (DATA_DIR / name).read_text()


def poly(variables, text):
    """Build a polynomial from an expression in the given ring."""
    ring = ",".join(variables)
    return parse_mapping(f"ring Q[{ring}]; map f: ({text})").components[0]


def rand_poly(rng: random.Random, variables, max_degree=4, max_terms=5):
    """Seeded random polynomial with small integer coefficients."""
    from liptriv.polycore import Polynomial

    n = len(variables)
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        exp = [0] * n
        budget = rng.randint(0, max_degree)
        for _ in range(budget):
            exp[rng.randrange(n)] += 1
        coeff = rng.choice([-3, -2, -1, 1, 2, 3])
        terms[tuple(exp)] = terms.get(tuple(exp), 0) + coeff
    return Polynomial.from_dict(tuple(variables), {e: Fraction(c) for e, c in terms.items() if c})


@pytest.fixture(scope="session")
def simple_map():
    return parse_mapping(data_text("ex_simple.map"))


@pytest.fixture(scope="session")
def bad_map():
    return parse_mapping(data_text("bad.map"))


@pytest.fixture(scope="session")
def motzkin_map():
    return parse_mapping(data_text("motzkin.map"))


@pytest.fixture(scope="session")
def cube_map():
    return parse_mapping(data_text("cube.map"))


@pytest.fixture(scope="session")
def regulous_map():
    return parse_input(data_text("regulous.map"))


@pytest.fixture(scope="session")
def motzkin_poly(motzkin_map):
    return motzkin_map.components[0]


def rank(rows) -> int:
    """Rank of a matrix given by its rows: the number of nonzero rows of its RREF."""
    from liptriv.polycore import rref

    return len(rref(rows)[0])


def is_invertible(rows) -> bool:
    """A square matrix of full rank."""
    return all(len(row) == len(rows) for row in rows) and rank(rows) == len(rows)


def identity(n: int) -> tuple:
    """The rows of the n x n identity matrix."""
    return tuple(tuple(Fraction(int(i == j)) for j in range(n)) for i in range(n))


def inverse(rows) -> tuple:
    """The rows of a square matrix's inverse: the right half of rref([A | I]),
    which leads with the pivots 0..n-1 unless A is singular."""
    from liptriv.polycore import rref

    n = len(rows)
    if any(len(row) != n for row in rows):
        raise ValueError("not square")
    reduced, pivots = rref([list(row) + list(unit) for row, unit in zip(rows, identity(n))])
    if pivots != list(range(n)):
        raise ValueError("matrix is singular")
    return tuple(tuple(row[n:]) for row in reduced)


def apply(rows, vec) -> tuple:
    """The product of a matrix, given by its rows, with an exact column vector."""
    from liptriv.polycore import as_fraction

    if any(len(row) != len(vec) for row in rows):
        raise ValueError("dimension mismatch")
    v = [as_fraction(x) for x in vec]
    return tuple(sum((as_fraction(a) * b for a, b in zip(row, v)), Fraction(0)) for row in rows)


def evaluate(f, point) -> tuple:
    """A PolyMap at an exact point, one component at a time."""
    return tuple(c.eval_exact(point) for c in f.components)


def power(p, k):
    """p**k as k products, the tests' oracle of a polynomial power."""
    from liptriv.polycore import Polynomial

    result = Polynomial.constant(p.vars, 1)
    for _ in range(k):
        result = result * p
    return result


def subs(p, variables, images):
    """Substitute a polynomial of the ring `variables` for every variable of p."""
    from liptriv.polycore import Polynomial

    if len(images) != p.nvars or any(q.vars != tuple(variables) for q in images):
        raise ValueError("need one image per variable, all in the target ring")
    result = Polynomial.zero(variables)
    for e, c in p.terms:
        term = Polynomial.constant(variables, c)
        for q, k in zip(images, e):
            term = term * power(q, k)
        result = result + term
    return result


def compose_linear(f, rows, new_vars):
    """The PolyMap x -> f(L x), for L (given by its rows) mapping K^k (named
    new_vars) into f's domain, by substitution: an oracle for the
    factorization f = g o pi."""
    from liptriv.polycore import PolyMap, Polynomial

    vs = tuple(new_vars)
    if len(rows) != f.n or any(len(row) != len(vs) for row in rows):
        raise ValueError("dimension mismatch")
    images = [
        sum(
            (Polynomial.constant(vs, a) * Polynomial.variable(vs, j) for j, a in enumerate(row)),
            Polynomial.zero(vs),
        )
        for row in rows
    ]
    return PolyMap(vs, tuple(subs(c, vs, images) for c in f.components), f.name)


def unimodular(rng, n: int) -> list[list[int]]:
    """A seeded n x n integer matrix of determinant 1 or -1: the identity after
    3n row additions with multipliers in {-2, -1, 1, 2}, then maybe a sign."""
    rows = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(3 * n if n > 1 else 0):
        i, j = rng.sample(range(n), 2)
        k = rng.choice((-2, -1, 1, 2))
        rows[i] = [a + k * b for a, b in zip(rows[i], rows[j])]
    if rng.random() < 0.5:
        rows[0] = [-a for a in rows[0]]
    return rows


def directional_derivative(f, v):
    """Componentwise sum_j v_j * d/dx_j of a PolyMap, exact in the same ring."""
    from liptriv.polycore import PolyMap, Polynomial, as_fraction

    if len(v) != f.n:
        raise ValueError("dimension mismatch")
    comps = []
    for comp in f.components:
        acc = Polynomial.zero(f.vars)
        for j, vj in enumerate(v):
            if vj:
                acc = acc + Polynomial.constant(f.vars, as_fraction(vj)) * comp.partial(j)
        comps.append(acc)
    return PolyMap(f.vars, tuple(comps), f.name)


def order_key(order, nvars: int):
    """Sort key of a MonomialOrder on exponent tuples, from grevlex_key: the
    oracle of the Groebner engine's packed monomials."""
    from liptriv.polycore import grevlex_key

    if not order.block:
        return grevlex_key
    drop = order.block
    keep = tuple(i for i in range(nvars) if i not in drop)

    def key(e):
        return (
            grevlex_key(tuple(e[i] for i in drop)),
            grevlex_key(tuple(e[i] for i in keep)),
        )

    return key


def spolynomial(f, g, order):
    """S-polynomial of f and g under a monomial order, from Polynomial
    arithmetic: an oracle for the Groebner engine's own S-polynomial."""
    from liptriv.polycore import Polynomial

    key = order_key(order, f.nvars)
    ea, ca = max(f.terms, key=lambda t: key(t[0]))
    eb, cb = max(g.terms, key=lambda t: key(t[0]))
    lcm = tuple(max(a, b) for a, b in zip(ea, eb))

    def cofactor(e, c):
        return Polynomial.from_dict(f.vars, {tuple(x - y for x, y in zip(lcm, e)): 1 / c})

    return cofactor(ea, ca) * f - cofactor(eb, cb) * g


def normal_form(p, gb):
    """Remainder of p by multivariate division by the basis gb, zero exactly
    when p is in its ideal: the membership test of the Groebner suites.

    Exact `Fraction` division under order_key, independent of the engine's
    integer kernel."""
    from liptriv.polycore import Polynomial

    if p.vars != gb.vars:
        raise ValueError("ring mismatch")
    key = order_key(gb.order, p.nvars)
    divisors = [(max(g.terms, key=lambda t: key(t[0])), g.terms) for g in gb.basis]
    work, remainder = dict(p.terms), {}
    while work:
        mono = max(work, key=key)
        coeff = work.pop(mono)
        for (lead, lc), terms in divisors:
            shift = tuple(a - b for a, b in zip(mono, lead))
            if min(shift) >= 0:
                factor = coeff / lc
                for e, c in terms:
                    if e == lead:
                        continue
                    ne = tuple(a + b for a, b in zip(e, shift))
                    s = work.get(ne, 0) - factor * c
                    if s:
                        work[ne] = s
                    else:
                        work.pop(ne, None)
                break
        else:
            remainder[mono] = coeff
    return Polynomial.from_dict(p.vars, remainder)


def eval_float(p, point) -> float:
    """p at a float point by direct term summation: each term float(c), a
    signed inf past the float range, times its powers in variable order,
    added to 0.0 in term order.  The bitwise oracle of FloatKernel.value."""
    if len(point) != p.nvars:
        raise ValueError("dimension mismatch")
    total = 0.0
    for e, c in p.terms:
        try:
            term = float(c)
        except OverflowError:
            term = inf if c > 0 else -inf
        for x, k in zip(point, e):
            if k:
                term *= float(x) ** k
        total += term
    return total


def add(values):
    """The values added left to right from 0.0, as the float kernel adds them."""
    total = 0.0
    for v in values:
        total = total + v
    return total


def one_equation_step(resid, row, tol, seen=None):
    """The minimum-norm solution of row() . step = resid, in Python floats,
    as a list, or None to stop: a non-finite residual, sqrt(resid * resid)
    < tol (numpy's norm of one element), a non-finite row or a non-finite
    step.  With m the largest |row()[i]| and u = row() / m, the step is
    resid / m / sum(u_i^2) times u, so no square overflows or underflows
    where LAPACK's SVD would not; a zero row gives the zero step, as `lstsq`
    does.  The interpreted step of FloatKernel.fiber_project; `seen`
    collects which exit each call takes."""
    seen = set() if seen is None else seen
    if not isfinite(resid):
        seen.add("non-finite residual")
        return None
    if sqrt(resid * resid) < tol:
        seen.add("residual under tol")
        return None
    jac = row()
    if not all(isfinite(v) for v in jac):
        seen.add("non-finite row")
        return None
    m = max(map(abs, jac), default=0.0)
    if m == 0.0:
        seen.add("zero row")
        return [0.0] * len(jac)
    u = [v / m for v in jac]
    scale = resid / m / add(v * v for v in u)
    step = [scale * v for v in u]
    if not all(isfinite(s) for s in step):
        seen.add("non-finite step")
        return None
    return step


def reference_fiber_project(kernel, z, target, radius, tol, steps, solve=None, seen=None):
    """At most `steps` Gauss-Newton steps of a one-polynomial kernel from z
    toward {q = target}, each step retracted into the ball |z| <= radius
    (radius inf: no ball): the interpreted loop that FloatKernel.fiber_project
    compiles.  solve(resid, row, tol) gives a step or None to stop, and is
    `one_equation_step` by default; `seen` collects the loop's exits."""
    seen = set() if seen is None else seen
    if solve is None:
        def solve(resid, row, tol):
            return one_equation_step(resid, row, tol, seen)

    z = list(z)
    for _ in range(steps):
        step = solve(kernel.value(z)[0] - target, lambda: kernel.jacobian(z)[0], tol)
        if step is None:
            break
        z = [a - s for a, s in zip(z, step)]
        norm = sqrt(add(v * v for v in z))
        if not (norm <= radius or norm == 0.0):
            seen.add("ball")
            z = [radius * v / norm for v in z]
    else:
        seen.add("steps")
    return z


def infinity_by_x0(closure):
    """The part at infinity of a fiber from its closure, built the long way:
    the closure moved to a ring with x0, its last variable, first, the
    infinity ideal closure + (x0) there, its dimension, and its reduced
    grevlex basis with x0 dropped.  Returns (dim_infinity, m_candidate,
    cone basis as a GroebnerBasis in the affine variables): an oracle for
    fiber_infinity, which reads all three off the closure's cut."""
    from liptriv.groebner import GroebnerBasis, Ideal, MonomialOrder, buchberger, dimension
    from liptriv.polycore import Polynomial

    ring = closure.vars[-1:] + closure.vars[:-1]
    x0 = Polynomial.variable(ring, 0)
    infinity = Ideal.make(ring, [q.embed(ring) for q in closure.generators] + [x0])
    grevlex = MonomialOrder.grevlex()
    gb = buchberger(infinity, grevlex)
    dim_inf = max(dimension(gb) - 1, -1)
    basis = gb.basis
    cone = GroebnerBasis(ring[1:], grevlex, tuple(g.drop_vars([0]) for g in basis if g != x0))
    return dim_inf, len(cone.vars) - 1 - dim_inf, cone


def fiber_report(f, value):
    """fiber_infinity at value as the analysis reaches it: from the reduced
    grevlex basis of the fiber ideal."""
    from liptriv.groebner import Ideal, MonomialOrder, buchberger
    from liptriv.infinity import fiber_infinity

    basis = buchberger(Ideal.fiber(f, value), MonomialOrder.grevlex())
    return fiber_infinity(basis, value)


def count_real_roots(p) -> int:
    """Distinct real roots of a univariate p, from the sign variations of its
    Sturm chain at minus and plus infinity: an oracle for real_roots, which
    counts by bisection."""
    from liptriv.groebner import _sign_variations, _uni_coeffs, _uni_degree, sturm_sequence

    coeffs = _uni_coeffs(p)
    if _uni_degree(coeffs) < 1:
        return 0
    chain = sturm_sequence(coeffs)

    def variations_at_infinity(positive: bool) -> int:
        leads = []
        for c in chain:
            if not c:
                continue
            lead = c[-1]
            if not positive and _uni_degree(c) % 2 == 1:
                lead = -lead
            leads.append(lead)
        return _sign_variations(leads)

    return variations_at_infinity(False) - variations_at_infinity(True)


def two_phase_real_roots(p):
    """Isolating intervals in two phases: a bisection down to one sign
    variation per interval, then a separate refine loop per interval and a
    sort.  An oracle for real_roots, which isolates and refines in one
    bisection."""
    from liptriv.groebner import (
        _ROOT_WIDTH,
        _uni_coeffs,
        _uni_degree,
        _uni_eval,
        _variations_at,
        sturm_sequence,
    )

    coeffs = _uni_coeffs(p)
    if _uni_degree(coeffs) < 1:
        return []
    chain = sturm_sequence(coeffs)
    sf = chain[0]
    bound = 1 + max(abs(c) for c in sf) / abs(sf[-1])

    raw = []

    def isolate(a, b, va, vb):
        count = va - vb
        if count == 0:
            return
        if count == 1:
            raw.append((b, b) if _uni_eval(sf, b) == 0 else (a, b))
            return
        mid = (a + b) / 2
        vm = _variations_at(chain, mid)
        isolate(a, mid, va, vm)
        isolate(mid, b, vm, vb)

    isolate(-bound, bound, _variations_at(chain, -bound), _variations_at(chain, bound))

    results = []
    for a, b in raw:
        if a != b:
            va = _variations_at(chain, a)
            while b - a > _ROOT_WIDTH:
                mid = (a + b) / 2
                if _uni_eval(sf, mid) == 0:
                    a = b = mid
                    break
                vm = _variations_at(chain, mid)
                if va - vm >= 1:
                    b = mid
                else:
                    a, va = mid, vm
        results.append((a, b))
    results.sort(key=lambda iv: iv[0])
    return results


def count_calls(monkeypatch, module, name):
    """Record the arguments of every call of module.name, wherever it is bound.

    liptriv modules import functions by name, so the counting wrapper replaces
    the function in every loaded liptriv module that holds it.
    """
    import sys

    original = getattr(module, name)
    calls = []

    def counting(*args, **kwargs):
        calls.append((args, kwargs))
        return original(*args, **kwargs)

    for mod_name, mod in list(sys.modules.items()):
        if mod_name.split(".")[0] == "liptriv" and mod.__dict__.get(name) is original:
            monkeypatch.setattr(mod, name, counting)
    return calls


def reference_newton_critical_points(g, seed, solve):
    """Multi-start Newton for the gradient system of a scalar map, on numpy
    arrays: the end points whose gradient norm is below the tolerance.  An
    oracle for critical._newton_critical_points, which runs the same steps
    on Python floats: the same seeded starts, stops and updates, with each
    step `solve(jacobian rows, residual list)`, a list or None to stop."""
    import numpy as np

    from liptriv.critical import _NEWTON_TOL
    from liptriv.polycore import FloatKernel
    from liptriv.properness import seeded_rng

    m = g.n
    comp = g.components[0]
    gmap = FloatKernel([comp.partial(j) for j in range(m)])

    rng = seeded_rng(seed)
    found = []
    for _ in range(200):
        x = np.array([rng.uniform(-3.0, 3.0) for _ in range(m)])
        try:
            for _ in range(60):
                val = np.array(gmap.value(x.tolist()))
                if not np.all(np.isfinite(val)):
                    break
                if float(np.linalg.norm(val)) < _NEWTON_TOL * 1e-4:
                    break
                step = solve(gmap.jacobian(x.tolist()), val.tolist())
                if step is None or not np.all(np.isfinite(step)):
                    break
                x = x - np.array(step)
                if float(np.linalg.norm(step)) < 1e-14 * (1.0 + float(np.linalg.norm(x))):
                    break
            val = np.array(gmap.value(x.tolist()))
        except OverflowError:
            continue
        resid = float(np.linalg.norm(val))
        if np.all(np.isfinite(x)) and resid < _NEWTON_TOL:
            found.append(x.tolist())
    return found


def lstsq_solve(jac, rhs):
    """numpy's minimum-norm least-squares solution of jac @ step = rhs, as a
    list, or None where LAPACK fails."""
    import numpy as np

    try:
        step, *_ = np.linalg.lstsq(np.array(jac), np.array(rhs), rcond=None)
    except np.linalg.LinAlgError:
        return None
    return step.tolist()
