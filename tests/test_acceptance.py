"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Expected values are either verified literals (hand-checkable examples), the
outputs of independent oracles implemented in this file (Sylvester resultants,
brute-force dimension search, polynomials built from known roots), or numeric
probes with the tolerances stated alongside each assertion.
"""

import random
import time
from contextlib import contextmanager
from fractions import Fraction
from itertools import combinations

import pytest

from conftest import (
    compose_linear,
    count_real_roots,
    eval_float,
    inverse,
    normal_form,
    poly,
    power,
    rand_poly,
    spolynomial,
    subs,
    unimodular,
)
from liptriv.classifier import (
    AnalysisConfig,
    classify,
    complexification_compare,
    tube_distance_probe,
)
from liptriv.critical import critical_ideal, real_critical_values
from liptriv.dependence import factor_through_projection, invariance_subspace, suspend
from liptriv.groebner import (
    Ideal,
    buchberger,
    dimension,
    eliminate,
    real_roots,
)
from liptriv.parsing import print_polynomial
from liptriv.polycore import PolyMap, Polynomial
from liptriv.properness import ProbeSchedule, properness_probe_real
from liptriv.rational import indeterminacy_empty_check, rational_invariance_subspace

F = Fraction


@contextmanager
def criterion(label: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {label}: FAIL")
        raise
    print(f"ACCEPTANCE {label}: PASS")


def ideal_equals(ideal: Ideal, variables, exprs) -> bool:
    """Exact ideal equality via reduced Groebner bases."""
    expected = Ideal.make(variables, [poly(variables, e) for e in exprs])
    return buchberger(ideal).basis == buchberger(expected).basis


def test_criterion_1_shear_end_to_end(simple_map):
    with criterion("1 invariant-shear exact pipeline"):
        start = time.monotonic()
        rep = classify(simple_map, "complex")
        elapsed = time.monotonic() - start

        assert rep.factorization.V.dim == 1
        assert rep.factorization.V.basis == ((F(0), F(1), F(-1)),)
        assert rep.factorization.m == 2
        assert ideal_equals(rep.jelonek, ("t1", "t2"), ["t1"])
        assert ideal_equals(rep.critical, ("t1", "t2"), ["t1", "t2"])
        # Ltv = C^2 minus the line t1 = 0.
        assert rep.ltv.kind == "complement"
        assert ideal_equals(
            Ideal.make(("t1", "t2"), rep.ltv.generators), ("t1", "t2"), ["t1"]
        )
        assert elapsed < 1.0, f"runtime {elapsed:.3f}s exceeds 1s"


def test_criterion_2_degree_six_suspension(motzkin_map):
    with criterion("2 degree-six suspension real analysis"):
        start = time.monotonic()
        reduced = factor_through_projection(motzkin_map).g

        roots = real_critical_values(reduced, critical_ideal(reduced))
        assert [(r.approx, r.status) for r in roots] == [
            (0.0, "attained"),
            (1.0, "attained"),
        ]
        # Each witness is a critical point: the gradient of g vanishes there.
        grads = [reduced.components[0].partial(j) for j in range(reduced.n)]
        for r in roots:
            point = list(r.witness)
            assert sum(eval_float(d, point) ** 2 for d in grads) ** 0.5 < 1e-8

        sched = ProbeSchedule()
        for c in (-1.0, 0.5, 0.9):
            verdict = properness_probe_real(reduced, [c], sched)
            assert verdict.verdict == "proper", f"expected proper at {c}"
        for c in (1.5, 2.0, 5.0):
            verdict = properness_probe_real(reduced, [c], sched)
            assert verdict.verdict == "non_proper", f"expected non_proper at {c}"
            trace = {e["radius"]: e["mu"] for e in verdict.evidence["mu_trace"]}
            assert trace[100.0] < 1e-2

        tube = tube_distance_probe(motzkin_map, [2.0], [3.0])
        assert tube["collapse"]
        by_radius = {e["radius"]: e["distance"] for e in tube["per_radius"]}
        assert by_radius[50.0] is not None and by_radius[50.0] < 0.05

        elapsed = time.monotonic() - start
        assert elapsed < 60.0, f"runtime {elapsed:.1f}s exceeds 60s"


def test_criterion_3_twisted_shear_rejection(bad_map):
    with criterion("3 twisted-shear rejection"):
        start = time.monotonic()
        for field_name in ("complex", "real"):
            rep = classify(bad_map, field_name)
            assert rep.ltv.kind == "empty"

            checks = {c.name: c for c in rep.checks}
            inv = checks["invariance_vs_infinity"]
            assert inv.verdict == "FAIL"
            assert inv.data["dim_V"] == 0
            assert inv.data["m_candidate"] == 2
            assert inv.data["required"] == 1  # 0 < 1 fails

            cone = checks["cone_constancy"]
            assert cone.verdict == "FAIL"
            assert cone.data["witness_values"][0][0] == Fraction(1)
            assert cone.data["witness_values"][1][0] == Fraction(2)
            assert cone.data["witness_cones"][0]["subspace_basis"] == (
                (Fraction(0), Fraction(1), Fraction(-1)),
            )
            assert cone.data["witness_cones"][1]["subspace_basis"] == (
                (Fraction(0), Fraction(1), Fraction(-2)),
            )
        elapsed = time.monotonic() - start
        assert elapsed < 5.0, f"runtime {elapsed:.1f}s exceeds 5s"


def test_criterion_4_collapsed_cubic(cube_map):
    with criterion("4 collapsed cubic"):
        start = time.monotonic()
        rep = classify(cube_map, "complex")
        assert rep.factorization.m == 1
        g = rep.factorization.g
        assert g.n == 1 and g.components[0].degree == 3
        # g(u) = u^3 exactly, in the surviving coordinate.
        assert g.components[0].coefficient((3,)) == 1
        assert len(g.components[0].terms) == 1
        assert rep.jelonek.has_unit_generator()
        assert ideal_equals(rep.critical, ("t1",), ["t1"])
        assert rep.ltv.kind == "complement"
        assert ideal_equals(
            Ideal.make(("t1",), rep.ltv.generators), ("t1",), ["t1"]
        )
        elapsed = time.monotonic() - start
        assert elapsed < 1.0, f"runtime {elapsed:.3f}s exceeds 1s"


def _random_reduced_maps(count: int):
    """Seeded nonconstant maps with trivial invariance subspace, n <= 3, deg <= 3."""
    rng = random.Random(2024)
    shapes = [
        (("u",), 1),
        (("u", "v"), 1),
        (("u", "v"), 2),
        (("u", "v", "w"), 1),
    ]
    out = []
    while len(out) < count:
        variables, p = shapes[rng.randrange(len(shapes))]
        comps = tuple(rand_poly(rng, variables, 3, max_terms=3) for _ in range(p))
        if any(c.is_zero() or c.is_constant() for c in comps):
            continue
        g = PolyMap(tuple(variables), comps)
        if invariance_subspace(g).dim != 0:
            continue
        out.append(g)
    return out


def test_criterion_5_suspension_invariance():
    with criterion("5 suspension invariance of the classification"):
        cfg = AnalysisConfig(ProbeSchedule(radii=(10.0, 100.0)))
        for g in _random_reduced_maps(10):
            for field_name in ("complex", "real"):
                base = classify(g, field_name, cfg)
                for k in (1, 2):
                    lifted = classify(suspend(g, k), field_name, cfg)
                    assert lifted.ltv == base.ltv, (
                        f"{field_name} description changed under suspension by {k}: "
                        f"{[print_polynomial(c) for c in g.components]}"
                    )


def test_coordinate_change_invariance():
    """A unimodular integer change of source coordinates, g -> g o A, leaves
    every exact answer as it is: the whole description over C, and its kind
    and generators over R (the real probes sample other points of the same
    fibers, so their tables may differ)."""
    rng = random.Random(1998)
    cfg = AnalysisConfig(ProbeSchedule(radii=(10.0, 100.0)))
    for g in _random_reduced_maps(40):
        moved = compose_linear(g, unimodular(rng, g.n), g.vars)
        shown = [print_polynomial(c) for c in moved.components]
        assert classify(moved, "complex").ltv == classify(g, "complex").ltv, shown
        real, real_moved = classify(g, "real", cfg).ltv, classify(moved, "real", cfg).ltv
        assert (real_moved.kind, real_moved.generators) == (real.kind, real.generators), shown


def test_target_coordinate_change_moves_the_bifurcation_set():
    """A unimodular integer change of target coordinates, f -> B o f, maps
    the Lipschitz trivial values by B, so the complex kind stays and a
    complement's generators become the parent's composed with B^-1, equal as
    reduced bases.

    B o f of one map samples the value (1, 0), whose fiber is three points
    with the cone ideal (v, u^3), where the other samples have
    (v^2, u*v, u^2): both are empty at infinity, and the cone check, which
    compares the sets, passes."""
    rng = random.Random(2718)
    compared, differing = 0, []
    for f in _random_reduced_maps(40):
        if f.p < 2:
            continue
        b = unimodular(rng, f.p)
        moved = PolyMap(f.vars, tuple(
            sum((Polynomial.constant(f.vars, F(k)) * comp for k, comp in zip(row, f.components)),
                Polynomial.zero(f.vars))
            for row in b
        ))
        shown = [print_polynomial(c) for c in moved.components]
        base, image = classify(f, "complex").ltv, classify(moved, "complex").ltv
        if image.kind != base.kind:
            differing.append((shown, base.kind, image.kind))
            continue
        if base.kind != "complement":
            continue
        tvars = base.generators[0].vars
        back = [
            sum((Polynomial.constant(tvars, k) * Polynomial.variable(tvars, j)
                 for j, k in enumerate(row)), Polynomial.zero(tvars))
            for row in inverse(b)
        ]
        want = buchberger(Ideal.make(tvars, [subs(h, tvars, back) for h in base.generators]))
        assert buchberger(Ideal.make(tvars, image.generators)).basis == want.basis, shown
        compared += 1
    assert compared == 12
    assert differing == []


# Maps K^2 -> K^2 whose sampled fibers are finitely many points, so every
# sample is empty at infinity, but whose sampled cone ideals differ, such as
# (u - 7/2*v, v^2) and (u - 21/2*v, v^2).  The cone check compares the sets
# at infinity, so the kind is a complement, in every suspension.
EQUAL_CONE_SETS = [
    # Maps 9, 11, 39, 49, 57 and 79 of the algebra benchmark.
    ("2*u*v + 3*v^2 + 1", "-2*v^2"),
    ("v^2", "-3*u*v"),
    ("-2*u*v^2 - u*v + 2*u", "-2*u^2*v"),
    ("u*v - 2*v - 2", "-3*u^2*v"),
    ("-3*u^2*v + 2*u*v^2 + 3", "-3*u*v^2 - 2*v^2 - 3*v"),
    ("u^2*v + 2*u*v", "-2*u*v^2 + 2*v^2 - 3"),
    # Maps 5, 25 and 35 of _random_reduced_maps(40).
    ("-u^2*v + 2*u*v", "-2*u*v - 3*v"),
    ("3*v^2", "-3*u*v^2 - 2*v"),
    ("-3*u*v^2 - 2*v^2", "-3*u^2*v - 1"),
]


@pytest.mark.parametrize("comps", EQUAL_CONE_SETS)
def test_equal_cone_sets_give_a_complement(comps):
    g = PolyMap(("u", "v"), tuple(poly(("u", "v"), c) for c in comps))
    for k in (0, 1, 2):
        assert classify(suspend(g, k), "complex").ltv.kind == "complement"
    assert classify(g, "real").ltv.kind == "real_complement"


# -- criterion 6 oracles --------------------------------------------------------


def _uni_coeff_list(p: Polynomial) -> list[Fraction]:
    out = [F(0)] * (p.degree + 1)
    for e, c in p.terms:
        out[e[0]] = c
    return out


def _uni_divides(d: list[Fraction], n: list[Fraction]) -> bool:
    """Exact dense division check: does d divide n?"""
    n = n[:]
    while n and n[-1] == 0:
        n.pop()
    if not n:
        return True
    if len(d) > len(n):
        return False
    while n and len(n) >= len(d):
        factor = n[-1] / d[-1]
        shift = len(n) - len(d)
        for i in range(len(d)):
            n[i + shift] -= factor * d[i]
        while n and n[-1] == 0:
            n.pop()
    return not n


def _sylvester_resultant(p: Polynomial, q: Polynomial) -> Polynomial:
    """Resultant in the first variable of bivariate p, q; result in the second.

    Classic Sylvester-matrix determinant with entries in Q[t], expanded by
    minors; independent of the Groebner machinery it checks.
    """
    tvar = (p.vars[1],)

    def coeffs_in_x(poly2):
        deg = max((e[0] for e, _ in poly2.terms), default=0)
        rows = [dict() for _ in range(deg + 1)]
        for (ex, et), c in poly2.terms:
            rows[ex][(et,)] = c
        return [Polynomial.from_dict(tvar, r) for r in rows]

    a = coeffs_in_x(p)
    b = coeffs_in_x(q)
    da, db = len(a) - 1, len(b) - 1
    size = da + db
    zero = Polynomial.zero(tvar)
    matrix = []
    for i in range(db):
        row = [zero] * size
        for j, coeff in enumerate(reversed(a)):
            row[i + j] = coeff
        matrix.append(row)
    for i in range(da):
        row = [zero] * size
        for j, coeff in enumerate(reversed(b)):
            row[i + j] = coeff
        matrix.append(row)

    def det(rows):
        k = len(rows)
        if k == 0:
            return Polynomial.constant(tvar, 1)
        if k == 1:
            return rows[0][0]
        acc = Polynomial.zero(tvar)
        for j in range(k):
            if rows[0][j].is_zero():
                continue
            minor = [[rows[i][col] for col in range(k) if col != j] for i in range(1, k)]
            term = rows[0][j] * det(minor)
            acc = acc + term if j % 2 == 0 else acc - term
        return acc

    return det(matrix)


def _brute_force_monomial_dimension(nvars: int, monomials) -> int:
    """Largest variable subset meeting the support of no generator."""
    supports = [frozenset(i for i, k in enumerate(e) if k) for e in monomials]
    best = -1 if not supports else 0
    if any(not s for s in supports):
        return -1  # a constant generator: unit ideal
    best = 0
    for size in range(nvars, -1, -1):
        for subset in combinations(range(nvars), size):
            sset = frozenset(subset)
            if all(not s <= sset for s in supports):
                return size
    return best


def test_criterion_6_groebner_property_suite():
    with criterion("6 Groebner engine property suite"):
        rng = random.Random(6006)

        # (a) + (b): S-polynomials and input generators reduce to zero.
        ring = ("x", "y", "z")
        for _ in range(8):
            gens = [rand_poly(rng, ring, 3, max_terms=3) for _ in range(2)]
            gens = [g for g in gens if not g.is_zero()]
            if not gens:
                continue
            gb = buchberger(Ideal.make(ring, gens))
            for i in range(len(gb.basis)):
                for j in range(i + 1, len(gb.basis)):
                    s = spolynomial(gb.basis[i], gb.basis[j], gb.order)
                    assert normal_form(s, gb).is_zero()
            for g in gens:
                assert normal_form(g, gb).is_zero()

        # (c) Elimination against Sylvester resultants, 20 random pairs.
        xt = ("x", "t")
        done = 0
        while done < 20:
            p = rand_poly(rng, xt, 3, max_terms=3)
            q = rand_poly(rng, xt, 3, max_terms=3)
            if p.is_zero() or q.is_zero():
                continue
            if not (p.uses_var(0) and q.uses_var(0)):
                continue
            res = _sylvester_resultant(p, q)
            elim = eliminate(Ideal.make(xt, [p, q]), ["x"])
            if not elim.generators:
                assert res.is_zero()
            else:
                assert len(elim.generators) == 1
                generator = elim.generators[0]
                if res.is_zero():
                    # Resultant can vanish from a common factor; the
                    # elimination ideal must then be zero too, handled above.
                    pytest.fail("zero resultant with nonzero elimination ideal")
                assert _uni_divides(
                    _uni_coeff_list(generator), _uni_coeff_list(res)
                ), "eliminated generator must divide the resultant"
            done += 1

        # (d) Dimension against brute-force independent-set search.
        done = 0
        while done < 30:
            nvars = rng.randint(1, 4)
            variables = tuple(f"x{i}" for i in range(nvars))
            monos = []
            for _ in range(rng.randint(1, 4)):
                exp = tuple(rng.randint(0, 2) for _ in range(nvars))
                if sum(exp) == 0:
                    continue
                monos.append(exp)
            if not monos:
                continue
            gens = [
                Polynomial.from_dict(variables, {e: F(1)}) for e in set(monos)
            ]
            got = dimension(buchberger(Ideal.make(variables, gens)))
            want = _brute_force_monomial_dimension(nvars, set(monos))
            assert got == want
            done += 1

        # (e) Sturm counts against polynomials with known real roots.
        done = 0
        tvar = ("t",)
        while done < 50:
            k = rng.randint(0, 3)
            roots = rng.sample([-3, -2, -1, 0, 1, 2, 3, F(1, 2), F(-3, 2)], k)
            p = Polynomial.constant(tvar, rng.choice([1, -1, 2]))
            degree = 0
            for r in roots:
                mult = rng.randint(1, 2)
                factor = power(poly(tvar, "t") - F(r), mult)
                p = p * factor
                degree += mult
            while degree <= 4 and rng.random() < 0.5:
                a, b = rng.randint(-2, 2), rng.randint(1, 3)
                p = p * (power(poly(tvar, "t") - a, 2) + b * b)
                degree += 2
            if degree == 0 or degree > 6:
                continue
            assert count_real_roots(p) == len(set(roots))
            intervals = real_roots(p)
            assert len(intervals) == len(set(roots))
            for r in set(roots):
                hits = [iv for iv in intervals if iv[0] <= F(r) <= iv[1]]
                assert len(hits) == 1
            done += 1


def test_criterion_7_rational_counterexample(regulous_map):
    with criterion("7 rational counterexample checks"):
        indet = indeterminacy_empty_check(regulous_map)
        assert indet.status == "PASS"
        assert indet.per_component[0]["certificate"] == "sum_of_squares"

        inv = rational_invariance_subspace(regulous_map)
        assert inv.dim == 0

        rep = classify(regulous_map, "real")
        assert rep.ltv.reason == (
            "polynomial factorization theorem not applicable (rational input)"
        )
        grad = {c.name: c for c in rep.checks}["gradient_bound"]
        assert grad.verdict == "BOUNDED"
        assert grad.data["bound"] <= 2.0
        radii = [e["radius"] for e in grad.data["samples"]]
        assert max(radii) >= 1e6


def test_criterion_8_complexification_containment(simple_map, motzkin_map, cube_map):
    with criterion("8 complexification containment"):
        cfg = AnalysisConfig(ProbeSchedule(radii=(10.0, 100.0, 1000.0)))
        for mapping in (simple_map, motzkin_map, cube_map):
            real_rep, complex_rep, check = complexification_compare(mapping, cfg)
            assert check.verdict == "PASS"
            if complex_rep.ltv.kind == "complement":
                assert check.data["samples"], "expected sampled values"
                for row in check.data["samples"]:
                    assert row["in_real_ltv"]
