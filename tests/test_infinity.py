"""Fiber closures at infinity, their dimensions, and cone comparisons.

All computations here are Zariski (complex); the degree-six suspension case
documents where the real accumulation set is strictly smaller.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    DATA_DIR,
    compose_linear,
    count_calls,
    fiber_report,
    infinity_by_x0,
    poly,
    rand_poly,
)
from liptriv.classifier import AnalysisConfig, _exact_stages, classify, rational_grid
from liptriv.dependence import Subspace, factor_through_projection, suspend
from liptriv.groebner import DEFAULT_BUDGET, Ideal, MonomialOrder, buchberger, dimension, saturate
from liptriv.infinity import (
    ConeConstancyResult,
    _linearity,
    cone_constancy_check,
    fiber_infinity,
)
from liptriv.parsing import parse_mapping
from liptriv.polycore import PolyMap, Polynomial, fresh_name, kernel_basis

F = Fraction
XY = ("x", "y")
XYZ = ("x", "y", "z")
CORPUS = ("bad", "cube", "ex_simple", "motzkin")


def substituted_linearity(gb):
    """The cone as a subspace by substitution, or None: the degree-one
    elements of its reduced basis cut a candidate subspace A holding the
    cone, and the cone is A exactly when the dimensions agree and every
    element vanishes on a symbolic parametrization of A.  An oracle for
    _linearity."""
    n = len(gb.vars)
    dim_cone = dimension(gb)
    if dim_cone <= 0:
        return Subspace.zero(n)
    units = [tuple(int(i == j) for i in range(n)) for j in range(n)]
    rows = [[g.coefficient(e) for e in units] for g in gb.basis if g.degree == 1]
    candidate = Subspace.from_vectors(n, kernel_basis(rows, n))
    if candidate.dim != dim_cone:
        return None
    if gb.basis:
        params = tuple(f"s{k + 1}" for k in range(candidate.dim))
        columns = [list(col) for col in zip(*candidate.basis)]
        cone = compose_linear(PolyMap(gb.vars, gb.basis), columns, params)
        if any(not q.is_zero() for q in cone.components):
            return None
    return candidate


@st.composite
def homogeneous_generators(draw):
    """Up to three homogeneous generators in x, y, z of degree 1 to 3, each a
    map from exponent to coefficient."""
    gens = []
    for _ in range(draw(st.integers(0, 3))):
        d = draw(st.integers(1, 3))
        monomials = [(a, b, d - a - b) for a in range(d + 1) for b in range(d + 1 - a)]
        picked = draw(st.lists(st.sampled_from(monomials), min_size=1, max_size=3, unique=True))
        gens.append({e: draw(st.sampled_from([-2, -1, 1, 2])) for e in picked})
    return gens


class TestFiberInfinity:
    def test_shear_fiber_line_at_infinity(self, simple_map):
        rep = fiber_report(simple_map, [F(1), F(1)])
        expected = Ideal.make(
            rep.closure_ideal.vars,
            [
                poly(("x", "y", "z", "x0"), "x - x0"),
                poly(("x", "y", "z", "x0"), "y + z - x0"),
            ],
        )
        assert buchberger(rep.closure_ideal).basis == buchberger(expected).basis
        assert rep.dim_infinity == 0
        assert rep.m_candidate == 2

    def test_twisted_shear_line_fiber(self, bad_map):
        rep = fiber_report(bad_map, [F(1), F(0)])
        assert rep.dim_infinity == 0
        assert rep.m_candidate == 2
        assert rep.cone_subspace is not None
        assert rep.cone_subspace.basis == ((F(0), F(1), F(-1)),)

    def test_compact_complex_fiber_has_empty_infinity(self):
        f = PolyMap(("x",), (poly(("x",), "x^2 + 1"),))
        rep = fiber_report(f, [F(0)])
        assert rep.dim_infinity == -1
        assert rep.m_candidate == 1
        # Cone over the empty set is the null subspace.
        assert rep.cone_subspace is not None
        assert rep.cone_subspace.dim == 0

    def test_empty_fiber_detected(self):
        f = PolyMap(("x", "y"), (poly(("x", "y"), "x"), poly(("x", "y"), "x + 1")))
        rep = fiber_report(f, [F(0), F(0)])
        assert rep.closure_ideal.has_unit_generator()

    def test_value_length_checked(self, simple_map):
        with pytest.raises(ValueError):
            fiber_report(simple_map, [F(1)])

    def test_arithmetic_identity_m_candidate(self, simple_map, bad_map, motzkin_map):
        for f in (simple_map, bad_map, motzkin_map):
            rep = fiber_report(f, [F(2)] * f.p)
            assert rep.m_candidate + rep.dim_infinity == f.n - 1

    def test_saturation_idempotent_on_closure(self, simple_map):
        rep = fiber_report(simple_map, [F(1), F(1)])
        x0 = Polynomial.variable(rep.closure_ideal.vars, len(rep.closure_ideal.vars) - 1)
        again = saturate(rep.closure_ideal, x0)
        assert buchberger(again).basis == buchberger(rep.closure_ideal).basis

    def test_degree_six_suspension_complex_dimension(self, motzkin_map):
        # Over C the fiber curve has asymptotic directions x=0, y=0, x^2+y^2=0,
        # so the suspended fiber meets infinity in dimension 1; the real set is
        # only the silent-coordinate direction (dimension 0), which is exactly
        # the caveat the classifier reports for real input.
        rep = fiber_report(motzkin_map, [F(2)])
        assert rep.dim_infinity == 1
        assert rep.m_candidate == 1
        assert rep.cone_subspace is None


def random_fibers(count, seed=12):
    """Seeded random maps with one or two components in 1 to 3 variables,
    suspended by 0 to 2 unused ones, each with a small integer value; a
    constant component makes the fiber empty or drops out of the closure."""
    rng = random.Random(seed)
    cases = []
    for _ in range(count):
        vs = XYZ[: rng.randint(1, 3)]
        comps = tuple(rand_poly(rng, vs, max_degree=3, max_terms=3) for _ in range(rng.randint(1, 2)))
        value = [F(rng.randint(-1, 1)) for _ in comps]
        cases.append((suspend(PolyMap(vs, comps), rng.randint(0, 2)), value))
    return cases


PLANTED = [
    # x = 0 and x = -1: the empty fiber, whose closure is the unit ideal.
    (suspend(PolyMap(XY, (poly(XY, "x"), poly(XY, "x + 1"))), 1), [F(0), F(0)]),
    # A constant map at its value: the fiber is everything, the closure zero.
    (PolyMap(XY, (Polynomial.constant(XY, 2),)), [F(2)]),
    (suspend(PolyMap(("x",), (Polynomial.constant(("x",), -1),)), 2), [F(-1)]),
]


class TestAgainstInfinityIdeal:
    """fiber_infinity reads the dimension at infinity, the cone and its
    linearity off the cone ideal's basis; the infinity ideal closure + (x0),
    built and reduced separately, must give the same answers."""

    @staticmethod
    def check(f, value):
        rep = fiber_report(f, value)
        dim_inf, m_candidate, cone = infinity_by_x0(rep.closure_ideal)
        assert (rep.dim_infinity, rep.m_candidate) == (dim_inf, m_candidate)
        assert rep.cone_basis == cone
        assert rep.cone_subspace == substituted_linearity(cone)
        return rep

    @pytest.mark.parametrize("name", ("bad", "cube", "ex_simple", "motzkin"))
    def test_corpus_first_grid_values(self, name):
        f = parse_mapping((DATA_DIR / f"{name}.map").read_text())
        for value in rational_grid(f.p, 3):
            self.check(f, value)

    def test_random_and_planted_maps(self):
        reps = [self.check(f, value) for f, value in random_fibers(200) + PLANTED]
        assert any(r.closure_ideal.has_unit_generator() for r in reps)
        assert any(not r.closure_ideal.generators for r in reps)
        assert len({r.dim_infinity for r in reps}) >= 3


def closure_by_saturation(f, value):
    """The closure of the fiber over value and its cone's reduced grevlex
    basis, built from the fiber ideal itself, with x0 as the first variable:
    its homogenized generators saturated by x0, then cut at x0 = 0.  An
    oracle for fiber_infinity, which homogenizes the fiber's grevlex basis
    with x0 last instead."""
    hom_var = fresh_name("x0", f.vars)
    hom_vars = (hom_var,) + f.vars
    hom_gens = [q.homogenize(hom_var).embed(hom_vars) for q in Ideal.fiber(f, value).generators]
    closure = saturate(Ideal.make(hom_vars, hom_gens), Polynomial.variable(hom_vars, 0))
    cone = Ideal.make(f.vars, [q.drop_vars([0]) for q in closure.generators])
    return closure, buchberger(cone, MonomialOrder.grevlex())


def same_ideal(a, b):
    """a and b, each a reduced grevlex basis in its own order of the same
    variables, are one ideal: each basis, recomputed in the other's ring,
    is the other."""
    def moved(src, ring):
        gens = tuple(q.embed(ring) for q in src.generators)
        return buchberger(Ideal(ring, gens), MonomialOrder.grevlex()).basis

    return moved(a, b.vars) == b.generators and moved(b, a.vars) == a.generators


class TestClosureFromTheFiberBasis:
    """grevlex is a graded order, so the homogenized grevlex basis of the
    fiber ideal generates its closure, the ideal that saturating the
    homogenized fiber ideal by x0 gives.  With x0 last, that homogenized
    basis is the closure's reduced grevlex basis, and its cut at x0 = 0 the
    cone's: a Buchberger run gives each back unchanged."""

    @staticmethod
    def check(f, rep):
        closure, cone = closure_by_saturation(f, rep.value)
        assert same_ideal(rep.closure_ideal, closure)
        again = buchberger(rep.closure_ideal, MonomialOrder.grevlex())
        assert again.basis == rep.closure_ideal.generators
        assert rep.cone_basis == cone
        assert buchberger(Ideal(cone.vars, rep.cone_basis.basis), MonomialOrder.grevlex()) == cone

    @staticmethod
    def sampled_reports(maps):
        """Each map as given and suspended by 1, with the fiber reports of the
        values its complex analysis samples."""
        for g in maps:
            for f in (g, suspend(g, 1)):
                reports = _exact_stages(f, AnalysisConfig()).infinity_samples
                assert reports
                yield f, reports

    def test_corpus_sampled_values(self):
        maps = [parse_mapping((DATA_DIR / f"{name}.map").read_text()) for name in CORPUS]
        for f, reports in self.sampled_reports(maps):
            for rep in reports:
                self.check(f, rep)

    def test_random_reduced_maps_sampled_values(self):
        from test_acceptance import _random_reduced_maps

        checked = 0
        for f, reports in self.sampled_reports(_random_reduced_maps(40)):
            for rep in reports:
                self.check(f, rep)
                checked += 1
        assert checked == 240

    @pytest.mark.parametrize(
        "ring,comps,value",
        [
            # Every component identically its value: the zero fiber ideal.
            (XY, ("2",), (2,)),
            # One component identically its value, the other not.
            (XYZ, ("x*y - z", "3"), (1, 3)),
            # x = 0 and x = -1: the empty fiber.
            (XY, ("x", "x + 1"), (0, 0)),
            # Critical values: a node, a cusp, two lines and a double line.
            (XY, ("x^2 - y^2 + x^3",), (0,)),
            (XY, ("x^2 - y^3",), (0,)),
            (XYZ, ("x*y", "z"), (0, 1)),
            (XYZ, ("(x - y)^2", "z^2 + x"), (0, 0)),
        ],
    )
    def test_planted_fibers(self, ring, comps, value):
        f = PolyMap(ring, tuple(poly(ring, c) for c in comps))
        self.check(f, fiber_report(f, [F(c) for c in value]))

    def test_random_fibers(self):
        for f, value in random_fibers(200):
            self.check(f, fiber_report(f, value))

    def test_takes_a_grevlex_basis_only(self, simple_map):
        ideal = Ideal.fiber(simple_map, [F(1), F(1)])
        basis = buchberger(ideal, MonomialOrder.elimination([0]))
        with pytest.raises(ValueError):
            fiber_infinity(basis, [F(1), F(1)])

    @pytest.mark.parametrize("name", CORPUS)
    def test_complex_classify_saturates_only_to_compare_cones(self, name, monkeypatch):
        import liptriv.groebner
        import liptriv.infinity

        fibers = count_calls(monkeypatch, liptriv.infinity, "fiber_infinity")
        saturations = count_calls(monkeypatch, liptriv.groebner, "saturate")
        bases = count_calls(monkeypatch, liptriv.groebner, "buchberger")
        classify(parse_mapping((DATA_DIR / f"{name}.map").read_text()), "complex")
        assert len(fibers) == 3
        # Of the corpus maps, only the twisted shear's cones differ, and the
        # cone check saturates once to show it.
        assert len(saturations) == (name == "bad")
        assert_distinct_inputs(bases)

    @pytest.mark.parametrize("k", (0, 1, 2))
    @pytest.mark.parametrize("comp", ("-2*u + 1", "2*u + 2", "u"))
    def test_one_variable_maps_repeat_no_buchberger_input(self, comp, k, monkeypatch):
        # Maps 10, 46 and 50 of the algebra benchmark, as given and
        # suspended: their samples' fibers are single points, whose cones
        # coincide, so a Buchberger run of its own per cone would repeat.
        import liptriv.groebner

        bases = count_calls(monkeypatch, liptriv.groebner, "buchberger")
        classify(suspend(PolyMap(("u",), (poly(("u",), comp),)), k), "complex")
        assert_distinct_inputs(bases)

    def test_no_buchberger_run_per_fiber(self, monkeypatch):
        import liptriv.groebner

        grevlex = MonomialOrder.grevlex()
        cases = [(buchberger(Ideal.fiber(f, value), grevlex), value)
                 for f, value in random_fibers(200) + PLANTED]
        bases = count_calls(monkeypatch, liptriv.groebner, "buchberger")
        for basis, value in cases:
            fiber_infinity(basis, value)
        assert bases == []


def assert_distinct_inputs(calls):
    """No two recorded buchberger calls share an ideal and an order."""
    grevlex = MonomialOrder.grevlex()
    inputs = [(args[0], (args[1] if len(args) > 1 else kwargs.get("order")) or grevlex)
              for args, kwargs in calls]
    assert len(set(inputs)) == len(inputs)


class TestConeAtInfinity:
    def test_shear_cone_constant_direction(self, simple_map):
        for c in ([F(1), F(0)], [F(2), F(3)]):
            rep = fiber_report(simple_map, c)
            assert rep.cone_subspace is not None
            assert rep.cone_subspace.basis == ((F(0), F(1), F(-1)),)

    def test_twisted_shear_cone_moves_with_value(self, bad_map):
        sub1 = fiber_report(bad_map, [F(1), F(0)]).cone_subspace
        sub2 = fiber_report(bad_map, [F(2), F(0)]).cone_subspace
        assert sub1.basis == ((F(0), F(1), F(-1)),)
        assert sub2.basis == ((F(0), F(1), F(-2)),)

    def test_suspended_finite_fiber_cone_is_projection_kernel(self):
        g = PolyMap(("u", "v"), (poly(("u", "v"), "u"), poly(("u", "v"), "v")))
        f = suspend(g, 1)
        res = factor_through_projection(f)
        rep = fiber_report(f, [F(1), F(2)])
        assert rep.cone_subspace is not None
        # Kernel of pi is spanned by the silent coordinate.
        kernel = Subspace.from_vectors(3, [[F(0), F(0), F(1)]])
        assert rep.cone_subspace == kernel
        assert all(sum(row[2] for row in res.pi) == 0 for _ in (0,))


class TestLinearity:
    @settings(deadline=None, max_examples=300)
    @given(homogeneous_generators())
    @example([{(2, 0, 0): 1}])  # <x^2>: a linear variety, not a linear ideal
    @example([{(2, 0, 0): 1}, {(0, 1, 0): 1}])  # <x^2, y>
    @example([{(1, 1, 0): 1}])  # <x*y>: two planes
    @example([{(1, 0, 0): 1, (0, 1, 0): -1}, {(2, 0, 0): 1}])  # <x - y, x^2>
    @example([{(1, 0, 0): 1, (0, 0, 0): 1}])  # <x + 1>: not homogeneous
    @example([])  # the zero ideal: the cone is all of K^3
    def test_matches_substitution(self, gens):
        ideal = Ideal.make(XYZ, [Polynomial.from_dict(XYZ, g) for g in gens])
        gb = buchberger(ideal, MonomialOrder.grevlex())
        assert _linearity(gb) == substituted_linearity(gb)


class TestConeConstancy:
    def test_constant_cone_passes(self, simple_map):
        samples = [[F(1), F(0)], [F(2), F(3)], [F(-1), F(1)]]
        reports = [fiber_report(simple_map, c) for c in samples]
        assert cone_constancy_check(reports, DEFAULT_BUDGET) == ConeConstancyResult("PASS")
        assert all(r.cone_subspace.basis == ((F(0), F(1), F(-1)),) for r in reports)

    def test_moving_cone_fails_with_witness(self, bad_map):
        reports = [fiber_report(bad_map, c) for c in ([F(1), F(0)], [F(2), F(0)])]
        result = cone_constancy_check(reports, DEFAULT_BUDGET)
        assert result.verdict == "FAIL"
        i, j = result.witness
        assert reports[i].cone_subspace.basis == ((F(0), F(1), F(-1)),)
        assert reports[j].cone_subspace.basis == ((F(0), F(1), F(-2)),)

    def test_constant_nonlinear_reported(self, motzkin_map):
        reports = [fiber_report(motzkin_map, [c]) for c in (F(2), F(3))]
        assert cone_constancy_check(reports, DEFAULT_BUDGET) == ConeConstancyResult("CONSTANT_NOT_LINEAR")