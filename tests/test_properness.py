"""Non-properness: exact complex ideals, per-value verdicts, numeric probes."""

import random
from fractions import Fraction
from math import inf, nan, nextafter

import numpy as np
import pytest

from conftest import (
    compose_linear,
    count_calls,
    data_text,
    one_equation_step,
    poly,
    power,
    rand_poly,
    unimodular,
)
from liptriv.classifier import lipschitz_gradient_probe, tube_distance_probe
from liptriv.dependence import factor_through_projection, invariance_subspace, suspend
from liptriv.groebner import (
    DEFAULT_BUDGET,
    BudgetExceededError,
    GroebnerBudget,
    Ideal,
    MonomialOrder,
    buchberger,
    eliminate,
    intersect,
    saturate,
)
from liptriv.parsing import parse_mapping, print_polynomial
from liptriv.polycore import FloatKernel, PolyMap, Polynomial, fresh_name
from liptriv.properness import (
    _TOL_ZERO,
    ProbeSchedule,
    _gauss_newton_step,
    _coercive_component,
    _image_witness,
    _sphere_minimize,
    is_proper_at_complex,
    jelonek_ideal,
    properness_probe_real,
    target_ring,
)
from test_acceptance import _random_reduced_maps

F = Fraction
FAST = ProbeSchedule(radii=(10.0, 100.0, 1000.0))


def proper_at(g, c):
    """is_proper_at_complex with J(g) computed when the fiber is finite."""
    return is_proper_at_complex(g, c, lambda: jelonek_ideal(g), DEFAULT_BUDGET)


def no_certificate(value):
    """A complex certificate that never certifies: the probe always runs."""
    return None


@pytest.fixture(scope="module")
def reduced_shear():
    # The reduced form of the invariant shear: (x, x*w) on K^2.
    ring = ("x", "w")
    return PolyMap(ring, (poly(ring, "x"), poly(ring, "x*w")))


@pytest.fixture(scope="module")
def plane_sextic(motzkin_map):
    return PolyMap(("x", "y"), (motzkin_map.components[0].drop_vars([2]),))


class TestJelonekIdeal:
    def test_shear_loses_properness_on_a_line(self, reduced_shear):
        jel = jelonek_ideal(reduced_shear)
        assert [print_polynomial(g) for g in jel.generators] == ["t1"]

    def test_identity_is_proper_everywhere(self):
        ring = ("x", "y")
        ident = PolyMap(ring, (poly(ring, "x"), poly(ring, "y")))
        assert jelonek_ideal(ident).has_unit_generator()

    def test_univariate_cubic_proper(self):
        g = PolyMap(("u",), (poly(("u",), "u^3"),))
        assert jelonek_ideal(g).has_unit_generator()

    def test_proper_part_with_constant_component(self):
        # x^2 is proper, so adding a constant component keeps J empty.
        ring = ("x",)
        g = PolyMap(ring, (poly(ring, "x^2"), poly(ring, "3")))
        assert jelonek_ideal(g).has_unit_generator()

    def test_constant_component_pins_hyperplane(self):
        # The first two components lose properness over t1 = 0; the constant
        # third pins everything to the hyperplane t3 = 5.
        ring = ("x", "w")
        g = PolyMap(ring, (poly(ring, "x"), poly(ring, "x*w"), poly(ring, "5")))
        jel = jelonek_ideal(g)
        assert not jel.has_unit_generator()
        assert jel.vanishes_at([F(0), F(7), F(5)])
        assert not jel.vanishes_at([F(0), F(7), F(4)])
        assert not jel.vanishes_at([F(1), F(7), F(5)])

    def test_constant_map_not_proper_at_its_value(self):
        g = PolyMap(("x",), (poly(("x",), "3"),))
        jel = jelonek_ideal(g)
        assert jel.vanishes_at([F(3)])
        assert not jel.vanishes_at([F(2)])


def jelonek_by_saturations(g):
    """J(g) by one saturation per source variable, the oracle for
    jelonek_ideal: the closure of the graph by x0, cut with x0 = 0,
    saturated by each source variable in turn, the saturations intersected
    and the source variables eliminated.  2n + 1 Groebner runs for g in n
    variables."""
    tvars = target_ring(g.p, g.vars)
    extra = [
        Polynomial.variable(tvars, i) - Polynomial.constant(tvars, comp.constant_value())
        for i, comp in enumerate(g.components)
        if comp.is_constant()
    ]
    moving = [(i, comp) for i, comp in enumerate(g.components) if not comp.is_constant()]
    if not moving:
        return Ideal.make(tvars, extra)
    hom_var = fresh_name("x0", g.vars + tvars)
    ring = (hom_var,) + g.vars + tvars
    x0 = Polynomial.variable(ring, 0)
    gens = [
        comp.homogenize(hom_var).embed(ring) - Polynomial.variable(ring, 1 + g.n + i) * power(x0, comp.degree)
        for i, comp in moving
    ]
    closed = saturate(Ideal.make(ring, gens), x0)
    at_infinity = Ideal.make(ring, list(closed.generators) + [x0])
    cleaned = saturate(at_infinity, Polynomial.variable(ring, 1))
    for j in range(1, g.n):
        cleaned = intersect(cleaned, saturate(at_infinity, Polynomial.variable(ring, 1 + j)))
    projected = eliminate(cleaned, (hom_var,) + g.vars)
    return Ideal.make(tvars, list(projected.generators) + extra)


def jelonek_by_x0(g, budget=DEFAULT_BUDGET):
    """J(g) from the closure of the graph by saturation, the second oracle
    for jelonek_ideal: each component homogenized with x0, the graph
    gh_i - t_i*x0^{d_i} saturated by x0, cut with x0 = 0, and the cut
    saturated by (x1, ..., xn) and projected in the one Rabinowitsch
    elimination that jelonek_ideal makes.  A constant component c_i adds
    t_i - c_i after the projection's generators."""
    tvars = target_ring(g.p, g.vars)
    hom_var = fresh_name("x0", g.vars + tvars)
    ring = (hom_var,) + g.vars + tvars
    x0 = Polynomial.variable(ring, 0)
    gens = []
    extra = []
    for i, comp in enumerate(g.components):
        if comp.is_constant():
            extra.append(Polynomial.variable(tvars, i) - Polynomial.constant(tvars, comp.constant_value()))
            continue
        ti = Polynomial.variable(ring, 1 + g.n + i)
        gens.append(comp.homogenize(hom_var).embed(ring) - ti * power(x0, comp.degree))
    closed = saturate(Ideal.make(ring, gens), x0, budget)
    yvars = target_ring(g.n, ring, "y")
    cut_ring = ring[1:] + yvars
    cut = [q.drop_vars([0]).embed(cut_ring) for q in closed.generators]
    rabinowitsch = Polynomial.constant(cut_ring, 1)
    for j in range(g.n):
        rabinowitsch -= Polynomial.variable(cut_ring, g.n + g.p + j) * Polynomial.variable(cut_ring, j)
    projected = eliminate(Ideal.make(cut_ring, cut + [rabinowitsch]), g.vars + yvars, budget)
    return Ideal.make(tvars, list(projected.generators) + extra)


def assert_same_jelonek(g, oracles=(jelonek_by_saturations, jelonek_by_x0)):
    """jelonek_ideal(g) is each oracle's ideal: the same reduced basis, or,
    when g has a constant component, whose graph equation the oracles
    append after the basis, the same ideal."""
    got = jelonek_ideal(g)
    grevlex = MonomialOrder.grevlex()
    for oracle in oracles:
        expected = oracle(g)
        if any(comp.is_constant() for comp in g.components):
            assert buchberger(got, grevlex) == buchberger(expected, grevlex), (g, oracle)
        else:
            assert got == expected, (g, oracle)


def m_equals_p_algebra_maps():
    """The m = p maps of the algebra benchmark as given, but for map 24,
    whose critical ideal does not finish in reasonable time."""
    import liptriv
    from bench.workloads import random_reduced_maps

    return [
        g
        for i, g in enumerate(random_reduced_maps(liptriv, 5, 80))
        if i != 24 and factor_through_projection(g).m == g.p
    ]


def three_variable_maps(count):
    """Seeded maps K^3 -> K^3 with trivial invariance subspace, degree <= 3,
    at most 3 terms per component, none constant.  The acceptance and
    algebra maps have at most two components; on 4 of the first 60 of
    these, the top x-degree forms of the graph's grevlex basis, an order
    that is not x-graded, cut a larger set than J(g)'s."""
    rng = random.Random(3)
    ring = ("u", "v", "w")
    maps = []
    while len(maps) < count:
        g = PolyMap(ring, tuple(rand_poly(rng, ring, 3, max_terms=3) for _ in ring))
        if not any(c.is_constant() for c in g.components) and invariance_subspace(g).dim == 0:
            maps.append(g)
    return maps


def least_limit(run, key):
    """The least value of one GroebnerBudget limit, `key`, at which run(budget)
    finishes, the other limit at its default; a run that finishes at a limit
    finishes at every larger one."""
    low, high = 1, getattr(DEFAULT_BUDGET, key)
    while low < high:
        mid = (low + high) // 2
        try:
            run(GroebnerBudget(**{key: mid}))
            high = mid
        except BudgetExceededError:
            low = mid + 1
    return low


class TestJelonekOracle:
    """jelonek_ideal reads the graph's cut at infinity off its basis under an
    x-graded order and makes one elimination after the Rabinowitsch cut; it
    gives the reduced basis that the saturations and intersections give,
    and the one that saturating the graph by x0 gives."""

    @pytest.mark.parametrize("name", ("bad", "cube", "ex_simple", "motzkin"))
    def test_corpus(self, name):
        assert_same_jelonek(factor_through_projection(parse_mapping(data_text(f"{name}.map"))).g)

    def test_random_reduced_maps_and_suspensions(self):
        for g in _random_reduced_maps(40):
            for h in (g, suspend(g, 1)):
                assert_same_jelonek(h)

    def test_random_maps_in_three_variables(self):
        for g in three_variable_maps(60):
            assert_same_jelonek(g)

    def test_m_equals_p_algebra_maps_and_suspensions(self):
        maps = m_equals_p_algebra_maps()
        assert len(maps) == 51
        for g in maps:
            for k in (0, 1, 2):
                assert_same_jelonek(suspend(g, k), (jelonek_by_x0,))

    @pytest.mark.parametrize(
        "text",
        (
            "ring Q[x]; map f: (3, 5)",
            "ring Q[x,y]; map f: (x^2 + y^3, 3)",
            "ring Q[x,y,z]; map f: (x*y, y*z, x*z)",
        ),
    )
    def test_constant_and_small_maps(self, text):
        assert_same_jelonek(parse_mapping(text))

    @pytest.mark.parametrize(
        "text", ("ring Q[x]; map f: (x^2)", "ring Q[x,y]; map f: (x, x*y)", "ring Q[x,y,z]; map f: (x*y, y*z, x*z)")
    )
    def test_two_groebner_runs_in_any_number_of_variables(self, text, monkeypatch):
        import liptriv.groebner

        runs = count_calls(monkeypatch, liptriv.groebner, "buchberger")
        jelonek_ideal(parse_mapping(text))
        assert len(runs) == 2

    @pytest.mark.parametrize("key", ("max_degree", "max_basis"))
    def test_needs_no_higher_budget_than_saturating_by_x0(self, key):
        # The graph's basis under the x-graded order takes the place of the
        # saturation's run: on these maps it never needs a larger degree
        # or basis, and on some it needs a smaller one.
        maps = [
            factor_through_projection(parse_mapping(data_text(f"{name}.map"))).g
            for name in ("cube", "ex_simple")
        ] + m_equals_p_algebra_maps()
        lower = 0
        for g in maps:
            needed = least_limit(lambda budget: jelonek_ideal(g, budget), key)
            oracle = least_limit(lambda budget: jelonek_by_x0(g, budget), key)
            assert needed <= oracle, g
            lower += needed < oracle
        assert lower > 0


class TestIsProperAtComplex:
    def test_proper_off_the_line(self, reduced_shear):
        v = proper_at(reduced_shear, [F(1), F(1)])
        assert v.verdict == "proper"
        assert v.mode == "exact_complex"

    def test_not_proper_on_the_line(self, reduced_shear):
        assert proper_at(reduced_shear, [F(0), F(0)]).verdict == "non_proper"

    def test_curve_fibers_never_proper(self, plane_sextic):
        for c in (F(0), F(1, 2), F(2)):
            v = proper_at(plane_sextic, [c])
            assert v.verdict == "non_proper"
            assert v.evidence["fiber_dimension"] == 1


class TestPropernessProbe:
    def test_asymptotic_value_detected(self, plane_sextic):
        v = properness_probe_real(plane_sextic, [2.0], FAST)
        assert v.verdict == "non_proper"
        trace = {e["radius"]: e["mu"] for e in v.evidence["mu_trace"]}
        assert trace[100.0] < 1e-2

    def test_proper_value_bounded_away(self, plane_sextic):
        v = properness_probe_real(plane_sextic, [0.5], FAST)
        assert v.verdict == "proper"
        assert all(e["mu"] >= 0.2 for e in v.evidence["mu_trace"])

    def test_exact_certificate_short_circuits(self, reduced_shear):
        v = properness_probe_real(reduced_shear, [1.0, 1.0], FAST)
        assert v.verdict == "proper"
        assert v.mode == "exact_complex"

    def test_exact_implies_probe_consistency(self, reduced_shear):
        for c in ([1.0, 1.0], [2.0, -3.0]):
            exact = proper_at(reduced_shear, [F(x) for x in c])
            if exact.verdict == "proper":
                probe = properness_probe_real(reduced_shear, c, FAST)
                assert probe.verdict == "proper"

    def test_deterministic_evidence(self, plane_sextic):
        a = properness_probe_real(plane_sextic, [2.0], FAST, no_certificate)
        b = properness_probe_real(plane_sextic, [2.0], FAST, no_certificate)
        assert a.evidence == b.evidence

    def test_mu_invariant_under_rotation(self, plane_sextic):
        # Exact rational rotation (3/5, 4/5; -4/5, 3/5) of the domain.
        rot = [[F(3, 5), F(4, 5)], [F(-4, 5), F(3, 5)]]
        rotated = compose_linear(plane_sextic, rot, new_vars=("x", "y"))
        sched = ProbeSchedule(radii=(10.0, 100.0))
        for c in (0.5, -1.0):
            a = properness_probe_real(plane_sextic, [c], sched, no_certificate)
            b = properness_probe_real(rotated, [c], sched, no_certificate)
            for ea, eb in zip(a.evidence["mu_trace"], b.evidence["mu_trace"]):
                assert ea["mu"] == pytest.approx(eb["mu"], abs=1e-3)

    def test_triangular_perturbations_stay_proper(self):
        # Maps (x + q1(y), y + q2(x)) with quadratic leading parts are proper;
        # their non-properness ideal must be empty, and a direct radius-growth
        # check at off-variety values confirms properness.
        rng = random.Random(59)
        ring = ("x", "y")
        for _ in range(20):
            a = rng.choice([1, 2, -1, -2])
            b = rng.choice([1, 2, -1, -2])
            c1 = rng.randint(-2, 2)
            c2 = rng.randint(-2, 2)
            g = PolyMap(
                ring,
                (
                    poly(ring, f"x + {a}*y^2 + {c1}*y"),
                    poly(ring, f"y + {b}*x^2 + {c2}*x"),
                ),
            )
            jel = jelonek_ideal(g)
            if jel.has_unit_generator():
                continue
            kernel = FloatKernel(g.components)
            test_value = [1.0, -1.0]
            if jel.vanishes_at([F(1), F(-1)]):
                test_value = [2.0, 3.0]
                assert not jel.vanishes_at([F(2), F(3)])
            mus = []
            for k, radius in enumerate((10.0, 100.0)):
                rng_np = np.random.default_rng((59, k))
                mu, _ = _sphere_minimize(kernel, test_value, radius, rng_np, 12, 150)
                mus.append(mu)
            assert mus[-1] > 1e-3

    def test_every_restart_overflowing(self):
        # On the circle of radius 10, |x| or |y| is at least 7.07, and
        # 7.07^400 overflows a float: every restart is dropped.
        kernel = FloatKernel([poly(("x", "y"), "x^400 + y^400")])
        mu, point = _sphere_minimize(kernel, [1.0], 10.0, np.random.default_rng(3), 4, 50)
        assert mu == float("inf")
        assert len(point) == 2 and all(v != v for v in point)

    @pytest.mark.parametrize(
        "radii", [(), (0.0, 10.0), (-1.0, 10.0), (float("nan"), 10.0), (10.0, float("inf"))]
    )
    def test_bad_radii_rejected(self, radii):
        with pytest.raises(ValueError, match="radii"):
            ProbeSchedule(radii=radii)

    def test_hyperbola_fiber_reads_non_proper(self):
        # x*y has the unbounded fiber {x*y = 1}: the verdict needs the sphere
        # descents to reach it, below tol_zero, on every radius past the first.
        xy = PolyMap(("x", "y"), (poly(("x", "y"), "x*y"),))
        assert properness_probe_real(xy, [1.0], FAST, no_certificate).verdict == "non_proper"

    def test_schedule_validation(self):
        with pytest.raises(ValueError, match="increasing"):
            ProbeSchedule(radii=(100.0, 10.0))
        with pytest.raises(ValueError, match="seed"):
            ProbeSchedule(seed=-1)


def probe_truth_cases():
    """The 23 properness cases of the probe-truth benchmark, as (key,
    mapping, value, true verdict)."""
    import sys
    from pathlib import Path

    root = str(Path(__file__).resolve().parents[1])
    if root not in sys.path:
        sys.path.insert(0, root)
    from bench.workloads import PROPERNESS_CASES

    return [
        (key, parse_mapping(f"ring Q[{ring}]; map f: ({expr})"), value, verdict)
        for key, ring, expr, value, verdict, _ in PROPERNESS_CASES
    ]


class TestRestartsStopAtTolZero:
    """A radius's sphere restarts stop at the first mu below tol_zero, the
    verdict's own test of a small radius, so no skipped restart could change
    that test."""

    @staticmethod
    def descents(monkeypatch):
        """The radius of every sphere descent run from here on."""
        compiled = FloatKernel.__dict__["sphere_descent"]
        radii = []

        def counting(kernel):
            descent = compiled.__get__(kernel, FloatKernel)

            def run(x, radius, c, max_iter):
                radii.append(radius)
                return descent(x, radius, c, max_iter)

            return run

        monkeypatch.setattr(FloatKernel, "sphere_descent", property(counting))
        return radii

    @pytest.mark.parametrize("expr", ["x^2 - y^2", "x^3 - y^2"])
    def test_few_restarts_at_the_largest_radius(self, expr, monkeypatch):
        # Float evaluation takes mu at radius 1e4 no lower than about 7e-9 for
        # x^2 - y^2 at 1, so a stop at 1e-3 * tol_zero ran all 32 restarts.
        radii = self.descents(monkeypatch)
        v = properness_probe_real(scalar("x,y", expr), [1.0])
        assert (v.mode, v.verdict) == ("probe_real", "non_proper")
        assert 1 <= radii.count(1e4) <= 5, radii

    @pytest.mark.parametrize("expr", ["x^2 - y^2", "x^3 - y^2"])
    def test_stop_after_the_first_mu_strictly_below(self, expr, monkeypatch):
        kernel = scalar("x,y", expr).kernel
        rng = np.random.default_rng((42, 3))
        # One restart per call draws what the k-th restart of one call draws.
        mus = [_sphere_minimize(kernel, [1.0], 1e4, rng, 1, 250)[0] for _ in range(32)]
        radii = self.descents(monkeypatch)
        firsts = []
        for mu_below in (_TOL_ZERO, mus[0]):
            first = next(k for k, mu in enumerate(mus) if mu < mu_below)
            radii.clear()
            rng = np.random.default_rng((42, 3))
            mu, _ = _sphere_minimize(kernel, [1.0], 1e4, rng, 32, 250, mu_below)
            assert (len(radii), mu) == (first + 1, min(mus[: first + 1]))
            firsts.append(first)
        # Some restarts ran on past a mu at or above the threshold.
        assert max(firsts) > 0

    def test_flags_and_verdicts_as_with_every_restart(self, monkeypatch):
        import liptriv.properness

        minimize = _sphere_minimize

        def every_restart(kernel, c, radius, rng, restarts, max_iter, mu_below=0.0):
            return minimize(kernel, c, radius, rng, restarts, max_iter)

        got = {key: properness_probe_real(g, [c]) for key, g, c, _ in probe_truth_cases()}
        monkeypatch.setattr(liptriv.properness, "_sphere_minimize", every_restart)
        tol = _TOL_ZERO
        stopped = 0
        for key, g, c, truth in probe_truth_cases():
            want = properness_probe_real(g, [c])
            assert want.verdict == truth, key
            assert (got[key].mode, got[key].verdict) == (want.mode, want.verdict), key
            traces = (v.evidence.get("mu_trace", []) for v in (got[key], want))
            for early, full in zip(*traces):
                assert (early["mu"] < tol) == (full["mu"] < tol), key
                if early["mu"] != full["mu"]:
                    # A stopped radius's mu bounds the minimum of all restarts.
                    assert full["mu"] < early["mu"] < tol, key
                    stopped += 1
        assert stopped > 0


def lstsq_step(row, resid):
    """numpy's minimum-norm least-squares solution of row . step = resid."""
    step, *_ = np.linalg.lstsq(np.array([row]), np.array([resid]), rcond=None)
    return step


class TestOneEquationStep:
    """The reference step of FloatKernel.fiber_project, conftest's
    one_equation_step, against numpy's lstsq on one row, and its stops
    against _gauss_newton_step's."""

    @staticmethod
    def magnitude(rng):
        return rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-150.0, 150.0)

    def test_matches_lstsq_on_seeded_rows(self):
        rng = random.Random(33)
        for _ in range(5000):
            n = rng.randint(1, 4)
            row = [0.0 if rng.random() < 0.25 else self.magnitude(rng) for _ in range(n)]
            resid = self.magnitude(rng)
            got = one_equation_step(resid, lambda: row, 0.0)
            want = lstsq_step(row, resid)
            case = (row, resid)
            assert (got is not None) == bool(np.all(np.isfinite(want))), case
            if not any(row):
                assert got == [0.0] * n, case
                continue
            top = float(np.max(np.abs(want)))
            assert len(got) == n, case
            assert max(abs(a - b) for a, b in zip(got, want)) <= 1e-15 * top, case

    @pytest.mark.parametrize(
        "row, resid",
        [
            ([1e-300], 1e300),  # the step overflows: lstsq gives inf
            ([5e-324, 0.0], 1.0),
            ([1e308, 1e308], 1.0),  # |row|^2 overflows, the step does not
            ([1e-200, 1e-200], 1e-200),  # |row|^2 underflows
        ],
    )
    def test_past_the_squares_range_as_lstsq(self, row, resid):
        got = one_equation_step(resid, lambda: row, 0.0)
        want = lstsq_step(row, resid)
        if not np.all(np.isfinite(want)):
            assert got is None
        else:
            assert got == pytest.approx(want.tolist(), rel=1e-15, abs=0.0)

    def test_zero_row_gives_the_zero_step(self):
        for n in (1, 2, 4):
            assert one_equation_step(3.0, lambda: [0.0] * n, 1e-12) == [0.0] * n
            assert lstsq_step([0.0] * n, 3.0).tolist() == [0.0] * n

    @pytest.mark.parametrize("tol", [1e-12, 1e-10])
    def test_stops_as_gauss_newton_step(self, tol):
        near = [nextafter(tol, 0.0), tol, nextafter(tol, inf), tol * (1 - 1e-15), tol * 3]
        residuals = [inf, -inf, nan, 0.0, 1e200, *near, *(-r for r in near)]
        rows = [[1.0, 2.0], [inf, 1.0], [nan, 0.0], [0.0, -inf], [1e-300], [0.0]]
        for resid in residuals:
            for row in rows:
                got = one_equation_step(resid, lambda: row, tol)
                want = _gauss_newton_step(np.array([resid]), lambda: [row], tol)
                assert (got is None) == (want is None), (resid, row)
                if got is not None:
                    assert got == pytest.approx(want.tolist(), rel=1e-15, abs=0.0)

    def test_row_read_only_past_the_residual_stops(self):
        def row():
            raise AssertionError("row read after a stop")

        for resid in (nan, inf, 1e-13):
            assert one_equation_step(resid, row, 1e-12) is None


SEXTIC = "x^4*y^2 + x^2*y^4 - 3*x^2*y^2 + 1"


def scalar(ring, expr):
    variables = tuple(ring.split(","))
    return PolyMap(variables, (poly(variables, expr),))


class TestExactRealRules:
    """The two exact real certificates that come before the sphere probe:
    a coercive component (proper) and a value of the reduced map of an
    unreduced scalar map (non-proper)."""

    COERCIVE = [("x,y", "x^2 + y^2"), ("x,y,z", "x^2 + y^4 + z^6"), ("x,y", "-x^4 - y^2 + x*y")]
    # (ring, map, value): every case lies in the image of the reduced map.
    WITNESSED = [
        ("x,y,z", SEXTIC, 0.5),
        ("x,y,z", SEXTIC, 2.0),
        ("x,y", "x", 0.0),
        ("x,y,z", "x^2 + z", 1.0),
    ]

    @pytest.mark.parametrize("ring, expr", COERCIVE)
    def test_coercive_maps_certified_proper(self, ring, expr, monkeypatch):
        import liptriv.properness

        spheres = count_calls(monkeypatch, liptriv.properness, "_sphere_minimize")
        for c in (-1.0, 0.0, 3.0):
            v = properness_probe_real(scalar(ring, expr), [c])
            assert (v.mode, v.verdict) == ("exact_real", "proper")
            assert v.evidence["component"] == 0
        assert spheres == []

    def test_coercive_evidence(self):
        assert _coercive_component(scalar("x,y", "-x^4 - y^2 + x*y")) == {
            "certificate": "a coercive component: |f| -> inf, so every fiber is compact",
            "component": 0,
            "sign": -1,
            "pure_degrees": [4, 2],
        }
        # One coercive component decides a map of several.
        ring = ("x", "y")
        pair = PolyMap(ring, (poly(ring, "x*y"), poly(ring, "x^2 + y^2 + 1")))
        assert _coercive_component(pair)["component"] == 1

    @pytest.mark.parametrize(
        "ring, expr",
        [
            ("x,y", "x^2 + y^2 - 3*x*y"),  # hyperbolic fibers
            ("x,y", "x^4 + y^4 + 3*x^2*y^2"),  # a mixed term of weight exactly 1
            ("x,y", "x^2 - y^2"),  # pure powers of both signs
            ("x,y", "x^2 + y^3"),  # an odd highest pure power
            ("x,y", "x^2 + 1"),  # no pure power of y
        ],
    )
    def test_coercivity_refused(self, ring, expr):
        assert _coercive_component(scalar(ring, expr)) is None

    @pytest.mark.parametrize("ring, expr, c", WITNESSED)
    def test_witness_values_straddle_c(self, ring, expr, c, monkeypatch):
        import liptriv.properness

        spheres = count_calls(monkeypatch, liptriv.properness, "_sphere_minimize")
        f = scalar(ring, expr)
        v = properness_probe_real(f, [c])
        assert (v.mode, v.verdict) == ("exact_real", "non_proper")
        assert spheres == []
        # Re-evaluate the end points on the reduced map, in Fraction.
        g = factor_through_projection(f).g
        assert v.evidence["reduced_vars"] == list(g.vars)
        below, above = (g.components[0].eval_exact([F(x) for x in pt]) for pt in v.evidence["points"])
        assert below <= F(c) <= above
        assert v.evidence["signs"] == [(x > c) - (x < c) for x in (below, above)]

    def test_value_off_the_image_falls_through(self):
        # x^2 + 1 never reaches 0; the fiber is empty and the spheres decide.
        f = scalar("x,y", "x^2 + 1")
        assert _image_witness(f, (F(0),), 42) is None
        v = properness_probe_real(f, [0.0], FAST)
        assert v.mode == "probe_real"

    def test_reduced_map_has_no_witness(self, monkeypatch):
        import liptriv.polycore

        kernels = count_calls(monkeypatch, liptriv.polycore, "FloatKernel")
        assert _image_witness(scalar("x,y", "x*y"), (F(1),), 42) is None
        assert kernels == []

    @pytest.mark.parametrize("ring, expr, c", WITNESSED)
    def test_witness_survives_coordinate_changes(self, ring, expr, c):
        rng = random.Random(1998)
        f = scalar(ring, expr)
        for _ in range(4):
            moved = compose_linear(f, unimodular(rng, f.n), f.vars)
            v = properness_probe_real(moved, [c])
            assert (v.mode, v.verdict) == ("exact_real", "non_proper"), print_polynomial(
                moved.components[0]
            )

    def test_motzkin_real_analysis_still_probes(self, motzkin_map, monkeypatch):
        # The reduced sextic is neither coercive nor unreduced: its 4 table
        # values go to the spheres as before (test_golden pins the bytes).
        import liptriv.properness
        from liptriv.classifier import classify

        probes = count_calls(monkeypatch, liptriv.properness, "properness_probe_real")
        spheres = count_calls(monkeypatch, liptriv.properness, "_sphere_minimize")
        report = classify(motzkin_map, "real")
        assert len(probes) == 4
        assert len(spheres) == 4 * len(ProbeSchedule().radii)
        table = next(c for c in report.checks if c.name == "properness_probe_table")
        assert {row["mode"] for row in table.data["table"]} == {"probe_real"}


# The probes that take a float value, each on a value c of the shear map.
FLOAT_PROBES = [
    lambda g, c: properness_probe_real(g, c, FAST),
    lambda g, c: properness_probe_real(g, c, FAST, no_certificate),
    lambda g, c: tube_distance_probe(g, c, [2.0, 2.0]),
    lambda g, c: tube_distance_probe(g, [2.0, 2.0], c),
    lambda g, c: lipschitz_gradient_probe(g, c, radii=(10.0,)),
]
FLOAT_PROBE_IDS = ["real", "real-skip-exact", "tube-c", "tube-t", "gradient"]


class TestValueLength:
    """A value with the wrong number of coordinates, or a float coordinate
    that is not finite, fails before any stage."""

    @pytest.fixture(scope="class")
    def shear(self):
        ring = ("x", "y")
        return PolyMap(ring, (poly(ring, "x"), poly(ring, "x*y")))

    @pytest.mark.parametrize(
        "probe",
        [lambda g, c: proper_at(g, [Fraction(x) for x in c]), *FLOAT_PROBES],
        ids=["complex", *FLOAT_PROBE_IDS],
    )
    @pytest.mark.parametrize("value", [(1.0,), (1.0, 2.0, 3.0)], ids=["short", "long"])
    def test_wrong_length_rejected(self, shear, probe, value, monkeypatch):
        import liptriv.groebner
        import liptriv.polycore

        bases = count_calls(monkeypatch, liptriv.groebner, "buchberger")
        kernels = count_calls(monkeypatch, liptriv.polycore, "FloatKernel")
        with pytest.raises(ValueError, match="one coordinate per component"):
            probe(shear, value)
        assert bases == [] and kernels == []

    @pytest.mark.parametrize("probe", FLOAT_PROBES, ids=FLOAT_PROBE_IDS)
    @pytest.mark.parametrize(
        "value", [(float("inf"), 1.0), (1.0, float("nan"))], ids=["inf", "nan"]
    )
    def test_non_finite_rejected(self, shear, probe, value, monkeypatch):
        """Not an OverflowError from Fraction(inf), nor a probe that reads
        an inf level as no collapse or a nan value as no samples."""
        import liptriv.groebner
        import liptriv.polycore

        bases = count_calls(monkeypatch, liptriv.groebner, "buchberger")
        kernels = count_calls(monkeypatch, liptriv.polycore, "FloatKernel")
        with pytest.raises(ValueError, match="finite"):
            probe(shear, value)
        assert bases == [] and kernels == []


class TestOneKernelPerMap:
    """A mapping compiles its float kernel once, whichever probes read it."""

    @staticmethod
    def hyperbola():
        ring = ("x", "y")
        return PolyMap(ring, (poly(ring, "x*y"),))

    @staticmethod
    def probes(g):
        return (
            properness_probe_real(g, [1.0], FAST, no_certificate),
            tube_distance_probe(g, [1.0], [2.0]),
            lipschitz_gradient_probe(g, [1.0], radii=(10.0, 100.0)),
        )

    def test_probes_of_one_map_build_one_kernel(self, monkeypatch):
        import liptriv.polycore

        kernels = count_calls(monkeypatch, liptriv.polycore, "FloatKernel")
        g = self.hyperbola()
        self.probes(g)
        properness_probe_real(g, [2.0], FAST, no_certificate)
        assert len(kernels) == 1

    def test_compiled_kernel_gives_a_fresh_maps_results(self):
        warm = self.hyperbola()
        self.probes(warm)
        assert self.probes(warm) == self.probes(self.hyperbola())

    def test_compiled_kernel_keeps_equality_and_hash(self):
        warm, fresh = self.hyperbola(), self.hyperbola()
        warm.kernel.value([1.0, 2.0])
        assert "kernel" in vars(warm) and "kernel" not in vars(fresh)
        assert warm == fresh and hash(warm) == hash(fresh)
        assert repr(warm) == repr(fresh)
