"""Full pipeline: verdicts, checks, probes, suspension invariance, determinism."""

import re
import time
import warnings
from fractions import Fraction

import pytest

from conftest import count_calls, data_text, poly, reference_fiber_project
from liptriv.classifier import (
    AnalysisConfig,
    _grid_values,
    _on_locus,
    classify,
    complexification_compare,
    lipschitz_gradient_probe,
    rational_grid,
    tube_distance_probe,
)
from liptriv.dependence import suspend
from liptriv.groebner import GroebnerBudget, Ideal, MonomialOrder, buchberger
from liptriv.parsing import parse_input, print_polynomial
from liptriv.polycore import FloatKernel, PolyMap
from liptriv.properness import ProbeSchedule, properness_probe_real
from liptriv.report import emit_report

F = Fraction

LIGHT = AnalysisConfig(ProbeSchedule(radii=(10.0, 100.0, 1000.0)))


@pytest.fixture(scope="module")
def motzkin_real(motzkin_map):
    return classify(motzkin_map, "real", LIGHT)


class TestComplexBranch:
    def test_shear_complement_of_a_line(self, simple_map):
        rep = classify(simple_map, "complex")
        assert rep.ltv.kind == "complement"
        assert [print_polynomial(g) for g in rep.ltv.generators] == ["t1"]
        assert rep.factorization.V.dim == 1
        assert rep.factorization.m == 2

    def test_twisted_shear_empty(self, bad_map):
        rep = classify(bad_map, "complex")
        assert rep.ltv.kind == "empty"
        names = {c.name: c.verdict for c in rep.checks}
        assert names["invariance_vs_infinity"] == "FAIL"
        assert names["cone_constancy"] == "FAIL"

    def test_suspension_mismatch_empty(self, motzkin_map):
        rep = classify(motzkin_map, "complex")
        assert rep.ltv.kind == "empty"
        assert "m = 2" in rep.ltv.reason and "p = 1" in rep.ltv.reason

    def test_identity_all_values(self):
        ring = ("x", "y")
        ident = PolyMap(ring, (poly(ring, "x"), poly(ring, "y")))
        rep = classify(ident, "complex")
        assert rep.ltv.kind == "all_values"

    @pytest.mark.parametrize("n", [18, 40])
    def test_many_variable_linear_form_all_values(self, n):
        """The dimension search does not visit every variable subset: at
        n = 40 there are 2^40 of them."""
        ring = tuple(f"x{i}" for i in range(n))
        rep = classify(PolyMap(ring, (poly(ring, " + ".join(ring)),)), "complex")
        assert rep.ltv.kind == "all_values"
        assert rep.factorization.m == 1
        assert not rep.flags

    def test_hundred_variable_linear_form_within_cpu_bound(self):
        """Row reduction updates only the pivot row's nonzero columns: the
        100-variable form took 18 s CPU when it updated every column."""
        ring = tuple(f"x{i}" for i in range(100))
        f = PolyMap(ring, (poly(ring, " + ".join(ring)),))
        start = time.process_time()
        rep = classify(f, "complex")
        assert time.process_time() - start < 2.0
        assert rep.ltv.kind == "all_values"

    def test_degenerate_square_empty(self):
        # Reduced but not dominant: both components share the same image line.
        ring = ("u", "v")
        f = PolyMap(ring, (poly(ring, "u*v"), poly(ring, "u*v + 1")))
        rep = classify(f, "complex")
        assert rep.ltv.kind == "empty"
        assert "dominant" in rep.ltv.reason

    def test_constant_map_complement_of_point(self):
        ring = ("x", "y")
        f = PolyMap(ring, (poly(ring, "2"), poly(ring, "-1")))
        rep = classify(f, "complex")
        assert rep.ltv.kind == "complement"
        tv = ("t1", "t2")
        assert set(rep.ltv.generators) == {poly(tv, "t1 - 2"), poly(tv, "t2 + 1")}
        assert "constant" in rep.ltv.reason


class TestRealBranch:
    def test_sextic_suspension_real_description(self, motzkin_real):
        rep = motzkin_real
        assert rep.ltv.kind == "real_complement"
        assert [(r.approx, r.status) for r in rep.ltv.critical_candidates] == [
            (0.0, "attained"),
            (1.0, "attained"),
        ]
        rows = {c.name: c for c in rep.checks}["properness_probe_table"].data["table"]
        table = {row["value"][0]: row["verdict"] for row in rows}
        assert table[-1.0] == "proper"
        assert table[0.5] == "proper"
        assert table[2.0] == "non_proper"
        assert table[5.0] == "non_proper"

    def test_real_invariance_check_advisory(self, motzkin_real):
        # The complex accumulation set overshoots for this suspension; the
        # check fails numerically but carries the field caveat and must not
        # drive the verdict.
        check = {c.name: c for c in motzkin_real.checks}["invariance_vs_infinity"]
        assert check.verdict == "FAIL"
        assert "field_caveat" in check.data
        assert motzkin_real.ltv.kind == "real_complement"

    def test_shear_real_exact_part(self, simple_map):
        rep = classify(simple_map, "real")
        assert rep.ltv.kind == "real_complement"
        assert [print_polynomial(g) for g in rep.ltv.generators] == ["t1"]
        table = {c.name: c for c in rep.checks}["properness_probe_table"].data["table"]
        assert all(row["verdict"] == "proper" for row in table)

    def test_exact_part_is_contained_not_equal(self):
        # (0, -1) lies on the exact part's V(t1^2*t2), yet no real fiber near
        # it is nonempty (x^2*y^2 >= 0), so it is Lipschitz trivial over R.
        ring = ("x", "y")
        f = PolyMap(ring, (poly(ring, "x"), poly(ring, "x^2*y^2")))
        rep = classify(f, "real")
        assert rep.ltv.kind == "real_complement"
        assert all(g.eval_exact((F(0), F(-1))) == 0 for g in rep.ltv.generators)
        assert "is contained in the real Lipschitz trivial values" in rep.ltv.note
        assert properness_probe_real(f, [0.0, -1.0]).verdict == "proper"

    def test_coercive_rows_certified(self):
        # x^2 + y^4 -> inf: each table value is proper by the exact real
        # rule, and certified where it is regular; the spheres never run.
        rep = classify(PolyMap(("x", "y"), (poly(("x", "y"), "x^2 + y^4"),)), "real")
        table = {c.name: c for c in rep.checks}["properness_probe_table"].data["table"]
        assert table and all(
            (row["mode"], row["verdict"], row["certified"], row["mu"])
            == ("exact_real", "proper", row["regular"], [])
            for row in table
        )

    def test_twisted_shear_real_empty(self, bad_map):
        rep = classify(bad_map, "real")
        assert rep.ltv.kind == "empty"
        assert "cones" in rep.ltv.reason


class TestSuspensionInvariance:
    def test_cubic_description_stable_under_suspension(self, cube_map):
        for field_name in ("complex", "real"):
            base = classify(cube_map, field_name, LIGHT)
            lifted = classify(suspend(cube_map, 1), field_name, LIGHT)
            assert base.ltv == lifted.ltv

    def test_shear_description_stable_under_suspension(self, simple_map):
        base = classify(simple_map, "complex", LIGHT)
        lifted = classify(suspend(simple_map, 2), "complex", LIGHT)
        assert base.ltv == lifted.ltv


class TestDeterminism:
    def test_identical_report_bytes(self, simple_map):
        a = emit_report(classify(simple_map, "complex"))
        b = emit_report(classify(simple_map, "complex"))
        assert a == b

    def test_real_probe_reports_identical(self, cube_map):
        a = emit_report(classify(cube_map, "real", LIGHT))
        b = emit_report(classify(cube_map, "real", LIGHT))
        assert a == b


class TestBudgetDegradation:
    def test_partial_report_with_flags(self, simple_map):
        cfg = AnalysisConfig(budget=GroebnerBudget(max_degree=1))
        rep = classify(simple_map, "complex", cfg)
        assert rep.flags
        assert rep.ltv.kind in ("undetermined", "empty")


# Radii that each probe rejects before any work.
BAD_RADII = ((), (0.0, 10.0), (-1.0, 10.0), (float("nan"), 10.0), (10.0, float("inf")))


def xy_map() -> PolyMap:
    ring = ("x", "y")
    return PolyMap(ring, (poly(ring, "x*y"),))


# The scalar tubes of TestTubeProbe: ring, component, and the levels c, t.
SCALAR_TUBES = [
    (("x", "y"), "x^200 + y", 1.0, 2.0),
    (("x", "y"), "x*y", 1.0, 2.0),
    (("x", "y"), "x^2*y", 1.0, 2.0),
    (("x", "y"), "x^2 + y^2", 1.0, 4.0),
    (("x", "y", "z"), "x^4*y^2 + x^2*y^4 - 3*x^2*y^2 + 1", 2.0, 3.0),
]


def scalar_tube(ring, expr, c, t):
    return tube_distance_probe(PolyMap(ring, (poly(ring, expr),)), [c], [t])


@pytest.fixture(scope="module")
def thin_tube():
    """The tube of x^200 + y at levels 1 and 2."""
    ring = ("x", "y")
    return tube_distance_probe(PolyMap(ring, (poly(ring, "x^200 + y"),)), [1.0], [2.0])


class TestTubeProbe:
    def test_overflowing_starts_are_dropped(self, thin_tube):
        # x^200 overflows a float once |x| > 34.5, inside the ball of radius 50.
        assert [entry["radius"] for entry in thin_tube["per_radius"]] == [10.0, 25.0, 50.0]
        # Inside the ball of radius R the fibers y = c - x^200 come within
        # about 1/(200*x^199) of each other where x^200 is about R: 4.6e-4 at
        # R = 10, 2.0e-4 at 25 and 1.0e-4 at 50.  The map has no invariance
        # direction and is non-proper at every value, so no value is
        # Lipschitz trivial, and the levels 1 and 2 collapse.
        assert thin_tube["collapse"]

    def test_thin_fibers_come_close_inside_the_ball(self, thin_tube):
        # About 2.0e-4 apart inside radius 25, derived above.
        assert thin_tube["per_radius"][1]["radius"] == 25.0
        assert thin_tube["per_radius"][1]["distance"] < 3e-4

    def test_overflowing_starts_are_quiet(self, capfd):
        # Values that reach inf stop the Gauss-Newton projection before numpy
        # warns about a norm or LAPACK reports a non-finite matrix.
        ring = ("x", "y")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            tube_distance_probe(PolyMap(ring, (poly(ring, "x^200 + y"),)), [1.0], [2.0])
        captured = capfd.readouterr()
        assert "DLASCL" not in captured.out + captured.err

    def test_parallel_line_fibers_keep_distance(self, simple_map):
        out = tube_distance_probe(simple_map, [1.0, 0.0], [1.0, 1.0])
        assert not out["collapse"]
        for entry in out["per_radius"]:
            assert entry["distance"] == pytest.approx(0.7071, abs=1e-2)

    @pytest.mark.parametrize("expr", ["x*y", "x^2*y"])
    def test_levels_approaching_at_infinity_collapse(self, expr):
        # Levels 1 and 2 are |x| apart, or |x|^2, along y = c/x^k.
        ring = ("x", "y")
        assert tube_distance_probe(PolyMap(ring, (poly(ring, expr),)), [1.0], [2.0])["collapse"]

    def test_concentric_circles_keep_distance(self):
        ring = ("x", "y")
        out = tube_distance_probe(PolyMap(ring, (poly(ring, "x^2 + y^2"),)), [1.0], [4.0])
        assert not out["collapse"]
        for entry in out["per_radius"]:
            assert abs(entry["distance"] - 1.0) <= 1e-9

    def test_alternation_compiles_no_other_kernel_function(self, monkeypatch):
        """The alternating projections of a scalar map use the kernel's
        compiled projection and its value, for the residuals, and the
        structured starts its sphere descent: nothing else compiles, not
        even the Jacobian."""
        names = []
        compile_one = FloatKernel._compile

        def recorded(kernel, name):
            names.append(name)
            return compile_one(kernel, name)

        monkeypatch.setattr(FloatKernel, "_compile", recorded)
        ring = ("x", "y", "z")
        sextic = PolyMap(ring, (poly(ring, "x^4*y^2 + x^2*y^4 - 3*x^2*y^2 + 1"),))
        assert tube_distance_probe(sextic, [2.0], [3.0])["collapse"]
        assert sorted(names) == ["fiber_project", "sphere_descent", "value"]

    def test_scalar_tubes_make_no_lstsq_call(self, monkeypatch, simple_map):
        """A scalar map's projections are its kernel's compiled
        `fiber_project`, in floats; a tube of p = 2 still solves by lstsq."""
        import numpy as np

        calls = []
        lstsq = np.linalg.lstsq

        def counting(*args, **kwargs):
            calls.append(args)
            return lstsq(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "lstsq", counting)
        scalar_tube(("x", "y", "z"), "x^4*y^2 + x^2*y^4 - 3*x^2*y^2 + 1", 2.0, 3.0)
        scalar_tube(("x", "y"), "x^200 + y", 1.0, 2.0)
        assert calls == []
        tube_distance_probe(simple_map, [1.0, 0.0], [1.0, 1.0])
        assert calls

    def test_lstsq_steps_give_the_same_tubes(self, monkeypatch):
        """With each scalar tube's compiled projection replaced by the
        interpreted reference loop taking lstsq steps on its one row, every
        scalar tube of this class keeps its verdict and its distances."""
        import numpy as np

        from liptriv.properness import _gauss_newton_step

        solved = []

        def lstsq_step(resid, row, tol):
            step = _gauss_newton_step(np.array([resid]), lambda: [row()], tol)
            solved.append(step is not None)
            return None if step is None else step.tolist()

        def lstsq_projection(kernel):
            def project(z, target, radius, tol, steps):
                return reference_fiber_project(kernel, z, target, radius, tol, steps, lstsq_step)

            return project

        compiled = {case[1]: scalar_tube(*case) for case in SCALAR_TUBES}
        monkeypatch.setattr(FloatKernel, "fiber_project", property(lstsq_projection))
        for case in SCALAR_TUBES:
            name, got = case[1], scalar_tube(*case)
            want = compiled[name]
            # lstsq's step differs from the closed form in its last bits (in
            # 1,278 of the 1,401 steps of the x^2*y tube), and a pair slides
            # along its fibers over many rounds: one ulp more or less in every
            # step moves that tube's distance at radius 25 by about 2e-9
            # relative.
            tol = 1e-8 if name == "x^2*y" else 1e-12
            assert got["collapse"] == want["collapse"], name
            assert [e["distance"] for e in got["per_radius"]] == pytest.approx(
                [e["distance"] for e in want["per_radius"]], rel=tol, abs=0.0
            ), name
            if name == "x^2*y":
                # The lstsq steps ran: the distances are not the compiled bits.
                assert got["per_radius"] != want["per_radius"]
        assert sum(solved) > 1000

    def test_equal_levels_rejected(self, simple_map):
        with pytest.raises(ValueError):
            tube_distance_probe(simple_map, [1.0, 0.0], [1.0, 0.0])


class TestGradientProbe:
    def test_linear_map_bound_is_operator_norm(self):
        ring = ("x", "y")
        f = PolyMap(ring, (poly(ring, "x + 2*y"), poly(ring, "y")))
        out = lipschitz_gradient_probe(f, [0.0, 0.0], radii=(2.0, 10.0, 50.0))
        assert out["verdict"] == "BOUNDED"
        import numpy as np

        expected = float(np.linalg.svd(np.array([[1.0, 2.0], [0.0, 1.0]]), compute_uv=False)[0])
        assert out["bound"] == pytest.approx(expected, rel=1e-9)

    def test_shear_unbounded_near_origin(self, simple_map):
        out = lipschitz_gradient_probe(
            simple_map, [0.0, 0.0], radii=(2.0, 10.0, 100.0, 1000.0)
        )
        assert out["verdict"] == "UNBOUNDED"

    @pytest.mark.parametrize("radii", BAD_RADII)
    def test_bad_radii_rejected(self, radii):
        with pytest.raises(ValueError, match="radii"):
            lipschitz_gradient_probe(xy_map(), [1.0], radii=radii)

    def test_overflowing_starts_are_quiet(self, capfd):
        # Residuals past 1e154 have a norm of inf and values past the floats
        # stop the descent, both without a warning or a LAPACK message.
        r = parse_input("ring Q[x,y]; ratmap f: (x^60/(1+y^2))")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = lipschitz_gradient_probe(r, [0.0], radii=(10.0, 1e2, 1e4, 1e6))
        assert out["verdict"] == "NO_SAMPLES"
        captured = capfd.readouterr()
        assert "DLASCL" not in captured.out + captured.err


class TestVariableNamesTheStagesUse:
    """A ring may hold the names the stages pick for their own variables
    (x0, t1, y1, y_sat); each stage then picks a fresh one, and the
    analysis is that of the same map over other names, renamed.  y1 is
    picked only in J(g)'s ring, so the reduced map uses it, and t1; x0,
    unused, collides in the ring of each fiber closure; y_sat is picked
    only when the cone comparison saturates, which it does here: the
    sampled cones are all the x0 axis, but as ideals (y_sat, y1^2,
    t1 - a*y1) with a moving with the value."""

    def test_colliding_names_change_nothing_but_names(self, monkeypatch):
        import liptriv.dependence
        import liptriv.groebner
        import liptriv.infinity
        import liptriv.polycore
        import liptriv.properness

        original = liptriv.polycore.fresh_name
        collided = set()

        def recording(base, taken):
            taken = tuple(taken)
            if base in taken:
                collided.add(base)
            return original(base, taken)

        for module in (liptriv.dependence, liptriv.groebner, liptriv.infinity, liptriv.properness):
            monkeypatch.setattr(module, "fresh_name", recording)

        names = ("x0", "t1", "y1", "y_sat")
        # Over the colliding ring the target variables are t1_0, t2, t3.
        rename = {**dict(zip(names, "abcd")), "t1_0": "t1"}
        for field_name in ("complex", "real"):
            colliding = emit_report(
                classify(
                    parse_input("ring Q[x0,t1,y1,y_sat]; map f: (y1^2, -3*t1*y1, y_sat)"), field_name, LIGHT
                )
            )
            plain = emit_report(
                classify(parse_input("ring Q[a,b,c,d]; map f: (c^2, -3*b*c, d)"), field_name, LIGHT)
            )
            assert "t1_0" in colliding
            assert re.sub(r"\w+", lambda m: rename.get(m.group(), m.group()), colliding) == plain
        assert collided == set(names)


class TestComplexificationCompare:
    def test_shear_containment(self, simple_map):
        real_rep, complex_rep, check = complexification_compare(simple_map)
        assert check.verdict == "PASS"
        assert check.data["samples"]
        assert all(row["in_real_ltv"] for row in check.data["samples"])

    def test_suspension_vacuous(self, motzkin_map):
        _, complex_rep, check = complexification_compare(motzkin_map, LIGHT)
        assert complex_rep.ltv.kind == "empty"
        assert check.verdict == "PASS"

    def test_cubic_containment(self, cube_map):
        _, complex_rep, check = complexification_compare(cube_map, LIGHT)
        assert complex_rep.ltv.kind == "complement"
        assert check.verdict == "PASS"


class TestSampling:
    def test_zero_ideal_marks_every_value(self):
        # V(0) is the whole value space.
        assert _on_locus(Ideal(("t1",), ()), (F(3),))
        assert not _on_locus(None, (F(3),))

    def test_grid_deterministic_and_distinct(self):
        a = rational_grid(2, 5)
        b = rational_grid(2, 5)
        assert a == b
        assert len(set(a)) == 5
        assert a[0] == (F(1), F(0))
        assert a[1] == (F(2), F(3))
        assert a[2] == (F(-1), F(1))

    def test_grid_values_scan_the_grid_in_order(self):
        """The scan asks keep() about the grid's values in rational_grid's
        order, stops at the value that completes its count, and asks about
        40 at most."""
        seen = []

        def keep(value):
            seen.append(value)
            return value[0] > 0

        chosen = _grid_values(2, 3, keep)
        assert seen == rational_grid(2, len(seen))
        assert chosen == [v for v in seen if v[0] > 0] and seen[-1] == chosen[-1]
        seen.clear()
        assert _grid_values(2, 3, lambda value: seen.append(value)) == []
        assert seen == rational_grid(2, 40)

    def test_samples_are_distinct(self):
        # The p = 1 grid starts 1, 0, 2, 3, -1, 1, 3, -2 and the critical
        # values are 0, 2, 3 and 5; the repeated 1 is not sampled again.
        ring = ("x", "y")
        f = PolyMap(ring, (poly(ring, "8*x^3 - 6*x^4 + 12*y^3 - 9*y^4"),))
        rep = classify(f, "complex")
        cone = next(c for c in rep.checks if c.name == "cone_constancy")
        assert cone.data["values"] == ((Fraction(1),), (Fraction(-1),), (Fraction(-2),))


class TestBifurcationIdeal:
    """`_bifurcation_ideal` returns J(g), K0(g) or their intersection as it
    arrives, with no Groebner run of its own: each is already a reduced
    grevlex basis, which buchberger gives back unchanged."""

    @staticmethod
    def merged_and_bases(monkeypatch, maps):
        import liptriv.classifier

        seen = []
        original = liptriv.classifier._bifurcation_ideal

        def recording(jelonek, critical, budget):
            merged = original(jelonek, critical, budget)
            seen.append((merged.generators, buchberger(merged, MonomialOrder.grevlex()).basis))
            return merged

        monkeypatch.setattr(liptriv.classifier, "_bifurcation_ideal", recording)
        for f in maps:
            classify(f, "complex")
        return seen

    def test_corpus_maps(self, monkeypatch):
        from conftest import DATA_DIR

        maps = [
            parse_input((DATA_DIR / f"{name}.map").read_text(encoding="utf-8"))
            for name in ("bad", "cube", "ex_simple", "motzkin")
        ]
        seen = self.merged_and_bases(monkeypatch, maps)
        assert len(seen) == 2  # bad and motzkin stop before the bifurcation ideal
        assert all(basis == merged for merged, basis in seen)

    def test_algebra_generator_maps(self, monkeypatch):
        import sys
        from pathlib import Path

        import liptriv

        root = str(Path(__file__).resolve().parents[1])
        if root not in sys.path:
            sys.path.insert(0, root)
        from bench.workloads import random_reduced_maps

        seen = self.merged_and_bases(monkeypatch, random_reduced_maps(liptriv, 5, 20))
        assert len(seen) == 13  # 13 of the 20 maps reach the bifurcation ideal
        assert all(basis == merged for merged, basis in seen)


class TestStageCounts:
    """Each field-independent exact stage runs once per analysis."""

    def test_classify_computes_each_fiber_and_basis_once(self, simple_map, monkeypatch):
        import liptriv.groebner
        import liptriv.infinity
        from liptriv.groebner import MonomialOrder

        fibers = count_calls(monkeypatch, liptriv.infinity, "fiber_infinity")
        bases = count_calls(monkeypatch, liptriv.groebner, "buchberger")
        rep = classify(simple_map, "complex")
        assert rep.ltv.kind == "complement"
        # One fiber per sampled value: sample 0 is not computed twice.
        cone = next(c for c in rep.checks if c.name == "cone_constancy")
        assert len(cone.data["values"]) == 3
        assert len(fibers) == 3
        grevlex = MonomialOrder.grevlex()
        inputs = {
            (args[0], (args[1] if len(args) > 1 else kwargs.get("order")) or grevlex)
            for args, kwargs in bases
        }
        assert len(bases) == 7
        assert len(inputs) == 7

    def test_budget_in_the_cone_comparison_flags_the_cone_only(self, monkeypatch):
        import liptriv.infinity
        from liptriv.parsing import parse_input

        fibers = count_calls(monkeypatch, liptriv.infinity, "fiber_infinity")
        f = parse_input("ring Q[x,y]; map f: (-x^4, 3*x*y)")
        rep = classify(f, "complex", AnalysisConfig(budget=GroebnerBudget(max_degree=4)))
        # Every sample's fiber basis fits the budget, but comparing the
        # cones as sets saturates past it.
        assert sorted(rep.flags) == ["cone_budget", "jelonek_budget"]
        assert len(fibers) == 3
        names = [c.name for c in rep.checks]
        assert "invariance_vs_infinity" in names
        assert "cone_constancy" not in names

    def test_real_analysis_compiles_two_kernels(self, monkeypatch):
        import liptriv.polycore

        # g's, which every real probe and the critical-value search read,
        # and the Newton search's gradient system.
        kernels = count_calls(monkeypatch, liptriv.polycore, "FloatKernel")
        classify(parse_input(data_text("motzkin.map")), "real", LIGHT)
        assert len(kernels) == 2

    def test_real_analysis_computes_jelonek_once(self, monkeypatch):
        import liptriv.properness

        # m = 1 < p = 2: the exact stages skip J(g), the real probes need it.
        jelonek = count_calls(monkeypatch, liptriv.properness, "jelonek_ideal")
        classify(PolyMap(("x",), (poly(("x",), "x"), poly(("x",), "x^2"))), "real", LIGHT)
        assert len(jelonek) == 1
