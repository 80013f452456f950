"""Full pipeline: verdicts, checks, probes, suspension invariance, determinism."""

import warnings
from fractions import Fraction

import pytest

from conftest import count_calls, poly
from liptriv.classifier import (
    AnalysisConfig,
    _on_locus,
    classify,
    complexification_compare,
    lipschitz_gradient_probe,
    rational_grid,
    tube_distance_probe,
)
from liptriv.dependence import suspend
from liptriv.groebner import GroebnerBudget, Ideal
from liptriv.parsing import parse_input, print_polynomial
from liptriv.polycore import PolyMap
from liptriv.properness import ProbeSchedule
from liptriv.report import emit_report

F = Fraction

LIGHT = AnalysisConfig(ProbeSchedule(radii=(10.0, 100.0, 1000.0), restarts=12, max_iter=150))


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
        table = {v[0]: verdict for v, verdict, _ in rep.ltv.probe_table}
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
        assert all(verdict == "proper" for _, verdict, _ in rep.ltv.probe_table)

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


class TestTubeProbe:
    def test_overflowing_starts_are_dropped(self):
        ring = ("x", "y")
        # x^200 overflows a float once |x| > 34.5, inside the ball of radius 50.
        out = tube_distance_probe(PolyMap(ring, (poly(ring, "x^200 + y"),)), [1.0], [2.0])
        assert [entry["radius"] for entry in out["per_radius"]] == [10.0, 25.0, 50.0]
        assert not out["collapse"]

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
        out = tube_distance_probe(
            simple_map, [1.0, 0.0], [1.0, 1.0], radii=(10.0, 25.0), restarts=8
        )
        assert not out["collapse"]
        for entry in out["per_radius"]:
            assert entry["distance"] == pytest.approx(0.7071, abs=1e-2)

    def test_equal_levels_rejected(self, simple_map):
        with pytest.raises(ValueError):
            tube_distance_probe(simple_map, [1.0, 0.0], [1.0, 0.0])

    @pytest.mark.parametrize("radii", BAD_RADII)
    def test_bad_radii_rejected(self, radii):
        with pytest.raises(ValueError, match="radii"):
            tube_distance_probe(xy_map(), [1.0], [2.0], radii=radii, restarts=1)


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

    def test_samples_are_distinct(self):
        # The p = 1 grid starts 1, 0, 2, 3, -1, 1, 3, -2 and the critical
        # values are 0, 2, 3 and 5; the repeated 1 is not sampled again.
        ring = ("x", "y")
        f = PolyMap(ring, (poly(ring, "8*x^3 - 6*x^4 + 12*y^3 - 9*y^4"),))
        rep = classify(f, "complex")
        cone = next(c for c in rep.checks if c.name == "cone_constancy")
        assert cone.data["values"] == ((Fraction(1),), (Fraction(-1),), (Fraction(-2),))


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
        assert len(bases) == 17
        assert len(inputs) == 17

    def test_budget_after_sample_zero_flags_the_cone_only(self, monkeypatch):
        import liptriv.groebner
        import liptriv.infinity
        from liptriv.parsing import parse_input

        fibers = count_calls(monkeypatch, liptriv.infinity, "fiber_infinity")
        bases = count_calls(monkeypatch, liptriv.groebner, "buchberger")
        f = parse_input("ring Q[x,y,z]; map f: (x^2 + y^3*x, z*x + y)")
        rep = classify(f, "complex", AnalysisConfig(budget=GroebnerBudget(max_degree=6)))
        # Sample 1's fiber runs out of budget: sample 0 keeps its report,
        # which is not computed again, and the cones are not compared.
        assert sorted(rep.flags) == ["cone_budget", "critical_budget"]
        assert len(fibers) == 2
        assert len(bases) == 7
        names = [c.name for c in rep.checks]
        assert "invariance_vs_infinity" in names
        assert "cone_constancy" not in names

    def test_real_analysis_computes_jelonek_once(self, monkeypatch):
        import liptriv.properness

        # m = 1 < p = 2: the exact stages skip J(g), the real probes need it.
        jelonek = count_calls(monkeypatch, liptriv.properness, "jelonek_ideal")
        classify(PolyMap(("x",), (poly(("x",), "x"), poly(("x",), "x^2"))), "real", LIGHT)
        assert len(jelonek) == 1
