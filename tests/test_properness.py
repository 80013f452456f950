"""Non-properness: exact complex ideals, per-value verdicts, numeric probes."""

import random
from fractions import Fraction

import pytest

from conftest import poly
from liptriv.parsing import print_polynomial
from liptriv.polycore import FloatKernel, LinearMap, PolyMap
from liptriv.properness import (
    CurveFamily,
    ProbeSchedule,
    _sphere_minimize,
    is_proper_at_complex,
    jelonek_ideal,
    properness_probe_real,
    tentacle_probe,
)

F = Fraction
FAST = ProbeSchedule(radii=(10.0, 100.0, 1000.0), restarts=16, max_iter=150)


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
        assert [print_polynomial(g) for g in jel.ideal.generators] == ["t1"]

    def test_identity_is_proper_everywhere(self):
        ring = ("x", "y")
        ident = PolyMap(ring, (poly(ring, "x"), poly(ring, "y")))
        assert jelonek_ideal(ident).ideal.has_unit_generator()

    def test_univariate_cubic_proper(self):
        g = PolyMap(("u",), (poly(("u",), "u^3"),))
        assert jelonek_ideal(g).ideal.has_unit_generator()

    def test_proper_part_with_constant_component(self):
        # x^2 is proper, so adding a constant component keeps J empty.
        ring = ("x",)
        g = PolyMap(ring, (poly(ring, "x^2"), poly(ring, "3")))
        assert jelonek_ideal(g).ideal.has_unit_generator()

    def test_constant_component_pins_hyperplane(self):
        # The first two components lose properness over t1 = 0; the constant
        # third pins everything to the hyperplane t3 = 5.
        ring = ("x", "w")
        g = PolyMap(ring, (poly(ring, "x"), poly(ring, "x*w"), poly(ring, "5")))
        jel = jelonek_ideal(g)
        assert not jel.ideal.has_unit_generator()
        assert jel.ideal.vanishes_at([F(0), F(7), F(5)])
        assert not jel.ideal.vanishes_at([F(0), F(7), F(4)])
        assert not jel.ideal.vanishes_at([F(1), F(7), F(5)])

    def test_constant_map_not_proper_at_its_value(self):
        g = PolyMap(("x",), (poly(("x",), "3"),))
        jel = jelonek_ideal(g)
        assert jel.ideal.vanishes_at([F(3)])
        assert not jel.ideal.vanishes_at([F(2)])


class TestIsProperAtComplex:
    def test_proper_off_the_line(self, reduced_shear):
        v = is_proper_at_complex(reduced_shear, [F(1), F(1)])
        assert v.verdict == "proper"
        assert v.mode == "exact_complex"

    def test_not_proper_on_the_line(self, reduced_shear):
        assert is_proper_at_complex(reduced_shear, [F(0), F(0)]).verdict == "non_proper"

    def test_curve_fibers_never_proper(self, plane_sextic):
        for c in (F(0), F(1, 2), F(2)):
            v = is_proper_at_complex(plane_sextic, [c])
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
            exact = is_proper_at_complex(
                reduced_shear, [F(x) for x in c]
            )
            if exact.verdict == "proper":
                probe = properness_probe_real(reduced_shear, c, FAST)
                assert probe.verdict == "proper"

    def test_deterministic_evidence(self, plane_sextic):
        a = properness_probe_real(plane_sextic, [2.0], FAST, skip_exact=True)
        b = properness_probe_real(plane_sextic, [2.0], FAST, skip_exact=True)
        assert a.evidence == b.evidence

    def test_mu_invariant_under_rotation(self, plane_sextic):
        # Exact rational rotation (3/5, 4/5; -4/5, 3/5) of the domain.
        rot = LinearMap.from_rows([[F(3, 5), F(4, 5)], [F(-4, 5), F(3, 5)]])
        rotated = plane_sextic.compose_linear(rot, new_vars=("x", "y"))
        sched = ProbeSchedule(radii=(10.0, 100.0), restarts=16, max_iter=150)
        for c in (0.5, -1.0):
            a = properness_probe_real(plane_sextic, [c], sched, skip_exact=True)
            b = properness_probe_real(rotated, [c], sched, skip_exact=True)
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
            if jel.ideal.has_unit_generator():
                continue
            kernel = FloatKernel(g.components)
            import numpy as np

            test_value = [1.0, -1.0]
            if jel.ideal.vanishes_at([F(1), F(-1)]):
                test_value = [2.0, 3.0]
                assert not jel.ideal.vanishes_at([F(2), F(3)])
            mus = []
            for k, radius in enumerate((10.0, 100.0)):
                rng_np = np.random.default_rng((59, k))
                mu, _ = _sphere_minimize(kernel, test_value, radius, rng_np, 12, 150)
                mus.append(mu)
            assert mus[-1] > 1e-3

    def test_schedule_validation(self):
        with pytest.raises(ValueError):
            ProbeSchedule(radii=(100.0, 10.0))
        with pytest.raises(ValueError):
            ProbeSchedule(restarts=0)


class TestTentacleProbe:
    def test_invariant_direction_stabilizes(self, simple_map):
        rep = tentacle_probe(simple_map, [F(0), F(1), F(-1)])
        assert rep["stabilizes"]
        assert rep["bounded"]
        assert rep["derivative_vanishes"]

    def test_moving_direction_escapes(self, bad_map):
        rep = tentacle_probe(bad_map, [F(0), F(1), F(0)])
        assert not rep["stabilizes"]
        assert not rep["derivative_vanishes"]

    def test_constant_map_constant_along_any_curve(self):
        ring = ("x", "y")
        f = PolyMap(ring, (poly(ring, "5"),))
        rep = tentacle_probe(f, [F(1), F(0)], CurveFamily(2))
        assert rep["stabilizes"]
        assert rep["bounded"]

    def test_zero_direction_rejected(self, simple_map):
        with pytest.raises(ValueError):
            tentacle_probe(simple_map, [F(0), F(0), F(0)])

    def test_curve_degree_constraint(self):
        with pytest.raises(ValueError):
            CurveFamily(1, ((F(1), F(2)),))
