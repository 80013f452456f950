"""Non-properness: exact complex ideals, per-value verdicts, numeric probes."""

import random
from fractions import Fraction

import pytest

from conftest import compose_linear, count_calls, poly
from liptriv.classifier import lipschitz_gradient_probe, tube_distance_probe
from liptriv.parsing import print_polynomial
from liptriv.polycore import FloatKernel, LinearMap, PolyMap
from liptriv.properness import (
    ProbeSchedule,
    _sphere_minimize,
    is_proper_at_complex,
    jelonek_ideal,
    properness_probe_real,
)

F = Fraction
FAST = ProbeSchedule(radii=(10.0, 100.0, 1000.0), restarts=16, max_iter=150)


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
        a = properness_probe_real(plane_sextic, [2.0], FAST, no_certificate)
        b = properness_probe_real(plane_sextic, [2.0], FAST, no_certificate)
        assert a.evidence == b.evidence

    def test_mu_invariant_under_rotation(self, plane_sextic):
        # Exact rational rotation (3/5, 4/5; -4/5, 3/5) of the domain.
        rot = LinearMap.from_rows([[F(3, 5), F(4, 5)], [F(-4, 5), F(3, 5)]])
        rotated = compose_linear(plane_sextic, rot, new_vars=("x", "y"))
        sched = ProbeSchedule(radii=(10.0, 100.0), restarts=16, max_iter=150)
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
            import numpy as np

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

    def test_schedule_validation(self):
        with pytest.raises(ValueError):
            ProbeSchedule(radii=(100.0, 10.0))
        for radii in ((), (0.0, 10.0), (-1.0, 10.0), (float("nan"), 10.0), (10.0, float("inf"))):
            with pytest.raises(ValueError):
                ProbeSchedule(radii=radii)
        with pytest.raises(ValueError):
            ProbeSchedule(restarts=0)
        for bad in (0.0, -1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError):
                ProbeSchedule(tol_zero=bad)
            with pytest.raises(ValueError):
                ProbeSchedule(mu_floor=bad)
        with pytest.raises(ValueError, match="seed"):
            ProbeSchedule(seed=-1)

    def test_max_iter_below_one_rejected(self):
        # x*y has the unbounded fiber {x*y = 1}; with no descent step the
        # sphere minima stay at their random starts and read as proper.
        xy = PolyMap(("x", "y"), (poly(("x", "y"), "x*y"),))
        assert properness_probe_real(xy, [1.0], FAST, no_certificate).verdict == "non_proper"
        for bad in (0, -5):
            with pytest.raises(ValueError, match="descent step"):
                ProbeSchedule(max_iter=bad)


class TestValueLength:
    """A value with the wrong number of coordinates fails before any stage."""

    @pytest.fixture(scope="class")
    def shear(self):
        ring = ("x", "y")
        return PolyMap(ring, (poly(ring, "x"), poly(ring, "x*y")))

    @pytest.mark.parametrize(
        "probe",
        [
            lambda g, c: is_proper_at_complex(g, [Fraction(x) for x in c]),
            lambda g, c: properness_probe_real(g, c, FAST),
            lambda g, c: properness_probe_real(g, c, FAST, no_certificate),
            lambda g, c: tube_distance_probe(g, c, [2.0, 2.0], radii=(10.0,), restarts=1),
            lambda g, c: tube_distance_probe(g, [2.0, 2.0], c, radii=(10.0,), restarts=1),
            lambda g, c: lipschitz_gradient_probe(g, c, radii=(10.0,)),
        ],
        ids=["complex", "real", "real-skip-exact", "tube-c", "tube-t", "gradient"],
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
