"""Frozen numeric expectations for the curved-surface instance.

The loop angles asserted here were computed two independent ways before being
pinned: from the enclosed-area defect of each loop and from a fine-step
integration run, which agreed to twelve digits.  The integrator is expected
to reproduce them within the stated slack at the step each test names, or
at its default step.
"""

import dataclasses
import math
import random

import pytest

from fibretransport.bundles import chart_deviation, chart_point, vector_element
from fibretransport.errors import FibreTransportError
from fibretransport.cli import run_law
from fibretransport.instances import (DEFAULT_STEP, holonomy_angle,
                                      linear_ode_transport, make_instance,
                                      step_error)
from fibretransport.linalg import matmul, transpose
from fibretransport.paths import UNIT
from fibretransport.sphere import (OCTANT_AREA, OCTANT_VERTICES, SPACE,
                                   closed_latitude, coefficient_matrix,
                                   great_circle_arc, latitude_arc,
                                   metric_matrix, octant_loop, require_chart)
from fibretransport.transport import transport

HALF_PI = math.pi / 2


class TestChartGeometry:
    def test_pole_band_rejected(self):
        require_chart(1.0)  # fine
        with pytest.raises(FibreTransportError, match="leaves the chart"):
            require_chart(1e-9)
        with pytest.raises(FibreTransportError, match="leaves the chart"):
            require_chart(math.pi)

    def test_metric_weights(self):
        g = metric_matrix(chart_point(SPACE, math.pi / 3, 0.2))
        assert g[0][0] == 1.0
        assert g[1][1] == pytest.approx(math.sin(math.pi / 3) ** 2)

    def test_coefficients_pair_with_metric(self):
        # the defining compatibility: d/ds g(u, v) = 0 along the flow, i.e.
        # A^T G + G A + dG/ds vanishes for every direction of travel
        for theta, vth, vph in [(0.7, 0.3, -1.2), (2.2, -0.8, 0.5),
                                (HALF_PI, 1.0, 1.0)]:
            x = (theta, 0.0)
            a = coefficient_matrix(x, (vth, vph))
            g = metric_matrix(chart_point(SPACE, *x))
            s, c = math.sin(theta), math.cos(theta)
            gdot = ((0.0, 0.0), (0.0, 2.0 * s * c * vth))
            total = [[sum(m[i][j] for m in
                          (matmul(transpose(a), g), matmul(g, a), gdot))
                      for j in range(2)] for i in range(2)]
            flat = [abs(v) for row in total for v in row]
            assert max(flat) < 1e-14


def _slerp_jet(p0, p1):
    """A great-circle arc's jet written with ``math.`` lookups and clamps
    by ``min`` and ``max``."""
    a, b = ((math.sin(th) * math.cos(ph), math.sin(th) * math.sin(ph),
             math.cos(th)) for th, ph in (p0, p1))
    omega = math.acos(max(-1.0, min(1.0, sum(x * y for x, y in zip(a, b)))))
    sin_omega = math.sin(omega)

    def jet(t):
        u, w = (1.0 - t) * omega, t * omega
        ca, cb = math.sin(u) / sin_omega, math.sin(w) / sin_omega
        da = -omega * math.cos(u) / sin_omega
        db = omega * math.cos(w) / sin_omega
        x, y, z = (ca * i + cb * j for i, j in zip(a, b))
        dx, dy, dz = (da * i + db * j for i, j in zip(a, b))
        return ((math.acos(max(-1.0, min(1.0, z))), math.atan2(y, x)),
                (-dz / math.sqrt(max(1e-300, 1.0 - z * z)),
                 (x * dy - y * dx) / (x * x + y * y)))

    return jet


class TestArcs:
    def test_great_circle_hits_endpoints(self):
        p = great_circle_arc((1.0, 0.2), (2.0, 1.1))
        assert p.at(0.0).coords == pytest.approx((1.0, 0.2))
        assert p.at(1.0).coords == pytest.approx((2.0, 1.1))

    def test_rejects_degenerate_endpoints(self):
        with pytest.raises(FibreTransportError, match="coincide or are antipodal"):
            great_circle_arc((1.0, 0.2), (1.0, 0.2))
        with pytest.raises(FibreTransportError, match="coincide or are antipodal"):
            great_circle_arc((1.0, 0.0), (math.pi - 1.0, math.pi))

    def test_the_jet_matches_the_min_max_clamped_formula_to_the_bit(self):
        rng = random.Random(5)
        for _ in range(20):
            p0, p1 = ((rng.uniform(0.9, 2.2), rng.uniform(-0.7, 0.7))
                      for _ in range(2))
            jet, reference = great_circle_arc(p0, p1).jet, _slerp_jet(p0, p1)
            for t in [*UNIT.samples(101), *(rng.random() for _ in range(100))]:
                assert jet(t, 0) == reference(t), (p0, p1, t)

    def test_pole_crossing_detected(self):
        # endpoints at the same latitude, half a turn apart: the geodesic
        # between them runs straight over the north pole
        p = great_circle_arc((math.pi / 4, 0.0), (math.pi / 4, math.pi))
        with pytest.raises(FibreTransportError, match="crossed a pole"):
            p.velocity(0.5)
        with pytest.raises(FibreTransportError, match="crossed a pole"):
            p.at(0.5)

    def test_constant_metric_speed(self):
        p = great_circle_arc((1.0, 0.2), (2.0, 1.1))
        speeds = []
        for t in (0.0, 0.25, 0.5, 0.75, 1.0):
            v = p.velocity(t)
            g = metric_matrix(p.at(t))
            speeds.append(math.sqrt(v[0] * g[0][0] * v[0]
                                    + v[1] * g[1][1] * v[1]))
        assert max(speeds) - min(speeds) < 1e-9

    def test_velocity_matches_finite_differences(self):
        p = great_circle_arc((1.0, 0.2), (2.0, 1.1))
        h = 1e-6
        for t in (0.1, 0.5, 0.9):
            v = p.velocity(t)
            ahead, behind = p.at(t + h).coords, p.at(t - h).coords
            w = [(a - b) / (2.0 * h) for a, b in zip(ahead, behind)]
            assert v[0] == pytest.approx(w[0], abs=1e-7)
            assert v[1] == pytest.approx(w[1], abs=1e-7)

    def test_latitude_arc_velocity(self):
        p = latitude_arc(1.0, 0.0, 1.5)
        assert p.velocity(0.3) == (0.0, 1.5)
        assert p.at(1.0).coords == pytest.approx((1.0, 1.5))


class TestLoops:
    def test_octant_shape(self):
        loop = octant_loop()
        assert loop.breakpoints == pytest.approx((1.0 / 3.0, 2.0 / 3.0))
        assert loop.crossings == ((0.0, 1.0),)
        assert chart_deviation(loop.at(0.0), loop.at(1.0)) < 1e-12
        b, c, a = OCTANT_VERTICES
        assert loop.at(0.0).coords == pytest.approx(b)
        assert loop.at(1.0 / 3.0).coords == pytest.approx(c)
        assert loop.at(2.0 / 3.0).coords == pytest.approx(a)
        # boundary stays inside the chart band
        thetas = [loop.at(t).coords[0] for t in
                  [k / 200 for k in range(201)]]
        assert min(thetas) > math.pi / 4 - 1e-9
        assert max(thetas) < 3 * math.pi / 4 + 1e-9

    def test_octant_speed_continuity_inside_legs(self):
        loop = octant_loop()
        g = metric_matrix(loop.at(0.5))
        v = loop.velocity(0.5)
        speed = math.sqrt(v[0] ** 2 * g[0][0] + v[1] ** 2 * g[1][1])
        # one quarter circle per third of the parameter: speed 3 * pi / 2
        assert speed == pytest.approx(3 * math.pi / 2, rel=1e-12)

    def test_closed_latitude_wraps(self):
        loop = closed_latitude(math.pi / 3)
        assert chart_deviation(loop.at(0.0), loop.at(1.0)) < 1e-12


@pytest.fixture(scope="module")
def sphere_1e3():
    # a 1e-10 slack on a loop angle needs a finer step than the default
    return make_instance("sphere-levi-civita", step=1e-3)


class TestFrozenAngles:
    def test_octant_angle_is_enclosed_area(self, sphere_1e3):
        ang = holonomy_angle(sphere_1e3.transport,
                             sphere_1e3.path_named("octant"), sphere_1e3.metric)
        assert ang == pytest.approx(OCTANT_AREA, abs=1e-10)

    def test_equator_angle_vanishes(self, sphere):
        ang = holonomy_angle(sphere.transport, sphere.path_named("equator"),
                             sphere.metric)
        assert abs(ang) < 1e-13

    def test_latitude_60_angle(self, sphere_1e3):
        # enclosed-area defect 2*pi*(1 - cos(pi/3)) = pi, i.e. a half turn
        ang = holonomy_angle(sphere_1e3.transport,
                             sphere_1e3.path_named("latitude-60"),
                             sphere_1e3.metric)
        assert abs(abs(ang) - math.pi) < 1e-10

    def test_meridian_closed_form(self):
        # along a meridian the azimuthal component scales with the inverse
        # of sin(theta); the polar component never changes.  A 1e-12 slack
        # needs a finer step than the default.
        spec = make_instance("sphere-levi-civita", step=4e-3)
        th0, th1 = math.pi / 4, math.pi / 2
        p = great_circle_arc((th0, 1.0), (th1, 1.0), name="meridian")
        u = vector_element(p.at(0.0), (0.3, 0.8))
        w = transport(spec.transport, p, 0.0, 1.0, u)
        assert w.vector[0] == pytest.approx(0.3, abs=1e-12)
        expected = 0.8 * math.sin(th0) / math.sin(th1)
        assert w.vector[1] == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("loop, exact", [("equator", 0.0),
                                             ("latitude-60", math.pi)])
    def test_closed_latitudes_are_exact_at_step_8e_3(self, loop, exact):
        # A is constant along a latitude, so each Magnus cell is its exact
        # exponential and only roundoff is left
        spec = make_instance("sphere-levi-civita", step=8e-3)
        ang = holonomy_angle(spec.transport, spec.path_named(loop),
                             spec.metric)
        assert abs(math.remainder(ang - exact, 2 * math.pi)) <= 1e-14

    def test_the_octant_converges_at_fourth_order_from_8e_3_to_2e_3(self):
        errors = []
        for h in (8e-3, 4e-3, 2e-3):
            spec = make_instance("sphere-levi-civita", step=h)
            errors.append(abs(holonomy_angle(
                spec.transport, spec.path_named("octant"), spec.metric)
                - OCTANT_AREA))
        orders = [math.log2(a / b) for a, b in zip(errors, errors[1:])]
        assert min(orders) >= 3.5, (errors, orders)


# ---------------------------------------------------------------------------
# The sphere's tolerance, 10 * e(h) at step h (``instances.step_error``),
# must let the honest preset pass at every step and still catch a small
# metric error.
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("step, seeds", [
    (1.0, range(4)), (0.25, range(4)), (1.6e-2, range(4)), (4e-3, range(4)),
    (1e-3, range(4)), (1e-4, range(1)), (8e-3, range(4))])
def test_the_honest_preset_passes_every_law_at_every_step(step, seeds):
    spec = make_instance("sphere-levi-civita", step=step)
    for seed in seeds:
        failed = [law for law in spec.applicable
                  if not run_law(spec, law, trials=5, seed=seed).passed]
        assert failed == [], (step, seed)


def test_an_ode_transport_takes_its_tolerance_from_the_error_model(sphere):
    assert sphere.transport.tolerance == 10 * step_error(DEFAULT_STEP)
    for step in (DEFAULT_STEP, 1e-3, 1.0):
        T = linear_ode_transport(sphere.bundle, coefficient_matrix, step)
        assert T.tolerance == 10 * step_error(step)
    named = linear_ode_transport(sphere.bundle, coefficient_matrix,
                                 tolerance=1e-6)
    assert named.tolerance == 1e-6


def _metric_saboteur(spec, eps=1e-8):
    """spec with eps * theta' * I added to the sphere's coefficients: the
    transport scales each vector by exp(eps * dtheta), which moves the
    fibre metric and nothing else a law compares."""
    def coefficients(x, xdot):
        (a, b), (c, d) = coefficient_matrix(x, xdot)
        e = eps * xdot[0]
        return ((a + e, b), (c, d + e))

    T = linear_ode_transport(spec.bundle, coefficients, DEFAULT_STEP,
                             name="metric-saboteur",
                             tolerance=spec.transport.tolerance)
    return dataclasses.replace(spec, transport=T)


@pytest.mark.parametrize("seed", range(4))
def test_a_1e_8_metric_error_fails_law_2_9_only(sphere, seed):
    assert sphere.step == DEFAULT_STEP
    saboteur = _metric_saboteur(sphere)
    failed = [law for law in sphere.applicable
              if not run_law(saboteur, law, trials=20, seed=seed).passed]
    assert failed == ["2.9"]
