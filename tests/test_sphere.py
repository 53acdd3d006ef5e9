"""Frozen numeric expectations for the curved-surface instance.

The loop angles asserted here were computed two independent ways before being
pinned: from the enclosed-area defect of each loop and from a fine-step
integration run, which agreed to twelve digits.  The integrator is expected
to reproduce them within the stated slack at the step each test names, or
at its default step.
"""

import math
import random

import pytest

from fibretransport.bundles import (chart_point, element_deviation,
                                    point_deviation, vector_element)
from fibretransport.errors import FibreTransportError
from fibretransport.cli import run_law
from fibretransport.instances import (DEFAULT_STEP, InstanceSpec,
                                      holonomy_angle, linear_ode_transport,
                                      make_instance, step_error)
from fibretransport.linalg import matmul, max_abs, vec_sub
from fibretransport.paths import UNIT, concatenate
from fibretransport.sphere import (OCTANT_AREA, OCTANT_VERTICES, SPACE,
                                   closed_latitude, coefficient_matrix,
                                   great_circle_arc, latitude_arc,
                                   metric_matrix, octant_loop, require_chart,
                                   round_metric)
from fibretransport.transport import Transport, transport

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
                          (matmul(tuple(zip(*a)), g), matmul(g, a), gdot))
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
                assert jet(t) == reference(t), (p0, p1, t)

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
        assert point_deviation(loop.at(0.0), loop.at(1.0)) < 1e-12
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
        assert point_deviation(loop.at(0.0), loop.at(1.0)) < 1e-12


class TestThePhiPeriod:
    """Base points are compared with phi read modulo 2*pi everywhere."""

    def test_a_closed_latitude_glues_to_an_arc_from_phi_zero(self, sphere):
        # the loop ends at phi = 2*pi, the arc starts at phi = 0: one point
        T = sphere.transport
        loop, arc = closed_latitude(1.0), latitude_arc(1.0, 0.0, 1.0)
        q = concatenate(loop, arc)
        u = vector_element(q.at(0.0), (0.3, -0.7))
        whole = transport(T, q, 0.0, 1.0, u)
        halves = transport(T, arc, 0.0, 1.0,
                           transport(T, loop, 0.0, 1.0, u))
        assert element_deviation(whole, halves) <= T.tolerance

    def test_an_element_a_period_away_is_its_own_image(self, sphere):
        T, p, s = sphere.transport, sphere.path_named("latitude-arc"), 0.3
        theta, phi = p.at(s).coords
        u = vector_element(chart_point(SPACE, theta, phi + 2.0 * math.pi),
                           (0.3, -0.7))
        assert element_deviation(transport(T, p, s, s, u), u) == 0.0


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


def test_an_ode_transport_declares_only_what_every_field_satisfies(sphere):
    """Metric consistency depends on the coefficients, so the constructor
    leaves it out and the Levi-Civita preset declares it itself."""
    def arbitrary(x, xdot):
        return ((0.3 * xdot[0], math.sin(x[1])), (0.7, -xdot[1]))

    T = linear_ode_transport(sphere.bundle, arbitrary)
    assert T.declared == {"local", "reparam_invariant", "linear"}
    spec = InstanceSpec("arbitrary", T, metric=round_metric(),
                        law_paths=sphere.law_paths)
    assert "2.9" not in spec.applicable
    assert "metric_consistent" in sphere.transport.declared
    assert "2.9" in sphere.applicable


def _metric_saboteur(spec, eps=1e-8):
    """spec with eps * theta' * I added to the sphere's coefficients: the
    transport scales each vector by exp(eps * dtheta), which moves the
    fibre metric and nothing else a law compares."""
    def coefficients(x, xdot):
        (a, b), (c, d) = coefficient_matrix(x, xdot)
        e = eps * xdot[0]
        return ((a + e, b), (c, d + e))

    T = linear_ode_transport(spec.bundle, coefficients, DEFAULT_STEP,
                             name="metric-saboteur")
    return spec._replace(transport=T)


@pytest.mark.parametrize("seed", range(4))
def test_a_1e_8_metric_error_fails_law_2_9_only(sphere, seed):
    assert sphere.step == DEFAULT_STEP
    saboteur = _metric_saboteur(sphere)
    failed = [law for law in sphere.applicable
              if not run_law(saboteur, law, trials=20, seed=seed).passed]
    assert failed == ["2.9"]


# ---------------------------------------------------------------------------
# A closed-form oracle (do Carmo, Differential Geometry of Curves and
# Surfaces, section 4-4).  Along a great circle, parallel transport is the
# rotation of space about the circle's axis; along the latitude theta0 it
# turns a vector by -cos(theta0) * dphi in the orthonormal frame
# (e_theta, e_phi / sin(theta)).  Errors are checked on the law paths only:
# on a long loop such as the octant the integrator's error grows past the
# tolerance, which bounds one law comparison and not a whole traversal.
# ---------------------------------------------------------------------------

def _embedded_frame(theta, phi):
    """The point of the unit sphere at (theta, phi) and its chart frame
    d_theta, d_phi, in space."""
    st, ct, sp, cp = (math.sin(theta), math.cos(theta), math.sin(phi),
                      math.cos(phi))
    return (st * cp, st * sp, ct), (ct * cp, ct * sp, -st), (-st * sp,
                                                             st * cp, 0.0)


def _dot3(a, b):
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def _cross(a, b):
    return (a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2],
            a[0] * b[1] - a[1] * b[0])


def _turn(angle, theta, v):
    """Chart components v at latitude theta, turned by angle in the
    orthonormal frame (e_theta, e_phi / sin(theta))."""
    a, b = v[0], math.sin(theta) * v[1]
    c, s = math.cos(angle), math.sin(angle)
    return (a * c - b * s, (a * s + b * c) / math.sin(theta))


def oracle(p, s, t, v):
    """Levi-Civita transport of chart components v from p(s) to p(t), for
    p a latitude arc or a great-circle arc."""
    (th0, ph0), (th1, ph1) = p.at(s).coords, p.at(t).coords
    if p.velocity(s)[0] == 0.0:  # a latitude
        return _turn(-math.cos(th0) * (ph1 - ph0), th0, v)
    x0, e0, f0 = _embedded_frame(th0, ph0)
    x1, e1, f1 = _embedded_frame(th1, ph1)
    ends = (_embedded_frame(*p.at(r).coords)[0] for r in p.domain)
    n = _cross(*ends)
    n = tuple(c / math.sqrt(_dot3(n, n)) for c in n)
    angle = math.atan2(_dot3(n, _cross(x0, x1)), _dot3(x0, x1))
    c, sn = math.cos(angle), math.sin(angle)
    w = tuple(v[0] * e + v[1] * f for e, f in zip(e0, f0))
    nw, along = _cross(n, w), _dot3(n, w) * (1.0 - c)
    r = tuple(w[i] * c + nw[i] * sn + n[i] * along for i in range(3))
    return (_dot3(r, e1), _dot3(r, f1) / math.sin(th1) ** 2)


def oracle_error(spec):
    """The largest component error against the oracle over the law paths,
    from and to each point of a 5-point grid, for both frame vectors."""
    errors = []
    for p in spec.law_paths:
        for s in p.domain.samples(5):
            for t in p.domain.samples(5):
                for v in ((1.0, 0.0), (0.0, 1.0)):
                    got = transport(spec.transport, p, s, t,
                                    vector_element(p.at(s), v)).vector
                    errors.append(max_abs(vec_sub(got, oracle(p, s, t, v))))
    return max_abs(errors)


@pytest.mark.parametrize("step", [1.0, 8e-3, 1e-3, 1e-4])
def test_the_law_paths_match_the_closed_forms(step):
    spec = make_instance("sphere-levi-civita", step=step)
    assert oracle_error(spec) <= spec.transport.tolerance


# The epsilon-mutant table.  Each mutant wraps the sphere transport's image w
# of u with an error of size eps, which vanishes at s = t except for const's.
MUTANTS = {
    # scale by 1 + eps, which is not the identity at s = t
    "const": lambda eps, p, s, t, u, w: [c * (1.0 + eps) for c in w],
    # scale by 1 + eps (t - s)**2, which does not compose
    "sq": lambda eps, p, s, t, u, w: [c * (1.0 + eps * (t - s) ** 2)
                                      for c in w],
    # scale by exp(eps (t - s)), which reads the parametrization
    "param": lambda eps, p, s, t, u, w: [c * math.exp(eps * (t - s))
                                         for c in w],
    # scale by exp(eps (t - s) width), which reads the whole domain
    "width": lambda eps, p, s, t, u, w: [
        c * math.exp(eps * (t - s) * p.domain.width) for c in w],
    # add eps (t - s) |u|**2 e1, which is not linear
    "nonlin": lambda eps, p, s, t, u, w: [
        w[0] + eps * (t - s) * (u[0] ** 2 + u[1] ** 2), w[1]],
    # turn by eps (theta(t) - theta(s)) in the orthonormal frame: a change
    # of frame by a rotation that depends on the point, another transport
    # that keeps every law
    "gauge": lambda eps, p, s, t, u, w: _turn(
        eps * (p.at(t).coords[0] - p.at(s).coords[0]), p.at(t).coords[0], w),
}


def _mutant(spec, name, eps):
    T, rule = spec.transport, MUTANTS[name]

    def apply(p, s, t, u):
        w = T.apply_fn(p, s, t, u)
        return vector_element(w.over, rule(eps, p, s, t, u.vector, w.vector))

    return spec._replace(
        transport=Transport(**{**T._asdict(), "apply_fn": apply}))


@pytest.mark.parametrize("law, mutant", [
    *((law, "sq") for law in ("2.2", "2.4", "2.6", "2.9", "3.1", "3.4",
                              "3.5", "4.6")),
    ("2.5/2.7", "width"), ("2.8", "nonlin"), ("3.6-roundtrip", "nonlin"),
    ("3.2", "param"), ("2.3", "const")])
def test_an_error_at_ten_times_the_tolerance_fails_the_law(sphere, law,
                                                            mutant):
    """Each law fails at the scale of error it claims to bound: the mutant
    at eps = 10 * T.tolerance fails it, and at eps = 0 passes it."""
    eps = 10 * sphere.transport.tolerance
    assert run_law(_mutant(sphere, mutant, 0.0), law, trials=40, seed=1).passed
    report = run_law(_mutant(sphere, mutant, eps), law, trials=40, seed=1)
    assert not report.passed, report.max_deviation


def test_a_change_of_frame_keeps_every_law_and_only_the_oracle_sees_it(
        sphere):
    """The laws cannot tell Levi-Civita from a transport gauged by a
    rotation of eps (theta(t) - theta(s)): at eps = 10 * T.tolerance the
    gauged transport passes every law and fails the oracle, and at eps = 0
    it passes both."""
    eps = 10 * sphere.transport.tolerance
    honest, gauged = (_mutant(sphere, "gauge", e) for e in (0.0, eps))
    failed = [law for law in sphere.applicable
              if not run_law(gauged, law, trials=20, seed=0).passed]
    assert failed == []
    assert oracle_error(honest) <= sphere.transport.tolerance
    assert oracle_error(gauged) > sphere.transport.tolerance
