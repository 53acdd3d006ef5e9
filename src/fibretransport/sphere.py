"""The unit round sphere in a single (theta, phi) chart.

theta is the polar angle in (0, pi), phi the azimuth.  The chart excludes both
poles by a fixed margin; a path that crosses the margin makes its coefficient
evaluation raise rather than silently degrade, and a great-circle arc raises
wherever it is evaluated there.  The tangent plane at each point is
expressed in the coordinate frame (d_theta, d_phi) with metric
diag(1, sin(theta)^2).

Path generators return unit-interval chart paths whose jets give the
coordinates (theta, phi) and analytic velocities: great-circle arcs (via
spherical linear interpolation of the embedded endpoints, and its derivative)
and constant-latitude arcs.  ``coefficient_matrix`` reads the coordinates, so
no ``BasePoint`` is built per integrator stage.
Generated arcs keep phi inside a single atan2 branch; the shipped presets
are chosen so that no arc approaches the phi seam or the poles.
"""

from __future__ import annotations

import math

from . import linalg
from .bundles import POLE_MARGIN, BasePoint, BundleMetric, FibreBundle
from .errors import FibreTransportError
from .paths import UNIT, Path, concatenate, with_crossings

SPACE = "sphere"
_THETA_MAX = math.pi - POLE_MARGIN      # the chart is POLE_MARGIN..this


def require_chart(theta: float) -> None:
    if not (POLE_MARGIN <= theta <= _THETA_MAX):
        raise FibreTransportError(
            f"theta={theta} leaves the chart (poles excluded by {POLE_MARGIN})"
        )


def tangent_bundle() -> FibreBundle:
    return FibreBundle(base_space_id=SPACE)


def metric_matrix(x: BasePoint) -> linalg.Mat:
    th = x.coords[0]
    s = math.sin(th)
    return ((1.0, 0.0), (0.0, s * s))


def round_metric() -> BundleMetric:
    return BundleMetric(name="round-sphere", matrix_at=metric_matrix)


def coefficient_matrix(x: tuple[float, ...],
                       xdot: tuple[float, ...]) -> linalg.Mat:
    """A(r) with du/dr = A u at chart coordinates x, chart velocity xdot."""
    th = x[0]
    if not (POLE_MARGIN <= th <= _THETA_MAX):  # inline: runs at every stage
        require_chart(th)
    sin_th = math.sin(th)
    cos_th = math.cos(th)
    cot = cos_th / sin_th
    vth, vph = xdot
    return (
        (0.0, sin_th * cos_th * vph),
        (-cot * vph, -cot * vth),
    )


# ---------------------------------------------------------------------------
# Path generators
# ---------------------------------------------------------------------------

def _embed(theta: float, phi: float) -> tuple[float, float, float]:
    st = math.sin(theta)
    return (st * math.cos(phi), st * math.sin(phi), math.cos(theta))


def great_circle_arc(p0: tuple[float, float], p1: tuple[float, float],
                     name: str = "arc") -> Path:
    """The geodesic arc between two chart points, parameterized over [0, 1].

    The endpoints must not be equal or antipodal, and the arc must stay clear
    of the poles (checked lazily, wherever the arc is evaluated).
    """
    a = _embed(*p0)
    b = _embed(*p1)
    d = max(-1.0, min(1.0, sum(a[i] * b[i] for i in range(3))))
    omega = math.acos(d)
    if omega < 1e-9 or math.pi - omega < 1e-9:
        raise FibreTransportError(
            "great-circle arc endpoints coincide or are antipodal")
    (a0, a1, a2), (b0, b1, b2) = a, b
    sin_omega = math.sin(omega)
    min_rho2 = math.sin(POLE_MARGIN) ** 2
    sin, cos, acos, atan2, sqrt = (math.sin, math.cos, math.acos, math.atan2,
                                   math.sqrt)

    def jet(t: float) -> tuple[tuple[float, float], ...]:
        """Spherical linear interpolation from a to b, and its derivative,
        in chart coordinates."""
        u, w = (1.0 - t) * omega, t * omega
        ca, cb = sin(u) / sin_omega, sin(w) / sin_omega
        da = -omega * cos(u) / sin_omega
        db = omega * cos(w) / sin_omega
        x, y, z = ca * a0 + cb * b0, ca * a1 + cb * b1, ca * a2 + cb * b2
        dx, dy, dz = da * a0 + db * b0, da * a1 + db * b1, da * a2 + db * b2
        rho2 = x * x + y * y
        # rho = sin(theta); inside the chart band it stays >= sin(POLE_MARGIN)
        if rho2 < min_rho2:
            raise FibreTransportError("great-circle arc crossed a pole")
        # clamps by comparison, sending NaN where max(lo, min(hi, .)) does
        c = z if -1.0 < z < 1.0 else (-1.0 if z <= -1.0 else 1.0)
        q = 1.0 - z * z
        return ((acos(c), atan2(y, x)),
                (-dz / sqrt(q if q > 1e-300 else 1e-300),
                 (x * dy - y * dx) / rho2))

    return Path(space=SPACE, domain=UNIT, jet=jet, name=name)


def latitude_arc(theta: float, phi0: float, phi1: float,
                 name: str = "latitude") -> Path:
    """Constant-latitude arc from phi0 to phi1, parameterized over [0, 1]."""
    require_chart(theta)
    theta, phi0, span = float(theta), float(phi0), float(phi1 - phi0)

    def jet(t: float) -> tuple[tuple[float, float], ...]:
        return (theta, phi0 + span * t), (0.0, span)

    return Path(space=SPACE, domain=UNIT, jet=jet, name=name)


# ---------------------------------------------------------------------------
# Closed loops
# ---------------------------------------------------------------------------

# Vertices of a geodesic triangle made of three quarter great circles.  Its
# interior covers one eighth of the sphere (enclosed area pi/2), and every
# point of the boundary keeps theta within [pi/4, 3*pi/4], far from the poles
# and from the phi seam.
OCTANT_VERTICES = (
    (math.pi / 2, math.pi / 2),
    (math.pi / 4, 0.0),
    (3 * math.pi / 4, 0.0),
)

OCTANT_AREA = math.pi / 2


def octant_loop(name: str = "octant") -> Path:
    """Closed geodesic triangle enclosing an eighth of the sphere.

    The three quarter-great-circle legs glued by ``concatenate``: domain
    [0, 1], one leg per third, velocity kinks at the seams 1/3 and 2/3, and
    a declared self-crossing at (0, 1).
    """
    b, c, a = OCTANT_VERTICES
    loop = concatenate(great_circle_arc(b, c, name=f"{name}-leg1"),
                       great_circle_arc(c, a, name=f"{name}-leg2"),
                       great_circle_arc(a, b, name=f"{name}-leg3"))
    return with_crossings(loop._replace(name=name), [(0.0, 1.0)])


def closed_latitude(theta: float, name: str | None = None) -> Path:
    """Full constant-latitude circle, phi sweeping 0 to 2*pi over [0, 1]."""
    p = latitude_arc(theta, 0.0, 2 * math.pi,
                     name=name or f"latitude-{theta:.4f}")
    return with_crossings(p, [(0.0, 1.0)])
