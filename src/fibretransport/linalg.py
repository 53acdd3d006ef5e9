"""Small dense linear algebra on tuples of floats.

Vector fibres in this library are rank 2, so vectors are plain pairs and
matrices are pairs of row pairs, and each operation spells out its 2 x 2
arithmetic.  Keeping it in scalar floats makes results reproducible to the
bit, which the exactness guarantees of the discrete instances rely on.  A
two-term sum reads ``0 + a*b + c*d``, as ``sum`` would give it, which keeps
``0 + -0.0`` at +0.0; on 3.12 and later ``sum`` compensates its rounding,
which leaves a sum of two terms unchanged.

``vec_sub`` and ``max_abs`` take any length, since chart coordinates and
lists of deviations use them too.  ``max_abs`` is NaN if any entry is NaN,
and the deviation helpers elsewhere in the package take their maxima the
same way, so a NaN is never masked.
"""

from __future__ import annotations

import math

Vec = tuple[float, ...]
Mat = tuple[tuple[float, ...], ...]


def identity() -> Mat:
    return ((1.0, 0.0), (0.0, 1.0))


def matvec(m: Mat, v: Vec) -> Vec:
    (m00, m01), (m10, m11) = m
    x, y = v
    return (0 + m00 * x + m01 * y, 0 + m10 * x + m11 * y)


def matmul(a: Mat, b: Mat) -> Mat:
    (a00, a01), (a10, a11) = a
    (b00, b01), (b10, b11) = b
    return ((0 + a00 * b00 + a01 * b10, 0 + a00 * b01 + a01 * b11),
            (0 + a10 * b00 + a11 * b10, 0 + a10 * b01 + a11 * b11))


def lin_comb(lam: float, u: Vec, mu: float, v: Vec) -> Vec:
    return (lam * u[0] + mu * v[0], lam * u[1] + mu * v[1])


def vec_sub(u: Vec, v: Vec) -> Vec:
    if len(u) == 2:
        return (u[0] - v[0], u[1] - v[1])
    return tuple(u[i] - v[i] for i in range(len(u)))


def max_abs(v: Vec) -> float:
    """The largest |v_i| (0.0 for no entries), or NaN if any v_i is NaN."""
    if len(v) == 2:
        a, b = abs(v[0]), abs(v[1])
        # as max(a, b), which keeps a unless b is greater, but a NaN b wins
        return b if b > a or b != b else a
    if any(x != x for x in v):
        return math.nan
    return max(abs(x) for x in v) if v else 0.0


def dot(u: Vec, v: Vec) -> float:
    return 0 + u[0] * v[0] + u[1] * v[1]


def solve(m: Mat, rhs: Vec) -> Vec:
    """Solve m x = rhs by Gauss elimination with partial pivoting."""
    (a00, a01), (a10, a11) = m
    r0, r1 = rhs
    if abs(a10) > abs(a00):  # max() keeps the first of equal pivots
        a00, a01, r0, a10, a11, r1 = a10, a11, r1, a00, a01, r0
    if a00 == 0.0:
        raise ZeroDivisionError("singular matrix")
    if a10 != 0.0:
        f = a10 / a00
        a11 -= f * a01
        r1 -= f * r0
    if a11 == 0.0:
        raise ZeroDivisionError("singular matrix")
    if a01 != 0.0:
        r0 -= a01 / a11 * r1
    return (r0 / a00, r1 / a11)


def inverse(m: Mat) -> Mat:
    (a, c), (b, d) = solve(m, (1.0, 0.0)), solve(m, (0.0, 1.0))
    return ((a, b), (c, d))


def rotation(angle: float) -> Mat:
    c, s = math.cos(angle), math.sin(angle)
    return ((c, -s), (s, c))


def rotation_angle(m: Mat) -> float:
    """Angle of a 2x2 matrix that is (close to) a rotation, in (-pi, pi]:
    atan2's -pi, a half turn whose sine entry is below zero, reads pi."""
    a = math.atan2(m[1][0], m[0][0])
    return math.pi if a == -math.pi else a
