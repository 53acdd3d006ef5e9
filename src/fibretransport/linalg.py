"""Small dense linear algebra on tuples of floats.

Fibres in this library are tiny (dimension 2 in every shipped instance), so
vectors are plain tuples and matrices are tuples of row tuples.  Keeping the
arithmetic in scalar floats makes results reproducible to the bit, which the
exactness guarantees of the discrete instances rely on.

Since every shipped fibre has rank 2, each operation has a rank-2 branch that
spells out the generic loop: the same floating-point operations in the same
order, so its results equal the loop's to the bit.  A generic ``sum(...)``
starts from the integer 0, so a two-term kernel reads ``0 + a*b + c*d``, which
keeps ``0 + -0.0`` at +0.0.  On 3.12 and later ``sum`` compensates its
rounding, which leaves a sum of two terms unchanged.  Any other rank runs the
generic loop, which stays the reference the kernels are tested against.

``max_abs`` is NaN if any entry is NaN, and the deviation helpers elsewhere in
the package take their maxima the same way, so a NaN is never masked.
"""

from __future__ import annotations

import math

from .errors import FibreTransportError

Vec = tuple[float, ...]
Mat = tuple[tuple[float, ...], ...]


def identity(n: int) -> Mat:
    return tuple(tuple(1.0 if i == j else 0.0 for j in range(n)) for i in range(n))


def matvec(m: Mat, v: Vec) -> Vec:
    if len(m[0]) != len(v):
        raise FibreTransportError(
            f"matrix is {len(m)}x{len(m[0])}, vector has length {len(v)}")
    if len(v) == 2 == len(m):
        (m00, m01), (m10, m11) = m
        x, y = v
        return (0 + m00 * x + m01 * y, 0 + m10 * x + m11 * y)
    return tuple(sum(row[j] * v[j] for j in range(len(v))) for row in m)


def matmul(a: Mat, b: Mat) -> Mat:
    if len(a[0]) != len(b):
        raise FibreTransportError("inner dimensions differ")
    if len(b) == 2 == len(a) == len(b[0]):
        (a00, a01), (a10, a11) = a
        (b00, b01), (b10, b11) = b
        return ((0 + a00 * b00 + a01 * b10, 0 + a00 * b01 + a01 * b11),
                (0 + a10 * b00 + a11 * b10, 0 + a10 * b01 + a11 * b11))
    cols = range(len(b[0]))
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(len(b))) for j in cols)
        for i in range(len(a))
    )


def transpose(m: Mat) -> Mat:
    return tuple(tuple(m[i][j] for i in range(len(m))) for j in range(len(m[0])))


def lin_comb(lam: float, u: Vec, mu: float, v: Vec) -> Vec:
    if len(u) != len(v):
        raise FibreTransportError("vectors have different lengths")
    if len(u) == 2:
        return (lam * u[0] + mu * v[0], lam * u[1] + mu * v[1])
    return tuple(lam * u[i] + mu * v[i] for i in range(len(u)))


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
    if len(u) == 2:
        return 0 + u[0] * v[0] + u[1] * v[1]
    return sum(u[i] * v[i] for i in range(len(u)))


def solve(m: Mat, rhs: Vec) -> Vec:
    """Solve m x = rhs by Gauss elimination with partial pivoting."""
    n = len(m)
    if len(rhs) != n:
        raise FibreTransportError("right-hand side length differs from matrix size")
    if n == 2:
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
    a = [list(row) + [rhs[i]] for i, row in enumerate(m)]
    for col in range(n):
        piv = max(range(col, n), key=lambda r: abs(a[r][col]))
        if a[piv][col] == 0.0:
            raise ZeroDivisionError("singular matrix")
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
        for r in range(n):
            if r != col and a[r][col] != 0.0:
                f = a[r][col] / a[col][col]
                for c in range(col, n + 1):
                    a[r][c] -= f * a[col][c]
    return tuple(a[i][n] / a[i][i] for i in range(n))


def inverse(m: Mat) -> Mat:
    n = len(m)
    if n == 2:
        (a, c), (b, d) = solve(m, (1.0, 0.0)), solve(m, (0.0, 1.0))
        return ((a, b), (c, d))
    cols = [solve(m, tuple(1.0 if i == j else 0.0 for i in range(n))) for j in range(n)]
    return transpose(tuple(cols))


def rotation(angle: float) -> Mat:
    c, s = math.cos(angle), math.sin(angle)
    return ((c, -s), (s, c))


def rotation_angle(m: Mat) -> float:
    """Angle of a 2x2 matrix that is (close to) a rotation."""
    return math.atan2(m[1][0], m[0][0])
