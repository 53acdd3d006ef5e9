"""Small dense linear algebra on tuples of floats.

Fibres in this library are tiny (dimension 2 in every shipped instance), so
vectors are plain tuples and matrices are tuples of row tuples.  Keeping the
arithmetic in scalar floats makes results reproducible to the bit, which the
exactness guarantees of the discrete instances rely on.
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
    return tuple(sum(row[j] * v[j] for j in range(len(v))) for row in m)


def matmul(a: Mat, b: Mat) -> Mat:
    if len(a[0]) != len(b):
        raise FibreTransportError("inner dimensions differ")
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
    return tuple(lam * u[i] + mu * v[i] for i in range(len(u)))


def vec_sub(u: Vec, v: Vec) -> Vec:
    return tuple(u[i] - v[i] for i in range(len(u)))


def max_abs(v: Vec) -> float:
    return max(abs(x) for x in v) if v else 0.0


def dot(u: Vec, v: Vec) -> float:
    return sum(u[i] * v[i] for i in range(len(u)))


def solve(m: Mat, rhs: Vec) -> Vec:
    """Solve m x = rhs by Gauss elimination with partial pivoting."""
    n = len(m)
    if len(rhs) != n:
        raise FibreTransportError("right-hand side length differs from matrix size")
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
    cols = [solve(m, tuple(1.0 if i == j else 0.0 for i in range(n))) for j in range(n)]
    return transpose(tuple(cols))


def rotation(angle: float) -> Mat:
    c, s = math.cos(angle), math.sin(angle)
    return ((c, -s), (s, c))


def rotation_angle(m: Mat) -> float:
    """Angle of a 2x2 matrix that is (close to) a rotation."""
    return math.atan2(m[1][0], m[0][0])
