"""Fixed-step RK4 propagators for linear, parameter-dependent ODE systems.

The right-hand side is u' = A(r) u with A supplied as a callable.  Three
details matter more than the integrator itself:

* The abscissa lattice is fixed.  Its nodes are k * step for integer k, and a
  cell between two neighbouring nodes is cut only at the path's breakpoints,
  so no RK4 step straddles a kink.  The lattice depends on none of s, t or
  the path's domain: a transport from s to t is one partial step from s to
  the first node, the cells in between in a fixed order, and one partial
  step from the last node to t.
* A cell's propagator (one RK4 step applied to the identity) depends only on
  the point map, the velocity, the cell and the direction of travel.
  ``CellStore`` keeps the propagators of whole lattice cells once they are
  built, so later transports reuse them.  A restriction of a path shares its
  point map and velocity, and so replays bit-identical arithmetic, which is
  what lets locality checks demand deviation zero even for numeric
  transports.
* Stage evaluations at cell ends pass a side hint so that velocity kinks
  (concatenation seams) never leak the wrong one-sided derivative into a
  stage: a cell's start is read from inside the cell, its end likewise, its
  midpoint with side 0.  Away from breakpoints the side is ignored, so the
  end matrix of one cell doubles as the start matrix of the next one.
"""

from __future__ import annotations

import math
from array import array
from itertools import chain
from typing import Callable, Iterable, Sequence

CoefficientFn = Callable[[float, int], Sequence[Sequence[float]]]


def _rk4_step(a0, am, a1, h: float) -> tuple[float, ...]:
    """One RK4 step of size h applied to the identity, for any n."""
    n = len(a0)
    eye = [1.0 if i == j else 0.0 for i in range(n) for j in range(n)]

    def times(a, x):
        return [sum(a[i][k] * x[k * n + j] for k in range(n))
                for i in range(n) for j in range(n)]

    def shifted(c, k):
        return [e + c * y for e, y in zip(eye, k)]

    k1 = [c for row in a0 for c in row]
    k2 = times(am, shifted(h / 2.0, k1))
    k3 = times(am, shifted(h / 2.0, k2))
    k4 = times(a1, shifted(h, k3))
    return tuple(e + h / 6.0 * (w + 2.0 * x + 2.0 * y + z)
                 for e, w, x, y, z in zip(eye, k1, k2, k3, k4))


def _rk4_step2(a0, am, a1, h: float) -> tuple[float, ...]:
    """``_rk4_step`` unrolled for n = 2, in the same order of operations."""
    (k00, k01), (k10, k11) = a0
    (m00, m01), (m10, m11) = am
    (e00, e01), (e10, e11) = a1
    g = h / 2.0
    x00, x01, x10, x11 = 1.0 + g * k00, g * k01, g * k10, 1.0 + g * k11
    p00, p01 = m00 * x00 + m01 * x10, m00 * x01 + m01 * x11
    p10, p11 = m10 * x00 + m11 * x10, m10 * x01 + m11 * x11
    x00, x01, x10, x11 = 1.0 + g * p00, g * p01, g * p10, 1.0 + g * p11
    q00, q01 = m00 * x00 + m01 * x10, m00 * x01 + m01 * x11
    q10, q11 = m10 * x00 + m11 * x10, m10 * x01 + m11 * x11
    x00, x01, x10, x11 = 1.0 + h * q00, h * q01, h * q10, 1.0 + h * q11
    r00, r01 = e00 * x00 + e01 * x10, e00 * x01 + e01 * x11
    r10, r11 = e10 * x00 + e11 * x10, e10 * x01 + e11 * x11
    c = h / 6.0
    return (1.0 + c * (k00 + 2.0 * p00 + 2.0 * q00 + r00),
            c * (k01 + 2.0 * p01 + 2.0 * q01 + r01),
            c * (k10 + 2.0 * p10 + 2.0 * q10 + r10),
            1.0 + c * (k11 + 2.0 * p11 + 2.0 * q11 + r11))


def rk4_linear_flow(coeff: CoefficientFn, s: float, t: float,
                    nodes: Iterable[float] = ()) -> array:
    """RK4 propagators of u' = A(r) u over the cells of s, *nodes, t.

    ``coeff(r, side)`` returns the matrix A at parameter r; ``side`` is the
    direction of travel at a cell's start, its opposite at a cell's end, and
    0 at the midpoint, so the derivative is always taken from inside the
    cell.  ``nodes`` lie strictly between s and t, in the order of travel,
    and A must not jump at any of them: the end matrix of each cell is
    carried over as the start matrix of the next.  Returns the propagators
    in the order of travel, n * n entries each, row-major, in one flat
    array.
    """
    d = 1 if t > s else -1
    props = array("d")
    a0 = coeff(s, d)
    a = s
    for b in chain(nodes, (t,)):
        h = b - a
        am = coeff(a + h / 2.0, 0)
        a1 = coeff(b, -d)
        props.extend((_rk4_step2 if len(a0) == 2 else _rk4_step)(a0, am, a1, h))
        a, a0 = b, a1
    return props


def _apply_propagators(m: array, offsets: range,
                       v: tuple[float, ...]) -> tuple[float, ...]:
    """v after the propagators starting at ``offsets`` of m, in that order."""
    n = len(v)
    if n == 2:
        x, y = v
        for o in offsets:
            x, y = m[o] * x + m[o + 1] * y, m[o + 2] * x + m[o + 3] * y
        return (x, y)
    for o in offsets:
        v = tuple(sum(m[o + i * n + j] * v[j] for j in range(n))
                  for i in range(n))
    return v


def _node_above(x: float, step: float) -> int:
    """The least k with k * step >= x."""
    k = math.ceil(x / step)
    while (k - 1) * step >= x:
        k -= 1
    while k * step < x:
        k += 1
    return k


def _node_below(x: float, step: float) -> int:
    """The greatest k with k * step <= x."""
    k = math.floor(x / step)
    while (k + 1) * step <= x:
        k += 1
    while k * step > x:
        k -= 1
    return k


class CellStore:
    """Propagators of the whole lattice cells of one point map, velocity and
    direction of travel d.

    Positions are read in the direction of travel, x' = d * x, so that node
    k sits at x' = k * step and cell k runs from node k to node k + 1 in
    both directions.  A cell's n * n entries sit at a fixed offset of one
    flat array of doubles; ``built`` marks the cells computed so far.
    Cells cut by a breakpoint and the partial steps at either end of a
    transport are integrated afresh each time.
    """

    def __init__(self, n: int, step: float, d: int) -> None:
        self.size = n * n
        self.step = step
        self.d = d
        self.base = 0                 # index of the cell in the first slot
        self.mats = array("d")
        self.built = bytearray()

    def _cover(self, k0: int, k1: int) -> None:
        """Give cells k0 .. k1 - 1 a slot."""
        if not self.built:
            self.base = k0
        if k0 < self.base:
            pad = self.base - k0
            self.mats[:0] = array("d", (0.0,)) * (self.size * pad)
            self.built[:0] = bytes(pad)
            self.base = k0
        pad = k1 - self.base - len(self.built)
        if pad > 0:
            self.mats.extend(array("d", (0.0,)) * (self.size * pad))
            self.built.extend(bytes(pad))

    def transport(self, build: Callable[[float, float, Iterable[float]], array],
                  s: float, t: float, kinks: Sequence[float],
                  u: Sequence[float]) -> tuple[float, ...]:
        """Carry u from s to t over the lattice.

        ``kinks`` are the breakpoints strictly between s and t in the order
        of travel.  ``build(a, b, nodes)`` is ``rk4_linear_flow`` over the
        stretch a, *nodes, b.  Each run of cells not stored yet between two
        breakpoints, with the partial steps next to it, goes through one
        call, so a matrix is carried across lattice nodes but never across
        a breakpoint.
        """
        d, h = self.d, self.step
        s, t = d * s, d * t
        self._cover(math.floor(s / h) - 1, math.ceil(t / h) + 1)
        v = tuple(float(c) for c in u)
        stops = [s, *(d * b for b in kinks), t]
        for a, b in zip(stops, stops[1:]):
            i, j = _node_above(a, h), _node_below(b, h)
            if i > j:                 # no node between two stops
                v = _apply_propagators(build(d * a, d * b, ()),
                                       range(0, self.size, self.size), v)
                continue
            x, k = a, i
            while True:
                gap = self.built.find(1, k - self.base, j - self.base)
                m = j if gap < 0 else gap + self.base
                v = self._integrate(build, x, k, m, b if m == j else m * h, v)
                if m == j:
                    break
                k, v = self._sweep(m, j, v)
                x = k * h
        return v

    def _integrate(self, build, x: float, k0: int, k1: int, y: float,
                   v: tuple) -> tuple:
        """Integrate from x through nodes k0 .. k1 to y, where k0 * step >= x
        and k1 * step <= y, store cells k0 .. k1 - 1, and apply it all."""
        if x == y:
            return v
        d, h, size = self.d, self.step, self.size
        head = x != k0 * h                     # a partial step up to node k0
        first = k0 if head else k0 + 1         # nodes strictly inside (x, y)
        last = k1 if y != k1 * h else k1 - 1
        props = build(d * x, d * y,
                      (d * (k * h) for k in range(first, last + 1)))
        if k1 > k0:
            at = size if head else 0
            slot = (k0 - self.base) * size
            self.mats[slot:slot + (k1 - k0) * size] = \
                props[at:at + (k1 - k0) * size]
            self.built[k0 - self.base:k1 - self.base] = b"\x01" * (k1 - k0)
        return _apply_propagators(props, range(0, len(props), size), v)

    def _sweep(self, k: int, j: int, v: tuple) -> tuple[int, tuple]:
        """Apply the stored cells from cell k on, up to the first one not
        built or node j; return the node reached and the vector there."""
        stop = self.built.find(0, k - self.base, j - self.base)
        stop = j - self.base if stop < 0 else stop
        size = self.size
        v = _apply_propagators(self.mats, range((k - self.base) * size,
                                                stop * size, size), v)
        return stop + self.base, v
