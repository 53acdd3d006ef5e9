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
  built, so later transports reuse them, and beside them the products of
  aligned blocks of 2**L cells.  Every block whose cells are all built is
  built, so a run of cells from node i to node j is applied as the same
  greedy split into about 2 * log2(j - i) aligned blocks whatever ran
  before.  A restriction of a path shares its point map and velocity, and
  so replays bit-identical arithmetic, which is what lets locality checks
  demand deviation zero even for numeric transports.
* Stage evaluations at cell ends pass a side hint so that velocity kinks
  (concatenation seams) never leak the wrong one-sided derivative into a
  stage: a cell's start is read from inside the cell, its end likewise, its
  midpoint with side 0.  Away from breakpoints the side is ignored, so the
  end matrix of one cell doubles as the start matrix of the next one.
* The flow checks nothing about A.  A non-finite coefficient makes its
  cell's propagator non-finite, so a caller checks the propagators once per
  flow (``instances.linear_ode_transport`` does, and replays a flow that
  fails with every stage checked).
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
    step = _rk4_step2 if len(a0) == 2 else _rk4_step
    a = s
    for b in chain(nodes, (t,)):
        h = b - a
        am = coeff(a + h / 2.0, 0)
        a1 = coeff(b, -d)
        props.extend(step(a0, am, a1, h))
        a, a0 = b, a1
    return props


def _apply_propagators(steps: Iterable[tuple[array, int]],
                       v: tuple[float, ...]) -> tuple[float, ...]:
    """v after the propagators ``m[o:o + n * n]`` of each (m, o) in steps,
    in that order."""
    n = len(v)
    if n == 2:
        x, y = v
        for m, o in steps:
            x, y = m[o] * x + m[o + 1] * y, m[o + 2] * x + m[o + 3] * y
        return (x, y)
    for m, o in steps:
        v = tuple(sum(m[o + i * n + j] * v[j] for j in range(n))
                  for i in range(n))
    return v


def _pair_products(m: array, n: int) -> array:
    """The products B A of the consecutive pairs (A, B) of n * n propagators
    in m: A applied first, then B."""
    it = iter(m)
    out = array("d")
    if n == 2:
        put = out.append
        for a00, a01, a10, a11, b00, b01, b10, b11 in zip(*(it,) * 8):
            put(b00 * a00 + b01 * a10)
            put(b00 * a01 + b01 * a11)
            put(b10 * a00 + b11 * a10)
            put(b10 * a01 + b11 * a11)
        return out
    size = n * n
    for ab in zip(*(it,) * (2 * size)):
        a, b = ab[:size], ab[size:]
        out.extend(sum(b[i * n + k] * a[k * n + j] for k in range(n))
                   for i in range(n) for j in range(n))
    return out


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
    direction of travel d, and the products of aligned blocks of them.

    Positions are read in the direction of travel, x' = d * x, so that node
    k sits at x' = k * step and cell k runs from node k to node k + 1 in
    both directions.  Level 0 holds the cells; level L holds block m, the
    product of cells m * 2**L .. (m + 1) * 2**L - 1 in the order of travel,
    which is the product of blocks 2m and 2m + 1 of level L - 1.  Each
    level keeps its n * n entries per slot in one flat array of doubles,
    ``built`` marks the slots computed so far, and ``base`` is the index in
    its first slot.

    Invariant: every block whose cells are all built is built.  Each run of
    cells a transport stores is followed by the blocks it completes, level
    by level.  A transport builds the cells it lacks first and then applies
    the cells from node i to node j as the greedy split of [i, j) into
    aligned blocks, about 2 * log2(j - i) of them.  That split depends only
    on (i, j), so a transport replays the same arithmetic whichever
    transports came before, and so does any restriction of the path.
    Cells cut by a breakpoint and the partial steps at either end of a
    transport are integrated afresh each time.
    """

    def __init__(self, n: int, step: float, d: int) -> None:
        self.n = n
        self.size = n * n
        self.step = step
        self.d = d
        self.mats = [array("d")]
        self.built = [bytearray()]
        self.base = [0]

    def _cover(self, level: int, k0: int, k1: int) -> None:
        """Give slots k0 .. k1 - 1 of ``level`` a place, adding the level
        if it is the next one up."""
        if level == len(self.mats):
            self.mats.append(array("d"))
            self.built.append(bytearray())
            self.base.append(0)
        mats, built = self.mats[level], self.built[level]
        if not built:
            self.base[level] = k0
        base = self.base[level]
        if k0 < base:
            pad = base - k0
            mats[:0] = array("d", (0.0,)) * (self.size * pad)
            built[:0] = bytes(pad)
            self.base[level] = base = k0
        pad = k1 - base - len(built)
        if pad > 0:
            mats.extend(array("d", (0.0,)) * (self.size * pad))
            built.extend(bytes(pad))

    def _has(self, level: int, k: int) -> bool:
        """Whether slot k of ``level`` is built."""
        at = k - self.base[level]
        return 0 <= at < len(self.built[level]) and self.built[level][at] == 1

    def transport(self, build: Callable[[float, float, Iterable[float]], array],
                  s: float, t: float, kinks: Sequence[float],
                  u: Sequence[float]) -> tuple[float, ...]:
        """Carry u from s to t over the lattice.

        ``kinks`` are the breakpoints strictly between s and t in the order
        of travel.  ``build(a, b, nodes)`` is ``rk4_linear_flow`` over the
        stretch a, *nodes, b.  Between two breakpoints, each run of cells
        not stored yet goes through one call with the partial steps next
        to it, so a matrix is carried across lattice nodes but never across
        a breakpoint; then the stretch is applied as its head partial step,
        the blocks over its whole cells and its tail partial step.
        """
        d, h = self.d, self.step
        s, t = d * s, d * t
        self._cover(0, math.floor(s / h) - 1, math.ceil(t / h) + 1)
        v = tuple(float(c) for c in u)
        stops = [s, *(d * b for b in kinks), t]
        for a, b in zip(stops, stops[1:]):
            i, j = _node_above(a, h), _node_below(b, h)
            if i > j:                 # no node between two stops
                v = _apply_propagators(((build(d * a, d * b, ()), 0),), v)
            else:
                v = _apply_propagators(self._steps(build, a, i, j, b), v)
        return v

    def _steps(self, build, a: float, i: int, j: int, b: float) -> list:
        """Store the cells from node i to node j that are not built yet and
        return the propagators from a to b: a partial step up to node i,
        the blocks over cells i .. j - 1 and a partial step from node j."""
        d, h, size = self.d, self.step, self.size
        built, base = self.built[0], self.base[0]
        head = tail = ()
        x, k = a, i
        while True:
            gap = built.find(1, k - base, j - base)
            m = j if gap < 0 else gap + base
            y = b if m == j else m * h
            if x != y:
                first = k if x != k * h else k + 1   # nodes inside (x, y)
                last = m if y != m * h else m - 1
                props = build(d * x, d * y,
                              (d * (q * h) for q in range(first, last + 1)))
                at = size if x != k * h else 0
                if at:
                    head = ((props, 0),)
                if y != m * h:
                    tail = ((props, len(props) - size),)
                if m > k:
                    slot = (k - base) * size
                    self.mats[0][slot:slot + (m - k) * size] = \
                        props[at:at + (m - k) * size]
                    built[k - base:m - base] = b"\x01" * (m - k)
                    self._blocks(k, m)
            if m == j:
                break
            stop = built.find(0, m - base, j - base)
            k = j if stop < 0 else stop + base
            x = k * h
        return [*head, *self._split(i, j), *tail]

    def _blocks(self, k0: int, k1: int) -> None:
        """Build the blocks that cells k0 .. k1 - 1, just stored, complete."""
        level, n, size = 0, self.n, self.size
        while True:
            lo, hi = k0 >> 1, (k1 + 1) >> 1
            if k0 & 1 and not self._has(level, k0 - 1):
                lo += 1
            if k1 & 1 and not self._has(level, k1):
                hi -= 1
            if lo >= hi:
                return
            base = self.base[level]
            products = _pair_products(
                self.mats[level][(2 * lo - base) * size:(2 * hi - base) * size], n)
            # each level spans the cells' slots, so it is padded when they are
            lo0, hi0 = self.base[0], self.base[0] + len(self.built[0])
            level += 1
            self._cover(level, lo0 >> level, ((hi0 - 1) >> level) + 1)
            base = self.base[level]
            self.mats[level][(lo - base) * size:(hi - base) * size] = products
            self.built[level][lo - base:hi - base] = b"\x01" * (hi - lo)
            k0, k1 = lo, hi

    def _split(self, i: int, j: int) -> list[tuple[array, int]]:
        """The blocks over cells i .. j - 1 in the order of travel: at each
        cell k the largest aligned block that starts there and fits."""
        mats, base, size = self.mats, self.base, self.size
        out = []
        k = i
        while k < j:
            level = (j - k).bit_length() - 1
            low = (k & -k).bit_length() - 1
            if 0 <= low < level:
                level = low
            out.append((mats[level], ((k >> level) - base[level]) * size))
            k += 1 << level
        return out
