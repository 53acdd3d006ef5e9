"""Fourth-order Magnus propagators for linear, parameter-dependent ODE systems.

The right-hand side is u' = A(r) u with A supplied as a callable.  A cell of
signed length h from a is propagated by exp(Omega), Omega = (h / 2)(A1 + A2)
+ (sqrt(3) / 12) h**2 [A2, A1], with A1 and A2 the values of A at the
Gauss-Legendre nodes a + h (1/2 -+ sqrt(3)/6) in the order of travel
(Iserles and Norsett 1999; Blanes, Casas, Oteo and Ros, Phys. Rep. 2009).

* The lattice is fixed: its nodes are k * step, and a cell between two
  neighbouring nodes is cut only at the path's breakpoints.  A transport
  from s to t is a partial step up to the first node, the cells in between
  and a partial step from the last node.  The Gauss nodes lie inside a
  cell, so A is never read at a kink and nothing passes between cells.
* A cell's propagator depends only on the point map, the velocity, the cell
  and the direction of travel.  ``CellStore`` keeps whole cells' propagators
  and the products of aligned blocks of 2**L cells, and applies a run of
  cells as one split into about 2 * log2(cells) blocks whatever ran before,
  so a restriction of a path replays the same bits: locality checks demand
  deviation zero even for numeric transports.
* The flow checks nothing about A.  A non-finite coefficient, or an Omega
  whose exponential overflows, makes its cell's propagator non-finite, so a
  caller checks the propagators once per flow (``instances`` does, and
  replays a flow that fails with every stage checked).
"""

from __future__ import annotations

import math
from array import array
from itertools import chain
from typing import Callable, Iterable, Sequence

# Gauss-Legendre nodes on [0, 1] and the weight of Omega's commutator term.
_NODE1, _NODE2 = 0.5 - math.sqrt(3.0) / 6.0, 0.5 + math.sqrt(3.0) / 6.0
_BRACKET = math.sqrt(3.0) / 12.0


def _exp2(o00: float, o01: float, o10: float, o11: float) -> tuple:
    """exp of ((o00, o01), (o10, o11)), row-major, in closed form: with tau
    half the trace and N the traceless part, N**2 = delta * I, so it is
    e**tau (c I + f N).  Non-finite entries or an overflow give non-finite
    entries, never an exception."""
    tau, n = 0.5 * (o00 + o11), 0.5 * (o00 - o11)
    delta = n * n + o01 * o10
    r = math.sqrt(abs(delta))
    try:
        if delta > 0.0:
            c, f = math.cosh(r), math.sinh(r) / r
        elif delta < 0.0:
            c, f = math.cos(r), math.sin(r) / r
        else:                         # delta is 0, or NaN
            c = f = 1.0
        e = math.exp(tau)
    except (OverflowError, ValueError):
        return (math.nan,) * 4
    c, f = e * c, e * f
    return (c + f * n, f * o01, f * o10, c - f * n)


def _cell2(a1, a2, h: float) -> tuple[float, ...]:
    """The Magnus propagator of one cell at n = 2."""
    ((p00, p01), (p10, p11)), ((q00, q01), (q10, q11)) = a1, a2
    g, k = 0.5 * h, _BRACKET * h * h
    d = k * (q01 * p10 - p01 * q10)   # [A2, A1] is traceless
    return _exp2(g * (p00 + q00) + d,
                 g * (p01 + q01) + k * (p01 * (q00 - q11) - q01 * (p00 - p11)),
                 g * (p10 + q10) + k * (q10 * (p00 - p11) - p10 * (q00 - q11)),
                 g * (p11 + q11) - d)


def _cell(a1, a2, h: float) -> tuple[float, ...]:
    """The Magnus propagator of one cell, for any n."""
    n = len(a1)
    g, k = 0.5 * h, _BRACKET * h * h
    return _expm([g * (a1[i][j] + a2[i][j])
                  + k * sum(a2[i][m] * a1[m][j] - a1[i][m] * a2[m][j]
                            for m in range(n))
                  for i in range(n) for j in range(n)], n)


def _matmul(x: Sequence[float], y: Sequence[float], n: int) -> list[float]:
    return [sum(x[i * n + m] * y[m * n + j] for m in range(n))
            for i in range(n) for j in range(n)]


def _expm(o: Sequence[float], n: int) -> tuple[float, ...]:
    """exp of the n * n matrix o, row-major: o scaled by 2**-q to a row-sum
    norm below 1, its Taylor polynomial of degree 18 in Horner form (the
    remainder is below 1 / 19!, under 2**-55), squared q times."""
    norm = max(sum(map(abs, o[i:i + n])) for i in range(0, n * n, n))
    q = max(0, math.frexp(norm)[1])
    x = [math.ldexp(c, -q) for c in o]
    eye = total = [float(i == j) for i in range(n) for j in range(n)]
    for k in range(18, 0, -1):
        total = [e + c / k for e, c in zip(eye, _matmul(x, total, n))]
    for _ in range(q):
        total = _matmul(total, total, n)
    return tuple(total)


# Named for the RK4 flow it replaced: the benchmark traces it by this name.
def rk4_linear_flow(coeff: Callable[[float], Sequence[Sequence[float]]],
                    s: float, t: float, nodes: Iterable[float] = ()) -> array:
    """Magnus propagators of u' = A(r) u over the cells of s, *nodes, t.

    ``coeff(r)`` is A at r, read at each cell's two Gauss nodes in the order
    of travel, never at s, t or a node, so A may jump at any of them.
    ``nodes`` lie strictly between s and t in the order of travel.  Returns
    the propagators in that order, n * n entries each, row-major, in one
    flat array."""
    props = array("d")
    a = s
    for b in chain(nodes, (t,)):
        h = b - a
        a1, a2 = coeff(a + h * _NODE1), coeff(a + h * _NODE2)
        props.extend((_cell2 if len(a1) == 2 else _cell)(a1, a2, h))
        a = b
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
        out.extend(_matmul(ab[size:], ab[:size], n))
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
    return -_node_above(-x, step)


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
        of travel; ``build(a, b, nodes)`` is ``rk4_linear_flow`` over a,
        *nodes, b.  Between two breakpoints, each run of cells not stored
        yet is built in one call with the partial steps next to it; the
        stretch is applied as its head partial step, the blocks over its
        whole cells and its tail partial step."""
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
