"""Paths in a base space and the algebra that rearranges them.

A path is a map from a closed real interval into a base space.  The library
never needs smoothness from a path, only evaluation; everything else here is
bookkeeping that the transport laws quantify over:

* restriction to a subinterval,
* reparameterization by a closed-form monotone bijection between intervals
  (affine, or affine in the square of the source fraction; orientation
  preserving or reversing), with the canonical reversal s -> 1 - s on [0, 1],
* concatenation of two or more paths over [0, 1], path i of n running over
  the equal share [i/n, (i+1)/n].

A path is one raw map, its jet: ``jet(s)`` gives the point at s and the
velocity d(coords)/ds there, the pair a transport's coefficients read.  A
chart path's point is its (theta, phi) pair, which ``Path.at`` wraps in a
``BasePoint``; its jet must give an analytic velocity, a pair as well (both
checked at construction), and a reparameterization carries the derivative
``deriv`` of its forward map, so derived paths push velocities through by
the chain rule.  A discrete path's jet gives a node point (checked at
construction) and the velocity None.  Paths carry two optional pieces of
structure as well: ``breakpoints`` (parameters where the point map may kink
or jump, so exact integrators can split there) and ``crossings`` (declared
self-intersection parameter pairs of chart paths; discrete paths find their
self-intersections by enumeration instead).

Breakpoint convention for piecewise-constant paths: the value at an interior
breakpoint belongs to the piece on the right, so [n0 on [0, .5), n1 on [.5, 1]]
evaluates to n1 at 0.5.  Compositions preserve evaluation semantics exactly
because a derived path evaluates through the original jet.  A parameter is
checked once, at the public entry (``Path.at``, ``Path.velocity``,
``node_sequence``, or the transport itself): the walkers read the points
between their checked ends through the raw jet, or from the midpoint of
each piece a discrete path tabulates when it is built, and derived layers
call their parent's raw ``jet`` with the remapped parameter snapped into
its domain: a closed-form image of an exact end can still land an ulp
outside it.
"""

from __future__ import annotations

import bisect
import math
from collections import namedtuple
from itertools import groupby
from operator import attrgetter
from typing import Callable, Sequence

from .bundles import (COORD_TOL, SAME_POINT_TOL, BasePoint, graph_point,
                      point_deviation)
from .errors import FibreTransportError

# Parameters this close to a domain edge are snapped onto it: float images of
# exact endpoints under affine maps can land an ulp outside.
EDGE_SLACK = 1e-9

# Two intervals or parameters are "the same" below this gap.
EXACT = 1e-12


class Interval(namedtuple("Interval", "lo hi")):
    __slots__ = ()

    def __new__(cls, lo: float, hi: float) -> Interval:
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise FibreTransportError("interval ends must be finite")
        if lo > hi:
            raise FibreTransportError(f"empty interval [{lo}, {hi}]")
        return tuple.__new__(cls, (lo, hi))

    @property
    def width(self) -> float:
        return self.hi - self.lo

    def contains(self, s: float, slack: float = EDGE_SLACK) -> bool:
        return self.lo - slack <= s <= self.hi + slack

    def clamp(self, s: float) -> float:
        if self.lo <= s <= self.hi:
            return s
        if not self.contains(s):
            raise FibreTransportError(f"{s} outside [{self.lo}, {self.hi}]")
        return min(max(s, self.lo), self.hi)

    def contains_interval(self, other: "Interval") -> bool:
        return other.lo >= self.lo - EXACT and other.hi <= self.hi + EXACT

    def same_as(self, other: "Interval") -> bool:
        return max(abs(self.lo - other.lo), abs(self.hi - other.hi)) <= EXACT

    def samples(self, n: int) -> list[float]:
        if n <= 1:
            return [self.lo]
        return [self.lo + self.width * i / (n - 1) for i in range(n)]


UNIT = Interval(0.0, 1.0)


# ---------------------------------------------------------------------------
# Reparameterizations
# ---------------------------------------------------------------------------

class Reparameterization(namedtuple(
        "Reparameterization",
        "source target reversing squared name coefficients")):
    """A strictly monotone bijection between two parameter intervals.

    The map is closed-form: affine, or with ``squared`` affine in u*u, where
    u = (s - source.lo) / source.width is the source fraction.  It runs from
    source.lo to target.lo, or to target.hi when ``reversing``.  Every such
    map is onto and strictly monotone, so only degenerate intervals are
    refused, and so are flags that are not bools.  ``fwd`` maps source ->
    target, ``inv`` is its inverse and ``deriv`` the derivative of ``fwd``,
    which derived paths use to push analytic velocities through; all three
    read ``coefficients``, (a, c, k) with fwd(s) = c + (s - a) * k, or
    c + (s - a)**2 * k when ``squared``.  That field is derived here from
    the others and is never passed, so equal remaps are the same map.
    """

    __slots__ = ()

    def __new__(cls, source: Interval, target: Interval, *,
                reversing: bool = False, squared: bool = False,
                name: str = "remap") -> Reparameterization:
        if not (isinstance(reversing, bool) and isinstance(squared, bool)):
            raise FibreTransportError(
                f"{name}: reversing and squared must be bools")
        w, k = source.width, target.width
        if w <= 0.0 or k <= 0.0:
            raise FibreTransportError(
                f"{name}: remaps need non-degenerate intervals")
        c = target.lo
        if reversing:
            c, k = target.hi, -k
        coefficients = (source.lo, c, k / (w * w if squared else w))
        return tuple.__new__(cls, (source, target, reversing, squared, name,
                                   coefficients))

    def fwd(self, s: float) -> float:
        a, c, k = self.coefficients
        if self.squared:
            return c + (s - a) * (s - a) * k
        return c + (s - a) * k

    def inv(self, t: float) -> float:
        a, c, k = self.coefficients
        if self.squared:
            return a + math.sqrt((t - c) / k)
        return a + (t - c) / k

    def deriv(self, s: float) -> float:
        a, c, k = self.coefficients
        return 2.0 * k * (s - a) if self.squared else k

    def apply(self, s: float) -> float:
        # target.clamp(fwd(source.clamp(s))): clamp returns a parameter in
        # range as it is, so only one out of range is handed to it
        lo, hi = self.source
        if not lo <= s <= hi:
            s = self.source.clamp(s)
        r = self.fwd(s)
        lo, hi = self.target
        return r if lo <= r <= hi else self.target.clamp(r)

    def invert_param(self, t: float) -> float:
        return self.source.clamp(self.inv(self.target.clamp(t)))


def affine_remap(source: Interval, target: Interval, reversing: bool = False,
                 name: str = "affine") -> Reparameterization:
    return Reparameterization(source, target, reversing=reversing, name=name)


def square_remap() -> Reparameterization:
    """The orientation-preserving bijection s -> s*s of [0, 1] onto itself."""
    return Reparameterization(UNIT, UNIT, squared=True, name="square")


def canonical_reversal() -> Reparameterization:
    """s -> 1 - s on [0, 1]: the canonical orientation-reversing bijection."""
    return Reparameterization(UNIT, UNIT, reversing=True, name="reversal")


# ---------------------------------------------------------------------------
# Paths
# ---------------------------------------------------------------------------

class Path(namedtuple("Path", "space domain jet kind breakpoints crossings "
                      "name piece_points")):
    """A parameterized path in one base space.

    ``kind`` is derived here and is never passed: "discrete" when the jet's
    point at ``domain.lo`` is a ``BasePoint``, and "chart" otherwise.
    ``jet(s)`` is the raw map: it must accept any parameter of ``domain``,
    checks nothing, and returns the point and d(coords)/ds there.  A chart
    path's jet gives its (theta, phi) pair and a velocity pair, and ``at``
    wraps the point in a ``BasePoint``; a discrete one's gives a node point
    and None, checked on its ``piece_points``.  ``at`` and ``velocity`` are
    the checked entries: they refuse a parameter outside the domain and
    snap one within EDGE_SLACK onto its edge.

    ``piece_points`` is tabulated here from the other fields and is never
    passed: for a discrete path, the jet's point at the midpoint
    0.5 * (a + b) of each piece [a, b] between consecutive cuts (the domain
    ends and the breakpoints), or at lo on a one-point domain; () for a
    chart path.  The walkers read it instead of sampling the jet again, so
    a copy that changes the jet, domain or breakpoints is built through
    ``Path``, not ``_replace``.
    """

    __slots__ = ()

    def __new__(cls, space: str, domain: Interval,
                jet: Callable[[float],
                              tuple[BasePoint | tuple[float, ...],
                                    tuple[float, ...] | None]],
                breakpoints: tuple[float, ...] = (),
                crossings: tuple[tuple[float, float], ...] = (),
                name: str = "path") -> Path:
        x, v = jet(domain.lo)
        kind = "discrete" if isinstance(x, BasePoint) else "chart"
        if kind == "chart":
            if v is None:
                raise FibreTransportError(
                    f"chart path {name!r} needs a velocity")
            if len(x) != 2 or len(v) != 2:
                raise FibreTransportError(
                    f"chart path {name!r} must give a (theta, phi) point "
                    f"and velocity")
        for b in breakpoints:
            if not (domain.lo < b < domain.hi):
                raise FibreTransportError(
                    f"breakpoint {b} not interior to the domain")
        if list(breakpoints) != sorted(breakpoints):
            raise FibreTransportError("breakpoints must be sorted")
        piece_points = ()
        if kind == "discrete":
            lo, hi = domain
            cuts = (lo, *breakpoints, hi)
            piece_points = ((x,) if hi - lo <= 0.0 else tuple(
                [jet(0.5 * (a + b))[0] for a, b in zip(cuts, cuts[1:])]))
            for x in piece_points:
                if not isinstance(x, BasePoint) or x.node is None:
                    raise FibreTransportError(
                        f"discrete path {name!r} must give node points")
        return tuple.__new__(cls, (space, domain, jet, kind, breakpoints,
                                   crossings, name, piece_points))

    def at(self, s: float) -> BasePoint:
        domain = self.domain
        if not domain.lo <= s <= domain.hi:
            s = domain.clamp(s)
        x = self.jet(s)[0]
        return BasePoint(self.space, coords=x) if self.kind == "chart" else x

    def velocity(self, s: float) -> tuple[float, ...] | None:
        return self.jet(self.domain.clamp(s))[1]

    @property
    def start(self) -> BasePoint:
        return self.at(self.domain.lo)

    @property
    def end(self) -> BasePoint:
        return self.at(self.domain.hi)

    def interior_breakpoints(self, lo: float, hi: float) -> list[float]:
        bps = self.breakpoints  # sorted: lo < b < hi is one slice
        return list(bps[bisect.bisect_right(bps, lo):
                        bisect.bisect_left(bps, hi)])


def with_crossings(p: Path, pairs: Sequence[tuple[float, float]]) -> Path:
    """Attach declared self-intersection parameter pairs to a chart path.

    Each pair must close up under ``point_deviation``, which reads phi
    modulo 2*pi.
    """
    norm = tuple(sorted((min(r, s), max(r, s)) for r, s in pairs))
    for r, s in norm:
        if not (p.domain.contains(r) and p.domain.contains(s)):
            raise FibreTransportError("crossing parameters must lie in the domain")
        if point_deviation(p.at(r), p.at(s)) > SAME_POINT_TOL:
            raise FibreTransportError(
                f"declared crossing ({r}, {s}) does not close up")
    return p._replace(crossings=norm)


def piecewise_path(space: str, domain: Interval,
                   pieces: Sequence[tuple[float, str]], name: str = "path") -> Path:
    """A piecewise-constant path over graph nodes.

    ``pieces`` is a sequence of (until, node): the path sits at ``node`` up to
    parameter ``until``; the final ``until`` must equal the domain end.  The
    value at each interior breakpoint belongs to the following piece.
    """
    if not pieces:
        raise FibreTransportError("a piecewise path needs at least one piece")
    untils = [float(u) for u, _ in pieces]
    nodes = [str(n) for _, n in pieces]
    for a, b in zip(untils, untils[1:]):
        if not b > a:
            raise FibreTransportError(
                "piece boundaries must be strictly increasing")
    if abs(untils[-1] - domain.hi) > EXACT:
        raise FibreTransportError("last piece must end at the domain end")
    untils[-1] = domain.hi
    if untils[0] <= domain.lo:
        raise FibreTransportError("first piece must extend past the domain start")
    points = [graph_point(space, n) for n in nodes]
    cut = untils[:-1]

    def jet(s: float) -> tuple[BasePoint, None]:
        return points[bisect.bisect_right(cut, s)], None

    return Path(
        space=space, domain=domain, jet=jet, breakpoints=tuple(cut),
        name=name,
    )


# ---------------------------------------------------------------------------
# The algebra: restrict / reparameterize / reverse / concatenate
# ---------------------------------------------------------------------------

def restrict(p: Path, sub: Interval) -> Path:
    """The same point map considered over a subinterval of the domain."""
    if not p.domain.contains_interval(sub):
        raise FibreTransportError(
            f"[{sub.lo}, {sub.hi}] is not inside [{p.domain.lo}, {p.domain.hi}]"
        )
    bps = tuple(b for b in p.breakpoints if sub.lo < b < sub.hi)
    crossings = tuple(
        (r, s) for r, s in p.crossings if sub.contains(r, EXACT) and sub.contains(s, EXACT)
    )
    return Path(
        space=p.space, domain=sub, jet=p.jet, breakpoints=bps,
        crossings=crossings, name=f"{p.name}|[{sub.lo:g},{sub.hi:g}]",
    )


def reparameterize(p: Path, remap: Reparameterization) -> Path:
    """Precompose the path with a bijection onto its domain."""
    if not remap.target.same_as(p.domain):
        raise FibreTransportError(
            f"remap targets [{remap.target.lo}, {remap.target.hi}], "
            f"path domain is [{p.domain.lo}, {p.domain.hi}]"
        )

    lo, hi, snap, inner = p.domain.lo, p.domain.hi, p.domain.clamp, p.jet
    # fwd and deriv inlined: the jet runs at every integrator stage
    a, c, k = remap.coefficients
    squared = remap.squared

    # A chart velocity is a (theta, phi) pair scaled by the remap's
    # derivative m, as (v[0] * m, v[1] * m), which equals m * v[i] to the
    # bit: IEEE multiplication commutes.
    def jet(s: float):
        d = s - a
        r = c + d * d * k if squared else c + d * k
        x, v = inner(snap(r) if r < lo or r > hi else r)
        if v is None:
            return x, None
        m = 2.0 * k * d if squared else k
        return x, (v[0] * m, v[1] * m)

    bps = sorted(remap.invert_param(b) for b in p.breakpoints)
    bps = tuple(b for b in bps if remap.source.lo < b < remap.source.hi)
    crossings = tuple(sorted(
        tuple(sorted((remap.invert_param(r), remap.invert_param(s))))
        for r, s in p.crossings
    ))
    return Path(
        space=p.space, domain=remap.source, jet=jet, breakpoints=bps,
        crossings=crossings, name=f"{p.name}o{remap.name}",
    )


def reverse(p: Path) -> Path:
    """Run a canonically parameterized path backwards: s -> p(1 - s)."""
    if not p.domain.same_as(UNIT):
        raise FibreTransportError("reverse expects a path over [0, 1]")
    return reparameterize(p, canonical_reversal())


def share_remaps(paths: Sequence[Path]) -> list[Reparameterization]:
    """The affine maps of the equal shares [i/n, (i+1)/n] of [0, 1] onto the
    domains of the n paths ``concatenate`` glues, in order."""
    n = len(paths)
    return [affine_remap(Interval(i / n, (i + 1) / n), p.domain)
            for i, p in enumerate(paths)]


def concatenate(*paths: Path) -> Path:
    """The product path: traverse two or more paths in order over [0, 1].

    Path i of n runs over the equal share [i/n, (i+1)/n], mapped affinely
    onto its domain, so the seams sit at exactly i/n.  A seam's point is the
    left piece's and its velocity the right piece's.
    """
    if len(paths) < 2:
        raise FibreTransportError("concatenate needs at least two paths")
    first = paths[0]
    for p in paths[1:]:
        if p.space != first.space:
            raise FibreTransportError("paths must live in the same base space")
        if p.kind != first.kind:
            raise FibreTransportError(
                f"cannot glue a {p.kind} path to a {first.kind} path")
    for i, (p, q) in enumerate(zip(paths, paths[1:]), 1):
        if point_deviation(p.end, q.start) > COORD_TOL:
            raise FibreTransportError(
                f"p{i} ends at {p.end}, p{i + 1} starts at {q.start}")

    pieces = [reparameterize(p, r) for p, r in zip(paths, share_remaps(paths))]
    jets = [q.jet for q in pieces]
    seams = [q.domain.lo for q in pieces[1:]]
    find = bisect.bisect_right          # bound once: the jet runs per stage

    def jet(s: float):
        i = find(seams, s)
        if i and s == seams[i - 1]:
            return jets[i - 1](s)[0], jets[i](s)[1]
        return jets[i](s)

    bps = sorted({*seams, *(b for q in pieces for b in q.breakpoints)})
    return Path(
        space=first.space, domain=UNIT, jet=jet, breakpoints=tuple(bps),
        name=f"({'*'.join(p.name for p in paths)})",
    )


# ---------------------------------------------------------------------------
# Discrete-path walkers
# ---------------------------------------------------------------------------

_node = attrgetter("node")


def _require_discrete(p: Path, walked: str) -> None:
    """The walkers' one guard: it names what the walker reads."""
    if p.kind != "discrete":
        raise FibreTransportError(f"{walked} are defined for discrete paths")


def piece_runs(p: Path) -> list[tuple[float, float, BasePoint]]:
    """Maximal constancy runs (run_lo, run_hi, point) of a discrete path.

    Each piece between consecutive cuts is read at its midpoint, from the
    path's ``piece_points``, and neighbouring pieces at one node merge."""
    _require_discrete(p, "piece runs")
    lo, hi = p.domain
    cuts = [lo, *p.breakpoints, hi]
    runs: list[tuple[float, float, BasePoint]] = []
    for a, b, x in zip(cuts, cuts[1:], p.piece_points):
        if runs and runs[-1][2].node == x.node:
            runs[-1] = (runs[-1][0], b, runs[-1][2])
        else:
            runs.append((a, b, x))
    return runs


def node_sequence(p: Path, s: float, t: float) -> list[str]:
    """Nodes visited in order when moving from parameter s to parameter t.

    The path is sampled at lo = min(s, t), at the midpoint of each piece
    between lo, the breakpoints inside (lo, hi) and hi = max(s, t), and at
    hi.  The pieces between two breakpoints are whole pieces of the path, so
    their samples are read from ``piece_points``; the two ends and the two
    partial end pieces are read through the jet."""
    _require_discrete(p, "node sequences")
    domain, jet = p.domain, p.jet
    lo, hi = domain
    if not lo <= s <= hi:  # checked once
        s = domain.clamp(s)
    if not lo <= t <= hi:
        t = domain.clamp(t)
    lo, hi = (s, t) if s <= t else (t, s)
    bps = p.breakpoints  # sorted: lo < b < hi is bps[i:j]
    i, j = bisect.bisect_right(bps, lo), bisect.bisect_left(bps, hi)
    if i < j:
        points = [jet(lo)[0], jet(0.5 * (lo + bps[i]))[0],
                  *p.piece_points[i + 1:j],
                  jet(0.5 * (bps[j - 1] + hi))[0], jet(hi)[0]]
    else:
        points = [jet(lo)[0], jet(0.5 * (lo + hi))[0], jet(hi)[0]]
    if t < s:
        points.reverse()
    return [n for n, _ in groupby(map(_node, points))]  # one per visit


def trace_nodes(p: Path) -> tuple[str, ...]:
    """The distinct nodes a discrete path visits, in first-visit order."""
    _require_discrete(p, "node traces")
    return tuple(dict.fromkeys(map(_node, p.piece_points)))
