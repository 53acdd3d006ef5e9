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

A path is one raw map, its jet: ``jet(s, side)`` gives the point at s and the
velocity d(coords)/ds there, the pair a transport's coefficients read.  A
chart path's point is its coordinate tuple, which ``Path.at`` wraps in a
``BasePoint``; its jet must give an analytic velocity (checked at
construction), and a reparameterization carries the derivative ``deriv`` of
its forward map, so derived paths push velocities through by the chain rule.
A discrete path's jet gives a node point and the velocity None.  Paths carry
two optional pieces of structure as well: ``breakpoints`` (parameters where
the point map may kink or jump, so exact integrators can split there) and
``crossings`` (declared self-intersection parameter pairs of chart paths;
discrete paths find their self-intersections by enumeration instead).

Breakpoint convention for piecewise-constant paths: the value at an interior
breakpoint belongs to the piece on the right, so [n0 on [0, .5), n1 on [.5, 1]]
evaluates to n1 at 0.5.  Compositions preserve evaluation semantics exactly
because a derived path evaluates through the original jet.  A parameter is
checked once, at the public entry (``Path.at``, ``Path.velocity``, or the
transport itself): derived layers call their parent's raw ``jet`` with the
remapped parameter snapped into its domain: a closed-form image of an exact
end can still land an ulp outside it.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import KW_ONLY, dataclass, field, replace
from typing import Callable, Sequence

from .bundles import (COORD_TOL, SAME_POINT_TOL, BasePoint, chart_deviation,
                      graph_point, point_deviation)
from .errors import FibreTransportError

# Parameters this close to a domain edge are snapped onto it: float images of
# exact endpoints under affine maps can land an ulp outside.
EDGE_SLACK = 1e-9

# Two intervals or parameters are "the same" below this gap.
EXACT = 1e-12


@dataclass(frozen=True)
class Interval:
    lo: float
    hi: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise FibreTransportError("interval ends must be finite")
        if self.lo > self.hi:
            raise FibreTransportError(f"empty interval [{self.lo}, {self.hi}]")

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

@dataclass(frozen=True)
class Reparameterization:
    """A strictly monotone bijection between two parameter intervals.

    The map is closed-form: affine, or with ``squared`` affine in u*u, where
    u = (s - source.lo) / source.width is the source fraction.  It runs from
    source.lo to target.lo, or to target.hi when ``reversing``.  Every such
    map is onto and strictly monotone, so only degenerate intervals are
    refused, and so are flags that are not bools.  ``fwd`` maps source ->
    target, ``inv`` is its inverse and ``deriv`` the derivative of ``fwd``,
    which derived paths use to push analytic velocities through; all three
    are built at construction.  ``affine`` is (a, c, k) with
    fwd(s) = c + (s - a) * k when the map is affine, and None otherwise.
    """

    source: Interval
    target: Interval
    _: KW_ONLY
    reversing: bool = False
    squared: bool = False
    name: str = "remap"
    fwd: Callable[[float], float] = field(init=False, repr=False, compare=False)
    inv: Callable[[float], float] = field(init=False, repr=False, compare=False)
    deriv: Callable[[float], float] = field(init=False, repr=False, compare=False)
    affine: tuple[float, float, float] | None = field(
        init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not (isinstance(self.reversing, bool)
                and isinstance(self.squared, bool)):
            raise FibreTransportError(
                f"{self.name}: reversing and squared must be bools")
        if self.source.width <= 0.0 or self.target.width <= 0.0:
            raise FibreTransportError(
                f"{self.name}: remaps need non-degenerate intervals")
        a, w = self.source.lo, self.source.width
        c, k = self.target.lo, self.target.width
        if self.reversing:
            c, k = self.target.hi, -k
        affine = None
        if not self.squared:
            k /= w
            maps = (lambda s: c + (s - a) * k, lambda t: a + (t - c) / k,
                    lambda s: k)
            affine = (a, c, k)
        else:
            k /= w * w
            maps = (lambda s: c + (s - a) * (s - a) * k,
                    lambda t: a + math.sqrt((t - c) / k),
                    lambda s: 2.0 * k * (s - a))
        for attr, f in zip(("fwd", "inv", "deriv", "affine"),
                           (*maps, affine)):
            object.__setattr__(self, attr, f)

    def apply(self, s: float) -> float:
        return self.target.clamp(self.fwd(self.source.clamp(s)))

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

@dataclass(frozen=True)
class Path:
    """A parameterized path in one base space.

    ``jet(s, side)`` is the raw map: it must accept any parameter of
    ``domain``, checks nothing, and returns the point and d(coords)/ds
    there.  A chart path's jet gives its coordinate tuple and a velocity,
    and ``at`` wraps the tuple in a ``BasePoint``; a discrete one's gives a
    node point and None.  ``at`` and ``velocity`` are the checked entries:
    they refuse a parameter outside the domain and snap one within
    EDGE_SLACK onto its edge.  ``side`` (+1, -1, 0) picks the one-sided
    velocity at a breakpoint and is ignored at smooth parameters; the point
    never depends on it.
    """

    space: str
    domain: Interval
    jet: Callable[[float, int], tuple[BasePoint | tuple[float, ...],
                                      tuple[float, ...] | None]]
    kind: str                                  # discrete | chart
    breakpoints: tuple[float, ...] = ()
    crossings: tuple[tuple[float, float], ...] = ()
    name: str = "path"

    def __post_init__(self) -> None:
        if self.kind not in ("discrete", "chart"):
            raise FibreTransportError("path kind must be 'discrete' or 'chart'")
        if self.kind == "chart" and self.jet(self.domain.lo, 1)[1] is None:
            raise FibreTransportError(f"chart path {self.name!r} needs a velocity")
        for b in self.breakpoints:
            if not (self.domain.lo < b < self.domain.hi):
                raise FibreTransportError(
                    f"breakpoint {b} not interior to the domain")
        if list(self.breakpoints) != sorted(self.breakpoints):
            raise FibreTransportError("breakpoints must be sorted")

    def at(self, s: float) -> BasePoint:
        x = self.jet(self.domain.clamp(s), 0)[0]
        return BasePoint(self.space, coords=x) if self.kind == "chart" else x

    def velocity(self, s: float, side: int = 0) -> tuple[float, ...] | None:
        return self.jet(self.domain.clamp(s), side)[1]

    @property
    def start(self) -> BasePoint:
        return self.at(self.domain.lo)

    @property
    def end(self) -> BasePoint:
        return self.at(self.domain.hi)

    def interior_breakpoints(self, lo: float, hi: float) -> list[float]:
        return [b for b in self.breakpoints if lo < b < hi]


def with_crossings(p: Path, pairs: Sequence[tuple[float, float]]) -> Path:
    """Attach declared self-intersection parameter pairs to a chart path.

    Each pair must close up under ``chart_deviation``, the sphere chart
    distance, which identifies azimuths modulo the period.
    """
    norm = tuple(sorted((min(r, s), max(r, s)) for r, s in pairs))
    for r, s in norm:
        if not (p.domain.contains(r) and p.domain.contains(s)):
            raise FibreTransportError("crossing parameters must lie in the domain")
        if chart_deviation(p.at(r), p.at(s)) > SAME_POINT_TOL:
            raise FibreTransportError(
                f"declared crossing ({r}, {s}) does not close up")
    return replace(p, crossings=norm)


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

    def jet(s: float, side: int) -> tuple[BasePoint, None]:
        return points[bisect.bisect_right(cut, s)], None

    return Path(
        space=space, domain=domain, jet=jet, kind="discrete",
        breakpoints=tuple(cut), name=name,
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
    return replace(
        p, domain=sub, breakpoints=bps, crossings=crossings,
        name=f"{p.name}|[{sub.lo:g},{sub.hi:g}]",
    )


def reparameterize(p: Path, remap: Reparameterization) -> Path:
    """Precompose the path with a bijection onto its domain."""
    if not remap.target.same_as(p.domain):
        raise FibreTransportError(
            f"remap targets [{remap.target.lo}, {remap.target.hi}], "
            f"path domain is [{p.domain.lo}, {p.domain.hi}]"
        )

    lo, hi, snap = p.domain.lo, p.domain.hi, p.domain.clamp
    fwd, deriv, inner = remap.fwd, remap.deriv, p.jet
    sgn = -1 if remap.reversing else 1

    # A velocity scales by the remap's derivative k, as (v[0] * k, v[1] * k)
    # at rank 2, which equals k * v[i] to the bit: IEEE multiplication
    # commutes.  Other ranks take the generic map.
    if remap.affine is not None:
        # fwd and deriv inlined: the jet runs at every integrator stage
        a, c, k = remap.affine
        scale = k.__mul__

        def jet(s: float, side: int):
            r = c + (s - a) * k
            x, v = inner(snap(r) if r < lo or r > hi else r, side * sgn)
            if v is None:
                return x, None
            if len(v) == 2:
                return x, (v[0] * k, v[1] * k)
            return x, tuple(map(scale, v))
    else:
        def jet(s: float, side: int):
            r = fwd(s)
            x, v = inner(snap(r) if r < lo or r > hi else r, side * sgn)
            if v is None:
                return x, None
            k = deriv(s)
            if len(v) == 2:
                return x, (v[0] * k, v[1] * k)
            return x, tuple(map(k.__mul__, v))

    bps = sorted(remap.invert_param(b) for b in p.breakpoints)
    bps = tuple(b for b in bps if remap.source.lo < b < remap.source.hi)
    crossings = tuple(sorted(
        tuple(sorted((remap.invert_param(r), remap.invert_param(s))))
        for r, s in p.crossings
    ))
    return Path(
        space=p.space, domain=remap.source, jet=jet, kind=p.kind,
        breakpoints=bps, crossings=crossings, name=f"{p.name}o{remap.name}",
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
    left piece's; its velocity is the left piece's for side < 0 and the
    right piece's otherwise.
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

    def jet(s: float, side: int):
        i = find(seams, s)
        if i and s == seams[i - 1]:
            x, v = jets[i - 1](s, side)
            return x, (v if side < 0 else jets[i](s, side)[1])
        return jets[i](s, side)

    bps = sorted({*seams, *(b for q in pieces for b in q.breakpoints)})
    return Path(
        space=first.space, domain=UNIT, jet=jet, kind=first.kind,
        breakpoints=tuple(bps),
        name=f"({'*'.join(p.name for p in paths)})",
    )


# ---------------------------------------------------------------------------
# Discrete-path walkers
# ---------------------------------------------------------------------------

def piece_runs(p: Path) -> list[tuple[float, float, BasePoint]]:
    """Maximal constancy runs (run_lo, run_hi, point) of a discrete path."""
    if p.kind != "discrete":
        raise FibreTransportError("piece runs are defined for discrete paths")
    lo, hi = p.domain.lo, p.domain.hi
    if hi - lo <= 0.0:
        return [(lo, hi, p.at(lo))]
    cuts = [lo, *p.interior_breakpoints(lo, hi), hi]
    runs: list[tuple[float, float, BasePoint]] = []
    for a, b in zip(cuts, cuts[1:]):
        x = p.at(0.5 * (a + b))
        if runs and runs[-1][2].node == x.node:
            runs[-1] = (runs[-1][0], b, runs[-1][2])
        else:
            runs.append((a, b, x))
    return runs


def node_sequence(p: Path, s: float, t: float) -> list[str]:
    """Nodes visited in order when moving from parameter s to parameter t."""
    lo, hi = (s, t) if s <= t else (t, s)
    cuts = [lo, *p.interior_breakpoints(lo, hi), hi]
    samples = [lo]
    samples.extend(0.5 * (a + b) for a, b in zip(cuts, cuts[1:]))
    samples.append(hi)
    if t < s:
        samples.reverse()
    seq: list[str] = []
    for x in samples:
        n = p.at(x).node
        if not seq or seq[-1] != n:
            seq.append(n)
    return seq


def trace_nodes(p: Path) -> tuple[str, ...]:
    """The distinct nodes a discrete path visits, in first-visit order."""
    seen: list[str] = []
    for _, _, x in piece_runs(p):
        if x.node not in seen:
            seen.append(x.node)
    return tuple(seen)
