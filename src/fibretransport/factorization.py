"""Factoring a transport through a fixed reference fibre.

Along one path, a transport's two-parameter family of maps can be written as
F_t^{-1} composed with F_s, where each F_s sends the fibre over path(s) into
one common reference fibre.  The canonical choice anchors the family at a
parameter s0 by taking F_s to be the transport from s to s0, which makes
F_{s0} the identity on the nose.

The family is unique only up to an invertible self-map D of the reference
fibre applied on the left of every F_s.  ``apply_gauge`` realizes that
freedom and ``gauge_between`` recovers D from two families inducing the same
transport, which is the one check it makes.

A family carries the path it was tabulated along, so its induced transport
and its law trials take the family alone.  Families are tabulated on a
finite parameter grid.  Fibre maps are plain dictionaries (finite fibres)
or row-major matrices (vector fibres), read on the frame of
``bundles.fibre_elements``.
"""

from __future__ import annotations

import math
import random
import sys
from collections import namedtuple

from . import linalg
from .bundles import FibreBundle, element_deviation, fibre_elements, \
    fibre_labels, label_element, vector_element
from .errors import FibreTransportError
from .paths import Path
from .transport import Transport, _desc, transport, unit_ball

FibreMap = "dict[str, str] | linalg.Mat"

# Matrix maps round as they compose and invert, by at most FRAME_GAP_EPS
# machine epsilons times the max-abs norms of the maps involved (Higham,
# Accuracy and Stability of Numerical Algorithms, ch. 3 and 14).  Random
# frames of condition number 10 to 10^4 reach at most 5 of them in a cocycle
# gap, and at most 2.2 between two of their families' induced maps.
FRAME_GAP_EPS = 16.0


# ---------------------------------------------------------------------------
# Fibre maps: label bijections and invertible matrices under one interface
# ---------------------------------------------------------------------------

def map_compose(outer, inner):
    """outer after inner."""
    if isinstance(outer, dict) and isinstance(inner, dict):
        return {k: outer[v] for k, v in inner.items()}
    if isinstance(outer, dict) or isinstance(inner, dict):
        raise FibreTransportError("cannot compose a label map with a matrix")
    return linalg.matmul(outer, inner)


def _is_2x2(m) -> bool:
    return [len(row) for row in m] == [2, 2]


def _finite(m) -> bool:
    return all(math.isfinite(c) for row in m for c in row)


def map_invert(m):
    """The inverse map; a label map that is not a bijection, and a matrix
    that is not 2 x 2, is singular or holds a non-finite entry, are
    refused."""
    if isinstance(m, dict):
        inv = {v: k for k, v in m.items()}
        if len(inv) != len(m):
            raise FibreTransportError(f"label map is not a bijection: {m}")
        return inv
    if _is_2x2(m) and _finite(m):
        try:
            inv = linalg.inverse(m)
        except ZeroDivisionError:
            pass
        else:
            if _finite(inv):
                return inv
    raise FibreTransportError(
        f"matrix map is not 2 x 2, or is singular or not finite: {m}")


def map_deviation(a, b) -> float:
    """0.0 for equal maps; label maps disagree at distance 1.  Matrix maps
    compare entrywise, NaN if any entry gap is NaN."""
    if isinstance(a, dict) and isinstance(b, dict):
        if set(a) != set(b):
            return math.inf
        return 0.0 if a == b else 1.0
    if isinstance(a, dict) or isinstance(b, dict):
        return math.inf
    if len(a) != len(b):
        return math.inf
    gaps = []
    for ra, rb in zip(a, b):
        if len(ra) != len(rb):
            return math.inf
        gaps.append(linalg.max_abs(linalg.vec_sub(ra, rb)))
    return linalg.max_abs(gaps)


def map_size(m) -> float:
    """The max-abs norm of a matrix map; 0.0 for a label map, which composes
    exactly."""
    return 0.0 if isinstance(m, dict) else linalg.max_abs((*m[0], *m[1]))


def _on_frame(frame, images) -> "FibreMap":
    """The fibre map sending each element of ``frame`` to its image: a
    label map, or the matrix whose columns are the images of e0 and e1."""
    if frame[0].label is not None:
        return {u.label: w.label for u, w in zip(frame, images)}
    (a, c), (b, d) = (w.vector for w in images)
    return ((a, b), (c, d))


def identity_map(bundle: FibreBundle, x) -> "FibreMap":
    frame = fibre_elements(bundle, x)
    return _on_frame(frame, frame)


def fibre_map(T: Transport, p: Path, s: float, t: float) -> "FibreMap":
    """T's (s, t) map along p, read on the frame of the fibre over path(s)."""
    frame = fibre_elements(T.bundle, p.at(s))
    return _on_frame(frame, [transport(T, p, s, t, u) for u in frame])


# ---------------------------------------------------------------------------
# Factorizations
# ---------------------------------------------------------------------------

class Factorization(namedtuple("Factorization",
                               "bundle path anchor grid maps tolerance")):
    """A family F_s factoring one transport along ``path``, tabulated on
    ``grid`` parameters of it: ``maps`` holds F_s per grid parameter."""

    __slots__ = ()

    def __new__(cls, bundle: FibreBundle, path: Path, anchor: float,
                grid: tuple, maps: tuple, tolerance: float = 0.0
                ) -> Factorization:
        if len(grid) != len(maps):
            raise FibreTransportError(
                "factorization grid and maps disagree in length")
        if anchor not in grid:
            raise FibreTransportError("factorization anchor must lie on its grid")
        if bundle.fibre_kind == "vector" and not all(map(_is_2x2, maps)):
            raise FibreTransportError("a vector family's maps must be 2 x 2")
        return tuple.__new__(cls, (bundle, path, anchor, grid, maps,
                                   tolerance))

    def map_at(self, s: float):
        try:
            return self.maps[self.grid.index(s)]
        except ValueError:
            raise FibreTransportError(
                f"parameter {s!r} is not on the factorization grid") from None


def canonical_factorization(T: Transport, p: Path, s0: float | None = None,
                            grid: int = 11) -> Factorization:
    """The family F_s = transport from s to s0, tabulated on ``grid``
    evenly spaced parameters of p's domain, with s0 added when it is not
    one of them.  s0 defaults to the domain's start; one within EDGE_SLACK
    of the domain is snapped onto its edge first, and one equal to a grid
    point is that point (an anchor of -0.0 is 0.0).

    F_{s0} comes out as the identity map exactly.
    """
    if grid < 2:
        raise FibreTransportError(
            "factorization grids need at least two points")
    pts = tuple(p.domain.samples(grid))
    s0 = pts[0] if s0 is None else p.domain.clamp(s0)
    if s0 not in pts:
        pts = tuple(sorted({*pts, s0}))
    s0 = pts[pts.index(s0)]
    maps = tuple(fibre_map(T, p, s, s0) for s in pts)
    return Factorization(bundle=T.bundle, path=p, anchor=s0, grid=pts,
                         maps=maps, tolerance=T.tolerance)


def transport_from_factorization(f: Factorization) -> Transport:
    """The transport induced by a family: F_t^{-1} after F_s, on grid params
    of the path the family was tabulated along; any other path is
    refused."""
    p = f.path
    name = f"factored[{p.name}]"

    def apply(path: Path, s: float, t: float, u):
        if path != p:
            raise FibreTransportError(
                f"{name} moves along {p.name!r} only, got {path.name!r}")
        fs = f.map_at(s)
        ft = f.map_at(t)
        if isinstance(fs, dict):
            value = map_invert(ft)[fs[u.label]]
            return label_element(path.at(t), value)
        if _finite(ft):
            try:
                moved = linalg.solve(ft, linalg.matvec(fs, u.vector))
            except ZeroDivisionError:
                pass
            else:
                return vector_element(path.at(t), moved)
        raise FibreTransportError(
            f"{name}: the family's map at {t} is singular or not finite")

    return Transport(name=name, bundle=f.bundle,
                     apply_fn=apply, declared=frozenset(),
                     tolerance=f.tolerance)


def apply_gauge(f: Factorization, gauge) -> Factorization:
    """Compose every member of the family with a reference-fibre self-map."""
    is_dict = isinstance(gauge, dict)
    if is_dict != (f.bundle.fibre_kind != "vector"):
        raise FibreTransportError("gauge map kind does not match the fibre kind")
    map_invert(gauge)  # reject non-bijections early
    return Factorization(**{**f._asdict(), "maps": tuple(
        map_compose(gauge, m) for m in f.maps)})


def gauge_between(f1: Factorization, f2: Factorization) -> "FibreMap":
    """The gauge D, a self-map of the reference fibre, with f1 = D after f2,
    read at the families' shared anchor (else at their first grid point).

    Two families along one path induce one transport exactly when one D
    relates them, so that is the only check.  Raises FibreTransportError for
    different grids or paths, a family map with no inverse, and induced
    transports that disagree.
    """
    if f1.grid != f2.grid or f1.path != f2.path:
        raise FibreTransportError(
            "factorizations tabulate different grids or paths")
    tolerance = 4.0 * max(f1.tolerance, f2.tolerance)
    inv1, inv2 = _inverses(f1), _inverses(f2)
    # Each family's induced map F_j^-1 F_i rounds by up to FRAME_GAP_EPS
    # epsilons times |F_j| |F_j^-1|^2 |F_i|, as inverting F_j rounds by its
    # condition number; numeric families may differ by 4 x their tolerance.
    scale = 2.0 * FRAME_GAP_EPS * sys.float_info.epsilon
    size, spread = [], []
    for maps in zip(f1.maps, f2.maps, inv1, inv2):
        a, b, inv_a, inv_b = map(map_size, maps)
        size.append(max(a, b))
        spread.append(scale * max(a * inv_a * inv_a, b * inv_b * inv_b))
    for m1, m2, n in zip(f1.maps, f2.maps, size):
        for inv_m1, inv_m2, w in zip(inv1, inv2, spread):
            gap = map_deviation(map_compose(inv_m1, m1),
                                map_compose(inv_m2, m2))
            if not (gap <= tolerance or gap <= w * n):
                raise FibreTransportError(
                    f"families induce different transports (deviation {gap})")
    # At a shared anchor a canonical family is the identity, so the gauge
    # read there is exact rather than a product of two noisy inverses.
    idx = f1.grid.index(f1.anchor) if f1.anchor == f2.anchor else 0
    return map_compose(f1.maps[idx], inv2[idx])


def _inverses(f: Factorization) -> list:
    """The inverse of every map of the family, in grid order; a map that has
    none is refused with the name of the transport the family induces."""
    out = []
    for s, m in zip(f.grid, f.maps):
        try:
            out.append(map_invert(m))
        except FibreTransportError as exc:
            raise FibreTransportError(
                f"factored[{f.path.name}]: the family's map at {s}: {exc}"
            ) from None
    return out


# ---------------------------------------------------------------------------
# Law trials (see the transport module's)
# ---------------------------------------------------------------------------

def roundtrip_trial(T: Transport, f: Factorization, trials: int):
    """Law 3.6-roundtrip: f, T's canonical family along its path, reassembles
    the transport on every ordered pair of its grid, and its anchor map is
    the identity.  One trial per grid point, whatever ``trials`` says; vector
    fibres draw three unit-ball vectors per grid point."""
    p = f.path
    rebuilt = transport_from_factorization(f)

    def trial(k, rng):
        if k == 0:
            ident = identity_map(T.bundle, p.at(f.anchor))
            yield (map_deviation(f.map_at(f.anchor), ident), p.name,
                   {"anchor": f.anchor}, ["anchor map vs identity"])
        s = f.grid[k]
        x = p.at(s)
        if T.bundle.fibre_kind == "vector":
            elements = [vector_element(x, unit_ball(rng))
                        for _ in range(3)]
        else:
            elements = fibre_elements(T.bundle, x)
        for t in f.grid:
            for u in elements:
                dev = element_deviation(transport(rebuilt, p, s, t, u),
                                        transport(T, p, s, t, u))
                yield dev, p.name, {"s": s, "t": t}, [_desc(u)]

    return (trial, len(f.grid),
            f"grid of {len(f.grid)} points, anchor {f.anchor}")


def random_gauge(rng: random.Random, bundle: FibreBundle, x) -> "FibreMap":
    """A random invertible self-map of the fibre over x."""
    if bundle.fibre_kind == "vector":
        while True:
            m = ((rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)),
                 (rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)))
            try:
                linalg.inverse(m)
            except ZeroDivisionError:
                continue
            return m
    labels = list(fibre_labels(bundle, x))
    images = labels[:]
    rng.shuffle(images)
    return dict(zip(labels, images))


# How many random gauges law 3.11/3.12 draws.
GAUGE_DRAWS = 5


def gauge_trial(T: Transport, f: Factorization, trials: int):
    """Law 3.11/3.12: f, T's canonical family along its path, and f gauged
    by a random self-map induce the same transport, and the gauge is
    recovered from the pair.  One trial per gauge, GAUGE_DRAWS of them,
    whatever ``trials`` says."""
    p = f.path

    def trial(k, rng):
        gauge = random_gauge(rng, T.bundle, p.at(f.anchor))
        recovered = gauge_between(apply_gauge(f, gauge), f)
        dev = map_deviation(recovered, gauge)
        yield (dev, p.name, {"draw": float(k)},
               ["recovered gauge vs applied gauge"])

    return (trial, GAUGE_DRAWS,
            f"{GAUGE_DRAWS} random gauges on a {len(f.grid)}-point grid")


def factorization_to_dict(f: Factorization) -> dict:
    maps = []
    for m in f.maps:
        if isinstance(m, dict):
            maps.append({k: m[k] for k in sorted(m)})
        else:
            maps.append([list(row) for row in m])
    return {"s0": f.anchor, "grid": list(f.grid), "maps": maps,
            "path": f.path.name, "space": f.path.space,
            "fibre_kind": f.bundle.fibre_kind}
