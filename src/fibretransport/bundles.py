"""Base spaces, fibres, bundles, sections, and fibre metrics.

Two families of base space are supported: finite node sets (optionally with
edges, for transports generated by per-edge maps) and the unit sphere in a
single (theta, phi) chart with the poles excluded.  Three fibre kinds exist:

* ``finite``   -- a fixed label set, the same over every base point;
* ``vector``   -- R^n expressed in a per-point coordinate frame;
* ``sections`` -- the fibre over x is the set of values sigma_alpha(x) of a
  family of pairwise non-intersecting global sections (a foliation of the
  total space by graphs of sections).

Everything is an immutable dataclass; operations are pure functions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Mapping

from . import linalg
from .errors import FibreTransportError

# Coordinates of base points are compared to this absolute tolerance.
COORD_TOL = 1e-9

# Chart paths on the sphere must keep theta this far away from the poles.
POLE_MARGIN = 1e-6


@dataclass(frozen=True)
class BasePoint:
    """A point of a base space: either a named node or chart coordinates."""

    space: str
    node: str | None = None
    coords: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        if (self.node is None) == (self.coords is None):
            raise FibreTransportError("exactly one of node / coords must be set")

    @property
    def is_node(self) -> bool:
        return self.node is not None


def graph_point(space: str, node: str) -> BasePoint:
    return BasePoint(space=space, node=node)


def chart_point(space: str, *coords: float) -> BasePoint:
    return BasePoint(space=space, coords=tuple(map(float, coords)))


def point_deviation(x: BasePoint, y: BasePoint) -> float:
    """0.0 for identical points; a positive gap otherwise.

    Node points compare by identifier.  Chart points compare coordinatewise
    with no periodicity assumptions; space-aware comparisons (phi mod 2*pi on
    the sphere) live on the bundle, see FibreBundle.point_deviation.
    """
    if x.space != y.space:
        return math.inf
    if x.is_node != y.is_node:
        return math.inf
    if x.is_node:
        return 0.0 if x.node == y.node else 1.0
    if len(x.coords) != len(y.coords):
        return math.inf
    return max((abs(a - b) for a, b in zip(x.coords, y.coords)), default=0.0)


def chart_deviation(x: BasePoint, y: BasePoint) -> float:
    """Sphere chart distance identifying azimuths modulo the period."""
    dth = abs(x.coords[0] - y.coords[0])
    dph = abs(x.coords[1] - y.coords[1]) % (2.0 * math.pi)
    dph = min(dph, 2.0 * math.pi - dph)
    return max(dth, dph)


@dataclass(frozen=True)
class FibreElement:
    """A point of the total space, recorded as (base point, fibre value).

    Exactly one of ``label`` (finite and section fibres) or ``vector``
    (vector fibres, components in the frame at ``over``) is set.
    """

    over: BasePoint
    label: str | None = None
    vector: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        if (self.label is None) == (self.vector is None):
            raise FibreTransportError("exactly one of label / vector must be set")


def label_element(over: BasePoint, label: str) -> FibreElement:
    return FibreElement(over=over, label=label)


def vector_element(over: BasePoint, components) -> FibreElement:
    return FibreElement(over=over, vector=tuple(float(c) for c in components))


def rebase(u: FibreElement, over: BasePoint) -> FibreElement:
    """The same fibre value attached over an equal base point."""
    return FibreElement(over=over, label=u.label, vector=u.vector)


def element_deviation(a: FibreElement, b: FibreElement) -> float:
    """Gap between two total-space points; 0.0 means indistinguishable."""
    base_gap = point_deviation(a.over, b.over)
    if a.label is not None and b.label is not None:
        return max(base_gap, 0.0 if a.label == b.label else 1.0)
    if a.vector is not None and b.vector is not None:
        if len(a.vector) != len(b.vector):
            return math.inf
        return max(base_gap, linalg.max_abs(linalg.vec_sub(a.vector, b.vector)))
    return math.inf


@dataclass(frozen=True)
class Section:
    """An assignment of a fibre element over each base point it covers."""

    name: str
    assignment: Callable[[BasePoint], FibreElement]

    def at(self, x: BasePoint) -> FibreElement:
        return self.assignment(x)


def table_section(name: str, space: str, values: Mapping[str, str]) -> Section:
    """Section over a graph base given by a node -> label table."""
    table = dict(values)

    def assign(x: BasePoint) -> FibreElement:
        if x.node not in table:
            raise FibreTransportError(f"section {name!r} undefined at {x.node!r}")
        return label_element(x, table[x.node])

    return Section(name=name, assignment=assign)


@dataclass(frozen=True)
class FibreDescription:
    """What the fibre over a particular point looks like."""

    kind: str                                   # finite | vector | sections
    labels: tuple[str, ...] | None = None       # finite / sections
    dim: int | None = None                      # vector


@dataclass(frozen=True)
class FibreBundle:
    """A total space over a base, described by base kind and fibre kind."""

    base_space_id: str
    base_kind: str                              # graph | sphere
    fibre_kind: str                             # finite | vector | sections
    nodes: tuple[str, ...] | None = None
    edges: tuple[tuple[str, str], ...] | None = None
    labels: tuple[str, ...] | None = None
    dim: int | None = None
    sections: tuple[Section, ...] | None = None

    def __post_init__(self) -> None:
        if self.base_kind not in ("graph", "sphere"):
            raise FibreTransportError(f"unknown base kind {self.base_kind!r}")
        if self.fibre_kind not in ("finite", "vector", "sections"):
            raise FibreTransportError(f"unknown fibre kind {self.fibre_kind!r}")
        if self.base_kind == "graph" and not self.nodes:
            raise FibreTransportError("graph base needs nodes")
        if self.fibre_kind == "finite" and not self.labels:
            raise FibreTransportError("finite fibre needs labels")
        if self.fibre_kind == "vector" and not self.dim:
            raise FibreTransportError("vector fibre needs a dimension")
        if self.fibre_kind == "sections":
            if not self.sections or len(self.sections) < 1:
                raise FibreTransportError(
                    "section fibre needs at least one section")
            self._check_sections_disjoint()

    def _check_sections_disjoint(self) -> None:
        # Pairwise non-intersecting: two sections never share a value over a
        # point.  Checked exhaustively; only graph bases carry section fibres.
        if self.base_kind != "graph":
            raise FibreTransportError(
                "section fibres are supported over graph bases")
        for n in self.nodes:
            x = graph_point(self.base_space_id, n)
            seen: dict[str, str] = {}
            for sec in self.sections:
                v = sec.at(x).label
                if v in seen:
                    raise FibreTransportError(
                        f"sections {seen[v]!r} and {sec.name!r} intersect at {n!r}"
                    )
                seen[v] = sec.name

    # -- base-space membership and comparisons -------------------------------

    def contains_point(self, x: BasePoint) -> bool:
        if x.space != self.base_space_id:
            return False
        if self.base_kind == "graph":
            return x.is_node and x.node in self.nodes
        if not x.is_node and len(x.coords) == 2:
            theta = x.coords[0]
            return POLE_MARGIN <= theta <= math.pi - POLE_MARGIN
        return False

    def require_point(self, x: BasePoint) -> None:
        if not self.contains_point(x):
            raise FibreTransportError(
                f"{x} is not a point of base {self.base_space_id!r}")

    def point_deviation(self, x: BasePoint, y: BasePoint) -> float:
        """Like the module-level helper, but phi-periodic on the sphere."""
        if self.base_kind == "sphere" and not x.is_node and not y.is_node:
            if x.space != y.space or len(x.coords) != 2 or len(y.coords) != 2:
                return math.inf
            return chart_deviation(x, y)
        return point_deviation(x, y)


def fibre_at(bundle: FibreBundle, x: BasePoint) -> FibreDescription:
    """Describe the fibre over x.  All fibres of one bundle look alike."""
    bundle.require_point(x)
    if bundle.fibre_kind == "finite":
        return FibreDescription(kind="finite", labels=bundle.labels)
    if bundle.fibre_kind == "vector":
        return FibreDescription(kind="vector", dim=bundle.dim)
    vals = tuple(sec.at(x).label for sec in bundle.sections)
    return FibreDescription(kind="sections", labels=vals)


def fibre_elements(bundle: FibreBundle, x: BasePoint) -> tuple[FibreElement, ...]:
    """All elements of a finite fibre over x."""
    desc = fibre_at(bundle, x)
    if desc.labels is None:
        raise FibreTransportError("fibre over this bundle is not finite")
    return tuple(label_element(x, lab) for lab in desc.labels)


def sections_of_family(bundle: FibreBundle) -> tuple[Section, ...]:
    if bundle.fibre_kind != "sections":
        raise FibreTransportError("bundle is not carried by a section family")
    return bundle.sections


def section_through(bundle: FibreBundle, u: FibreElement) -> Section:
    """The unique family section passing through a total-space point."""
    for sec in sections_of_family(bundle):
        if sec.at(u.over).label == u.label:
            return sec
    raise FibreTransportError(f"no section of the family passes through {u}")


@dataclass(frozen=True)
class BundleMetric:
    """A fibre metric: a symmetric positive matrix in the frame at each point."""

    name: str
    matrix_at: Callable[[BasePoint], linalg.Mat]


def euclidean_metric(dim: int) -> BundleMetric:
    eye = linalg.identity(dim)
    return BundleMetric(name=f"euclidean-{dim}", matrix_at=lambda x: eye)


def evaluate_metric(metric: BundleMetric, x: BasePoint, u: FibreElement, v: FibreElement) -> float:
    """g_x(u, v) for two vectors attached over x."""
    if u.vector is None or v.vector is None:
        raise FibreTransportError("metric applies to vector fibres")
    g = metric.matrix_at(x)
    if len(g) != len(u.vector) or len(u.vector) != len(v.vector):
        raise FibreTransportError("metric and vectors disagree on dimension")
    return linalg.dot(u.vector, linalg.matvec(g, v.vector))
