"""Base spaces, fibres, bundles, sections, and fibre metrics.

Two families of base space are supported: finite node sets and the unit
sphere in a single (theta, phi) chart with the poles excluded.  Three fibre
kinds exist:

* ``finite``   -- a fixed label set, the same over every base point;
* ``vector``   -- R^2 expressed in a per-point coordinate frame: every
  vector fibre is rank 2;
* ``sections`` -- the fibre over x is the set of values sigma_alpha(x) of a
  family of pairwise non-intersecting global sections (a foliation of the
  total space by graphs of sections).

A bundle's kinds are read off the fields they name.  Base points are
compared in one place, ``point_deviation``, which reads the sphere's phi
modulo 2*pi.

Everything is an immutable record (a named tuple); operations are pure
functions.
"""

from __future__ import annotations

import math
from collections import namedtuple
from typing import Mapping

from . import linalg
from .errors import FibreTransportError

# Coordinates of base points that must agree up to rounding, as where
# concatenated paths meet, are compared to this absolute tolerance.
COORD_TOL = 1e-9

# Two base points closer than this are one point: an element attached over a
# path point, the two ends of a closed loop, a declared self-crossing.
SAME_POINT_TOL = 1e-6

# Chart paths on the sphere must keep theta this far away from the poles.
POLE_MARGIN = 1e-6


class BasePoint(namedtuple("BasePoint", "space node coords")):
    """A point of a base space: either a named node or chart coordinates."""

    __slots__ = ()

    def __new__(cls, space: str, node: str | None = None,
                coords: tuple[float, ...] | None = None) -> BasePoint:
        if (node is None) == (coords is None):
            raise FibreTransportError("exactly one of node / coords must be set")
        return tuple.__new__(cls, (space, node, coords))

    @property
    def is_node(self) -> bool:
        return self.node is not None


def graph_point(space: str, node: str) -> BasePoint:
    return BasePoint(space=space, node=node)


def chart_point(space: str, *coords: float) -> BasePoint:
    return BasePoint(space=space, coords=tuple(map(float, coords)))


def point_deviation(x: BasePoint, y: BasePoint) -> float:
    """0.0 for one point; a positive gap otherwise, NaN if a coordinate gap
    is NaN.  Node points compare by identifier, chart points as (theta, phi)
    pairs with phi modulo 2*pi; any other two points are infinitely apart.
    """
    if x.space != y.space:
        return math.inf
    node = x.node
    if node is not None:
        if y.node is None:
            return math.inf
        return 0.0 if node == y.node else 1.0
    a, b = x.coords, y.coords
    if b is None or len(a) != 2 or len(b) != 2:
        return math.inf
    dth = abs(a[0] - b[0])
    dph = abs(a[1] - b[1]) % (2.0 * math.pi)
    dph = min(dph, 2.0 * math.pi - dph)
    return linalg.max_abs((dth, dph))  # both >= 0: their NaN-keeping maximum


class FibreElement(namedtuple("FibreElement", "over label vector")):
    """A point of the total space, recorded as (base point, fibre value).

    Exactly one of ``label`` (finite and section fibres) or ``vector``
    (vector fibres, components in the frame at ``over``) is set.
    """

    __slots__ = ()

    def __new__(cls, over: BasePoint, label: str | None = None,
                vector: tuple[float, ...] | None = None) -> FibreElement:
        if (label is None) == (vector is None):
            raise FibreTransportError("exactly one of label / vector must be set")
        return tuple.__new__(cls, (over, label, vector))


# The three constructors below set exactly one of label / vector by their
# form, so they build the record directly and skip FibreElement's check.

def label_element(over: BasePoint, label: str) -> FibreElement:
    if label is None:
        raise FibreTransportError("exactly one of label / vector must be set")
    return tuple.__new__(FibreElement, (over, label, None))


def vector_element(over: BasePoint, components) -> FibreElement:
    """An element with the given components; their count is checked where
    the element enters ``transport``."""
    return tuple.__new__(FibreElement,
                         (over, None, tuple(map(float, components))))


def rebase(u: FibreElement, over: BasePoint) -> FibreElement:
    """The same fibre value attached over an equal base point."""
    return tuple.__new__(FibreElement, (over, u.label, u.vector))


def element_deviation(a: FibreElement, b: FibreElement) -> float:
    """Gap between two total-space points; 0.0 means indistinguishable, and
    a NaN base or fibre gap gives NaN."""
    base_gap = point_deviation(a.over, b.over)
    if a.label is not None and b.label is not None:
        return max(base_gap, 0.0 if a.label == b.label else 1.0)
    u, v = a.vector, b.vector
    if u is None or v is None or len(u) != len(v):
        return math.inf
    gap = linalg.max_abs(linalg.vec_sub(u, v))
    # max(base_gap, gap), except that a NaN gap is kept
    return gap if gap > base_gap or gap != gap else base_gap


class Section(namedtuple("Section", "name assignment")):
    """An assignment of a fibre element over each base point it covers:
    ``assignment(x)`` is the element over x, and ``name`` labels reports."""

    __slots__ = ()

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


class FibreBundle(namedtuple("FibreBundle", "base_space_id base_kind "
                             "fibre_kind nodes labels sections")):
    """A total space over a base.  Its kinds are derived, never passed: a
    graph base exactly when ``nodes`` is given, else a sphere; a finite fibre
    when ``labels`` is, a section fibre when ``sections`` is, else vector."""

    __slots__ = ()

    def __new__(cls, base_space_id: str,
                nodes: tuple[str, ...] | None = None,
                labels: tuple[str, ...] | None = None,
                sections: tuple[Section, ...] | None = None) -> FibreBundle:
        if labels is not None and sections is not None:
            raise FibreTransportError("a fibre takes labels or sections, not both")
        base_kind = "sphere" if nodes is None else "graph"
        fibre_kind = ("finite" if labels is not None else
                      "sections" if sections is not None else "vector")
        self = tuple.__new__(cls, (base_space_id, base_kind, fibre_kind,
                                   nodes, labels, sections))
        if base_kind == "graph" and not nodes:
            raise FibreTransportError("graph base needs nodes")
        if fibre_kind == "finite" and not labels:
            raise FibreTransportError("finite fibre needs labels")
        if fibre_kind == "sections":
            if not sections:
                raise FibreTransportError(
                    "section fibre needs at least one section")
            self._check_sections_disjoint()
        return self

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

    # -- base-space membership ----------------------------------------------

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


def fibre_labels(bundle: FibreBundle, x: BasePoint) -> tuple[str, ...] | None:
    """The labels of the fibre over x, or None for a vector fibre."""
    bundle.require_point(x)
    if bundle.fibre_kind == "finite":
        return bundle.labels
    if bundle.fibre_kind == "vector":
        return None
    return tuple(sec.at(x).label for sec in bundle.sections)


def fibre_elements(bundle: FibreBundle, x: BasePoint) -> tuple[FibreElement, ...]:
    """The frame a fibre map over x is read on: every label of the fibre, or
    the basis e0, e1 of a vector fibre."""
    labels = fibre_labels(bundle, x)
    if labels is None:
        return (vector_element(x, (1.0, 0.0)), vector_element(x, (0.0, 1.0)))
    return tuple(label_element(x, lab) for lab in labels)


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


class BundleMetric(namedtuple("BundleMetric", "name matrix_at")):
    """A fibre metric: ``matrix_at(x)`` is a symmetric positive matrix in the
    frame at x."""

    __slots__ = ()


def euclidean_metric() -> BundleMetric:
    eye = linalg.identity()
    return BundleMetric(name="euclidean", matrix_at=lambda x: eye)


def evaluate_metric(metric: BundleMetric, x: BasePoint, u: FibreElement, v: FibreElement) -> float:
    """g_x(u, v) for two vectors attached over x."""
    if u.vector is None or v.vector is None:
        raise FibreTransportError("metric applies to vector fibres")
    g = metric.matrix_at(x)
    if [*map(len, g), len(u.vector), len(v.vector)] != [2, 2, 2, 2]:
        raise FibreTransportError("metric and vectors must be rank 2")
    return linalg.dot(u.vector, linalg.matvec(g, v.vector))
