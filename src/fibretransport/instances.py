"""Ready-made transport instances and the preset registry.

Four well-behaved instances cover the fibre kinds the package supports:

* ``perm-c3``: label bijections composed over the hops of a three-node cycle.
* ``foliation-2sec``: a two-section family over a graph; transport slides a
  point along the unique section through it.
* ``parallelization-flat``: a global frame per node built from quarter-turn
  signed permutation matrices, giving a curvature-free linear transport whose
  law deviations are bitwise zero.
* ``sphere-levi-civita``: parallel transport of tangent vectors on the round
  sphere by a fixed-step fourth-order Magnus flow.

A fifth family, ``counterexample:<kind>``, deliberately breaks exactly one
law each while keeping a stated set of the others; they act as negative
controls for the checkers.
"""

from __future__ import annotations

import math
import sys
import weakref
from collections import namedtuple
from types import MappingProxyType
from typing import Callable, Iterable, Mapping

from . import linalg, sphere
from .bundles import (SAME_POINT_TOL, BasePoint, BundleMetric, FibreBundle,
                      FibreElement, euclidean_metric, graph_point,
                      label_element, point_deviation, section_through,
                      table_section, vector_element)
from .errors import FibreTransportError
from .factorization import (FRAME_GAP_EPS, fibre_map, map_deviation,
                            map_invert, map_size)
from .integrate import CellStore, rk4_linear_flow
from .paths import Path, UNIT, node_sequence, piecewise_path, trace_nodes
from .laws import LAW_ORDER, LAWS
from .transport import Transport

COUNTEREXAMPLE_KINDS = (
    "group_breaking", "nonlocal", "non_reparam_invariant",
    "nonlinear", "metric_breaking",
)


# ---------------------------------------------------------------------------
# Transport constructors
# ---------------------------------------------------------------------------

def permutation_transport(bundle: FibreBundle,
                          edge_maps: Mapping[tuple[str, str], Mapping[str, str]],
                          name: str = "permutation") -> Transport:
    """Compose label bijections over the node hops of discrete paths.

    Reverse hops use the inverse bijection; supplying both orientations of an
    edge with inconsistent maps is rejected.  Hops without a map, and
    labels outside the fibre, are refused at application time.
    """
    if bundle.fibre_kind != "finite":
        raise FibreTransportError("permutation transports need finite fibres")
    labels = set(bundle.labels)
    maps: dict[tuple[str, str], dict[str, str]] = {}
    for (a, b), m in edge_maps.items():
        m = dict(m)
        if set(m) != labels or set(m.values()) != labels:
            raise FibreTransportError(
                f"map over edge ({a}, {b}) is not a bijection "
                f"of the fibre labels")
        maps[(a, b)] = m
    for (a, b), m in list(maps.items()):
        rev = {v: k for k, v in m.items()}
        if (b, a) in maps and maps[(b, a)] != rev:
            raise FibreTransportError(
                f"maps over ({a}, {b}) and ({b}, {a}) are not "
                f"mutually inverse")
        maps.setdefault((b, a), rev)

    def apply(p: Path, s: float, t: float, u: FibreElement) -> FibreElement:
        lab = u.label
        seq = node_sequence(p, s, t)
        for x, y in zip(seq, seq[1:]):
            m = maps.get((x, y))
            if m is None:
                raise FibreTransportError(f"no fibre map across hop ({x}, {y})")
            lab = m[lab]
        return label_element(p.at(t), lab)

    return Transport(name=name, bundle=bundle, apply_fn=apply,
                     declared=frozenset({"local", "reparam_invariant"}),
                     tolerance=0.0)


def foliation_transport(bundle: FibreBundle, name: str = "foliation") -> Transport:
    """Slide each element along the unique family section through it.

    The section through each (node, value) pair is tabulated here: the
    bundle has checked that its family is defined at every node and
    pairwise disjoint, so each pair names at most one section.  An element
    the table misses is looked up by ``section_through``, which refuses one
    that no section passes through.
    """
    if bundle.fibre_kind != "sections":
        raise FibreTransportError("foliation transports need a section family")
    through = {}
    for n in bundle.nodes:
        x = graph_point(bundle.base_space_id, n)
        for sec in bundle.sections:
            through[(n, sec.at(x).label)] = sec

    def apply(p: Path, s: float, t: float, u: FibreElement) -> FibreElement:
        sec = through.get((u.over.node, u.label))
        if sec is None:
            sec = section_through(bundle, u)
        return sec.at(p.at(t))

    return Transport(name=name, bundle=bundle, apply_fn=apply,
                     declared=frozenset({"local", "reparam_invariant", "global"}),
                     tolerance=0.0)


def parallelization_transport(bundle: FibreBundle,
                              frames: Mapping[str, linalg.Mat],
                              name: str = "parallelization") -> Transport:
    """Identify all fibres through one invertible frame matrix per node.

    The point maps are frame(y) o frame(x)^{-1}; their two-point cocycle
    identities are validated exhaustively at construction, each against
    its FRAME_GAP_EPS bound on the maps it composes, frame(z), frame(y)^-1,
    frame(y) and frame(x)^-1.  A frame that is not 2 x 2, is singular or is
    not finite is refused.  The tolerance is 0.0 when every point map is a
    signed permutation, as between quarter turns: an image is then its
    element's components moved and signed, with no rounding.  Otherwise it
    is the largest of those bounds, since even maps whose cocycle gaps are
    all 0, such as those between the frames 1 and 3, round when applied
    one after the other.
    """
    if bundle.fibre_kind != "vector":
        raise FibreTransportError("parallelizations need vector fibres")
    missing = set(bundle.nodes) - set(frames)
    if missing:
        raise FibreTransportError(f"no frame for nodes {sorted(missing)}")
    inv = {n: map_invert(frames[n]) for n in bundle.nodes}
    pair = {(x, y): linalg.matmul(frames[y], inv[x])
            for x in bundle.nodes for y in bundle.nodes}
    size = {n: map_size(frames[n]) for n in bundle.nodes}
    inv_size = {n: map_size(inv[n]) for n in bundle.nodes}
    bound = 0.0
    for x in bundle.nodes:
        for y in bundle.nodes:
            for z in bundle.nodes:
                gap = map_deviation(linalg.matmul(pair[(y, z)], pair[(x, y)]),
                                    pair[(x, z)])
                allowed = (FRAME_GAP_EPS * sys.float_info.epsilon * size[z]
                           * inv_size[y] * size[y] * inv_size[x])
                if not gap <= allowed:
                    raise FibreTransportError(
                        f"frame maps fail to compose across ({x}, {y}, {z}); "
                        f"gap {gap}, allowed {allowed}")
                bound = max(bound, allowed)
    exact = all(sorted(map(abs, row)) == [0.0, 1.0]
                for m in pair.values() for row in m)

    def apply(p: Path, s: float, t: float, u: FibreElement) -> FibreElement:
        x, y = u.over.node, p.at(t)
        if x == y.node:
            return vector_element(y, u.vector)
        return vector_element(y, linalg.matvec(pair[(x, y.node)], u.vector))

    return Transport(name=name, bundle=bundle, apply_fn=apply,
                     declared=frozenset({"local", "reparam_invariant",
                                         "linear", "global"}),
                     tolerance=0.0 if exact else bound)


# Integrator step of numeric presets unless the caller picks one.  It is
# the coarsest step of the halving ladder from 1 at which the sphere's
# tolerance (see ``step_error``) still flags an error of 1e-8 in the
# coefficients' metric part: 3.0e-9 to 4.9e-9 on law 2.9 (seeds 0-3, 20
# trials) against a threshold of 7.0e-10, where step 1.6e-2 sets 1.1e-8.
DEFAULT_STEP = 8e-3

# Finest integrator step.  Cells are kept for the whole span a transport
# covers, 32 bytes each, and their aligned block products at most as much
# again, so a step bounds memory as well as work: MAX_SPAN / MIN_STEP cells
# and their blocks are about 52 MB per direction, plus at most
# ``integrate.PARTIAL_STEPS`` partial steps (about 16 kB).  A finer step buys
# nothing: below about 1e-3 the roundoff summed over 1/step cells outgrows
# the Magnus truncation, and the honest error rises again, to 4.3e-12 at
# MIN_STEP against 7.8e-14 at 1e-3.
MIN_STEP = 1e-5

# Longest path domain an ODE transport integrates over.
MAX_SPAN = 8.0


# The honest sphere error at step h is modelled as e(h) = 0.017 h**4 + 0.5
# eps / h: the fourth-order Magnus truncation (see ``integrate``) plus
# roundoff summed over about 1/h cells (Higham, Accuracy and Stability of
# Numerical Algorithms, ch. 3).  The worst deviation over every sphere law
# but the relative 2.8, at 200 trials and seeds 1-3 (0-3 for h >= 0.1), over
# its law's factor K:
#
#   h       worst            e(h)     worst/(K e(h))
#   1e-5    4.3e-12 (2.9)    1.1e-11  0.39
#   3e-5    1.4e-12 (2.9)    3.7e-12  0.39
#   1e-4    4.2e-13 (2.9)    1.1e-12  0.38
#   3e-4    2.0e-13 (2.6)    3.7e-13  0.27
#   1e-3    7.8e-14 (2.6)    1.3e-13  0.30
#   2e-3    1.2e-12 (2.6)    3.3e-13  1.90
#   4e-3    1.9e-11 (2.6)    4.4e-12  2.21
#   8e-3    3.0e-10 (2.6)    7.0e-11  2.17
#   1.6e-2  4.7e-9  (2.6)    1.1e-9   2.13
#   2e-2    1.1e-8  (2.6)    2.7e-9   1.98
#   0.1     5.6e-6  (2.6)    1.7e-6   1.64
#   0.25    2.3e-4  (2.6)    6.6e-5   1.75
#   0.5     2.6e-3  (2.6)    1.1e-3   1.25
#   1       1.6e-2  (2.6)    1.7e-2   0.48
#
# An ODE transport's tolerance is ten times e(h), so each law's threshold,
# 10 K e(h), stays at least 4.5 times above the worst honest deviation.
# Fitting the h**4 constant to the worst ratio instead (about 0.037) would
# leave law 2.9's threshold within a factor of 2 of the metric error it must
# flag at DEFAULT_STEP.
def step_error(step: float) -> float:
    """e(step), the model of the worst honest integrator error above."""
    return 0.017 * step ** 4 + 0.5 * sys.float_info.epsilon / step


def require_step(step: float) -> float:
    if not (MIN_STEP <= step <= 1.0):
        raise FibreTransportError(
            f"integrator step out of range [{MIN_STEP:g}, 1]: {step}")
    return step


def linear_ode_transport(bundle: FibreBundle,
                         coefficients: Callable[[tuple, tuple], linalg.Mat],
                         step: float = DEFAULT_STEP,
                         name: str = "linear-ode") -> Transport:
    """Transport the vectors of a vector fibre by integrating u' = A u along
    chart paths; a bundle of any other fibre is refused.

    ``coefficients(x, xdot)`` gives the 2 x 2 matrix A at chart coordinates
    x for chart velocity xdot, read together from the path's jet; the flow
    is the fixed-step fourth-order Magnus method on the lattice of
    parameters k * step (see ``integrate``).  Cell propagators are built on
    first use and kept by this transport, one store per jet and direction;
    a store lives as long as its jet.  The tolerance is always
    ``10 * step_error(step)``.  The transport declares what holds for every
    coefficient field (``local``, ``reparam_invariant``, ``linear``); a
    caller whose field preserves a metric declares ``metric_consistent``.

    Finiteness is checked once per flow, on its propagators: a non-finite
    stage coefficient always makes its propagator non-finite.  A flow that
    raises or returns a non-finite entry is replayed with every stage's
    coefficients checked as they are read, so the error names the first
    stage whose matrix is not 2 x 2 or not finite, or is the one the first
    failing stage raised; if the replay returns, its propagators are taken
    as they are.
    """
    require_step(step)
    if bundle.fibre_kind != "vector":
        raise FibreTransportError("ODE transports need vector fibres")
    # jet -> {direction: cells}
    stores: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()

    def apply(p: Path, s: float, t: float, u: FibreElement) -> FibreElement:
        if p.domain.width > MAX_SPAN:
            raise FibreTransportError(
                f"path spans {p.domain.width}, integrator allows {MAX_SPAN}")
        if t == s:
            return vector_element(p.at(t), u.vector)
        if p.kind != "chart":
            raise FibreTransportError("ODE transports integrate along chart paths")
        jet, isfinite = p.jet, math.isfinite

        # Stage parameters lie inside cells of [s, t], which ``transport``
        # has clamped, so the raw jet is read without checking them again.
        def coefficient(r: float) -> linalg.Mat:
            return coefficients(*jet(r))

        def checked(r: float) -> linalg.Mat:
            a = coefficients(*jet(r))
            if [len(row) for row in a] != [2, 2]:
                raise FibreTransportError(
                    f"transport coefficients not 2 x 2"
                    f" at parameter {r} of {p.name!r}")
            for row in a:
                for c in row:
                    if not isfinite(c):
                        raise FibreTransportError(
                            f"non-finite transport coefficients"
                            f" at parameter {r} of {p.name!r}")
            return a

        def flow(a: float, b: float, nodes: Iterable[float]):
            nodes = tuple(nodes)
            try:
                props = rk4_linear_flow(coefficient, a, b, nodes)
                if all(map(isfinite, props)):
                    return props
            except Exception:  # the checked replay raises it in stage order
                pass
            return rk4_linear_flow(checked, a, b, nodes)

        d = 1 if t > s else -1
        by_direction = stores.setdefault(jet, {})
        cells = by_direction.get(d)
        if cells is None:
            cells = by_direction[d] = CellStore(step, d)
        kinks = p.interior_breakpoints(min(s, t), max(s, t))[::d]
        moved = cells.transport(flow, s, t, kinks, u.vector)
        return vector_element(p.at(t), moved)

    return Transport(name=name, bundle=bundle, apply_fn=apply,
                     declared=frozenset({"local", "reparam_invariant",
                                         "linear"}),
                     tolerance=10 * step_error(step))


# ---------------------------------------------------------------------------
# Negative controls
# ---------------------------------------------------------------------------

def _rotate(angle: float, v) -> tuple[float, float]:
    return linalg.matvec(linalg.rotation(angle), v)


def counterexample_transport(kind: str) -> Transport:
    """A transport engineered to fail exactly one checker.

    Each kind carries ``violates`` (the law id its designated checker flags)
    and ``preserves`` (law ids whose checkers it passes).  All five act on a
    two-dimensional vector fibre over a four-node graph.
    """
    bundle = _cx_bundle()
    omega = {n: float(i) for i, n in enumerate(bundle.nodes)}

    def node_gap(x: BasePoint, y: BasePoint) -> float:
        return omega[y.node] - omega[x.node]

    if kind == "group_breaking":
        def apply(p, s, t, u):
            y = p.at(t)
            if u.over.node == y.node:
                return vector_element(y, u.vector)
            return vector_element(y, _rotate(1.0, u.vector))
        violates = "2.2"
        preserves = frozenset({"2.3", "2.5/2.7", "2.6", "2.8", "2.9"})
        declared = {"local", "reparam_invariant", "linear", "metric_consistent"}
    elif kind == "nonlocal":
        def apply(p, s, t, u):
            y = p.at(t)
            angle = node_gap(u.over, y) * float(len(trace_nodes(p)))
            return vector_element(y, _rotate(angle, u.vector))
        violates = "2.5/2.7"
        preserves = frozenset({"2.2", "2.3", "2.6", "2.8", "2.9"})
        declared = {"reparam_invariant", "linear", "metric_consistent"}
    elif kind == "non_reparam_invariant":
        def apply(p, s, t, u):
            return vector_element(p.at(t), _rotate(t - s, u.vector))
        violates = "2.6"
        preserves = frozenset({"2.2", "2.3", "2.5/2.7", "2.8", "2.9"})
        declared = {"local", "linear", "metric_consistent"}
    elif kind == "nonlinear":
        def apply(p, s, t, u):
            y = p.at(t)
            norm = math.sqrt(u.vector[0] ** 2 + u.vector[1] ** 2)
            return vector_element(y, _rotate(norm * node_gap(u.over, y),
                                             u.vector))
        violates = "2.8"
        preserves = frozenset({"2.2", "2.3", "2.5/2.7", "2.6"})
        declared = {"local", "reparam_invariant"}
    elif kind == "metric_breaking":
        def apply(p, s, t, u):
            scale = math.exp(t - s)
            return vector_element(p.at(t), tuple(scale * c for c in u.vector))
        violates = "2.9"
        preserves = frozenset({"2.2", "2.3", "2.5/2.7", "2.8"})
        declared = {"local", "linear"}
    else:
        raise FibreTransportError(
            f"unknown counterexample kind {kind!r}; "
            f"expected one of {', '.join(COUNTEREXAMPLE_KINDS)}")

    return Transport(name=f"counterexample:{kind}", bundle=bundle,
                     apply_fn=apply, declared=frozenset(declared),
                     tolerance=1e-9, violates=violates, preserves=preserves)


# ---------------------------------------------------------------------------
# Holonomy
# ---------------------------------------------------------------------------

def _orthonormalizer(metric: BundleMetric | None, x: BasePoint) -> linalg.Mat:
    if metric is None:
        return linalg.identity()
    g = metric.matrix_at(x)
    if [len(row) for row in g] != [2, 2]:
        raise FibreTransportError(f"metric {metric.name!r} is not 2 x 2")
    a = math.sqrt(g[0][0])
    b = g[0][1] / a
    c = math.sqrt(g[1][1] - b * b)
    return ((a, b), (0.0, c))


def loop_matrix(T: Transport, loop: Path) -> linalg.Mat:
    """The matrix of a full traversal of a closed path, in the chart frame."""
    if T.bundle.fibre_kind != "vector":
        raise FibreTransportError("holonomy applies to vector fibres")
    if point_deviation(loop.start, loop.end) > SAME_POINT_TOL:
        raise FibreTransportError(f"path {loop.name!r} is not closed")
    return fibre_map(T, loop, loop.domain.lo, loop.domain.hi)


def holonomy_angle(T: Transport, loop: Path,
                   metric: BundleMetric | None = None) -> float:
    """Signed rotation angle of a closed-loop traversal.

    The loop matrix is conjugated into an orthonormal frame at the base
    point first, so the angle is metric-honest even in skewed charts.
    """
    m = loop_matrix(T, loop)
    s = _orthonormalizer(metric, loop.at(loop.domain.lo))
    return linalg.rotation_angle(
        linalg.matmul(linalg.matmul(s, m), linalg.inverse(s)))


# ---------------------------------------------------------------------------
# Presets
# ---------------------------------------------------------------------------

class InstanceSpec(namedtuple(
        "InstanceSpec", "name transport metric law_paths product_pair "
        "uniqueness_path loops step",
        defaults=(None, (), None, None, MappingProxyType({}), None))):
    """Everything a CLI run needs to exercise one instance.

    ``transport`` and its ``metric`` (or None), the ``law_paths`` the laws
    draw from, the ``product_pair`` the product laws glue (or None), the
    ``uniqueness_path`` of law 4.4 (or None), the named closed ``loops``
    (default: a shared empty read-only mapping) and the integrator ``step``
    (None for exact instances).
    """

    __slots__ = ()

    @property
    def bundle(self) -> FibreBundle:
        return self.transport.bundle

    @property
    def applicable(self) -> tuple[str, ...]:
        """Law ids a default run executes, in registry order.

        A saboteur runs exactly the laws it claims to violate or preserve.
        """
        T = self.transport
        if T.violates is not None:
            claimed = T.preserves | {T.violates}
            return tuple(law for law in LAW_ORDER if law in claimed)
        return tuple(law.id for law in LAWS if law.applies(self))

    def path_named(self, name: str) -> Path:
        pair = self.product_pair or ()
        for p in (*self.law_paths, *pair):
            if p.name == name:
                return p
        if name in self.loops:
            return self.loops[name]
        if self.uniqueness_path is not None and self.uniqueness_path.name == name:
            return self.uniqueness_path
        known = dict.fromkeys([p.name for p in (*self.law_paths, *pair)]
                              + list(self.loops))
        raise FibreTransportError(
            f"no path named {name!r}; known: {', '.join(known)}")


def _tour(space: str, nodes: str, name: str) -> Path:
    """A unit-domain walk through the space-separated nodes, each node held
    for an equal share of the domain."""
    names = nodes.split()
    return piecewise_path(space, UNIT, [((i + 1) / len(names), n)
                                        for i, n in enumerate(names)],
                          name=name)


def _graph_spec(T: Transport, walk: str, second: str, name: str,
                loop: bool = False) -> InstanceSpec:
    """A graph preset over T's bundle.

    The law paths are the node tours ``walk`` (named "walk") and ``second``
    (named ``name``); the second is also the uniqueness path and, with
    ``loop``, a declared loop.  The product pair hops over the first three
    nodes.
    """
    space = T.bundle.base_space_id
    n0, n1, n2 = T.bundle.nodes[:3]
    other = _tour(space, second, name)
    hop1 = _tour(space, f"{n0} {n1}", "hop1")
    hop2 = _tour(space, f"{n1} {n2}", "hop2")
    return InstanceSpec(
        name=T.name, transport=T,
        law_paths=(_tour(space, walk, "walk"), other),
        product_pair=(hop1, hop2),
        uniqueness_path=other, loops={name: other} if loop else {})


def _perm_c3() -> InstanceSpec:
    bundle = FibreBundle(base_space_id="c3", nodes=("n0", "n1", "n2"),
                         labels=("a", "b", "c"))
    T = permutation_transport(bundle, {
        ("n0", "n1"): {"a": "b", "b": "c", "c": "a"},
        ("n1", "n2"): {"a": "a", "b": "c", "c": "b"},
        ("n2", "n0"): {"a": "c", "b": "a", "c": "b"},
    }, name="perm-c3")
    return _graph_spec(T, "n0 n1 n2", "n0 n1 n0 n1", "zigzag")


def _foliation_2sec() -> InstanceSpec:
    space = "fol3"
    alpha = table_section("alpha", space, {"g0": "a0", "g1": "a1", "g2": "a2"})
    beta = table_section("beta", space, {"g0": "b0", "g1": "b1", "g2": "b2"})
    bundle = FibreBundle(base_space_id=space, nodes=("g0", "g1", "g2"),
                         sections=(alpha, beta))
    T = foliation_transport(bundle, name="foliation-2sec")
    return _graph_spec(T, "g0 g1 g2", "g0 g1 g0 g2 g0", "figure-eight")


_QUARTER_TURNS = (
    ((1.0, 0.0), (0.0, 1.0)),
    ((0.0, -1.0), (1.0, 0.0)),
    ((-1.0, 0.0), (0.0, -1.0)),
    ((0.0, 1.0), (-1.0, 0.0)),
)


def _parallelization_flat() -> InstanceSpec:
    nodes = ("w0", "w1", "w2", "w3")
    bundle = FibreBundle(base_space_id="quad", nodes=nodes)
    frames = {n: _QUARTER_TURNS[i] for i, n in enumerate(nodes)}
    T = parallelization_transport(bundle, frames, name="parallelization-flat")
    return _graph_spec(T, "w0 w1 w2 w3", "w0 w1 w0 w2 w0", "figure-eight",
                       loop=True)


def _sphere_levi_civita(step: float) -> InstanceSpec:
    T = linear_ode_transport(sphere.tangent_bundle(), sphere.coefficient_matrix,
                             step, name="sphere-levi-civita")
    # the Levi-Civita connection preserves the round metric
    T = T._replace(declared=T.declared | {"metric_consistent"})
    metric = sphere.round_metric()
    quarter_equator = sphere.latitude_arc(math.pi / 2, 0.0, math.pi / 2,
                                          name="quarter-equator")
    quarter_meridian = sphere.great_circle_arc(
        (math.pi / 2, math.pi / 2), (math.pi / 4, math.pi / 2),
        name="quarter-meridian")
    tilted = sphere.great_circle_arc((1.9, 0.3), (1.1, 1.8), name="tilted")
    lat_arc = sphere.latitude_arc(math.pi / 3, 0.0, 3 * math.pi / 4,
                                  name="latitude-arc")
    octant = sphere.octant_loop()
    loops = {"octant": octant,
             "equator": sphere.closed_latitude(math.pi / 2, name="equator"),
             "latitude-60": sphere.closed_latitude(math.pi / 3,
                                                   name="latitude-60")}
    spec = InstanceSpec(
        name="sphere-levi-civita", transport=T, metric=metric,
        law_paths=(quarter_equator, quarter_meridian, tilted, lat_arc),
        product_pair=(quarter_equator, quarter_meridian),
        uniqueness_path=octant, loops=loops, step=step)
    return spec


def _counterexample(kind: str) -> InstanceSpec:
    T = counterexample_transport(kind)
    space = T.bundle.base_space_id
    return InstanceSpec(
        name=T.name, transport=T, metric=euclidean_metric(),
        law_paths=(_tour(space, "x0 x1 x2 x0", "loop3"),
                   _tour(space, "x0 x1 x3", "walk")))


def _cx_bundle() -> FibreBundle:
    return FibreBundle(base_space_id="cx", nodes=("x0", "x1", "x2", "x3"))


# Preset builders by name, called with the checked integrator step; exact
# presets ignore it.
PRESETS: dict[str, Callable[[float], InstanceSpec]] = {
    "perm-c3": lambda step: _perm_c3(),
    "foliation-2sec": lambda step: _foliation_2sec(),
    "parallelization-flat": lambda step: _parallelization_flat(),
    "sphere-levi-civita": _sphere_levi_civita,
    **{f"counterexample:{kind}": lambda step, kind=kind: _counterexample(kind)
       for kind in COUNTEREXAMPLE_KINDS},
}


def instance_names() -> tuple[str, ...]:
    return tuple(PRESETS)


def make_instance(name: str, step: float | None = None) -> InstanceSpec:
    """Instantiate a preset by name.

    ``step`` (default DEFAULT_STEP) must lie in [MIN_STEP, 1] for every
    preset; numeric instances integrate at it and exact ones ignore it.
    """
    try:
        build = PRESETS[name]
    except KeyError:
        raise FibreTransportError(
            f"unknown instance {name!r}; known: "
            f"{', '.join(instance_names())}") from None
    return build(require_step(DEFAULT_STEP if step is None else step))
