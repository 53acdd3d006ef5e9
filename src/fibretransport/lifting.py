"""Liftings: curves in the total space that ride along a base path.

Anchoring a fibre element u at a parameter s0 and transporting it to every
other parameter traces out a lifting: a curve t -> (path(t), value(t)) whose
projection is the base path and whose value at s0 is u.  The law trials
here cover the projection identity, consistency under re-anchoring, global
uniqueness over self-intersecting paths (loops included), and the fact that
the liftings through one fibre sweep every fibre the path touches.

Liftings evaluate lazily: ``lift`` checks the anchor once, as ``transport``
checks its input, and each ``at`` call is then one application of the
transport's rule.
"""

from __future__ import annotations

from collections import namedtuple

from . import linalg
from .bundles import (SAME_POINT_TOL, FibreElement, chart_deviation,
                      element_deviation, fibre_elements, fibre_labels, rebase)
from .errors import FibreTransportError
from .paths import Path, piece_runs
from .transport import (Transport, _desc, _draws, checked_source,
                        element_drawer, transport)


class Lifting(namedtuple("Lifting", "path anchor through value_fn name",
                         defaults=("lifting",))):
    """A total-space curve over ``path`` pinned to ``through`` at ``anchor``:
    ``value_fn(t)`` is its fibre element at parameter t.  In a lifting made
    by ``lift`` that is one application of the transport's rule to the
    anchor ``lift`` checked."""

    __slots__ = ()

    def at(self, t: float) -> FibreElement:
        return self.value_fn(self.path.domain.clamp(t))


def lift(T: Transport, p: Path, u: FibreElement, s0: float) -> Lifting:
    """The lifting through u anchored at parameter s0.

    The anchor is refused here as ``transport`` would refuse it, so reading
    the lifting applies T's rule without checking (p, s0, u) again."""
    s0, _ = checked_source(T, p, s0, s0, u)
    apply = T.apply_fn
    return Lifting(path=p, anchor=s0, through=u,
                   value_fn=lambda t: apply(p, s0, t, u),
                   name=f"lift[{p.name}@{s0:g}]")


def occurrence_set(p: Path, u: FibreElement) -> tuple[float, ...]:
    """Parameters at which the path sits under u's base point.

    Discrete paths report the midpoint of each maximal constancy run whose
    node matches.  Chart paths report matches among the declared
    self-crossing parameters (generic chart points occur once and carry no
    declared parameter, so they are not locatable), compared under
    ``chart_deviation`` as ``with_crossings`` compares them.  An element
    whose base point never shows up raises FibreTransportError.
    """
    found: list[float] = []
    if p.kind == "discrete":
        for lo, hi, x in piece_runs(p):
            if x.node == u.over.node:
                found.append((lo + hi) / 2.0)
    elif u.over.space == p.space and not u.over.is_node:
        candidates = sorted({c for pair in p.crossings for c in pair})
        for c in candidates:
            if chart_deviation(p.at(c), u.over) <= SAME_POINT_TOL:
                found.append(c)
    if not found:
        raise FibreTransportError(
            f"no occurrence of base point {u.over} along {p.name!r}")
    return tuple(found)


# ---------------------------------------------------------------------------
# Law trials (see the transport module's)
# ---------------------------------------------------------------------------

def projection_trial(T: Transport, paths, trials: int):
    """Law 4.2: liftings project onto the base path and hit their anchor."""
    draw = _draws(T.bundle, paths)

    def trial(k, rng):
        p, _, (s0, t), u = draw(k, rng)
        lifted = lift(T, p, u, s0)
        yield (T.bundle.point_deviation(lifted.at(t).over, p.at(t)),
               p.name, {"s0": s0, "t": t}, ["projection"])
        yield (element_deviation(lifted.at(s0), u),
               p.name, {"s0": s0}, ["anchor"])

    return trial, trials, "two records per trial: projection, anchor"


def self_consistency_trial(T: Transport, paths, trials: int):
    """Law 4.6: a lifting re-anchored at any of its own points is unchanged,
    compared on a 7-point grid."""
    draw = _draws(T.bundle, paths)

    def trial(k, rng):
        p, _, (s0, r), u = draw(k, rng)
        first = lift(T, p, u, s0)
        second = lift(T, p, first.at(r), r)
        # deviations are non-negative: max_abs is their NaN-keeping maximum
        dev = linalg.max_abs([element_deviation(first.at(g), second.at(g))
                              for g in p.domain.samples(7)])
        yield dev, p.name, {"r": r, "s0": s0}, [_desc(u)]

    return trial, trials, "liftings compared on 7-point grids"


def _revisit_pairs(p: Path) -> list[tuple[float, float]]:
    """Parameter pairs at which the path provably sits at one base point."""
    if p.kind == "discrete":
        by_node: dict[str, list[float]] = {}
        for lo, hi, x in piece_runs(p):
            by_node.setdefault(x.node, []).append((lo + hi) / 2.0)
        pairs = []
        for reps in by_node.values():
            pairs.extend((reps[i], reps[j])
                         for i in range(len(reps))
                         for j in range(i + 1, len(reps)))
        return sorted(pairs)
    return sorted(p.crossings)


def uniqueness_trial(T: Transport, p: Path, trials: int):
    """Law 4.4: wherever the path revisits a base point, transporting between
    the two visits is the identity, so liftings are single-valued over it.

    One trial per revisit pair; ``trials`` only sets how many random vectors
    join the basis at each pair of a vector fibre.  A path without revisits
    runs one empty trial, a vacuous pass."""
    pairs = _revisit_pairs(p)
    if not pairs:
        return lambda k, rng: iter(()), 1, "no revisited base points; vacuous"
    element = element_drawer(T.bundle)

    def trial(k, rng):
        r, s = pairs[k]
        x = p.at(r)
        elements = list(fibre_elements(T.bundle, x))
        if T.bundle.fibre_kind == "vector":
            extra = max(1, trials // (8 * len(pairs)))
            elements += [element(rng, x) for _ in range(extra)]
        for u in elements:
            back = transport(T, p, r, s, u)
            yield (element_deviation(back, rebase(u, p.at(s))),
                   p.name, {"from": r, "to": s}, [_desc(u)])
        # the same requirement, phrased through liftings: anchoring at either
        # visit must produce the same curve
        probe = elements[rng.randrange(len(elements))]
        l1 = lift(T, p, probe, r)
        l2 = lift(T, p, rebase(l1.at(s), p.at(s)), s)
        dev = linalg.max_abs([element_deviation(l1.at(g), l2.at(g))
                              for g in p.domain.samples(7)])
        yield dev, p.name, {"from": r, "to": s}, ["lift comparison"]

    return trial, len(pairs), f"{len(pairs)} revisit pair(s)"


def fibre_cover_trial(T: Transport, p: Path, trials: int):
    """Law 4.7: liftings through the full fibre over path(lo) sweep every
    fibre over the path, in one enumeration.  Finite fibres over discrete
    paths only; the comparison is exact."""
    if p.kind != "discrete":
        raise FibreTransportError("fibre-cover enumeration needs a discrete path")
    if T.bundle.fibre_kind == "vector":
        raise FibreTransportError("fibre-cover enumeration needs finite fibres")
    s0 = p.domain.lo
    reps = [(lo + hi) / 2.0 for lo, hi, _ in piece_runs(p)]
    total = {(p.at(r).node, lab)
             for r in reps for lab in fibre_labels(T.bundle, p.at(r))}

    def trial(k, rng):
        covered = set()
        for u in fibre_elements(T.bundle, p.at(s0)):
            lifted = lift(T, p, u, s0)
            for r in reps:
                v = lifted.at(r)
                covered.add((v.over.node, v.label))
        missing = sorted(total - covered)
        stray = sorted(covered - total)
        dev = 0.0 if not missing and not stray else 1.0
        yield (dev, p.name, {"s0": s0},
               [f"missing:{n}/{l}" for n, l in missing]
               + [f"stray:{n}/{l}" for n, l in stray])

    return trial, 1, f"{len(total)} total-space points over the trace"
