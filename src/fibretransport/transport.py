"""Transports along paths, and the trials that exercise their laws.

A transport assigns to every path and parameter pair (s, t) a map between the
fibres over the path's points at s and t.  The defining algebra: composing the
(s, t) and (t, r) maps gives the (s, r) map, and the (s, s) map is the
identity.  Everything else checked here (locality, reparameterization
invariance, linearity, metric consistency, inverse laws, concatenation
product laws) is an additional property a given transport may or may not
declare and satisfy.

Each law's trial builder returns a generator of randomized comparisons; the
registry in ``laws`` names the law and hands the trial to ``run_trials``,
which tallies a ``LawReport``.  Reports serialize to JSON deterministically:
same instance, same seed, same trial count gives byte-identical output.
"""

from __future__ import annotations

import functools
import json
import math
import random
from collections import namedtuple
from typing import Callable, Iterator

from .bundles import (SAME_POINT_TOL, BundleMetric, FibreBundle,
                      FibreElement, element_deviation, evaluate_metric,
                      fibre_labels, graph_point, label_element,
                      point_deviation, rebase, vector_element)
from .errors import FibreTransportError
from .linalg import lin_comb, max_abs, vec_sub
from .paths import Interval, Path, canonical_reversal, concatenate, \
    reparameterize, restrict, share_remaps

# Properties a transport can declare.  A law whose trial only makes sense
# under a property refuses to run unless it is declared.
KNOWN_PROPERTIES = frozenset(
    {"local", "reparam_invariant", "linear", "metric_consistent", "global"})

class Transport(namedtuple("Transport", "name bundle apply_fn declared "
                           "tolerance violates preserves")):
    """A rule mapping fibre elements along paths of one bundle.

    ``apply_fn(path, s, t, u)`` must return the image of ``u`` in the fibre
    over path(t).  It is called only after ``checked_source`` has accepted
    (path, s, u), either by ``transport`` or by a lifting anchored there, so
    it may read its source point from ``u.over`` instead of evaluating the
    path again.  ``declared`` names the properties the rule claims;
    ``tolerance`` is the deviation scale its own arithmetic can guarantee
    (0.0 for exact composition rules).  ``violates`` and ``preserves``
    annotate deliberately broken rules used as negative controls.
    """

    __slots__ = ()

    def __new__(cls, name: str, bundle: FibreBundle,
                apply_fn: Callable[[Path, float, float, FibreElement],
                                   FibreElement],
                declared: frozenset = frozenset(), tolerance: float = 0.0,
                violates: str | None = None,
                preserves: frozenset = frozenset()) -> Transport:
        unknown = set(declared) - KNOWN_PROPERTIES
        if unknown:
            raise FibreTransportError(
                f"unknown declared properties: {sorted(unknown)}")
        return tuple.__new__(cls, (name, bundle, apply_fn, declared,
                                   tolerance, violates, preserves))


def checked_source(T: Transport, p: Path, s: float, t: float,
                   u: FibreElement) -> tuple[float, float]:
    """Refuse (p, s, t, u) unless T may be applied to it, and return s and t
    clamped onto p's domain.

    The path must lie in T's base space, s and t in its domain, and u must
    be an element of T's fibre attached over path(s).  Both ``transport``
    and ``lifting.lift`` check their inputs here, so a lifting checks its
    anchor once.
    """
    bundle, space, domain = T.bundle, p.space, p.domain
    if space != bundle.base_space_id:
        raise FibreTransportError(
            f"path over space {space!r} fed to a transport over "
            f"{bundle.base_space_id!r}")
    lo, hi = domain
    if not lo <= s <= hi:
        s = domain.clamp(s)
    if not lo <= t <= hi:
        t = domain.clamp(t)
    over, label, vector = u
    if bundle.fibre_kind == "vector":
        if vector is None:
            raise FibreTransportError("this transport moves vectors")
        if len(vector) != 2:
            raise FibreTransportError(
                f"vector of length {len(vector)} in a rank-2 fibre")
    elif label is None:
        raise FibreTransportError("this transport moves labelled elements")
    elif bundle.fibre_kind == "finite" and label not in bundle.labels:
        raise FibreTransportError(
            f"label {label!r} is not in the fibre {list(bundle.labels)}")
    # one point object is the same point: its deviation is 0.0, or NaN,
    # and neither is refused
    x = p.at(s)
    if over is not x and point_deviation(over, x) > SAME_POINT_TOL:
        raise FibreTransportError(
            f"element over {over} is not attached over path({s})")
    return s, t


def transport(T: Transport, p: Path, s: float, t: float,
              u: FibreElement) -> FibreElement:
    """Apply T along p from parameter s to t, validating the inputs."""
    s, t = checked_source(T, p, s, t, u)
    return T.apply_fn(p, s, t, u)


def inverse_transport(T: Transport, p: Path, s: float, t: float
                      ) -> Callable[[FibreElement], FibreElement]:
    """The inverse of the (s, t) map along p: transport from t back to s."""
    return lambda w: transport(T, p, t, s, w)


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------

class Failure(namedtuple("Failure", "path params elements deviation")):
    """One failed trial record: the path's name, the parameter dict, the
    element descriptions and the deviation."""

    __slots__ = ()

    def to_dict(self) -> dict:
        return {"path": self.path, "params": self.params,
                "elements": list(self.elements), "deviation": self.deviation}


class LawReport(namedtuple("LawReport", "law instance trials tolerance "
                           "max_deviation failures seed notes",
                           defaults=((), 0, ""))):
    """Outcome of checking one law against one instance: ``trials``
    records were compared to ``tolerance``, and ``failures`` holds the first
    few ``Failure`` records."""

    __slots__ = ()

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_dict(self) -> dict:
        return {
            "law": self.law,
            "instance": self.instance,
            "trials": self.trials,
            "tolerance": self.tolerance,
            "max_deviation": self.max_deviation,
            "passed": self.passed,
            "seed": self.seed,
            "notes": self.notes,
            "failures": [f.to_dict() for f in self.failures],
        }

    def to_json(self) -> str:
        return strict_json(self.to_dict())


def strict_json(data) -> str:
    """``data`` as strict JSON: sorted keys, two-space indent, a newline.

    A non-finite float is written as the string "inf", "-inf" or "nan", so
    strict parsers accept the output.
    """
    return json.dumps(_finite(data), sort_keys=True, indent=2,
                      allow_nan=False) + "\n"


def _finite(x):
    if isinstance(x, float) and not math.isfinite(x):
        return str(x)  # "inf", "-inf" or "nan"
    if isinstance(x, dict):
        return {k: _finite(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_finite(v) for v in x]
    return x


_FAILURE_CAP = 20


def _rng(seed: int, law: str) -> random.Random:
    # String seeds hash through SHA-512 inside random.Random: stable across
    # runs and platforms, and decorrelated between laws sharing a seed.
    return random.Random(f"{seed}/{law}")


def run_trials(law: str, T: Transport, trials: int, tolerance: float,
               seed: int,
               trial: Callable[[int, random.Random], Iterator[tuple]],
               notes: str = "") -> LawReport:
    """Run ``trial(k, rng)`` for k = 0 .. trials-1 and tally its records.

    Each trial is a generator yielding records ``(deviation, path_name,
    params, elements)``, and is run to its end before the next one starts;
    the report's ``trials`` counts the records, so a trial that yields none
    leaves a vacuous report.  ``rng`` is seeded from (seed, law).  A record
    fails when its deviation is above the tolerance or is NaN, and the first
    _FAILURE_CAP failures are kept.  A NaN deviation becomes the maximum and
    stays it.  A ``FibreTransportError`` inside trial k ends the trial with
    one more record, failed: path "", params {"trial": k}, the message and
    deviation inf.  Fewer than one trial is refused: a check that draws
    nothing would pass whatever T does.
    """
    if trials < 1:
        raise FibreTransportError(
            f"law {law} needs at least one trial, got {trials}")
    rng = _rng(seed, law)
    count, worst, failures = 0, 0.0, []
    for k in range(trials):
        records = trial(k, rng)
        while True:
            try:
                for dev, path_name, params, elements in records:
                    count += 1
                    if dev > worst or math.isnan(dev):
                        worst = dev
                    if ((dev > tolerance or math.isnan(dev))
                            and len(failures) < _FAILURE_CAP):
                        failures.append(Failure(path_name, dict(params),
                                                tuple(elements), dev))
                break
            except FibreTransportError as exc:  # tallied as one failed record
                records = ((math.inf, "", {"trial": k}, (str(exc),)),)
    return LawReport(law=law, instance=T.name, trials=count,
                     tolerance=tolerance, max_deviation=worst,
                     failures=tuple(failures), seed=seed, notes=notes)


def _as_paths(paths) -> tuple[Path, ...]:
    out = (paths,) if isinstance(paths, Path) else tuple(paths)
    if not out:
        raise FibreTransportError("at least one path is required")
    return out


# random.gauss's TWOPI
_TWO_PI = 2.0 * math.pi


def unit_ball(rng: random.Random) -> tuple[float, float]:
    """A point of the unit disc, uniformly distributed: vector fibres are
    rank 2.  It draws a Gaussian pair for the direction, then one uniform
    for the radius.

    The pair is one Box-Muller step written as ``random.gauss`` computes
    it, so it is, to the bit, the pair two ``rng.gauss(0.0, 1.0)`` calls
    return on a stream with no Gaussian pending; the library calls
    ``gauss`` nowhere.  gauss adds its zero mean, which changes only a
    -0.0, and a pair holding one has radius 0 and is drawn again."""
    random = rng.random
    while True:
        x2pi = random() * _TWO_PI
        g2rad = math.sqrt(-2.0 * math.log(1.0 - random()))
        g0, g1 = math.cos(x2pi) * g2rad, math.sin(x2pi) * g2rad
        r = math.sqrt(g0 * g0 + g1 * g1)
        if r > 1e-12:
            break
    scale = random() ** 0.5 / r
    return (g0 * scale, g1 * scale)


def element_drawer(bundle: FibreBundle):
    """``draw(rng, x)``: a random fibre element over x, matched to the
    bundle's fibre kind.  A vector fibre gives a point of the unit disc,
    any other a label drawn uniformly from the fibre over x.

    Built once per trial builder.  The labels over each node point of a
    graph bundle are tabulated here by ``fibre_labels``; a point the table
    misses is read by ``fibre_labels``, which refuses a point off the base.
    The table lives in the drawer, since a dict field would make the
    bundle unhashable."""
    if bundle.fibre_kind == "vector":
        def draw(rng, x):
            # unit_ball gives a pair of floats, as vector_element makes it
            return tuple.__new__(FibreElement, (x, None, unit_ball(rng)))
        return draw
    table = {}
    if bundle.base_kind == "graph":
        for n in bundle.nodes:
            x = graph_point(bundle.base_space_id, n)
            table[x] = fibre_labels(bundle, x)

    def draw(rng, x):
        # a chart point, whose coordinates need not hash, is never a key
        labels = table.get(x) if x.coords is None else None
        if labels is None:
            labels = fibre_labels(bundle, x)
        return label_element(x, labels[rng.randrange(len(labels))])

    return draw


def _desc(u: FibreElement):
    return u.label if u.label is not None else list(u.vector)


def _draws(bundle: FibreBundle, paths, n=2, remaps=None,
           first: tuple | None = None):
    """A sampled law's draws: ``draw(k, rng)`` returns trial k's pick, path
    q, parameters and element, making every ``rng`` call in one order.

    With ``n`` a count, a path p is picked from ``paths`` (a lone path is a
    list of one), then a remap from ``remaps`` if given: the pick is p or
    (p, remap), q is ``reparameterize(p, remap)``, built once, or p, and n
    parameters are drawn on q's domain.  A lone remap is taken with no call,
    as is the pick when ``n`` is a tuple of intervals: then ``paths`` is q
    and the pick, and one parameter is drawn on each interval
    (``randrange(1)`` would draw).  A parameter is ``random.uniform``'s
    formula, or ``first`` at trial 0 when given.  The element is drawn last,
    over q at the first parameter.
    """
    one = not isinstance(n, int)
    paths = paths if one else _as_paths(paths)
    if remaps is not None:
        remaps = tuple(remaps)
        if not remaps:
            raise FibreTransportError(
                "at least one reparameterization is required")
        for p in paths:
            for remap in remaps:
                if not remap.target.same_as(p.domain):
                    raise FibreTransportError(
                        f"reparameterization {remap.name!r} targets "
                        f"{remap.target}, path domain is {p.domain}")
        derived = functools.cache(reparameterize)  # so q's cells are reused
    element = element_drawer(bundle)

    def draw(k, rng):
        pick = q = paths if one else paths[rng.randrange(len(paths))]
        if remaps:
            remap = (remaps[0] if len(remaps) == 1
                     else remaps[rng.randrange(len(remaps))])
            pick, q = (q, remap), derived(q, remap)
        params = first if k == 0 and first is not None else tuple(
            [lo + (hi - lo) * rng.random()
             for lo, hi in (n if one else (q.domain,) * n)])
        return pick, q, params, element(rng, q.at(params[0]))

    return draw


# ---------------------------------------------------------------------------
# Law trials: each builder returns (trial, trial count, notes) for
# ``run_trials``; the registry in ``laws`` names the law and its threshold.
# ---------------------------------------------------------------------------

def composition_trial(T: Transport, paths, trials: int):
    """Law 2.2: the (t, r) map after the (s, t) map equals the (s, r) map."""
    draw = _draws(T.bundle, paths, 3)

    def trial(k, rng):
        p, _, (s, t, r), u = draw(k, rng)
        via = transport(T, p, t, r, transport(T, p, s, t, u))
        direct = transport(T, p, s, r, u)
        yield (element_deviation(via, direct), p.name,
               {"r": r, "s": s, "t": t}, [_desc(u)])

    return trial, trials, ""


def identity_trial(T: Transport, paths, trials: int):
    """Law 2.3: the (s, s) map fixes every element."""
    draw = _draws(T.bundle, paths, 1)

    def trial(k, rng):
        p, _, (s,), u = draw(k, rng)
        yield (element_deviation(transport(T, p, s, s, u), u), p.name,
               {"s": s}, [_desc(u)])

    return trial, trials, ""


def inverse_trial(T: Transport, paths, trials: int):
    """Law 3.1: the (t, s) map undoes the (s, t) map."""
    draw = _draws(T.bundle, paths)

    def trial(k, rng):
        p, _, (s, t), u = draw(k, rng)
        back = inverse_transport(T, p, s, t)(transport(T, p, s, t, u))
        yield element_deviation(back, u), p.name, {"s": s, "t": t}, [_desc(u)]

    return trial, trials, ""


def locality_trial(T: Transport, paths, trials: int):
    """Law 2.5/2.7: restricting the path beyond [s, t] changes nothing."""
    draw = _draws(T.bundle, paths)

    def trial(k, rng):
        p, _, (s, t), u = draw(k, rng)
        q = restrict(p, Interval(min(s, t), max(s, t)))
        dev = element_deviation(transport(T, q, s, t, u),
                                transport(T, p, s, t, u))
        yield dev, p.name, {"s": s, "t": t}, [_desc(u)]

    return trial, trials, ""


def reparam_trial(T: Transport, paths, remaps, trials: int,
                  first: tuple | None = None):
    """Law 2.6: transports along p after a parameter change match transports
    along p at the corresponding parameters; ``remaps`` is a sequence of
    ``Reparameterization``s onto the paths' domains, and ``first``, if
    given, is trial 0's (s, t)."""
    draw = _draws(T.bundle, paths, remaps=remaps, first=first)

    def trial(k, rng):
        (p, remap), q, (s, t), u = draw(k, rng)
        lhs = transport(T, q, s, t, u)
        rhs = transport(T, p, remap.apply(s), remap.apply(t),
                        rebase(u, p.at(remap.apply(s))))
        yield (element_deviation(lhs, rhs), p.name,
               {"s": s, "t": t}, [_desc(u), remap.name])

    return trial, trials, ""


def inverse_path_trial(T: Transport, paths, trials: int):
    """Law 3.2: along the reversed path, the (s, t) map equals the
    (1-s, 1-t) map along the original.  It is law 2.6 along the canonical
    reversal alone, so the paths must be on [0, 1], and it needs declared
    reparameterization invariance."""
    if "reparam_invariant" not in T.declared:
        raise FibreTransportError(
            "inverse-path law requires a transport declared reparam_invariant")
    return reparam_trial(T, paths, (canonical_reversal(),), trials,
                         first=(0.0, 1.0))  # trial 0 is the full traversal


def _product_of(T: Transport, p1: Path, p2: Path):
    missing = {"local", "reparam_invariant"} - set(T.declared)
    if missing:
        raise FibreTransportError(
            f"product laws need declared properties {sorted(missing)}")
    return concatenate(p1, p2), share_remaps((p1, p2))


def product_cross_trial(T: Transport, p1: Path, p2: Path, trials: int):
    """Law 3.4: across the seam of the concatenation, the transport
    factors through the two halves."""
    prod, (left, right) = _product_of(T, p1, p2)
    draw = _draws(T.bundle, prod, (left.source, right.source))

    def trial(k, rng):
        _, _, (t1, t2), u = draw(k, rng)
        lhs = transport(T, prod, t1, t2, u)
        a = left.apply(t1)
        mid_el = transport(T, p1, a, p1.domain.hi, rebase(u, p1.at(a)))
        rhs = transport(T, p2, p2.domain.lo, right.apply(t2),
                        rebase(mid_el, p2.at(p2.domain.lo)))
        yield (element_deviation(lhs, rhs), prod.name,
               {"t1": t1, "t2": t2}, [_desc(u)])

    return trial, trials, ""


def product_same_trial(T: Transport, p1: Path, p2: Path, trials: int):
    """Law 3.5: within one half of the concatenation, the transport
    equals the transport along that half alone."""
    prod, remaps = _product_of(T, p1, p2)
    halves = [(half, remap, _draws(T.bundle, prod, (remap.source,) * 2))
              for half, remap in zip((p1, p2), remaps)]

    def trial(k, rng):
        half, remap, draw = halves[k % 2]  # trial k stays on half k % 2
        _, _, (t1, t2), u = draw(k, rng)
        lhs = transport(T, prod, t1, t2, u)
        a = remap.apply(t1)
        rhs = transport(T, half, a, remap.apply(t2), rebase(u, half.at(a)))
        yield (element_deviation(lhs, rhs), prod.name,
               {"t1": t1, "t2": t2}, [_desc(u), half.name])

    return trial, trials, ""


def linearity_trial(T: Transport, paths, trials: int):
    """Law 2.8: the maps respect linear combinations (relative deviation)."""
    if T.bundle.fibre_kind != "vector":
        raise FibreTransportError("linearity applies to vector fibres")
    draw, element = _draws(T.bundle, paths), element_drawer(T.bundle)

    def trial(k, rng):
        p, _, (s, t), e = draw(k, rng)
        f = element(rng, e.over)
        x, u, v = e.over, e.vector, f.vector
        lam = rng.uniform(-2.0, 2.0)
        mu = rng.uniform(-2.0, 2.0)
        w = lin_comb(lam, u, mu, v)
        tw = transport(T, p, s, t, vector_element(x, w)).vector
        tu = transport(T, p, s, t, e).vector
        tv = transport(T, p, s, t, f).vector
        combined = lin_comb(lam, tu, mu, tv)
        scale = max(1.0, max_abs(w), max_abs(tw), max_abs(combined))
        dev = max_abs(vec_sub(tw, combined)) / scale
        yield (dev, p.name, {"lam": lam, "mu": mu, "s": s, "t": t},
               [list(u), list(v)])

    return trial, trials, ""


def metric_trial(T: Transport, metric: BundleMetric | None, paths,
                 trials: int):
    """Law 2.9: the maps preserve the metric pairing of vector pairs."""
    if metric is None:
        raise FibreTransportError("metric consistency needs a bundle metric")
    if T.bundle.fibre_kind != "vector":
        raise FibreTransportError("metric consistency applies to vector fibres")
    draw, element = _draws(T.bundle, paths), element_drawer(T.bundle)

    def trial(k, rng):
        p, _, (s, t), u = draw(k, rng)
        v = element(rng, u.over)
        before = evaluate_metric(metric, u.over, u, v)
        tu = transport(T, p, s, t, u)
        tv = transport(T, p, s, t, v)
        after = evaluate_metric(metric, p.at(t), tu, tv)
        yield (abs(after - before), p.name, {"s": s, "t": t},
               [_desc(u), _desc(v)])

    return trial, trials, ""

