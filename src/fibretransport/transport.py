"""Transports along paths, and the law checkers that exercise them.

A transport assigns to every path and parameter pair (s, t) a map between the
fibres over the path's points at s and t.  The defining algebra: composing the
(s, t) and (t, r) maps gives the (s, r) map, and the (s, s) map is the
identity.  Everything else checked here (locality, reparameterization
invariance, linearity, metric consistency, inverse laws, concatenation
product laws) is an additional property a given transport may or may not
declare and satisfy.

Checkers draw randomized trials from a seeded generator and produce
``LawReport`` records.  Reports serialize to JSON deterministically: same
instance, same seed, same trial count gives byte-identical output.  Law ids
are short opaque tokens from the project-wide registry ("2.2", "2.5/2.7",
...); they are stable interface strings shared with the CLI, not prose.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from .bundles import (BundleMetric, FibreBundle, FibreElement,
                      element_deviation, evaluate_metric, fibre_at,
                      label_element, rebase, vector_element)
from .errors import (ConfigError, DimensionMismatch, ElementNotOverPoint,
                     PointNotInBase, PreconditionNotDeclared,
                     SectionUndefinedOnPath, WrongFibreKind)
from .linalg import lin_comb, max_abs, vec_sub
from .paths import Interval, Path, Reparameterization, ConcatSchedule, \
    canonical_schedule, concatenate, reparameterize, restrict, reverse

# Properties a transport can declare.  Checkers whose law only makes sense
# under a property refuse to run unless it is declared.
KNOWN_PROPERTIES = frozenset(
    {"local", "reparam_invariant", "linear", "metric_consistent", "global"})

# Relative tolerance used for linearity checks on inexact transports.
LINEARITY_RTOL = 1e-9

@dataclass(frozen=True)
class Transport:
    """A rule mapping fibre elements along paths of one bundle.

    ``apply_fn(path, s, t, u)`` must return the image of ``u`` (attached over
    path(s)) in the fibre over path(t).  ``declared`` names the properties
    the rule claims; ``tolerance`` is the deviation scale its own arithmetic
    can guarantee (0.0 for exact composition rules).  ``violates`` and
    ``preserves`` annotate deliberately broken rules used as negative
    controls.
    """

    name: str
    bundle: FibreBundle
    apply_fn: Callable[[Path, float, float, FibreElement], FibreElement]
    declared: frozenset = frozenset()
    tolerance: float = 0.0
    violates: str | None = None
    preserves: frozenset = frozenset()

    def __post_init__(self) -> None:
        unknown = set(self.declared) - KNOWN_PROPERTIES
        if unknown:
            raise ConfigError(f"unknown declared properties: {sorted(unknown)}")


def law_tolerance(law: str, transport: Transport) -> float:
    """Pass/fail threshold for a law id run against a given transport."""
    from .laws import law_named  # the registry imports this module

    factor = law_named(law).factor
    if factor is None:
        return 0.0 if transport.tolerance == 0.0 else LINEARITY_RTOL
    return factor * transport.tolerance


def transport(T: Transport, p: Path, s: float, t: float,
              u: FibreElement) -> FibreElement:
    """Apply T along p from parameter s to t, validating the inputs."""
    if p.space != T.bundle.base_space_id:
        raise PointNotInBase(
            f"path over space {p.space!r} fed to a transport over "
            f"{T.bundle.base_space_id!r}")
    s = p.domain.clamp(s)
    t = p.domain.clamp(t)
    if T.bundle.fibre_kind == "vector":
        if u.vector is None:
            raise WrongFibreKind("this transport moves vectors")
        if len(u.vector) != T.bundle.dim:
            raise DimensionMismatch(
                f"vector of length {len(u.vector)} in a rank-{T.bundle.dim} fibre")
    elif u.label is None:
        raise WrongFibreKind("this transport moves labelled elements")
    if T.bundle.point_deviation(u.over, p.at(s)) > 1e-6:
        raise ElementNotOverPoint(
            f"element over {u.over} is not attached over path({s})")
    return T.apply_fn(p, s, t, u)


def inverse_transport(T: Transport, p: Path, s: float, t: float
                      ) -> Callable[[FibreElement], FibreElement]:
    """The inverse of the (s, t) map along p: transport from t back to s."""
    return lambda w: transport(T, p, t, s, w)


# ---------------------------------------------------------------------------
# Sections carried along a path
# ---------------------------------------------------------------------------

def propagate_section(T: Transport, p: Path, s0: float, u0: FibreElement,
                      params: Sequence[float] | None = None,
                      ) -> list[tuple[float, FibreElement]]:
    """Values at the given parameters of the section generated by u0 at s0."""
    if params is None:
        params = p.domain.samples(11)
    return [(t, transport(T, p, s0, t, u0)) for t in params]


def is_transported_section(T: Transport, sigma, p: Path, s0: float | None = None,
                           params: Sequence[float] | None = None,
                           tolerance: float | None = None) -> bool:
    """Whether a section restricted to p agrees with its own propagation."""
    if s0 is None:
        s0 = p.domain.lo
    if params is None:
        params = p.domain.samples(11)
    if tolerance is None:
        tolerance = law_tolerance("2.4", T)

    def value_at(t: float) -> FibreElement:
        try:
            return sigma.at(p.at(t))
        except KeyError as exc:
            raise SectionUndefinedOnPath(
                f"section {sigma.name!r} undefined at path({t})") from exc

    u0 = value_at(s0)
    for t in params:
        if element_deviation(value_at(t), transport(T, p, s0, t, u0)) > tolerance:
            return False
    return True


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Failure:
    path: str
    params: dict
    elements: tuple
    deviation: float

    def to_dict(self) -> dict:
        return {"path": self.path, "params": self.params,
                "elements": list(self.elements), "deviation": self.deviation}


@dataclass(frozen=True)
class LawReport:
    """Outcome of running one law checker against one instance."""

    law: str
    instance: str
    trials: int
    tolerance: float
    max_deviation: float
    failures: tuple = ()
    seed: int = 0
    notes: str = ""

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


class _Collector:
    """Accumulates deviations and caps the retained failure examples."""

    def __init__(self, law: str, instance: str, tolerance: float) -> None:
        self.law = law
        self.instance = instance
        self.tolerance = tolerance
        self.max_deviation = 0.0
        self.failures: list[Failure] = []
        self.count = 0

    def record(self, deviation: float, path_name: str, params: dict,
               elements: Iterable = ()) -> None:
        self.count += 1
        if deviation > self.max_deviation or math.isnan(deviation):
            self.max_deviation = deviation
        if deviation > self.tolerance or math.isnan(deviation):
            if len(self.failures) < _FAILURE_CAP:
                self.failures.append(Failure(
                    path=path_name, params=dict(params),
                    elements=tuple(elements), deviation=deviation))

    def report(self, seed: int, notes: str = "") -> LawReport:
        return LawReport(law=self.law, instance=self.instance,
                         trials=self.count, tolerance=self.tolerance,
                         max_deviation=self.max_deviation,
                         failures=tuple(self.failures), seed=seed, notes=notes)


def _rng(seed: int, law: str) -> random.Random:
    # String seeds hash through SHA-512 inside random.Random: stable across
    # runs and platforms, and decorrelated between laws sharing a seed.
    return random.Random(f"{seed}/{law}")


def run_trials(law: str, T: Transport, trials: int, tolerance: float | None,
               seed: int,
               trial: Callable[[int, random.Random, _Collector], object],
               notes: str = "") -> LawReport:
    """Call ``trial(k, rng, collector)`` for k = 0 .. trials-1 and report.

    ``rng`` is seeded from (seed, law); a ``tolerance`` of None means the
    law's registry threshold for T.  Each trial records its deviations on
    the collector.
    """
    tol = law_tolerance(law, T) if tolerance is None else tolerance
    rng = _rng(seed, law)
    col = _Collector(law, T.name, tol)
    for k in range(trials):
        trial(k, rng, col)
    return col.report(seed, notes=notes)


def _as_paths(paths) -> tuple[Path, ...]:
    if isinstance(paths, Path):
        return (paths,)
    out = tuple(paths)
    if not out:
        raise ConfigError("at least one path is required")
    return out


def unit_ball(rng: random.Random, n: int) -> tuple[float, ...]:
    """A point of the unit n-ball, uniformly distributed."""
    while True:
        g = [rng.gauss(0.0, 1.0) for _ in range(n)]
        r = math.sqrt(sum(c * c for c in g))
        if r > 1e-12:
            break
    scale = rng.random() ** (1.0 / n) / r
    return tuple(c * scale for c in g)


def draw_for_bundle(rng: random.Random, bundle: FibreBundle, x) -> FibreElement:
    """A random fibre element over x, matched to the bundle's fibre kind."""
    if bundle.fibre_kind == "vector":
        return vector_element(x, unit_ball(rng, bundle.dim))
    labels = fibre_at(bundle, x).labels
    return label_element(x, labels[rng.randrange(len(labels))])


def _desc(u: FibreElement):
    return u.label if u.label is not None else list(u.vector)


def _pick(rng: random.Random, items: Sequence):
    return items[rng.randrange(len(items))]


def _draw_params(rng: random.Random, paths, n: int) -> tuple:
    """One of the paths, then n parameters drawn uniformly on its domain."""
    p = _pick(rng, paths)
    return (p, *(rng.uniform(p.domain.lo, p.domain.hi) for _ in range(n)))


# ---------------------------------------------------------------------------
# Law checkers
# ---------------------------------------------------------------------------

def _composition_trial(T: Transport, paths):
    """Trial of law 2.2; returns its path, start parameter and element."""
    def trial(k, rng, col):
        p, s, t, r = _draw_params(rng, paths, 3)
        u = draw_for_bundle(rng, T.bundle, p.at(s))
        via = transport(T, p, t, r, transport(T, p, s, t, u))
        direct = transport(T, p, s, r, u)
        col.record(element_deviation(via, direct), p.name,
                   {"r": r, "s": s, "t": t}, [_desc(u)])
        return p, s, u
    return trial


def check_group_law(T: Transport, paths, *, trials: int = 200,
                    tolerance: float | None = None, seed: int = 0) -> LawReport:
    """Law 2.2: the (t, r) map after the (s, t) map equals the (s, r) map."""
    return run_trials("2.2", T, trials, tolerance, seed,
                      _composition_trial(T, _as_paths(paths)))


def check_identity_law(T: Transport, paths, *, trials: int = 200,
                       tolerance: float | None = None, seed: int = 0) -> LawReport:
    """Law 2.3: the (s, s) map fixes every element."""
    paths = _as_paths(paths)

    def trial(k, rng, col):
        p, s = _draw_params(rng, paths, 1)
        u = draw_for_bundle(rng, T.bundle, p.at(s))
        col.record(element_deviation(transport(T, p, s, s, u), u), p.name,
                   {"s": s}, [_desc(u)])

    return run_trials("2.3", T, trials, tolerance, seed, trial)


def check_axioms(T: Transport, paths, *, trials: int = 200,
                 tolerance: float | None = None, seed: int = 0) -> LawReport:
    """Laws 2.2 and 2.3 exercised together from shared draws."""
    composition = _composition_trial(T, _as_paths(paths))

    def trial(k, rng, col):
        p, s, u = composition(k, rng, col)
        col.record(element_deviation(transport(T, p, s, s, u), u), p.name,
                   {"s": s}, [_desc(u)])

    return run_trials("2.2+2.3", T, trials, tolerance, seed, trial,
                      notes="two records per trial: composition, identity")


def check_inverse_transport(T: Transport, paths, *, trials: int = 200,
                            tolerance: float | None = None, seed: int = 0) -> LawReport:
    """Law 3.1: the (t, s) map undoes the (s, t) map."""
    paths = _as_paths(paths)

    def trial(k, rng, col):
        p, s, t = _draw_params(rng, paths, 2)
        u = draw_for_bundle(rng, T.bundle, p.at(s))
        back = inverse_transport(T, p, s, t)(transport(T, p, s, t, u))
        col.record(element_deviation(back, u), p.name,
                   {"s": s, "t": t}, [_desc(u)])

    return run_trials("3.1", T, trials, tolerance, seed, trial)


def check_locality(T: Transport, paths, *, trials: int = 200,
                   tolerance: float | None = None, seed: int = 0) -> LawReport:
    """Law 2.5/2.7: restricting the path beyond [s, t] changes nothing."""
    paths = _as_paths(paths)

    def trial(k, rng, col):
        p, s, t = _draw_params(rng, paths, 2)
        q = restrict(p, Interval(min(s, t), max(s, t)))
        u = draw_for_bundle(rng, T.bundle, p.at(s))
        dev = element_deviation(transport(T, q, s, t, u),
                                transport(T, p, s, t, u))
        col.record(dev, p.name, {"s": s, "t": t}, [_desc(u)])

    return run_trials("2.5/2.7", T, trials, tolerance, seed, trial)


def check_reparam_invariance(T: Transport, paths, remaps, *, trials: int = 200,
                             tolerance: float | None = None, seed: int = 0) -> LawReport:
    """Law 2.6: transports along p after a parameter change match transports
    along p at the corresponding parameters."""
    paths = _as_paths(paths)
    remaps = tuple(remaps) if not isinstance(remaps, Reparameterization) else (remaps,)
    if not remaps:
        raise ConfigError("at least one reparameterization is required")

    def trial(k, rng, col):
        p = _pick(rng, paths)
        remap = _pick(rng, remaps)
        if not remap.target.same_as(p.domain):
            raise ConfigError(
                f"reparameterization {remap.name!r} targets {remap.target}, "
                f"path domain is {p.domain}")
        q = reparameterize(p, remap)
        s = rng.uniform(remap.source.lo, remap.source.hi)
        t = rng.uniform(remap.source.lo, remap.source.hi)
        u = draw_for_bundle(rng, T.bundle, q.at(s))
        lhs = transport(T, q, s, t, u)
        rhs = transport(T, p, remap.apply(s), remap.apply(t),
                        rebase(u, p.at(remap.apply(s))))
        col.record(element_deviation(lhs, rhs), p.name,
                   {"s": s, "t": t}, [_desc(u), remap.name])

    return run_trials("2.6", T, trials, tolerance, seed, trial)


def check_inverse_path_law(T: Transport, paths, *, trials: int = 200,
                           tolerance: float | None = None, seed: int = 0) -> LawReport:
    """Law 3.2: along the reversed path, the (s, t) map equals the
    (1-s, 1-t) map along the original.  Needs declared reparameterization
    invariance and canonically parameterized paths."""
    if "reparam_invariant" not in T.declared:
        raise PreconditionNotDeclared(
            "inverse-path law requires a transport declared reparam_invariant")
    paths = _as_paths(paths)

    def trial(k, rng, col):
        p = _pick(rng, paths)
        q = reverse(p)
        if k == 0:
            s, t = 0.0, 1.0  # always include the full traversal
        else:
            s = rng.uniform(0.0, 1.0)
            t = rng.uniform(0.0, 1.0)
        u = draw_for_bundle(rng, T.bundle, q.at(s))
        lhs = transport(T, q, s, t, u)
        rhs = transport(T, p, 1.0 - s, 1.0 - t, rebase(u, p.at(1.0 - s)))
        col.record(element_deviation(lhs, rhs), p.name,
                   {"s": s, "t": t}, [_desc(u)])

    return run_trials("3.2", T, trials, tolerance, seed, trial)


def _product_of(T: Transport, p1: Path, p2: Path,
                schedule: ConcatSchedule | None):
    missing = {"local", "reparam_invariant"} - set(T.declared)
    if missing:
        raise PreconditionNotDeclared(
            f"product laws need declared properties {sorted(missing)}")
    if schedule is None:
        schedule = canonical_schedule()
    return concatenate(p1, p2, schedule), schedule


def check_product_cross(T: Transport, p1: Path, p2: Path,
                        schedule: ConcatSchedule | None = None, *,
                        trials: int = 200, tolerance: float | None = None,
                        seed: int = 0) -> LawReport:
    """Law 3.4: across the seam of a concatenation, the transport factors
    through the two halves."""
    prod, schedule = _product_of(T, p1, p2, schedule)

    def trial(k, rng, col):
        t1 = rng.uniform(schedule.start, schedule.mid)
        t2 = rng.uniform(schedule.mid, schedule.end)
        u = draw_for_bundle(rng, T.bundle, prod.at(t1))
        lhs = transport(T, prod, t1, t2, u)
        a = schedule.left.apply(t1)
        mid_el = transport(T, p1, a, p1.domain.hi, rebase(u, p1.at(a)))
        b = schedule.right.apply(t2)
        rhs = transport(T, p2, p2.domain.lo, b,
                        rebase(mid_el, p2.at(p2.domain.lo)))
        col.record(element_deviation(lhs, rhs), prod.name,
                   {"t1": t1, "t2": t2}, [_desc(u)])

    return run_trials("3.4", T, trials, tolerance, seed, trial)


def check_product_same(T: Transport, p1: Path, p2: Path,
                       schedule: ConcatSchedule | None = None, *,
                       trials: int = 200, tolerance: float | None = None,
                       seed: int = 0) -> LawReport:
    """Law 3.5: within one half of a concatenation, the transport equals the
    transport along that half alone."""
    prod, schedule = _product_of(T, p1, p2, schedule)

    def trial(k, rng, col):
        if k % 2 == 0:
            lo, hi, half, remap = schedule.start, schedule.mid, p1, schedule.left
        else:
            lo, hi, half, remap = schedule.mid, schedule.end, p2, schedule.right
        t1 = rng.uniform(lo, hi)
        t2 = rng.uniform(lo, hi)
        u = draw_for_bundle(rng, T.bundle, prod.at(t1))
        lhs = transport(T, prod, t1, t2, u)
        a = remap.apply(t1)
        rhs = transport(T, half, a, remap.apply(t2), rebase(u, half.at(a)))
        col.record(element_deviation(lhs, rhs), prod.name,
                   {"t1": t1, "t2": t2}, [_desc(u), half.name])

    return run_trials("3.5", T, trials, tolerance, seed, trial)


def check_linearity(T: Transport, paths, *, trials: int = 200,
                    tolerance: float | None = None, seed: int = 0) -> LawReport:
    """Law 2.8: the maps respect linear combinations (relative deviation)."""
    if T.bundle.fibre_kind != "vector":
        raise WrongFibreKind("linearity applies to vector fibres")
    paths = _as_paths(paths)
    n = T.bundle.dim

    def trial(k, rng, col):
        p, s, t = _draw_params(rng, paths, 2)
        x = p.at(s)
        u = unit_ball(rng, n)
        v = unit_ball(rng, n)
        lam = rng.uniform(-2.0, 2.0)
        mu = rng.uniform(-2.0, 2.0)
        w = lin_comb(lam, u, mu, v)
        tw = transport(T, p, s, t, vector_element(x, w)).vector
        tu = transport(T, p, s, t, vector_element(x, u)).vector
        tv = transport(T, p, s, t, vector_element(x, v)).vector
        combined = lin_comb(lam, tu, mu, tv)
        scale = max(1.0, max_abs(w), max_abs(tw), max_abs(combined))
        dev = max_abs(vec_sub(tw, combined)) / scale
        col.record(dev, p.name, {"lam": lam, "mu": mu, "s": s, "t": t},
                   [list(u), list(v)])

    return run_trials("2.8", T, trials, tolerance, seed, trial)


def check_metric_consistency(T: Transport, metric: BundleMetric | None, paths,
                             *, trials: int = 200,
                             tolerance: float | None = None, seed: int = 0) -> LawReport:
    """Law 2.9: the maps preserve the metric pairing of vector pairs."""
    if metric is None:
        raise ConfigError("metric consistency needs a bundle metric")
    if T.bundle.fibre_kind != "vector":
        raise WrongFibreKind("metric consistency applies to vector fibres")
    paths = _as_paths(paths)
    n = T.bundle.dim

    def trial(k, rng, col):
        p, s, t = _draw_params(rng, paths, 2)
        x = p.at(s)
        u = vector_element(x, unit_ball(rng, n))
        v = vector_element(x, unit_ball(rng, n))
        before = evaluate_metric(metric, x, u, v)
        tu = transport(T, p, s, t, u)
        tv = transport(T, p, s, t, v)
        after = evaluate_metric(metric, p.at(t), tu, tv)
        col.record(abs(after - before), p.name, {"s": s, "t": t},
                   [_desc(u), _desc(v)])

    return run_trials("2.9", T, trials, tolerance, seed, trial)


def check_transported_sections(T: Transport, paths, *, grid: int = 11,
                               trials: int = 200,
                               tolerance: float | None = None, seed: int = 0) -> LawReport:
    """Law 2.4: a section propagated from one anchor reproduces itself when
    re-propagated from any other parameter on the grid."""
    paths = _as_paths(paths)
    propagated = []

    def trial(k, rng, col):
        if k == 0:  # one section per path, drawn ahead of the first trial
            for p in paths:
                pts = p.domain.samples(grid)
                u0 = draw_for_bundle(rng, T.bundle, p.at(pts[0]))
                values = [transport(T, p, pts[0], t, u0) for t in pts]
                propagated.append((p, pts, values))
        p, pts, values = _pick(rng, propagated)
        i = rng.randrange(len(pts))
        j = rng.randrange(len(pts))
        regrown = transport(T, p, pts[i], pts[j], values[i])
        col.record(element_deviation(regrown, values[j]), p.name,
                   {"from": pts[i], "to": pts[j]}, [_desc(values[i])])

    return run_trials("2.4", T, trials, tolerance, seed, trial,
                      notes=f"grid of {grid} points per path")
