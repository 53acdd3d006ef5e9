"""The law registry: one ``Law`` record per law id, in registry order.

A law is named here and nowhere else.  Its record holds the id, the
threshold rule, which presets run it by default, the preset's inputs and the
builder of its trial; ``Law.check`` hands that trial to
``transport.run_trials`` under the id.  Registry order, default law sets,
thresholds, the CLI and the sweep script all read this table, so a new law
is added here.  The paper's predicates that read a law's threshold, and its
rebuild of a transport from liftings, which runs laws, live here too.
"""

from __future__ import annotations

from collections import namedtuple

from . import factorization as fz
from . import lifting as lf
from . import linalg
from . import transport as tr
from .bundles import element_deviation
from .errors import FibreTransportError
from .paths import UNIT, Interval, affine_remap, square_remap

# Relative tolerance used for linearity checks on inexact transports.
LINEARITY_RTOL = 1e-9


class Law(namedtuple("Law", "id factor applies inputs build")):
    """One registry law, named by its ``id``.

    ``factor`` scales the instance tolerance into the law's threshold (None:
    the relative linearity bound).  ``applies(spec)`` says whether a default
    run includes the law, and ``inputs(spec)`` gives the preset's arguments
    for ``build(T, *inputs, trials)``, which returns the law's ``(trial,
    trial count, notes)``.
    """

    __slots__ = ()

    def threshold(self, T: tr.Transport) -> float:
        """Pass/fail threshold of this law for the transport T."""
        if self.factor is None:
            return 0.0 if T.tolerance == 0.0 else LINEARITY_RTOL
        return self.factor * T.tolerance

    def check(self, T: tr.Transport, *inputs, trials: int = 200,
              seed: int = 0) -> tr.LawReport:
        """Run the law's trials on T against the law's threshold for T."""
        trial, count, notes = self.build(T, *inputs, trials=trials)
        return tr.run_trials(self.id, T, count, self.threshold(T), seed,
                             trial, notes)


def _paths(spec):
    return (spec.law_paths,)


def _first_path(spec):
    return (spec.law_paths[0],)


# The canonical family of the last transport and path asked for: laws
# 3.6-roundtrip and 3.11/3.12 read it one after the other for the same
# spec, so a run tabulates it once.  A Transport is an immutable record, so
# its identity fixes the rule, the bundle and the tolerance.
_LAST_FAMILY = None


def _family(spec):
    global _LAST_FAMILY
    T, p = spec.transport, spec.law_paths[0]
    if (_LAST_FAMILY is None or _LAST_FAMILY[0] is not T
            or _LAST_FAMILY[1] is not p):
        _LAST_FAMILY = (T, p, fz.canonical_factorization(T, p))
    return (_LAST_FAMILY[2],)


def _product_pair(spec):
    if spec.product_pair is None:
        raise FibreTransportError(
            "product laws need an instance with a product pair")
    return spec.product_pair


# The reparameterizations law 2.6 draws from, on every instance.
REMAPS = (affine_remap(Interval(0.0, 2.0), UNIT, name="halve"), square_remap())


def _always(spec) -> bool:
    return True


# Two-map compositions get a factor two; single-evaluation comparisons get
# the tolerance itself; the fibre cover is compared exactly.
LAWS = (
    Law("2.2", 2.0, _always, _paths, tr.composition_trial),
    Law("2.3", 1.0, _always, _paths, tr.identity_trial),
    Law("2.4", 2.0, _always, _paths, lf.section_trial),
    Law("2.5/2.7", 2.0, _always, _paths, tr.locality_trial),
    Law("2.6", 2.0, _always, lambda spec: (spec.law_paths, REMAPS),
        tr.reparam_trial),
    Law("2.8", None,
        lambda spec: (spec.bundle.fibre_kind == "vector"
                      and "linear" in spec.transport.declared),
        _paths, tr.linearity_trial),
    Law("2.9", 1.0,
        lambda spec: (spec.metric is not None
                      and "metric_consistent" in spec.transport.declared),
        lambda spec: (spec.metric, spec.law_paths), tr.metric_trial),
    Law("3.1", 2.0, _always, _paths, tr.inverse_trial),
    Law("3.2", 2.0, _always, _paths, tr.inverse_path_trial),
    Law("3.4", 2.0, lambda spec: spec.product_pair is not None,
        _product_pair, tr.product_cross_trial),
    Law("3.5", 2.0, lambda spec: spec.product_pair is not None,
        _product_pair, tr.product_same_trial),
    Law("3.6-roundtrip", 2.0, _always, _family, fz.roundtrip_trial),
    Law("3.11/3.12", 2.0, _always, _family, fz.gauge_trial),
    Law("4.2", 1.0, _always, _paths, lf.projection_trial),
    Law("4.4", 2.0,
        lambda spec: ("global" in spec.transport.declared
                      and spec.uniqueness_path is not None),
        lambda spec: (spec.uniqueness_path or spec.law_paths[0],),
        lf.uniqueness_trial),
    Law("4.6", 2.0, _always, _paths, lf.self_consistency_trial),
    Law("4.7", 0.0,
        lambda spec: (spec.bundle.fibre_kind in ("finite", "sections")
                      and bool(spec.law_paths)
                      and spec.law_paths[0].kind == "discrete"),
        _first_path, lf.fibre_cover_trial),
)

# The laws in the order reports are written.
LAW_ORDER = tuple(law.id for law in LAWS)

_BY_ID = {law.id: law for law in LAWS}


def law_named(law_id: str) -> Law:
    try:
        return _BY_ID[law_id]
    except KeyError:
        raise FibreTransportError(
            f"unknown law id {law_id!r}; registry: "
            f"{', '.join(_BY_ID)}") from None


# ---------------------------------------------------------------------------
# Predicates of the paper that read a law's threshold, and a rebuild that
# runs laws
# ---------------------------------------------------------------------------

def is_transported_section(T: tr.Transport, sigma, p) -> bool:
    """Whether a section restricted to p agrees with its own propagation
    from the domain's start, on 11 samples, within law 2.4's threshold.
    A NaN deviation is not agreement."""
    s0 = p.domain.lo
    tolerance = law_named("2.4").threshold(T)

    def value_at(t: float):
        try:
            return sigma.at(p.at(t))
        except KeyError as exc:
            raise FibreTransportError(
                f"section {sigma.name!r} undefined at path({t})") from exc

    return all(element_deviation(value_at(t), v) <= tolerance
               for t, v in lf.propagate_section(T, p, s0, value_at(s0)))


def liftings_disjoint_or_equal(T: tr.Transport, p, *, trials: int = 50,
                               seed: int = 0) -> tr.LawReport:
    """Two liftings of one path either coincide everywhere or nowhere,
    compared on a 9-point grid within law 4.6's threshold.

    Requires global uniqueness (law 4.4) over the path; without it the
    dichotomy has no content, so a failed precheck raises
    FibreTransportError.
    """
    pre = law_named("4.4").check(T, p, trials=20, seed=seed)
    if not pre.passed:
        raise FibreTransportError(
            f"global uniqueness fails over {p.name!r} "
            f"(deviation {pre.max_deviation})")
    tol = law_named("4.6").threshold(T)
    draw = tr._draws(T.bundle, p, (p.domain, p.domain))
    element = tr.element_drawer(T.bundle)

    def trial(k, rng):
        _, _, (r, s), u = draw(k, rng)
        l1 = lf.lift(T, p, u, r)
        l2 = lf.lift(T, p, element(rng, p.at(s)), s)
        devs = lf.lifting_gaps(l1, l2, 9)
        # deviations are non-negative: max_abs is their NaN-keeping maximum,
        # and a NaN is neither agreement nor disagreement, so never clean
        worst = linalg.max_abs(devs)
        clean = worst <= tol or all(dev > tol for dev in devs)
        yield (0.0 if clean else worst, p.name,
               {"r": r, "s": s}, ["clean" if clean else "mixed agreement"])

    return tr.run_trials("disjoint-or-equal", T, trials, tol, seed, trial)


# Tolerance of a transport rebuilt from a lifting rule.
REBUILD_TOLERANCE = 1e-9


def transport_from_lifting(bundle, assignment, paths) -> tr.Transport:
    """Rebuild a transport from a rule assigning liftings to anchored elements.

    ``assignment(p, u, s0)`` is the rule's ``Lifting`` along p through u at
    s0, and the returned transport evaluates it at the target parameter.
    The rule must reproduce its anchor over the base path, law 4.2 on the
    rebuilt transport, and be stable under re-anchoring, law 4.6: lifting
    through a point of a produced lifting must reproduce the whole lifting.
    The first law that fails over ``paths`` raises FibreTransportError
    naming the law and its first failure.
    """
    def apply(p, s, t, u):
        return assignment(p, u, s).at(t)

    S = tr.Transport(name="from-lifting", bundle=bundle, apply_fn=apply,
                     declared=frozenset(), tolerance=REBUILD_TOLERANCE)
    for law_id, fault in (("4.2", "misses its anchor or its base path"),
                          ("4.6", "changes the lifting when re-anchored")):
        report = law_named(law_id).check(S, paths)
        if not report.passed:
            first = report.failures[0]
            raise FibreTransportError(
                f"assigned lifting {fault}: law {law_id} fails on "
                f"{first.path!r} {first.params} ({', '.join(first.elements)})"
                f", deviation {first.deviation}")
    return S
