"""The law registry: one ``Law`` record per law id, in registry order.

Registry order, default law sets, tolerances, the CLI and the sweep script
all read this table, so a new law is added here and nowhere else.
"""

from __future__ import annotations

from collections import namedtuple

from . import factorization as fz
from . import lifting as lf
from . import transport as tr
from .errors import FibreTransportError
from .paths import UNIT, Interval, affine_remap, square_remap


class Law(namedtuple("Law", "id factor applies run")):
    """One registry law, named by its ``id``.

    ``factor`` scales the instance tolerance into the law's threshold (None:
    the relative linearity bound).  ``applies(spec)`` says whether a default
    run includes the law (None: only when asked for by id).
    ``run(spec, trials=, seed=, tolerance=)`` executes its checker and
    returns a ``LawReport``.
    """

    __slots__ = ()


def _on_paths(check):
    return lambda spec, **kw: check(spec.transport, spec.law_paths, **kw)


def _on_first_path(check):
    # these checkers size their own samples, so the trial count is unused
    return lambda spec, trials, **kw: check(spec.transport, spec.law_paths[0],
                                            **kw)


def _on_product(check):
    def run(spec, **kw):
        if spec.product_pair is None:
            raise FibreTransportError(
                "product laws need an instance with a product pair")
        return check(spec.transport, *spec.product_pair, **kw)
    return run


# The reparameterizations law 2.6 draws from, on every instance.
REMAPS = (affine_remap(Interval(0.0, 2.0), UNIT, name="halve"), square_remap())


def _always(spec) -> bool:
    return True


# Two-map compositions get a factor two; single-evaluation comparisons get
# the tolerance itself; the fibre cover is compared exactly.
LAWS = (
    Law("2.2", 2.0, _always, _on_paths(tr.check_group_law)),
    Law("2.3", 1.0, _always, _on_paths(tr.check_identity_law)),
    Law("2.2+2.3", 2.0, None, _on_paths(tr.check_axioms)),
    Law("2.4", 2.0, _always, _on_paths(tr.check_transported_sections)),
    Law("2.5/2.7", 2.0, _always, _on_paths(tr.check_locality)),
    Law("2.6", 2.0, _always,
        lambda spec, **kw: tr.check_reparam_invariance(
            spec.transport, spec.law_paths, REMAPS, **kw)),
    Law("2.8", None,
        lambda spec: (spec.bundle.fibre_kind == "vector"
                      and "linear" in spec.transport.declared),
        _on_paths(tr.check_linearity)),
    Law("2.9", 1.0,
        lambda spec: (spec.metric is not None
                      and "metric_consistent" in spec.transport.declared),
        lambda spec, **kw: tr.check_metric_consistency(
            spec.transport, spec.metric, spec.law_paths, **kw)),
    Law("3.1", 2.0, _always, _on_paths(tr.check_inverse_transport)),
    Law("3.2", 2.0, _always, _on_paths(tr.check_inverse_path_law)),
    Law("3.4", 2.0, lambda spec: spec.product_pair is not None,
        _on_product(tr.check_product_cross)),
    Law("3.5", 2.0, lambda spec: spec.product_pair is not None,
        _on_product(tr.check_product_same)),
    Law("3.6-roundtrip", 2.0, _always,
        _on_first_path(fz.check_factorization_roundtrip)),
    Law("3.11/3.12", 2.0, _always, _on_first_path(fz.check_gauge_freedom)),
    Law("4.2", 1.0, _always, _on_paths(lf.check_lift_projection)),
    Law("4.4", 2.0,
        lambda spec: ("global" in spec.transport.declared
                      and spec.uniqueness_path is not None),
        lambda spec, **kw: lf.check_global_uniqueness(
            spec.transport, spec.uniqueness_path or spec.law_paths[0], **kw)),
    Law("4.6", 2.0, _always, _on_paths(lf.check_self_consistency)),
    Law("4.7", 0.0,
        lambda spec: (spec.bundle.fibre_kind in ("finite", "sections")
                      and bool(spec.law_paths)
                      and spec.law_paths[0].kind == "discrete"),
        _on_first_path(lf.check_fibre_cover)),
)

# The laws a default run can include, in the order reports are written.
LAW_ORDER = tuple(law.id for law in LAWS if law.applies is not None)

_BY_ID = {law.id: law for law in LAWS}


def law_named(law_id: str) -> Law:
    try:
        return _BY_ID[law_id]
    except KeyError:
        raise FibreTransportError(
            f"unknown law id {law_id!r}; registry: "
            f"{', '.join(_BY_ID)}") from None
