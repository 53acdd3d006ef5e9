"""Acceptance gate: end-to-end expectations, with pinned tolerances.

Each test freezes one headline guarantee of the package:

1. exact finite instances satisfy the core laws to the bit,
2. the curved-surface integrator meets its stated law tolerances,
3. factorizations roundtrip and gauge changes are recovered exactly,
4. liftings and transports rebuild each other, and broken rules are caught,
5. global uniqueness separates flat from curved holonomy,
6. concatenation product laws hold on both kinds of instance,
7. the integrator converges at its designed order on the octant loop,
8. every deliberately broken instance is flagged by exactly its law,
9. CLI report files are byte-stable across reruns.
"""

import math
import time

import pytest

from fibretransport.bundles import label_element, section_through
from fibretransport.cli import main, run_law
from fibretransport.errors import FibreTransportError
from fibretransport.instances import (COUNTEREXAMPLE_KINDS, holonomy_angle,
                                      make_instance)
from fibretransport.factorization import canonical_factorization
from fibretransport.laws import law_named, transport_from_lifting
from fibretransport.lifting import Lifting, lift
from fibretransport.paths import concatenate
from fibretransport.transport import transport

HALF_PI = math.pi / 2

EXACT_INSTANCES = ("perm-c3", "foliation-2sec", "parallelization-flat")
CORE_LAWS = ("2.2", "2.3", "3.1", "2.5/2.7", "2.6")


def test_1_exact_instances_hold_core_laws_to_the_bit():
    started = time.perf_counter()
    for name in EXACT_INSTANCES:
        spec = make_instance(name)
        for law in CORE_LAWS:
            report = run_law(spec, law, trials=200, seed=0)
            assert report.passed, f"{name} law {law}: {report.failures[:1]}"
            assert report.max_deviation == 0.0, (name, law)
    assert time.perf_counter() - started < 5.0


def test_2_integrator_meets_law_tolerances():
    started = time.perf_counter()
    spec = make_instance("sphere-levi-civita")
    for law, bound in [("2.2", 2e-6), ("2.3", 2e-6), ("3.1", 2e-6)]:
        report = run_law(spec, law, trials=200, seed=0)
        assert report.passed, f"law {law}: {report.failures[:1]}"
        assert report.max_deviation <= bound, (law, report.max_deviation)
    linear = run_law(spec, "2.8", trials=200, seed=0)
    assert linear.passed and linear.max_deviation <= 1e-9
    metric = run_law(spec, "2.9", trials=200, seed=0)
    assert metric.passed and metric.max_deviation <= 1e-6
    assert time.perf_counter() - started < 20.0


def test_3_factorizations_roundtrip_and_recover_gauges():
    sphere = make_instance("sphere-levi-civita")
    tilted = sphere.path_named("tilted")
    roundtrip = law_named("3.6-roundtrip").check(
        sphere.transport, canonical_factorization(sphere.transport, tilted),
        seed=0)
    assert roundtrip.passed
    assert roundtrip.max_deviation <= 2e-6

    for name in EXACT_INSTANCES:
        spec = make_instance(name)
        p = spec.law_paths[0]
        r = law_named("3.6-roundtrip").check(
            spec.transport, canonical_factorization(spec.transport, p),
            seed=0)
        assert r.passed and r.max_deviation == 0.0, name

    # 20 random gauges: five per seed
    perm = make_instance("perm-c3")
    walk = perm.path_named("walk")
    family = canonical_factorization(perm.transport, walk)
    for seed in range(4):
        gauges = law_named("3.11/3.12").check(perm.transport, family,
                                              seed=seed)
        assert gauges.trials == 5
        assert gauges.passed and gauges.max_deviation == 0.0


def test_4_liftings_and_transports_rebuild_each_other():
    # transport -> liftings -> transport
    perm = make_instance("perm-c3")
    walk = perm.path_named("walk")
    rebuilt = transport_from_lifting(
        perm.bundle, lambda p, u, s0: lift(perm.transport, p, u, s0), [walk])
    for s, t in [(0.0, 1.0), (0.2, 0.9), (1.0, 0.0)]:
        for lab in "abc":
            u = label_element(walk.at(s), lab)
            assert transport(rebuilt, walk, s, t, u) == transport(
                perm.transport, walk, s, t, u)

    # lifting rule -> transport -> liftings
    fol = make_instance("foliation-2sec")
    fwalk = fol.path_named("walk")

    def by_section(path, u, s0):
        sec = section_through(fol.bundle, u)
        return Lifting(path=path, anchor=s0, through=u,
                       value_fn=lambda t: sec.at(path.at(t)))

    from_sections = transport_from_lifting(
        fol.bundle, by_section, [fwalk, fol.path_named("figure-eight")])
    u = label_element(fwalk.at(0.0), "a0")
    produced = lift(from_sections, fwalk, u, 0.0)
    for t in (0.0, 0.5, 1.0):
        assert produced.at(t).label == section_through(
            fol.bundle, u).at(fwalk.at(t)).label

    # a rule that defects to another section away from its anchor cannot
    # come from any transport, and the rebuild must say so
    def crooked(path, u, s0):
        own = section_through(fol.bundle, u)
        other = next(s for s in fol.bundle.sections if s is not own)

        def value(t):
            near = abs(t - s0) <= 0.5 * path.domain.width
            return (own if near else other).at(path.at(t))

        return Lifting(path=path, anchor=s0, through=u, value_fn=value)

    with pytest.raises(FibreTransportError, match="changes the lifting"):
        transport_from_lifting(fol.bundle, crooked, [fwalk])


def test_5_uniqueness_separates_flat_from_curved():
    par = make_instance("parallelization-flat")
    flat = law_named("4.4").check(par.transport,
                                  par.path_named("figure-eight"),
                                  trials=60, seed=0)
    assert flat.passed and flat.max_deviation == 0.0

    sphere = make_instance("sphere-levi-civita")
    octant = sphere.path_named("octant")
    curved = law_named("4.4").check(sphere.transport, octant,
                                    trials=40, seed=0)
    assert not curved.passed  # the loop turns vectors, so revisits disagree
    angle = holonomy_angle(sphere.transport, octant, sphere.metric)
    assert abs(abs(angle) - HALF_PI) < 1e-4


def test_6_product_laws_on_both_kinds():
    perm = make_instance("perm-c3")
    cross = law_named("3.4").check(perm.transport, *perm.product_pair,
                                   trials=120, seed=0)
    same = law_named("3.5").check(perm.transport, *perm.product_pair,
                                  trials=120, seed=0)
    assert cross.passed and cross.max_deviation == 0.0
    assert same.passed and same.max_deviation == 0.0

    # crossing the junction agrees with the single-factor transports
    hop1, hop2 = perm.product_pair[:2]
    joined = concatenate(hop1, hop2)
    for lab in "abc":
        u = label_element(joined.at(0.0), lab)
        through_pair = transport(perm.transport, joined, 0.0, 0.5, u)
        direct = transport(perm.transport, hop1, 0.0, 1.0,
                           label_element(hop1.at(0.0), lab))
        assert through_pair.label == direct.label

    sphere = make_instance("sphere-levi-civita")
    cross = law_named("3.4").check(sphere.transport, *sphere.product_pair,
                                   trials=40, seed=0)
    same = law_named("3.5").check(sphere.transport, *sphere.product_pair,
                                  trials=40, seed=0)
    assert cross.passed and cross.max_deviation <= 2e-6
    assert same.passed and same.max_deviation <= 2e-6


def test_7_integrator_converges_at_design_order():
    started = time.perf_counter()
    errors = []
    for h in (4e-3, 2e-3, 1e-3):
        spec = make_instance("sphere-levi-civita", step=h)
        ang = holonomy_angle(spec.transport, spec.path_named("octant"),
                             spec.metric)
        errors.append(abs(ang - HALF_PI))
    order_coarse = math.log2(errors[0] / errors[1])
    order_fine = math.log2(errors[1] / errors[2])
    assert order_coarse >= 3.5, (errors, order_coarse)
    assert order_fine >= 3.5, (errors, order_fine)
    assert time.perf_counter() - started < 120.0


def test_8_every_saboteur_is_flagged_by_exactly_its_law():
    for kind in COUNTEREXAMPLE_KINDS:
        spec = make_instance(f"counterexample:{kind}")
        target = spec.transport.violates
        flagged = run_law(spec, target, trials=120, seed=0)
        assert not flagged.passed, f"{kind} slipped past law {target}"
        assert flagged.max_deviation > flagged.tolerance
        for law in spec.applicable:
            if law == target:
                continue
            report = run_law(spec, law, trials=60, seed=0)
            assert report.passed, (
                f"{kind} broke law {law} as collateral: "
                f"{report.failures[:1]}")


def test_9_cli_reports_are_byte_stable(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        rc = main(["check", "--instance", "perm-c3", "--seed", "3",
                   "--out", str(out)])
        assert rc == 0
    files_a = sorted(p.name for p in a.iterdir())
    files_b = sorted(p.name for p in b.iterdir())
    assert files_a == files_b and files_a
    for name in files_a:
        assert (a / name).read_bytes() == (b / name).read_bytes(), name
