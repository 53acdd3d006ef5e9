import math
import random
import sys

import pytest

from fibretransport.bundles import (BundleMetric, FibreBundle, fibre_labels,
                                    graph_point, label_element,
                                    section_through, vector_element)
from fibretransport.cli import run_law
from fibretransport.errors import FibreTransportError
from fibretransport.factorization import (apply_gauge, canonical_factorization,
                                          fibre_map, gauge_between)
from fibretransport.instances import (COUNTEREXAMPLE_KINDS, FRAME_GAP_EPS,
                                      LAW_ORDER, InstanceSpec,
                                      counterexample_transport,
                                      holonomy_angle, instance_names,
                                      loop_matrix, make_instance,
                                      parallelization_transport,
                                      permutation_transport)
from fibretransport.laws import law_named
from fibretransport.linalg import inverse, matmul, matvec, rotation
from fibretransport.paths import UNIT, Path, piecewise_path
from fibretransport.transport import Transport, transport


class TestRegistry:
    def test_names(self):
        names = instance_names()
        assert "perm-c3" in names
        assert "foliation-2sec" in names
        assert "parallelization-flat" in names
        assert "sphere-levi-civita" in names
        assert any(n.startswith("counterexample:") for n in names)

    def test_unknown_rejected(self):
        with pytest.raises(FibreTransportError, match="unknown instance"):
            make_instance("no-such-instance")
        with pytest.raises(FibreTransportError, match="unknown instance"):
            make_instance("counterexample:flies")

    def test_an_unknown_path_lists_each_known_name_once(self, sphere):
        # the product pair's paths are law paths too
        with pytest.raises(FibreTransportError) as info:
            sphere.path_named("nope")
        assert str(info.value) == (
            "no path named 'nope'; known: quarter-equator, quarter-meridian, "
            "tilted, latitude-arc, octant, equator, latitude-60")

    def test_law_order_is_complete(self):
        assert len(LAW_ORDER) == 17
        assert LAW_ORDER[0] == "2.2"
        assert "3.6-roundtrip" in LAW_ORDER


# Each preset's base and fibre kinds, and the kind of each of its law
# paths, product-pair paths, loops and uniqueness path, in that order.
PRESET_KINDS = {
    "perm-c3": ("graph", "finite", ["discrete"] * 5),
    "foliation-2sec": ("graph", "sections", ["discrete"] * 5),
    "parallelization-flat": ("graph", "vector", ["discrete"] * 6),
    "sphere-levi-civita": ("sphere", "vector", ["chart"] * 10),
    **{f"counterexample:{kind}": ("graph", "vector", ["discrete"] * 2)
       for kind in COUNTEREXAMPLE_KINDS},
}


class TestDerivedKinds:
    def test_every_preset_reads_its_kinds_off_its_fields(self):
        assert set(PRESET_KINDS) == set(instance_names())
        for name, kinds in PRESET_KINDS.items():
            spec = make_instance(name)
            paths = [*spec.law_paths, *(spec.product_pair or ()),
                     *spec.loops.values(),
                     *([spec.uniqueness_path] if spec.uniqueness_path else [])]
            assert (spec.bundle.base_kind, spec.bundle.fibre_kind,
                    [p.kind for p in paths]) == kinds, name

    def test_no_kind_is_passed(self):
        with pytest.raises(TypeError):
            FibreBundle("g", base_kind="graph", nodes=("a",))
        with pytest.raises(TypeError):
            FibreBundle("g", fibre_kind="vector", nodes=("a",))
        with pytest.raises(TypeError):
            Path("g", UNIT, lambda s: ((1.0, s), (0.0, 1.0)), kind="chart")


class TestApplicableLaws:
    def test_perm(self, perm):
        assert set(perm.applicable) == set(LAW_ORDER) - {"2.8", "2.9", "4.4"}
        # without a product pair, the product laws drop out as well
        bare = perm._replace(product_pair=None)
        assert set(bare.applicable) == (set(LAW_ORDER)
                                        - {"2.8", "2.9", "3.4", "3.5", "4.4"})

    def test_foliation(self, fol):
        assert set(fol.applicable) == set(LAW_ORDER) - {"2.8", "2.9"}

    def test_parallelization(self, par):
        assert set(par.applicable) == set(LAW_ORDER) - {"2.9", "4.7"}

    def test_sphere(self, sphere):
        assert set(sphere.applicable) == set(LAW_ORDER) - {"4.4", "4.7"}
        assert sphere.metric is not None

    def test_order_follows_registry(self, fol):
        order = {law: i for i, law in enumerate(LAW_ORDER)}
        idx = [order[law] for law in fol.applicable]
        assert idx == sorted(idx)


class TestConstructors:
    def test_permutation_requires_bijections(self, perm):
        with pytest.raises(FibreTransportError, match="bijection of the fibre labels"):
            permutation_transport(perm.bundle,
                                  {("n0", "n1"): {"a": "b", "b": "b", "c": "a"}})

    def test_permutation_missing_edge(self, perm):
        T = permutation_transport(perm.bundle,
                                  {("n0", "n1"): {"a": "b", "b": "c", "c": "a"}})
        p = perm.path_named("walk")  # walks n0 n1 n2: second hop undefined
        u = label_element(p.at(0.0), "a")
        with pytest.raises(FibreTransportError, match="no fibre map across hop"):
            transport(T, p, 0.0, 1.0, u)

    def test_foliation_table_agrees_with_section_through(self, fol):
        """Every (node, label) pair slides along the section that
        section_through finds, to every point of every law path."""
        T, bundle = fol.transport, fol.bundle
        for n in bundle.nodes:
            x = graph_point(bundle.base_space_id, n)
            for lab in fibre_labels(bundle, x):
                u = label_element(x, lab)
                sec = section_through(bundle, u)
                for p in fol.law_paths:
                    for t in p.domain.samples(9):
                        assert T.apply_fn(p, 0.0, t, u) == sec.at(p.at(t))

    def test_foliation_refuses_a_label_on_no_section(self, fol):
        p = fol.path_named("walk")
        u = label_element(p.at(0.0), "zz")
        with pytest.raises(FibreTransportError,
                           match="no section of the family passes through"):
            transport(fol.transport, p, 0.0, 1.0, u)

    def test_parallelization_needs_all_frames(self, par):
        with pytest.raises(FibreTransportError, match="no frame for nodes"):
            parallelization_transport(par.bundle, {"w0": ((1.0, 0.0), (0.0, 1.0))})

    def test_parallelization_needs_vectors(self, perm):
        with pytest.raises(FibreTransportError, match="need vector fibres"):
            parallelization_transport(perm.bundle, {})

    def test_ode_transport_guards_span(self, sphere):
        from fibretransport.paths import Interval
        x = sphere.path_named("tilted").at(0.5).coords
        too_long = Path(space="sphere", domain=Interval(0.0, 100.0),
                        jet=lambda s: (x, (0.0, 0.0)), name="marathon")
        u = vector_element(too_long.at(0.0), (1.0, 0.0))
        with pytest.raises(FibreTransportError, match="integrator allows"):
            transport(sphere.transport, too_long, 0.0, 100.0, u)


BAD_FRAMES = {
    "three-by-three": ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)),
    "singular": ((1.0, 2.0), (2.0, 4.0)),
    "nan": ((1.0, 0.0), (0.0, math.nan)),
    "inf": ((math.inf, 0.0), (0.0, 1.0)),
}


def rotation_frames(bundle, seed):
    """A rotation by a random angle per node: honest frames whose cocycle
    identities hold only up to rounding."""
    rng = random.Random(seed)
    return {n: rotation(rng.uniform(-math.pi, math.pi)) for n in bundle.nodes}


class TestParallelizationFrames:
    @pytest.mark.parametrize("frame", BAD_FRAMES.values(), ids=BAD_FRAMES)
    def test_a_bad_frame_is_refused(self, par, frame):
        frames = dict(rotation_frames(par.bundle, 0), w2=frame)
        with pytest.raises(FibreTransportError,
                           match="not 2 x 2, or is singular or not finite"):
            parallelization_transport(par.bundle, frames)

    @pytest.mark.parametrize("seed", range(10))
    def test_rotation_frames_pass_every_applicable_law(self, par, seed):
        T = parallelization_transport(par.bundle,
                                      rotation_frames(par.bundle, seed))
        # the bound is relative to the frames' max-abs norms, at most 1 for
        # a rotation, so the tolerance is a few machine epsilons
        assert 0.0 < T.tolerance <= (1.0 + 1e-12) * FRAME_GAP_EPS \
            * sys.float_info.epsilon
        assert par.transport.tolerance == 0.0  # quarter turns: to the bit
        spec = par._replace(transport=T)
        for law in spec.applicable:
            assert run_law(spec, law, trials=50, seed=seed).passed, law

    def test_a_rotation_of_ten_tolerances_fails_law_2_2(self, par):
        """Each image between distinct nodes turned by 10 * T.tolerance
        breaks the composition law, so the declared tolerance has teeth."""
        T = parallelization_transport(par.bundle,
                                      rotation_frames(par.bundle, 0))
        tilt = rotation(10 * T.tolerance)

        def apply(p, s, t, u):
            v = T.apply_fn(p, s, t, u)
            if p.at(s).node == p.at(t).node:
                return v
            return vector_element(v.over, matvec(tilt, v.vector))

        tilted = Transport("tilted", T.bundle, apply, T.declared,
                           T.tolerance)
        assert run_law(par._replace(transport=T), "2.2").passed
        assert not run_law(par._replace(transport=tilted), "2.2").passed


# Two honest frames with condition number about 10^2 whose frame maps
# compose to a gap of 1.08e-12, which an absolute bound of 1e-12 refused.
ILL_CONDITIONED = {
    "v0": ((-1.4625430235503951, 1.3897349477489307),
           (1.0550984759064561, -0.9797238970423132)),
    "v2": ((-1.6245616529030604, -1.8866100939119748),
           (1.3430604156794788, -0.2689317283797865)),
}


def _tours_spec(T):
    def tour(stops, name):
        return piecewise_path("g", UNIT, [((i + 1) / len(stops), n)
                                          for i, n in enumerate(stops)],
                              name=name)

    walk = tour(["v0", "v2", "v0", "v2"], "walk")
    loop = tour(["v2", "v0", "v2"], "loop")
    return InstanceSpec(name=T.name, transport=T, law_paths=(walk, loop),
                        product_pair=(walk, tour(["v2", "v0"], "onward")),
                        uniqueness_path=loop)


class TestIllConditionedFrames:
    @pytest.fixture(scope="class")
    def spec(self):
        bundle = FibreBundle("g", nodes=("v0", "v2"))
        return _tours_spec(parallelization_transport(bundle, ILL_CONDITIONED))

    @pytest.mark.parametrize("seed", range(3))
    def test_they_pass_every_applicable_law(self, spec, seed):
        assert spec.transport.tolerance > 1e-12
        assert {"2.2", "3.6-roundtrip", "3.11/3.12", "4.4"} <= set(
            spec.applicable)
        for law in spec.applicable:
            report = run_law(spec, law, trials=100, seed=seed)
            assert report.passed, (law, report.max_deviation)

    def test_frames_whose_maps_compose_to_the_bit_still_round(self, spec):
        """The maps between the frames 1 and 3 compose with gap 0, but
        applying them one after the other rounds, so the tolerance is not
        0.0 and every applicable law passes."""
        bundle = spec.bundle
        T = parallelization_transport(bundle, {
            "v0": ((1.0, 0.0), (0.0, 1.0)), "v2": ((3.0, 0.0), (0.0, 3.0))})
        assert T.tolerance > 0.0
        exact = _tours_spec(T)
        for law in exact.applicable:
            report = run_law(exact, law, trials=100, seed=0)
            assert report.passed, (law, report.max_deviation)

    def test_a_turn_of_ten_tolerances_on_one_hop_fails_law_2_2(self, spec):
        """Only the images carried from v0 to v2 are turned, so the declared
        tolerance has teeth on these frames too."""
        T = spec.transport
        tilt = rotation(10 * T.tolerance)

        def apply(p, s, t, u):
            v = T.apply_fn(p, s, t, u)
            if (u.over.node, v.over.node) != ("v0", "v2"):
                return v
            return vector_element(v.over, matvec(tilt, v.vector))

        tilted = Transport("tilted", T.bundle, apply, T.declared,
                           T.tolerance)
        assert run_law(spec, "2.2").passed
        assert not run_law(spec._replace(transport=tilted), "2.2").passed


# Frames rotation(a) diag(s0, s1) rotation(b), of condition number up to
# 10^3, along whose walk the canonical family and its random gauges induce
# transports up to 4.8e-9 apart: the roundoff of inverting an ill-conditioned
# family map, which an absolute bound of max(1e-9, 4 tolerances) refused.
GAUGED_FRAMES = {
    "v0": ((-0.19228484458880696, 4.2573274742190526),
           (0.524373544665918, -8.230065709998868)),
    "v1": ((0.15559407542554488, 0.4280837008896162),
           (-0.05019751268317831, 1.4075418021511565)),
    "v2": ((13.754981559690227, -2.3912609461592744),
           (-18.623783152305577, 3.4159689507068522)),
    "v3": ((-0.06878584904988504, -0.08905578130450967),
           (0.24724748414957246, -0.15366564076066638)),
}


def _size(m):
    return max(abs(c) for row in m for c in row)


class TestGaugesOfIllConditionedFrames:
    @pytest.fixture(scope="class")
    def family(self):
        bundle = FibreBundle("g", nodes=tuple(GAUGED_FRAMES))
        T = parallelization_transport(bundle, GAUGED_FRAMES)
        stops = ("v2", "v1", "v0", "v1", "v0", "v1")
        walk = piecewise_path("g", UNIT, [((i + 1) / 6, n)
                                          for i, n in enumerate(stops)])
        return T, canonical_factorization(T, walk)

    def test_law_3_11_passes_on_them(self, family):
        T, f = family
        law = law_named("3.11/3.12")
        report = law.check(T, f, trials=50, seed=77)
        assert report.passed, report.failures

    @pytest.mark.parametrize("times, refused", [(10.0, True), (0.1, False)])
    def test_a_family_map_off_by_ten_bounds_is_refused_by_a_tenth_not(
            self, family, times, refused):
        """With no tolerance declared, gauge_between allows the induced maps
        only their rounding.  Each map of a gauged family in turn is scaled
        until the induced maps it enters are off by ``times`` that bound at
        their worst pair: ten times is refused, a tenth is not."""
        f = family[1]._replace(tolerance=0.0)
        g = apply_gauge(f, ((2.0, 1.0), (1.0, 1.0)))
        inv_f = [inverse(m) for m in f.maps]
        inv_g = [inverse(m) for m in g.maps]

        def allowed(i, j):
            spread = max(_size(f.maps[j]) * _size(inv_f[j]) ** 2,
                         _size(g.maps[j]) * _size(inv_g[j]) ** 2)
            return (2.0 * FRAME_GAP_EPS * sys.float_info.epsilon * spread
                    * max(_size(f.maps[i]), _size(g.maps[i])))

        grid = range(len(f.grid))
        for k in grid:
            # scaling map k by 1 + d moves the induced map of each pair it
            # enters, (k, j) or (i, k), by about d times that map's size
            worst = max(_size(matmul(inv_f[j], f.maps[i])) / allowed(i, j)
                        for i in grid for j in grid
                        if i != j and k in (i, j))
            scale = 1.0 + times / worst
            maps = list(g.maps)
            maps[k] = tuple(tuple(scale * c for c in row) for row in maps[k])
            mutant = g._replace(maps=tuple(maps))
            if refused:
                with pytest.raises(FibreTransportError,
                                   match="families induce different"):
                    gauge_between(mutant, f)
            else:
                gauge_between(mutant, f)


class TestCounterexamples:
    def test_kinds_enumerated(self):
        assert set(COUNTEREXAMPLE_KINDS) == {
            "group_breaking", "nonlocal", "non_reparam_invariant",
            "nonlinear", "metric_breaking"}

    def test_each_declares_its_target(self):
        for kind in COUNTEREXAMPLE_KINDS:
            T = counterexample_transport(kind)
            assert T.violates in LAW_ORDER
            assert T.violates not in T.preserves
            assert T.preserves  # every saboteur leaves something intact

    def test_applicable_covers_violated_law(self):
        for kind in COUNTEREXAMPLE_KINDS:
            spec = make_instance(f"counterexample:{kind}")
            assert spec.transport.violates in spec.applicable
            for law in spec.transport.preserves:
                assert law in spec.applicable


class TestLoops:
    def test_loop_matrix_needs_closure(self, sphere):
        with pytest.raises(FibreTransportError, match="is not closed"):
            loop_matrix(sphere.transport, sphere.path_named("tilted"))

    def test_loop_matrix_needs_vectors(self, perm):
        with pytest.raises(FibreTransportError, match="holonomy applies to vector"):
            loop_matrix(perm.transport, perm.path_named("zigzag"))

    def test_the_loop_matrix_is_the_column_by_column_reading_to_the_bit(
            self, sphere):
        """fibre_map reads the octant's loop matrix exactly as transporting
        e0 and e1 one by one and taking them as columns does."""
        T, loop = sphere.transport, sphere.path_named("octant")
        lo, hi = loop.domain
        x0 = loop.at(lo)
        cols = [transport(T, loop, lo, hi, vector_element(x0, e)).vector
                for e in ((1.0, 0.0), (0.0, 1.0))]
        by_hand = tuple(zip(*cols))
        for m in (fibre_map(T, loop, lo, hi), loop_matrix(T, loop)):
            assert [[c.hex() for c in row] for row in m] == \
                [[c.hex() for c in row] for row in by_hand]

    def test_flat_loop_angle_is_zero(self, par):
        ang = holonomy_angle(par.transport, par.path_named("figure-eight"))
        assert ang == 0.0

    def test_a_metric_of_another_rank_is_refused(self, par):
        eye = ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0))
        metric = BundleMetric(name="euclidean-3", matrix_at=lambda x: eye)
        with pytest.raises(FibreTransportError,
                           match="metric 'euclidean-3' is not 2 x 2"):
            holonomy_angle(par.transport, par.path_named("figure-eight"),
                           metric)


class TestStepOverride:
    def test_coarse_step_changes_accuracy(self):
        coarse = make_instance("sphere-levi-civita", step=0.05)
        fine = make_instance("sphere-levi-civita", step=1e-3)
        loop = coarse.path_named("octant")
        a1 = holonomy_angle(coarse.transport, loop, coarse.metric)
        a2 = holonomy_angle(fine.transport, fine.path_named("octant"),
                            fine.metric)
        assert abs(a2 - math.pi / 2) < abs(a1 - math.pi / 2)
        assert abs(a1 - math.pi / 2) < 1e-3  # even coarse stays close
