import math
import random

import pytest

from fibretransport.bundles import (graph_point, label_element,
                                    section_through, vector_element)
from fibretransport.errors import FibreTransportError
from fibretransport.instances import instance_names, make_instance
from fibretransport.laws import (law_named, liftings_disjoint_or_equal,
                                  transport_from_lifting)
from fibretransport.lifting import lift, occurrence_set
from fibretransport.transport import Transport, element_drawer, transport


def bits(u):
    """An element with every float spelled by ``float.hex``, so equal bits
    compare equal and nothing else does (-0.0 and NaN included)."""
    coords = u.over.coords
    return (u.over.space, u.over.node,
            None if coords is None else [c.hex() for c in coords], u.label,
            None if u.vector is None else [c.hex() for c in u.vector])


class TestLift:
    def test_values_track_the_transport(self, perm):
        p = perm.path_named("walk")
        u = label_element(p.at(0.0), "a")
        l = lift(perm.transport, p, u, 0.0)
        assert l.at(0.0).label == "a"
        assert l.at(1.0).label == transport(perm.transport, p, 0.0, 1.0, u).label
        assert l.anchor == 0.0
        assert [l.at(t).label for t in (0.0, 0.5, 1.0)] == [
            transport(perm.transport, p, 0.0, t, u).label
            for t in (0.0, 0.5, 1.0)]
        # a lifting applies T's rule without checking its anchor again; on
        # every preset what it reads is still exactly what transport() gives
        rng = random.Random(7)
        for name in instance_names():
            spec = make_instance(name)
            T = spec.transport
            for p in spec.law_paths:
                for _ in range(2):
                    s0 = rng.uniform(p.domain.lo, p.domain.hi)
                    u = element_drawer(T.bundle)(rng, p.at(s0))
                    lifted = lift(T, p, u, s0)
                    for t in p.domain.samples(7):
                        assert bits(lifted.at(t)) == bits(
                            transport(T, p, s0, t, u)), (name, p.name, s0, t)

    def test_anchor_must_match_footpoint(self, perm):
        p = perm.path_named("walk")
        u = label_element(p.at(1.0), "a")  # footpoint is the endpoint node
        with pytest.raises(FibreTransportError,
                           match=r"is not attached over path\(0\.0\)"):
            lift(perm.transport, p, u, 0.0)

    @pytest.mark.parametrize("name, make, message", [
        ("perm-c3", lambda x: vector_element(x, (1.0, 0.0)),
         "moves labelled elements"),
        ("perm-c3", lambda x: label_element(x, "zz"),
         "'zz' is not in the fibre"),
        ("sphere-levi-civita", lambda x: label_element(x, "a"),
         "moves vectors"),
        ("sphere-levi-civita", lambda x: vector_element(x, (1.0, 0.0, 0.0)),
         "length 3 in a rank-2 fibre"),
    ], ids=["vector-for-labels", "label-outside", "label-for-vectors",
            "rank-3"])
    def test_a_wrong_element_is_refused_at_the_anchor(self, name, make,
                                                      message):
        """lift refuses at construction what transport() refuses."""
        spec = make_instance(name)
        p = spec.law_paths[0]
        u = make(p.at(0.25))
        with pytest.raises(FibreTransportError, match=message):
            transport(spec.transport, p, 0.25, 1.0, u)
        with pytest.raises(FibreTransportError, match=message):
            lift(spec.transport, p, u, 0.25)

    def test_an_equal_but_distinct_node_point_anchors(self, perm):
        p = perm.path_named("walk")
        fresh = graph_point(p.space, p.at(0.0).node)
        assert fresh == p.at(0.0) and fresh is not p.at(0.0)
        u = label_element(fresh, "b")
        assert (lift(perm.transport, p, u, 0.0).at(1.0)
                == lift(perm.transport, p, label_element(p.at(0.0), "b"),
                        0.0).at(1.0))

    def test_projection_recovers_base_path(self, sphere):
        p = sphere.path_named("tilted")
        u = vector_element(p.at(0.0), (1.0, 0.0))
        l = lift(sphere.transport, p, u, 0.0)
        for t in (0.0, 0.4, 1.0):
            assert l.at(t).over == p.at(t)


class TestOccurrences:
    def test_discrete_revisits(self, perm):
        p = perm.path_named("zigzag")  # n0 n1 n0 n1
        u = label_element(p.at(0.0), "a")
        occ = occurrence_set(p, u)
        assert len(occ) == 2
        assert all(p.at(t).node == "n0" for t in occ)

    def test_chart_declared_crossings(self, sphere):
        loop = sphere.path_named("octant")
        u = vector_element(loop.at(0.0), (1.0, 0.0))
        occ = occurrence_set(loop, u)
        assert occ == (0.0, 1.0)

    @pytest.mark.parametrize("name", ["equator", "latitude-60"])
    def test_closed_latitudes_occur_at_both_ends(self, sphere, name):
        # phi reads 0 at s = 0 and 2*pi at s = 1: one point of the sphere
        loop = sphere.path_named(name)
        u = vector_element(loop.at(0.0), (1.0, 0.0))
        assert occurrence_set(loop, u) == (0.0, 1.0)

    def test_absent_point(self, perm):
        p = perm.path_named("hop1")
        from fibretransport.bundles import graph_point
        u = label_element(graph_point("c3", "n2"), "a")
        with pytest.raises(FibreTransportError, match="no occurrence of base point"):
            occurrence_set(p, u)
        # a node of another space is no occurrence, whatever its name
        u = label_element(graph_point("elsewhere", p.at(0.0).node), "a")
        with pytest.raises(FibreTransportError, match="no occurrence of base point"):
            occurrence_set(p, u)


class TestRebuild:
    def test_roundtrip_from_true_liftings(self, perm):
        p = perm.path_named("walk")
        assignment = lambda path, u, s0: lift(perm.transport, path, u, s0)
        S = transport_from_lifting(perm.bundle, assignment, [p])
        u = label_element(p.at(0.0), "c")
        for t in (0.25, 0.7, 1.0):
            assert transport(S, p, 0.0, t, u) == transport(
                perm.transport, p, 0.0, t, u)

    def test_inconsistent_assignment_rejected(self, fol):
        # follow u's own section near the anchor but defect to a fixed
        # section far away: re-anchoring then disagrees
        p = fol.path_named("walk")
        T = fol.transport
        sections = fol.bundle.sections

        def crooked(path, u, s0):
            own = section_through(fol.bundle, u)
            other = sections[0] if own is not sections[0] else sections[1]

            def value(t):
                width = path.domain.width
                sec = own if abs(t - s0) <= 0.5 * width else other
                return sec.at(path.at(t))

            from fibretransport.lifting import Lifting
            return Lifting(path=path, anchor=s0, through=u, value_fn=value)

        with pytest.raises(FibreTransportError, match="changes the lifting"):
            transport_from_lifting(fol.bundle, crooked, [p])

    def test_a_rule_that_lifts_the_next_label_misses_its_anchor(self, perm):
        p = perm.path_named("walk")
        labels = perm.bundle.labels

        def shifted(path, u, s0):
            following = labels[(labels.index(u.label) + 1) % len(labels)]
            return lift(perm.transport, path,
                        label_element(u.over, following), s0)

        with pytest.raises(FibreTransportError,
                           match=r"misses its anchor.*law 4\.2 fails"):
            transport_from_lifting(perm.bundle, shifted, [p])


UNIQUENESS, COVER = law_named("4.4"), law_named("4.7")


class TestLawCheckers:
    def test_projection_law(self, fol):
        r = law_named("4.2").check(fol.transport, fol.law_paths, trials=60)
        assert r.law == "4.2" and r.passed and r.max_deviation == 0.0

    def test_self_consistency_law(self, par):
        r = law_named("4.6").check(par.transport, par.law_paths, trials=60)
        assert r.law == "4.6" and r.passed and r.max_deviation == 0.0

    def test_uniqueness_law_on_flat_instance(self, par):
        r = UNIQUENESS.check(par.transport, par.path_named("figure-eight"),
                             trials=40)
        assert r.law == "4.4" and r.passed and r.max_deviation == 0.0

    def test_uniqueness_vacuous_without_revisits(self, perm):
        r = UNIQUENESS.check(perm.transport, perm.path_named("hop1"),
                             trials=10)
        assert r.passed
        assert "vacuous" in (r.notes or "")

    def test_vacuous_uniqueness_report_is_unchanged(self, perm):
        r = UNIQUENESS.check(perm.transport, perm.path_named("hop1"), seed=4)
        assert r.to_json() == """{
  "failures": [],
  "instance": "perm-c3",
  "law": "4.4",
  "max_deviation": 0.0,
  "notes": "no revisited base points; vacuous",
  "passed": true,
  "seed": 4,
  "tolerance": 0.0,
  "trials": 0
}
"""

    def test_dichotomy_holds_for_permutations(self, perm):
        r = liftings_disjoint_or_equal(perm.transport,
                                       perm.path_named("zigzag"), trials=30)
        assert r.passed

    def test_dichotomy_fails_a_nan_lifting(self, par):
        # NaN answers at t = 0.125, one point of the 9-point comparison grid
        T = par.transport

        def apply(p, s, t, u):
            w = T.apply_fn(p, s, t, u)
            if abs(t - 0.125) < 1e-3:
                return vector_element(w.over, (math.nan, math.nan))
            return w

        nan_at = Transport(**{**T._asdict(), "apply_fn": apply})
        r = liftings_disjoint_or_equal(nan_at, par.path_named("figure-eight"),
                                       trials=50, seed=0)
        assert not r.passed
        assert math.isnan(r.max_deviation)

    def test_dichotomy_needs_uniqueness(self, sphere):
        with pytest.raises(FibreTransportError, match="global uniqueness fails"):
            liftings_disjoint_or_equal(sphere.transport,
                                       sphere.path_named("octant"), trials=10)

    def test_fibre_cover_full_for_permutations(self, perm):
        r = COVER.check(perm.transport, perm.path_named("walk"))
        assert r.law == "4.7" and r.passed and r.max_deviation == 0.0

    def test_fibre_cover_flags_collapse(self, perm):
        # a rule that funnels every label to "a" leaves b and c uncovered
        squash = Transport(
            name="squash", bundle=perm.bundle,
            apply_fn=lambda p, s, t, u: label_element(p.at(t), "a"),
            declared=frozenset({"local"}))
        r = COVER.check(squash, perm.path_named("walk"))
        assert not r.passed
        assert r.max_deviation == 1.0
        joined = " ".join(str(f.elements) for f in r.failures)
        assert "missing" in joined

    def test_fibre_cover_rejects_vector_fibres(self, par):
        with pytest.raises(FibreTransportError, match="needs finite fibres"):
            COVER.check(par.transport, par.path_named("walk"))

    def test_fibre_cover_rejects_chart_paths(self, sphere):
        with pytest.raises(FibreTransportError, match="needs a discrete path"):
            COVER.check(sphere.transport, sphere.path_named("tilted"))
