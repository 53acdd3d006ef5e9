import math
import random

import pytest

from fibretransport.bundles import (COORD_TOL, BundleMetric, FibreBundle,
                                    FibreElement, chart_point,
                                    element_deviation, euclidean_metric,
                                    evaluate_metric, fibre_elements,
                                    fibre_labels, graph_point, label_element,
                                    point_deviation, rebase, section_through,
                                    sections_of_family, table_section,
                                    vector_element)
from fibretransport.errors import FibreTransportError
from fibretransport.sphere import SPACE, tangent_bundle


def three_node_bundle():
    return FibreBundle(base_space_id="g", nodes=("n0", "n1", "n2"),
                       labels=("a", "b", "c"))


def sectioned_bundle():
    return FibreBundle(
        base_space_id="fol", nodes=("g0", "g1"),
        sections=(table_section("alpha", "fol", {"g0": "a0", "g1": "a1"}),
                  table_section("beta", "fol", {"g0": "b0", "g1": "b1"})))


class TestPoints:
    def test_graph_point_identity(self):
        x = graph_point("g", "n0")
        assert x.node == "n0" and x.coords is None
        assert point_deviation(x, graph_point("g", "n0")) == 0.0
        assert point_deviation(x, graph_point("g", "n1")) == 1.0

    def test_chart_point_deviation(self):
        x = chart_point("c", 0.0, 1.0)
        y = chart_point("c", 0.0, 1.5)
        assert point_deviation(x, y) == pytest.approx(0.5)
        assert point_deviation(x, chart_point("c", 0.0, 1.0 + 1e-12)) <= COORD_TOL

    def test_mismatched_spaces_are_far(self):
        assert point_deviation(graph_point("g", "n0"),
                               graph_point("h", "n0")) == math.inf


class TestElements:
    def test_label_and_vector(self):
        x = graph_point("g", "n0")
        u = label_element(x, "a")
        assert u.label == "a" and u.vector is None
        v = vector_element(chart_point("c", 0.0), (1.0, 2.0))
        assert v.vector == (1.0, 2.0)
        assert v.over == chart_point("c", 0.0)

    def test_a_none_label_is_refused(self):
        # label_element builds the record without FibreElement's check, so
        # it refuses None itself, with the same message
        x = graph_point("g", "n0")
        with pytest.raises(FibreTransportError,
                           match="exactly one of label / vector must be set"):
            label_element(x, None)
        with pytest.raises(FibreTransportError,
                           match="exactly one of label / vector must be set"):
            FibreElement(x)

    def test_rebase_moves_footpoint_only(self):
        u = vector_element(chart_point("c", 0.0), (1.0, 2.0))
        w = rebase(u, chart_point("c", 3.0))
        assert w.vector == u.vector
        assert w.over == chart_point("c", 3.0)

    def test_deviation(self):
        x = graph_point("g", "n0")
        assert element_deviation(label_element(x, "a"), label_element(x, "a")) == 0.0
        assert element_deviation(label_element(x, "a"), label_element(x, "b")) == 1.0
        p = chart_point("c", 0.0, 0.0)
        a = vector_element(p, (1.0, 0.0))
        b = vector_element(p, (1.0, 0.25))
        assert element_deviation(a, b) == 0.25
        # a chart point that is not a pair is no point to compare
        q = chart_point("c", 0.0)
        assert element_deviation(vector_element(q, (1.0, 0.0)),
                                 vector_element(q, (1.0, 0.25))) == math.inf


def bits(x):
    return (x, math.copysign(1.0, x))


class TestDeviationsAgainstTheGenericMaxima:
    """Finite deviations equal the plain ``max`` they replace, to the bit."""

    def test_points_and_elements(self):
        # chart points are (theta, phi) pairs with phi read modulo 2*pi
        rng = random.Random(3)
        for _ in range(500):
            c = [rng.choice((0.0, -0.0, 1.0, rng.uniform(-4.0, 4.0)))
                 for _ in range(4)]
            x, y = chart_point("c", *c[:2]), chart_point("c", *c[2:])
            dth = abs(c[0] - c[2])
            dph = abs(c[1] - c[3]) % (2.0 * math.pi)
            gap = max(dth, min(dph, 2.0 * math.pi - dph))
            assert bits(point_deviation(x, y)) == bits(gap)
            u = [rng.choice((0.0, -0.0, 0.5, rng.uniform(-2.0, 2.0)))
                 for _ in range(4)]
            a, b = vector_element(x, u[:2]), vector_element(y, u[2:])
            want = max(gap, max(abs(p - q) for p, q in zip(u[:2], u[2:])))
            assert bits(element_deviation(a, b)) == bits(want)

    def test_other_lengths(self):
        # a chart point with other than two coordinates is infinitely far
        # from every point, itself included; vectors of any one length
        # compare entrywise
        x = chart_point("c", 0.0, 1.0, 2.0)
        assert point_deviation(x, chart_point("c", 0.5, 1.0, 1.0)) == math.inf
        assert point_deviation(x, x) == math.inf
        y = chart_point("c", 0.0, 1.0)
        a = vector_element(y, (1.0, 2.0, 3.0))
        b = vector_element(y, (1.0, 2.5, 3.0))
        assert element_deviation(a, b) == 0.5
        assert element_deviation(a, vector_element(y, (1.0, 2.0))) == math.inf
        assert element_deviation(vector_element(x, (1.0, 2.0, 3.0)),
                                 vector_element(x, (1.0, 2.5, 3.0))) == math.inf


class TestDeviationsKeepNaN:
    """A NaN anywhere in the compared values makes the deviation NaN."""

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_point_deviation(self, n):
        # only a (theta, phi) pair is compared; other lengths are infinitely
        # far apart, NaN or not
        for i in range(n):
            for side in (0, 1):
                c = [[0.0] * n, [5.0] * n]
                c[side][i] = math.nan
                x, y = chart_point("c", *c[0]), chart_point("c", *c[1])
                if n == 2:
                    assert math.isnan(point_deviation(x, y)), c
                else:
                    assert point_deviation(x, y) == math.inf, c

    def test_chart_deviation(self):
        for i in range(4):
            c = [1.0, 0.5, 1.5, 0.25]
            c[i] = math.nan
            x, y = chart_point(SPACE, *c[:2]), chart_point(SPACE, *c[2:])
            assert math.isnan(point_deviation(x, y)), c
        assert math.isnan(point_deviation(chart_point(SPACE, 1.0, math.inf),
                                          chart_point(SPACE, 2.0, 0.0)))

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_element_deviation(self, n):
        for over in (graph_point("g", "n0"), chart_point("c", 0.0, 1.0)):
            for i in range(n):
                for side in (0, 1):
                    v = [[0.0] * n, [3.0] * n]
                    v[side][i] = math.nan
                    a = vector_element(over, v[0])
                    b = vector_element(over, v[1])
                    assert math.isnan(element_deviation(a, b)), v
        # a NaN base gap with equal vectors or labels
        x, y = chart_point("c", math.nan, 0.0), chart_point("c", 0.0, 0.0)
        assert math.isnan(element_deviation(vector_element(x, (1.0, 2.0)),
                                            vector_element(y, (1.0, 2.0))))
        assert math.isnan(element_deviation(label_element(x, "a"),
                                            label_element(y, "a")))


class TestBundleQueries:
    def test_membership(self):
        B = three_node_bundle()
        assert B.contains_point(graph_point("g", "n1"))
        assert not B.contains_point(graph_point("g", "zz"))
        with pytest.raises(FibreTransportError, match="is not a point of base"):
            B.require_point(graph_point("q", "n1"))

    def test_fibre_description(self):
        B = three_node_bundle()
        assert fibre_labels(B, graph_point("g", "n0")) == ("a", "b", "c")
        els = fibre_elements(B, graph_point("g", "n0"))
        assert [u.label for u in els] == ["a", "b", "c"]

    def test_a_vector_fibre_is_read_on_the_basis(self):
        """The frame of a vector fibre over x is e0, e1 attached over x."""
        B = FibreBundle(base_space_id="v", nodes=("w0",))
        x = graph_point("v", "w0")
        assert fibre_elements(B, x) == (vector_element(x, (1.0, 0.0)),
                                        vector_element(x, (0.0, 1.0)))
        y = chart_point(SPACE, 1.0, 2.0)
        e0, e1 = fibre_elements(tangent_bundle(), y)
        assert (e0.over, e0.vector, e1.over, e1.vector) == (
            y, (1.0, 0.0), y, (0.0, 1.0))

    def test_sections(self):
        B = sectioned_bundle()
        fam = sections_of_family(B)
        assert [s.name for s in fam] == ["alpha", "beta"]
        # the fibre over a point is carved out of the family's values there
        assert fibre_labels(B, graph_point("fol", "g0")) == ("a0", "b0")
        u = label_element(graph_point("fol", "g1"), "b1")
        assert section_through(B, u).name == "beta"
        with pytest.raises(FibreTransportError, match="no section of the family"):
            section_through(B, label_element(graph_point("fol", "g0"), "zz"))

    def test_table_section_eval(self):
        s = table_section("alpha", "fol", {"g0": "a0", "g1": "a1"})
        assert s.at(graph_point("fol", "g1")).label == "a1"


def _euclidean_3():
    """A 3 x 3 metric, which no rank-2 fibre accepts."""
    eye = ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0))
    return BundleMetric(name="euclidean-3", matrix_at=lambda x: eye)


class TestMetric:
    def test_euclidean(self):
        m = euclidean_metric()
        x = chart_point("c", 0.0)
        u = vector_element(x, (3.0, 4.0))
        assert evaluate_metric(m, x, u, u) == pytest.approx(25.0)

    def test_round_sphere_metric_weights_phi(self):
        from fibretransport.sphere import round_metric
        m = round_metric()
        x = chart_point(SPACE, math.pi / 3, 0.0)
        u = vector_element(x, (0.0, 1.0))
        assert evaluate_metric(m, x, u, u) == pytest.approx(math.sin(math.pi / 3) ** 2)

    def test_a_metric_of_another_rank_is_refused(self):
        x = chart_point("c", 0.0)
        u = vector_element(x, (1.0, 0.0))
        with pytest.raises(FibreTransportError,
                           match="metric and vectors must be rank 2"):
            evaluate_metric(_euclidean_3(), x, u, u)


class TestSphereBase:
    def test_phi_periodicity(self):
        x = chart_point(SPACE, 1.0, 0.0)
        y = chart_point(SPACE, 1.0, 2.0 * math.pi)
        # the chart wraps in phi, so these name the same base point
        assert point_deviation(x, y) == pytest.approx(0.0, abs=1e-12)
        assert point_deviation(x, y) <= COORD_TOL

    def test_contains_only_chart_band(self):
        B = tangent_bundle()
        assert B.contains_point(chart_point(SPACE, 1.0, 1.0))
        assert not B.contains_point(chart_point(SPACE, 0.0, 0.0))


class TestSerialization:
    def test_vector_bundle_dim(self):
        """A vector fibre is rank 2 by its frame alone: no bundle record
        carries a rank."""
        B = FibreBundle(base_space_id="v", nodes=("w0",))
        assert "dim" not in FibreBundle._fields
        assert len(fibre_elements(B, graph_point("v", "w0"))) == 2
