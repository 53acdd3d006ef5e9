import math
import random
from dataclasses import replace

import pytest

from fibretransport import integrate, sphere
from fibretransport.bundles import graph_point, vector_element
from fibretransport.errors import FibreTransportError
from fibretransport.instances import DEFAULT_STEP, linear_ode_transport
from fibretransport.paths import (UNIT, Interval, Path, Reparameterization,
                                  affine_remap, canonical_reversal,
                                  concatenate, node_sequence, piece_runs,
                                  piecewise_path, reparameterize, restrict,
                                  reverse, share_remaps, square_remap,
                                  trace_nodes)
from fibretransport.transport import transport


def zigzag():
    return piecewise_path("g", UNIT,
                          [(0.25, "n0"), (0.5, "n1"), (0.75, "n0"), (1.0, "n1")],
                          name="zigzag")


class TestInterval:
    def test_basic_geometry(self):
        iv = Interval(1.0, 3.0)
        assert iv.width == 2.0
        assert iv.contains(1.0) and iv.contains(3.0)
        assert not iv.contains(3.1)

    def test_clamp_snaps_edges_only(self):
        iv = Interval(0.0, 1.0)
        assert iv.clamp(1.0 + 1e-12) == 1.0
        assert iv.clamp(0.5) == 0.5
        with pytest.raises(FibreTransportError, match="outside"):
            iv.clamp(1.5)

    def test_reversed_bounds_rejected(self):
        with pytest.raises(FibreTransportError, match="empty interval"):
            Interval(1.0, 0.5)
        # zero width is allowed: restrictions to a single parameter use it
        assert Interval(1.0, 1.0).width == 0.0

    def test_samples_hit_both_ends(self):
        pts = Interval(0.0, 2.0).samples(5)
        assert pts[0] == 0.0 and pts[-1] == 2.0
        assert len(pts) == 5

    def test_containment(self):
        assert UNIT.contains_interval(Interval(0.25, 0.75))
        assert not UNIT.contains_interval(Interval(-0.1, 0.5))
        assert UNIT.same_as(Interval(0.0, 1.0))


class TestRemaps:
    def test_affine_roundtrip(self):
        r = affine_remap(Interval(0.0, 2.0), UNIT)
        for s in (0.0, 0.3, 1.7, 2.0):
            assert abs(r.invert_param(r.apply(s)) - s) < 1e-12
        assert r.reversing is False
        assert r.deriv(1.0) == 0.5

    def test_affine_reversing(self):
        r = affine_remap(UNIT, UNIT, reversing=True)
        assert r.apply(0.0) == 1.0
        assert r.apply(1.0) == 0.0
        assert r.reversing is True
        assert r.deriv(0.5) == -1.0

    def test_square_remap_derivative(self):
        r = square_remap()
        assert r.reversing is False
        assert r.apply(0.5) == 0.25
        assert r.deriv(0.5) == 1.0
        assert abs(r.invert_param(0.25) - 0.5) < 1e-15
        # the squared formulas reproduce s*s on [0, 1] to the bit
        for s in (0.0, 5e-324, 0.3, 1.0, *(i / 4096 for i in range(4097))):
            assert r.fwd(s) == s * s
            assert r.inv(s) == math.sqrt(s)
            assert r.deriv(s) == 2.0 * s

    def test_canonical_reversal_is_involution(self):
        r = canonical_reversal()
        for s in (0.0, 0.3, 1.0):
            assert r.apply(r.apply(s)) == pytest.approx(s, abs=1e-15)


class TestPiecewisePaths:
    def test_interior_values_and_breaks(self):
        p = zigzag()
        assert p.at(0.1).node == "n0"
        assert p.at(0.3).node == "n1"
        assert p.at(0.6).node == "n0"
        assert p.at(0.99).node == "n1"
        assert p.breakpoints == (0.25, 0.5, 0.75)
        assert p.kind == "discrete"

    def test_trace_and_node_sequence(self):
        p = zigzag()
        # distinct nodes in first-visit order; node_sequence keeps revisits
        assert trace_nodes(p) == ("n0", "n1")
        assert node_sequence(p, 0.0, 1.0) == ["n0", "n1", "n0", "n1"]
        assert node_sequence(p, 0.3, 0.6) == ["n1", "n0"]
        # reversed traversal sees the pieces backwards
        assert node_sequence(p, 0.6, 0.3) == ["n0", "n1"]
        assert node_sequence(p, 0.1, 0.2) == ["n0"]

    def test_piece_runs_merge_repeats(self):
        p = piecewise_path("g", UNIT, [(0.5, "a"), (0.6, "a"), (1.0, "b")])
        runs = piece_runs(p)
        assert [x.node for _, _, x in runs] == ["a", "b"]
        assert runs[0][0] == 0.0 and runs[0][1] == 0.6


class TestRestrictReparamReverse:
    def test_restrict_keeps_values(self):
        p = zigzag()
        q = restrict(p, Interval(0.3, 0.8))
        assert q.domain.same_as(Interval(0.3, 0.8))
        for s in (0.3, 0.55, 0.8):
            assert q.at(s) == p.at(s)
        assert q.breakpoints == (0.5, 0.75)

    def test_restrict_outside_domain_fails(self):
        with pytest.raises(FibreTransportError, match="is not inside"):
            restrict(zigzag(), Interval(0.5, 1.5))

    def test_reparameterize_matches_pullback(self):
        p = zigzag()
        r = affine_remap(Interval(0.0, 2.0), UNIT, name="halve")
        q = reparameterize(p, r)
        assert q.domain.same_as(Interval(0.0, 2.0))
        for s in (0.0, 0.7, 1.4, 2.0):
            assert q.at(s) == p.at(r.apply(s))

    def test_reparameterize_needs_matching_target(self):
        p = zigzag()
        bad = affine_remap(UNIT, Interval(0.0, 2.0))
        with pytest.raises(FibreTransportError, match="remap targets"):
            reparameterize(p, bad)

    def test_reverse_flips_traversal(self):
        p = zigzag()
        q = reverse(p)
        assert q.at(0.0) == p.at(1.0)
        assert q.at(1.0) == p.at(0.0)
        assert trace_nodes(q) == ("n1", "n0")
        assert node_sequence(q, 0.0, 1.0) == ["n1", "n0", "n1", "n0"]


class TestConcatenation:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_the_seams_sit_at_i_over_n(self, n):
        hops = [piecewise_path("g", UNIT, [(0.5, f"n{i}"), (1.0, f"n{i + 1}")])
                for i in range(n)]
        q = concatenate(*hops)
        seams = [i / n for i in range(1, n)]
        assert [r.source for r in share_remaps(hops)] == [
            Interval(i / n, (i + 1) / n) for i in range(n)]
        assert q.domain == UNIT and set(seams) <= set(q.breakpoints)
        # each hop keeps its own kink, in the middle of its share
        assert q.breakpoints == pytest.approx(sorted(
            [*seams, *((i + 0.5) / n for i in range(n))]))
        for i, s in enumerate(seams, 1):
            assert q.at(s).node == f"n{i}"

    def test_each_share_maps_onto_its_path_domain(self):
        p1 = piecewise_path("g", Interval(0.0, 2.0),
                            [(0.5, "a"), (2.0, "b")])
        p2 = piecewise_path("g", Interval(-1.0, 0.0),
                            [(-0.5, "b"), (0.0, "c")])
        q = concatenate(p1, p2)
        assert q.domain == UNIT and q.name == "(path*path)"
        assert q.breakpoints == (0.125, 0.5, 0.75)
        for s, node in ((0.1, "a"), (0.3, "b"), (0.6, "b"), (0.9, "c")):
            assert q.at(s).node == node

    def test_concatenate_walks_both_pieces(self):
        p1 = piecewise_path("g", UNIT, [(1.0, "a")])
        p2 = piecewise_path("g", UNIT, [(0.5, "a"), (1.0, "b")])
        q = concatenate(p1, p2)
        assert q.at(0.2).node == "a"
        assert q.at(0.6).node == "a"
        assert q.at(0.9).node == "b"
        assert 0.5 in q.breakpoints

    def test_concatenate_rejects_gap(self):
        p1 = piecewise_path("g", UNIT, [(1.0, "a")])
        p2 = piecewise_path("g", UNIT, [(1.0, "b")])
        with pytest.raises(FibreTransportError, match="p1 ends at"):
            concatenate(p1, p2)
        with pytest.raises(FibreTransportError, match="p2 ends at"):
            concatenate(p1, p1, p2)

    def test_a_glue_needs_two_paths_of_one_kind(self):
        p = piecewise_path("g", UNIT, [(1.0, "a")])
        with pytest.raises(FibreTransportError, match="at least two"):
            concatenate(p)
        lat = sphere.latitude_arc(1.0, 0.0, 1.0)
        node = piecewise_path(sphere.SPACE, UNIT, [(1.0, "a")])
        with pytest.raises(FibreTransportError,
                           match="cannot glue a discrete path to a chart path"):
            concatenate(lat, lat, node)
        elsewhere = replace(lat, space="plane")
        with pytest.raises(FibreTransportError, match="same base space"):
            concatenate(lat, elsewhere)


# ---------------------------------------------------------------------------
# Derived layers call their parent's raw maps; the public entries
# (Path.at, Path.velocity, transport) still refuse a parameter outside the
# domain and snap one within EDGE_SLACK onto the edge.
# ---------------------------------------------------------------------------

def _derived_sphere_paths():
    tilted = sphere.great_circle_arc((1.9, 0.3), (1.1, 1.8), name="tilted")
    equator = sphere.latitude_arc(math.pi / 2, 0.0, math.pi / 2)
    meridian = sphere.great_circle_arc((math.pi / 2, math.pi / 2),
                                       (math.pi / 4, math.pi / 2))
    return {
        "reverse": reverse(tilted),
        "halve": reparameterize(
            tilted, affine_remap(Interval(0.0, 2.0), UNIT, name="halve")),
        "square": reparameterize(tilted, square_remap()),
        "concatenate": concatenate(equator, meridian),
        "octant": sphere.octant_loop(),
    }


DERIVED = _derived_sphere_paths()


@pytest.mark.parametrize("name", DERIVED)
def test_public_entries_refuse_parameters_outside_the_domain(name):
    p = DERIVED[name]
    with pytest.raises(FibreTransportError, match="outside"):
        p.at(p.domain.hi + 0.5)
    with pytest.raises(FibreTransportError, match="outside"):
        p.velocity(p.domain.lo - 0.5)
    with pytest.raises(FibreTransportError, match="outside"):
        p.at(math.nan)


@pytest.mark.parametrize("name", DERIVED)
def test_a_parameter_just_past_an_edge_reads_the_edge(name):
    p = DERIVED[name]
    lo, hi = p.domain.lo, p.domain.hi
    assert p.at(hi + 1e-12) == p.at(hi)
    assert p.at(lo - 1e-12) == p.at(lo)
    for side in (-1, 0, 1):
        assert p.velocity(hi + 1e-12, side) == p.velocity(hi, side)
        assert p.velocity(lo - 1e-12, side) == p.velocity(lo, side)


@pytest.mark.parametrize("name", DERIVED)
def test_non_finite_coefficients_are_refused_on_derived_paths(name):
    p = DERIVED[name]
    T = linear_ode_transport(sphere.tangent_bundle(),
                             lambda x, xdot: ((0.0, math.nan), (0.0, 0.0)))
    s = p.domain.lo + 0.25 * p.domain.width
    with pytest.raises(FibreTransportError) as exc:
        transport(T, p, s, p.domain.hi, vector_element(p.at(s), (1.0, 0.0)))
    # the first coefficient a flow reads is at the first Gauss node of its
    # first cell, from s up to the next lattice node
    node = (integrate._node_below(s, DEFAULT_STEP) + 1) * DEFAULT_STEP
    first = s + (node - s) * integrate._NODE1
    assert str(exc.value) == (f"non-finite transport coefficients at "
                              f"parameter {first} of {p.name!r}")


def _jet_by_hand(p, remap):
    """The jet of ``reparameterize(p, remap)`` composed from ``remap.fwd``
    and ``remap.deriv``."""
    sgn = -1 if remap.reversing else 1

    def jet(s, side):
        x, v = p.jet(p.domain.clamp(remap.fwd(s)), side * sgn)
        return x, (None if v is None else
                   tuple([c * remap.deriv(s) for c in v]))

    return jet


@pytest.mark.parametrize("remap", [
    affine_remap(Interval(0.0, 2.0), UNIT),
    canonical_reversal(),
    Reparameterization(Interval(0.5, 1.0), UNIT, name="right"),
    Reparameterization(UNIT, Interval(0.1, 0.4), reversing=True),
    Reparameterization(Interval(-1.0, 3.0), UNIT, reversing=True),
    square_remap(),
    Reparameterization(Interval(0.5, 1.0), UNIT, squared=True),
    Reparameterization(Interval(2.0, 5.0), UNIT, reversing=True,
                       squared=True)],
    ids=["halve", "reversal", "right", "nudge", "wide-reversing", "square",
         "squared", "squared-reversing"])
def test_a_reparameterized_jet_is_the_composition_to_the_bit(remap):
    rng = random.Random(11)
    src = remap.source
    params = [*src.samples(257), *(rng.uniform(src.lo, src.hi)
                                   for _ in range(256))]
    # a rank-3 chart path takes the generic velocity scaling
    twisted = Path(space="r3", domain=Interval(-1.0, 5.0), kind="chart",
                   jet=lambda s, side: ((s, s * s, 1.0), (1.0, 2.0 * s, 0.0)),
                   name="twisted")
    for base in (sphere.great_circle_arc((1.9, 0.3), (1.1, 1.8)),
                 sphere.latitude_arc(1.0, 0.2, 1.3), zigzag(), twisted):
        p = restrict(base, remap.target)
        jet, by_hand = reparameterize(p, remap).jet, _jet_by_hand(p, remap)
        for s in params:
            for side in (-1, 0, 1):
                assert jet(s, side) == by_hand(s, side), (s, side)


def test_derived_edges_read_the_parent_edges_to_the_bit():
    tilted = sphere.great_circle_arc((1.9, 0.3), (1.1, 1.8))
    rev, halve, square = DERIVED["reverse"], DERIVED["halve"], DERIVED["square"]
    assert rev.at(0.0) == halve.at(2.0) == square.at(1.0) == tilted.at(1.0)
    assert rev.at(1.0) == halve.at(0.0) == square.at(0.0) == tilted.at(0.0)


def test_a_remap_image_just_outside_the_domain_reads_the_edge():
    """Closed-form images of exact ends can still land an ulp outside the
    target: s -> 0.4 - 0.3 s maps 1 to 0.09999999999999998."""
    lat = restrict(sphere.latitude_arc(1.0, 0.0, 1.0), Interval(0.1, 0.4))
    nudge = Reparameterization(UNIT, lat.domain, reversing=True, name="nudge")
    assert nudge.fwd(1.0) < 0.1
    q = reparameterize(lat, nudge)
    assert q.at(1.0) == lat.at(0.1) and q.at(0.0) == lat.at(0.4)


# ---------------------------------------------------------------------------
# Construction contracts: a remap is closed-form, so it takes no callables
# and needs only non-degenerate intervals; a chart path carries a velocity.
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("keyword", ["fwd", "inv", "deriv"])
def test_a_remap_takes_no_callables(keyword):
    with pytest.raises(TypeError, match=keyword):
        Reparameterization(UNIT, UNIT, **{keyword: lambda s: s})
    # the flags are keyword-only, so a callable cannot slip in by position
    with pytest.raises(TypeError):
        Reparameterization(UNIT, UNIT, lambda s: s)  # type: ignore[misc]


@pytest.mark.parametrize("flag", ["reversing", "squared"])
@pytest.mark.parametrize("value", [lambda s: s, 1, None, "yes"],
                         ids=["callable", "int", "None", "str"])
def test_a_remap_flag_must_be_a_bool(flag, value):
    with pytest.raises(FibreTransportError, match="must be bools"):
        Reparameterization(UNIT, UNIT, **{flag: value})


@pytest.mark.parametrize("degenerate", ["source", "target"])
def test_a_remap_refuses_a_zero_width_interval(degenerate):
    ends = {"source": UNIT, "target": UNIT, degenerate: Interval(0.5, 0.5)}
    for squared in (False, True):
        with pytest.raises(FibreTransportError, match="non-degenerate"):
            Reparameterization(ends["source"], ends["target"], squared=squared)


def test_the_octant_breakpoints_sit_at_the_thirds():
    assert sphere.octant_loop().breakpoints == pytest.approx((1 / 3, 2 / 3))


def test_a_chart_path_without_a_velocity_is_refused():
    with pytest.raises(FibreTransportError, match="needs a velocity"):
        Path(space=sphere.SPACE, domain=UNIT,
             jet=lambda s, side: ((1.0, s), None),
             kind="chart")


def test_a_discrete_path_needs_no_velocity():
    p = Path(space="g", domain=UNIT,
             jet=lambda s, side: (graph_point("g", "a"), None),
             kind="discrete")
    assert p.velocity(0.5) is None
    for q in (reverse(zigzag()), concatenate(zigzag(), reverse(zigzag()))):
        assert q.jet(0.5, 1)[1] is None and q.velocity(0.5) is None


def seam_cases():
    """(paths, i) for seam i of a latitude-to-meridian corner whose ends
    differ at roundoff, as ``concatenate`` allows, and for both seams of
    the octant's legs."""
    lat = sphere.latitude_arc(math.pi / 2, 0.0, math.pi / 2)
    phi = math.pi / 2 + 1e-12
    arc = sphere.great_circle_arc((math.pi / 2, phi), (math.pi / 4, phi))
    b, c, a = sphere.OCTANT_VERTICES
    legs = [sphere.great_circle_arc(u, v) for u, v in ((b, c), (c, a), (a, b))]
    return [((lat, arc), 1), (legs, 1), (legs, 2)]


@pytest.mark.parametrize("case", range(3))
def test_a_seam_reads_the_left_point_and_the_velocity_of_its_side(case):
    paths, i = seam_cases()[case]
    q = concatenate(*paths)
    remaps = share_remaps(paths)
    left = reparameterize(paths[i - 1], remaps[i - 1])
    right = reparameterize(paths[i], remaps[i])
    mid = i / len(paths)
    for side in (-1, 0, 1):
        assert q.jet(mid, side)[0] == q.at(mid).coords == left.at(mid).coords
    assert q.velocity(mid, -1) == left.velocity(mid, -1)
    assert q.velocity(mid, 1) == q.velocity(mid, 0) == right.velocity(mid, 1)
    assert q.velocity(mid, -1) != q.velocity(mid, 1)


def _nested_thirds_jet(legs):
    """The octant glued in two steps, legs 1 and 2 over [0, 2/3] and then
    leg 3 over [2/3, 1], with each seam's point taken from the left and its
    velocity from the side, written out from the remaps."""
    third = 1.0 / 3.0
    j1, j2, j3 = (_jet_by_hand(leg, Reparameterization(Interval(lo, hi), UNIT))
                  for leg, (lo, hi) in zip(legs, ((0.0, third),
                                                  (third, 2 * third),
                                                  (2 * third, 1.0))))

    def glue(jl, jr, mid):
        def jet(s, side):
            if s < mid or (s == mid and side < 0):
                return jl(s, side)
            x, v = jr(s, side)
            return (jl(s, side)[0] if s == mid else x), v
        return jet

    first = Path(space=sphere.SPACE, domain=Interval(0.0, 2 * third),
                 jet=glue(j1, j2, third), kind="chart")
    outer_left = Reparameterization(first.domain, first.domain)
    return glue(_jet_by_hand(first, outer_left), j3, 2 * third)


def test_the_shipped_octant_is_the_glued_legs_at_its_seams():
    """The one-call octant is the old nested glue of its legs to the bit,
    at its seams and everywhere else."""
    octant = sphere.octant_loop()
    b, c, a = sphere.OCTANT_VERTICES
    legs = [sphere.great_circle_arc(u, v) for u, v in ((b, c), (c, a), (a, b))]
    nested = _nested_thirds_jet(legs)
    assert octant.breakpoints == (1 / 3, 2 / 3) == (1.0 / 3.0, 2 * (1.0 / 3.0))
    rng = random.Random(13)
    params = [*UNIT.samples(3001), *(rng.random() for _ in range(3000))]
    for bp in octant.breakpoints:
        params.append(bp)
        for step in (-1.0, 1.0):
            s = bp
            for _ in range(8):
                s = math.nextafter(s, bp + step)
                params.append(s)
    for s in params:
        for side in (-1, 0, 1):
            assert octant.jet(s, side) == nested(s, side), (s, side)
    for bp in octant.breakpoints:
        assert octant.jet(bp, 1)[0] == octant.at(bp).coords
