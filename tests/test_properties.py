import functools
import hashlib
import math
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fibretransport import sphere
from fibretransport.bundles import (BasePoint, FibreBundle, fibre_labels,
                                    graph_point, label_element,
                                    table_section, vector_element)
from fibretransport.cli import run_law
from fibretransport.errors import FibreTransportError
from fibretransport.laws import LAWS, liftings_disjoint_or_equal
from fibretransport.instances import (InstanceSpec, foliation_transport,
                                      linear_ode_transport, make_instance,
                                      parallelization_transport,
                                      permutation_transport)
from fibretransport.linalg import (identity, inverse, matmul, matvec,
                                   rotation, rotation_angle, solve)
from fibretransport.paths import (EDGE_SLACK, Interval, Reparameterization,
                                  UNIT, affine_remap, canonical_reversal,
                                  concatenate, piecewise_path, reparameterize,
                                  reverse, share_remaps, square_remap)
from fibretransport.transport import (_draws, element_drawer, transport,
                                      unit_ball)

finite = st.floats(min_value=-10.0, max_value=10.0,
                   allow_nan=False, allow_infinity=False)
params = st.floats(min_value=0.0, max_value=1.0,
                   allow_nan=False, allow_infinity=False)
widths = st.floats(min_value=1e-3, max_value=10.0)


def well_conditioned(entries):
    # diagonal dominance keeps the solver comfortable
    a, b, c, d = entries
    return ((a + 5.0, b), (c, d + 5.0))


@given(st.tuples(finite, finite, finite, finite),
       st.tuples(finite, finite))
def test_solve_inverts_matvec(entries, rhs):
    m = well_conditioned(entries)
    x = solve(m, rhs)
    back = matvec(m, x)
    assert back == pytest.approx(rhs, abs=1e-9)


@given(st.tuples(finite, finite, finite, finite))
def test_inverse_times_matrix_is_identity(entries):
    m = well_conditioned(entries)
    prod = matmul(inverse(m), m)
    eye = identity()
    flat = [abs(prod[i][j] - eye[i][j]) for i in range(2) for j in range(2)]
    assert max(flat) < 1e-10


@given(st.floats(min_value=-math.pi + 1e-9, max_value=math.pi,
                 allow_nan=False))
def test_rotation_angle_roundtrip(angle):
    assert rotation_angle(rotation(angle)) == pytest.approx(angle, abs=1e-12)


@given(finite, finite, finite)
def test_interval_clamp_lands_inside(lo, width, s):
    iv = Interval(lo, lo + abs(width) + 1e-6)
    clamped = iv.clamp(s) if iv.contains(s) else None
    if clamped is not None:
        assert iv.lo <= clamped <= iv.hi


@given(params)
def test_affine_remap_is_invertible(s):
    r = affine_remap(Interval(2.0, 5.0), UNIT)
    inside = 2.0 + 3.0 * s
    assert r.invert_param(r.apply(inside)) == pytest.approx(inside, abs=1e-12)
    assert UNIT.contains(r.apply(inside))


@given(finite, widths, finite, widths, st.booleans(), st.booleans())
def test_closed_form_remaps_are_monotone_bijections(a, w, c, v, reversing,
                                                    squared):
    r = Reparameterization(Interval(a, a + w), Interval(c, c + v),
                           reversing=reversing, squared=squared)
    src, tgt = r.source, r.target
    grid = src.samples(257)
    images = [r.fwd(s) for s in grid]
    assert all(tgt.lo - EDGE_SLACK <= x <= tgt.hi + EDGE_SLACK for x in images)
    sign = -1.0 if reversing else 1.0
    assert all(sign * (y - x) > 0.0 for x, y in zip(images, images[1:]))

    # An image carries a rounding error of a few ulps of the target; the
    # inverse divides it by the slope, or, through the square root at the
    # vertex, turns it into width * sqrt(error / target width).
    err = 8.0 * math.ulp(max(abs(tgt.lo), abs(tgt.hi)))
    grow = (math.sqrt(err / tgt.width) if squared else err / tgt.width)
    tol = 8.0 * math.ulp(max(abs(src.lo), abs(src.hi))) + src.width * grow
    assert all(abs(r.invert_param(r.apply(s)) - s) <= tol for s in grid)

    # a central difference is exact on a quadratic, up to rounding
    h = src.width / 512
    for s in grid[1:-1]:
        fd = (r.fwd(s + h) - r.fwd(s - h)) / (2.0 * h)
        assert abs(fd - r.deriv(s)) <= err / h + 1e-8 * abs(r.deriv(s))


@given(st.integers(min_value=0, max_value=2 ** 32))
def test_unit_ball_is_bounded_and_deterministic(seed):
    rng1, rng2 = random.Random(seed), random.Random(seed)
    v1 = unit_ball(rng1)
    v2 = unit_ball(rng2)
    assert v1 == v2
    assert math.sqrt(sum(c * c for c in v1)) <= 1.0 + 1e-12


def _generic_unit_ball(rng, n):
    # the n-ball draw that unit_ball's rank-2 form replaced: the reference
    while True:
        g = [rng.gauss(0.0, 1.0) for _ in range(n)]
        r = math.sqrt(sum(c * c for c in g))
        if r > 1e-12:
            break
    scale = rng.random() ** (1.0 / n) / r
    return tuple(c * scale for c in g)


def _bits(xs):
    return [x.hex() for x in xs]


def _element_bits(u):
    return u.label if u.label is not None else _bits(u.vector)


def _reference_element(rng, bundle, x):
    # the element draws as the laws made them before the draw routine: a
    # label of the fibre over x by randrange, or a vector by the generic loop
    if bundle.fibre_kind == "vector":
        return _bits(_generic_unit_ball(rng, 2))
    labels = fibre_labels(bundle, x)
    return labels[rng.randrange(len(labels))]


@pytest.mark.parametrize("seed", range(10))
def test_draws_are_the_generic_draws_to_the_bit(seed):
    """Each shape of the draw routine picks with randrange on each level,
    draws each parameter as random.uniform on its domain, draws the
    element over the trial's path at the first parameter, and leaves the
    stream where the trial bodies it replaced left it; a lone remap is
    taken with no pick, as law 3.2's reversal was.  unit_ball is the
    generic n-ball loop at n = 2.  The element drawer's label table serves
    finite and section fibres alike and refuses a point off the base as
    fibre_labels does; Reparameterization.apply is fwd between the two
    clamps."""
    def two_nodes(d, name):
        return piecewise_path("g", d, [((d.lo + d.hi) / 2, "n0"),
                                       (d.hi, "n1")], name=name)

    bundles = (FibreBundle("g", nodes=("n0", "n1"), labels=("a", "b", "c")),
               FibreBundle("g", nodes=("n0", "n1")),
               FibreBundle("g", nodes=("n0", "n1"),
                           sections=tuple(
                               table_section(name, "g", {"n0": a, "n1": b})
                               for name, a, b in (("up", "a", "b"),
                                                  ("down", "b", "c"),
                                                  ("flat", "c", "a")))))
    paths = tuple(two_nodes(d, f"p{i}") for i, d in enumerate(
        (UNIT, Interval(-3.0, 0.7), Interval(1e-3, 1e3))))
    units = tuple(two_nodes(UNIT, f"u{i}") for i in range(3))
    remaps = (affine_remap(Interval(0.0, 2.0), UNIT), square_remap())
    reversal = canonical_reversal()
    pair = (units[0], reverse(units[0]))  # it ends where it starts back
    prod = concatenate(*pair)
    left, right = share_remaps(pair)
    halves = ((left.source, right.source), (left.source,) * 2,
              (right.source,) * 2)
    draws = {bundle: (_draws(bundle, paths, 1), _draws(bundle, paths, 2),
                      _draws(bundle, paths, 3),
                      _draws(bundle, units, remaps=remaps),
                      _draws(bundle, units, remaps=(reversal,),
                             first=(0.0, 1.0)),
                      [_draws(bundle, prod, on) for on in halves],
                      [_draws(bundle, p, (p.domain,) * 2) for p in paths])
             for bundle in bundles}
    derived = functools.cache(lambda build, *args: build(*args))
    new, old = random.Random(seed), random.Random(seed)
    # points off the graph base, the last with coordinates that do not hash
    off_base = (graph_point("g", "zz"), graph_point("h", "n0"),
                BasePoint("g", coords=(0.5, 0.5)),
                BasePoint("g", coords=[0.5, 0.5]))
    all_remaps = (*remaps, *share_remaps(pair), canonical_reversal(),
                  Reparameterization(Interval(-3.0, 0.7), Interval(1e-3, 1e3),
                                     reversing=True, squared=True))
    inside = random.Random(f"remap/{seed}")

    def check(drawn, pick, q, domains, params=None):
        got_pick, got_q, got_params, u = drawn
        # a derived path is built anew here, so it is compared by name
        assert got_pick == pick and got_q.name == q.name
        if params is None:
            params = [old.uniform(d.lo, d.hi) for d in domains]
        assert _bits(got_params) == _bits(params)
        assert u.over == got_q.at(params[0]) == q.at(params[0])
        assert _element_bits(u) == _reference_element(old, bundle, u.over)
        assert new.random().hex() == old.random().hex()

    for k in range(1000):
        assert _bits(unit_ball(new)) == _bits(_generic_unit_ball(old, 2))
        assert new.random().hex() == old.random().hex()
        bundle = bundles[k // 3 % 3]
        by_n, by_remap, by_reversal, by_half, by_path = (
            draws[bundle][k % 3], *draws[bundle][3:])
        # a picked law path, with n parameters on its domain
        n = 1 + k % 3
        drawn = by_n(k, new)
        p = paths[old.randrange(len(paths))]
        check(drawn, p, p, [p.domain] * n)
        # a picked path, then a picked remap, on the remap's source
        drawn = by_remap(k, new)
        p = units[old.randrange(len(units))]
        remap = remaps[old.randrange(len(remaps))]
        check(drawn, (p, remap), derived(reparameterize, p, remap),
              [remap.source] * 2)
        # a picked path, then its lone remap taken with no pick: the
        # reversal, whose trial 0 is the full traversal
        drawn = by_reversal(k, new)
        p = units[old.randrange(len(units))]
        check(drawn, (p, reversal), derived(reverse, p), [UNIT] * 2,
              (0.0, 1.0) if k == 0 else None)
        # no pick: one parameter on each product half, or both on one
        check(by_half[k % 3](k, new), prod, prod, halves[k % 3])
        # no pick, on one fixed path, then a second element drawn after it
        p = paths[k % 3]
        check(by_path[k % 3](k, new), p, p, [p.domain] * 2)
        assert (_element_bits(element_drawer(bundle)(new, p.at(0.5)))
                == _reference_element(old, bundle, p.at(0.5)))
        assert new.random().hex() == old.random().hex()
        # a point off the base is refused with fibre_labels' message, and
        # a vector fibre draws over any point
        x = off_base[k % len(off_base)]
        if bundle.fibre_kind == "vector":
            assert (_element_bits(element_drawer(bundle)(new, x))
                    == _reference_element(old, bundle, x))
        else:
            with pytest.raises(FibreTransportError) as refused:
                fibre_labels(bundle, x)
            with pytest.raises(FibreTransportError,
                               match=re.escape(str(refused.value))):
                element_drawer(bundle)(new, x)
        assert new.random().hex() == old.random().hex()
        # a remap applies fwd between the clamps, snaps and refusals included
        remap = all_remaps[k % len(all_remaps)]
        lo, hi = remap.source
        for s in (lo, hi, math.nextafter(lo, -math.inf),
                  math.nextafter(hi, math.inf), lo - 0.5 * EDGE_SLACK,
                  hi + 0.5 * EDGE_SLACK, lo - 2.0 * EDGE_SLACK,
                  hi + 2.0 * EDGE_SLACK, math.nan, inside.uniform(lo, hi)):
            try:
                expected = remap.target.clamp(
                    remap.fwd(remap.source.clamp(s))).hex()
            except FibreTransportError as exc:
                with pytest.raises(FibreTransportError,
                                   match=re.escape(str(exc))):
                    remap.apply(s)
            else:
                assert remap.apply(s).hex() == expected


@pytest.mark.parametrize("seed", range(5))
def test_a_lone_remap_leaves_the_stream_where_the_plain_draw_leaves_it(seed):
    """With one remap the draw routine takes it with no ``rng`` call, so a
    one-remap draw makes the calls of the plain draw on the same paths,
    whatever the remap's source."""
    bundles = (FibreBundle("g", nodes=("n0", "n1"), labels=("a", "b", "c")),
               FibreBundle("g", nodes=("n0", "n1")))
    units = tuple(piecewise_path("g", UNIT, [(0.5, "n0"), (1.0, "n1")],
                                 name=f"u{i}") for i in range(3))
    for bundle in bundles:
        for remap in (canonical_reversal(), square_remap(),
                      affine_remap(Interval(-3.0, 0.7), UNIT)):
            lone = _draws(bundle, units, remaps=(remap,))
            plain = _draws(bundle, units)
            a, b = random.Random(seed), random.Random(seed)
            for k in range(50):
                (p, got), q, _, _ = lone(k, a)
                plain(k, b)
                assert got is remap and q.domain == remap.source
                assert a.getstate() == b.getstate()


# Every law whose trials draw through the draw routine; law 4.6's
# dichotomy, liftings_disjoint_or_equal, is the thirteenth.
SAMPLED = ("2.2", "2.3", "2.5/2.7", "2.6", "2.8", "2.9", "3.1", "3.2", "3.4",
           "3.5", "4.2", "4.6")

# sha256 of the application log below.  Honest graph presets pass 3.1, 3.2,
# 3.4, 3.5, 4.2 and 4.6 at deviation 0, so their reports carry no drawn
# parameter; this log does.  It holds only drawn and remapped parameters,
# so it does not depend on libm.
APPLICATIONS_SHA256 = ("d93f8cc625c95164df31913ba504be37"
                       "cd882a52b31229b4fa58694fc94aef50")


def test_the_sampled_laws_apply_the_rule_at_the_pinned_parameters():
    log = []

    def logged(T):
        def apply(p, s, t, u):
            log.append(f"{p.name} {s.hex()} {t.hex()}")
            return T.apply_fn(p, s, t, u)
        return T._replace(apply_fn=apply)

    for name in ("sphere-levi-civita", "parallelization-flat"):
        spec = make_instance(name)
        T = logged(spec.transport)
        for law in LAWS:
            if law.id in SAMPLED and law.applies(spec):
                law.check(T, *law.inputs(spec), trials=10, seed=0)
    par = make_instance("parallelization-flat")
    liftings_disjoint_or_equal(logged(par.transport),
                               par.path_named("figure-eight"), trials=10)
    assert len(log) == 994
    assert (hashlib.sha256("\n".join(log).encode()).hexdigest()
            == APPLICATIONS_SHA256)


@given(params, params, params)
def test_permutation_group_law_everywhere(s, t, r):
    spec = make_instance("perm-c3")
    p = spec.path_named("zigzag")
    u = label_element(p.at(s), "b")
    two_step = transport(spec.transport, p, t, r,
                         transport(spec.transport, p, s, t, u))
    direct = transport(spec.transport, p, s, r, u)
    assert two_step == direct


@given(params, params)
def test_parallelization_transports_are_isometries(s, t):
    spec = make_instance("parallelization-flat")
    p = spec.path_named("figure-eight")
    u = vector_element(p.at(s), (0.6, -0.8))
    w = transport(spec.transport, p, s, t, u)
    # quarter-turn frames: moving a vector never changes its length
    assert sum(c * c for c in w.vector) == pytest.approx(1.0, abs=1e-12)


@settings(max_examples=10, deadline=None)
@given(st.floats(min_value=0.05, max_value=0.95, allow_nan=False),
       st.floats(min_value=0.05, max_value=0.95, allow_nan=False))
def test_integrated_transport_inverts(s, t):
    spec = make_instance("sphere-levi-civita", step=5e-3)
    p = spec.path_named("tilted")
    u = vector_element(p.at(s), (0.3, 0.7))
    w = transport(spec.transport, p, s, t, u)
    back = transport(spec.transport, p, t, s, w)
    assert back.vector == pytest.approx(u.vector, abs=1e-9)


# ---------------------------------------------------------------------------
# Honest transports of the paper's general form pass every applicable law
# ---------------------------------------------------------------------------

_NODES = ("v0", "v1", "v2", "v3")


@st.composite
def _tours(draw, nodes, start=None, closed=False):
    """Two to six stops on the complete graph over ``nodes``, each hop to
    another node; a closed tour hops back to its start at the end."""
    stops = [draw(st.sampled_from(nodes)) if start is None else start]
    for _ in range(draw(st.integers(min_value=1, max_value=5))):
        stops.append(draw(st.sampled_from(
            [n for n in nodes if n != stops[-1]])))
    if closed and stops[-1] != stops[0]:
        stops.append(stops[0])
    return stops


def _tour_path(stops, name):
    return piecewise_path("g", UNIT, [((i + 1) / len(stops), n)
                                      for i, n in enumerate(stops)],
                          name=name)


@st.composite
def _frames(draw):
    """rotation(a) diag(s0, +-s1) rotation(b) with s0, s1 in
    [10^-1.5, 10^1.5]: a frame whose condition number is at most 10^3,
    reflections included."""
    turn = st.floats(min_value=-math.pi, max_value=math.pi)
    scale = st.floats(min_value=-1.5, max_value=1.5).map(lambda e: 10.0 ** e)
    a, b, s0, s1 = draw(turn), draw(turn), draw(scale), draw(scale)
    s1 *= draw(st.sampled_from((1.0, -1.0)))
    return matmul(matmul(rotation(a), ((s0, 0.0), (0.0, s1))), rotation(b))


@st.composite
def _honest_specs(draw):
    """A permutation transport, a two-section foliation or a
    parallelization over the complete graph on three or four nodes, with
    random node tours as its law and product paths; the second law path,
    a closed tour, is the uniqueness path, so law 4.4 has a revisit."""
    nodes = _NODES[:draw(st.integers(min_value=3, max_value=4))]
    kind = draw(st.sampled_from(("permutation", "foliation",
                                 "parallelization")))
    if kind == "permutation":
        labels = ("a", "b", "c")[:draw(st.integers(min_value=2, max_value=3))]
        bundle = FibreBundle("g", nodes=nodes, labels=labels)
        T = permutation_transport(bundle, {
            (x, y): dict(zip(labels, draw(st.permutations(labels))))
            for i, x in enumerate(nodes) for y in nodes[i + 1:]})
    elif kind == "foliation":
        values = {n: draw(st.permutations(("p", "q", "r"))) for n in nodes}
        bundle = FibreBundle("g", nodes=nodes,
                             sections=tuple(
                                 table_section(name, "g", {n: values[n][i]
                                                           for n in nodes})
                                 for i, name in enumerate(("alpha", "beta"))))
        T = foliation_transport(bundle)
    else:
        bundle = FibreBundle("g", nodes=nodes)
        T = parallelization_transport(bundle,
                                      {n: draw(_frames()) for n in nodes})
    walk, second = draw(_tours(nodes)), draw(_tours(nodes, closed=True))
    onward = draw(_tours(nodes, start=walk[-1]))
    first, other = _tour_path(walk, "walk"), _tour_path(second, "second")
    return InstanceSpec(name=kind, transport=T, law_paths=(first, other),
                        product_pair=(first, _tour_path(onward, "onward")),
                        uniqueness_path=other)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(_honest_specs(), st.integers(min_value=0, max_value=2 ** 16))
def test_honest_transports_of_the_general_form_pass_every_applicable_law(
        spec, seed):
    """Among them the laws that read fibre maps on a frame: the canonical
    family's roundtrip and gauges (3.6-roundtrip, 3.11/3.12) and, for the
    global foliations and parallelizations, uniqueness over revisits
    (4.4)."""
    assert {"3.6-roundtrip", "3.11/3.12"} <= set(spec.applicable)
    assert ("4.4" in spec.applicable) == (spec.name != "permutation")
    for law in spec.applicable:
        report = run_law(spec, law, trials=50, seed=seed)
        assert report.passed, (law, report.max_deviation, report.tolerance)


# ---------------------------------------------------------------------------
# Honest ODE transports of the general form pass every applicable law
# ---------------------------------------------------------------------------

# The largest |c| of the random 1-forms.  The sphere's tolerance was fitted
# on the Levi-Civita connection alone.  At 0.1 every law holds at the
# default step; at 0.5 two of these eight draws fail law 2.6 at about 3.4
# times its threshold, the Magnus truncation error of larger coefficients,
# until the step follows the coefficients' size.
_FORM_AMPLITUDE = 0.1


@st.composite
def _one_forms(draw):
    """Eight entries, those of B_theta and then of B_phi row by row, each
    the four coefficients of c0 + c1 sin(theta) + c2 cos(phi)
    + c3 sin(theta + phi), drawn from [-a, a]."""
    c = st.floats(min_value=-_FORM_AMPLITUDE, max_value=_FORM_AMPLITUDE)
    return tuple(tuple(draw(c) for _ in range(4)) for _ in range(8))


def _connection(form):
    """A = Levi-Civita + B(x)(xdot), B the 1-form ``form`` describes."""
    def coefficients(x, xdot):
        th, ph = x
        basis = (1.0, math.sin(th), math.cos(ph), math.sin(th + ph))
        b = [sum(c * e for c, e in zip(entry, basis)) for entry in form]
        vth, vph = xdot
        (l00, l01), (l10, l11) = sphere.coefficient_matrix(x, xdot)
        return ((l00 + b[0] * vth + b[4] * vph, l01 + b[1] * vth + b[5] * vph),
                (l10 + b[2] * vth + b[6] * vph, l11 + b[3] * vth + b[7] * vph))
    return coefficients


@settings(derandomize=True, max_examples=8, deadline=None)
@given(_one_forms(), st.integers(min_value=0, max_value=2 ** 16))
def test_honest_ode_transports_of_the_general_form_pass_every_applicable_law(
        form, seed):
    """On the sphere preset's law paths, product pair and round metric; a
    random B keeps no metric, so law 2.9 does not apply."""
    preset = make_instance("sphere-levi-civita")
    T = linear_ode_transport(sphere.tangent_bundle(), _connection(form),
                             preset.step, name="levi-civita+B")
    spec = preset._replace(name=T.name, transport=T)
    assert set(preset.applicable) - set(spec.applicable) == {"2.9"}
    assert len(spec.applicable) == 14
    for law in spec.applicable:
        report = run_law(spec, law, trials=20, seed=seed)
        assert report.passed, (law, report.max_deviation, report.tolerance)
