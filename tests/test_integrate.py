"""The lattice Magnus flow and the cell propagators an ODE transport keeps.

A cached cell must never change a result: reports, single transports and
restricted paths give the same bits whichever transports ran before, and
no cell outlives the transport that built it.
"""

import math
import random
import sys

import pytest

from fibretransport import integrate, sphere
from fibretransport.bundles import BasePoint, vector_element
from fibretransport.cli import law_filename, main
from fibretransport.errors import FibreTransportError
from fibretransport.instances import (holonomy_angle, linear_ode_transport,
                                      loop_matrix, make_instance)
from fibretransport.laws import law_named
from fibretransport.paths import Interval, Path, restrict
from fibretransport.transport import transport


def test_report_bytes_do_not_depend_on_earlier_laws(tmp_path):
    """A law run alone writes what it writes inside a full check."""
    base = ["check", "--instance", "sphere-levi-civita", "--seed", "0",
            "--trials", "20"]
    full = tmp_path / "full"
    assert main([*base, "--out", str(full)]) == 0
    for law in ("2.2", "2.5/2.7", "4.6"):
        alone = tmp_path / law.replace("/", "+")
        assert main([*base, "--laws", law, "--out", str(alone)]) == 0
        name = law_filename(law)
        assert (alone / name).read_bytes() == (full / name).read_bytes(), law


def _tilted_transports(spec):
    p = spec.path_named("tilted")
    u = vector_element(p.at(0.137), (0.3, -0.7))
    return [transport(spec.transport, p, 0.137, t, u).vector
            for t in (0.9, 0.0213, 0.5)]


def test_cold_warm_and_fresh_transports_agree_bitwise():
    spec = make_instance("sphere-levi-civita")
    cold = _tilted_transports(spec)
    warm = _tilted_transports(spec)
    fresh = _tilted_transports(make_instance("sphere-levi-civita"))
    assert cold == warm == fresh


def _counting_coefficients():
    calls = []

    def coefficients(x, xdot):
        calls.append(1)
        return sphere.coefficient_matrix(x, xdot)

    return coefficients, calls


def test_no_cell_is_shared_between_transports():
    path = sphere.great_circle_arc((1.9, 0.3), (1.1, 1.8))
    s, t = 0.1234, 0.8765         # neither is a lattice node
    u = vector_element(path.at(s), (1.0, 0.0))
    costs = []
    for _ in range(2):
        coefficients, calls = _counting_coefficients()
        T = linear_ode_transport(sphere.tangent_bundle(), coefficients,
                                 step=1e-3)
        first = transport(T, path, s, t, u)
        costs.append(len(calls))
        assert transport(T, path, s, t, u) == first
        # the second call reuses the cells and its two partial steps
        assert len(calls) == costs[-1]
    assert costs[0] == costs[1] > 1000


TILTED = sphere.great_circle_arc((1.9, 0.3), (1.1, 1.8))


def _tilted_flow(a, b, nodes):
    """The Levi-Civita flow along TILTED over the cells of a, *nodes, b."""
    return integrate.rk4_linear_flow(
        lambda r: sphere.coefficient_matrix(*TILTED.jet(r)), a, b, nodes)


def test_a_store_keeps_a_bounded_number_of_partial_steps():
    """Partial steps are kept oldest-out, at most PARTIAL_STEPS of them, and
    a transport read again after its steps were dropped gives the same bits
    as its first read."""
    flows = []

    def build(a, b, nodes):
        flows.append((a, b))
        return _tilted_flow(a, b, nodes)

    store = integrate.CellStore(1e-3, 1)
    u = (0.3, -0.7)
    first = store.transport(build, 0.1234, 0.8765, (), u)
    kept = dict(store.partial)
    assert len(kept) == 2
    # a step is kept by both its ends: one from the same node to another end
    # is its own step
    nearby = store.transport(build, 0.1234, 0.8767, (), u)
    assert nearby == integrate.CellStore(1e-3, 1).transport(
        build, 0.1234, 0.8767, (), u)
    for k in range(100):          # ends off the lattice, all distinct
        s = 0.2 + k * 3.1e-3 + 1.7e-4
        store.transport(build, s, s + 0.05, (), u)
        assert len(store.partial) <= integrate.PARTIAL_STEPS
    assert len(store.partial) == integrate.PARTIAL_STEPS == 64
    assert not kept.keys() & store.partial.keys()
    flows.clear()
    assert store.transport(build, 0.1234, 0.8765, (), u) == first
    assert flows == [(0.1234, 0.124), (0.876, 0.8765)]
    assert store.partial.items() >= kept.items()


def test_a_partial_step_whose_flow_raises_is_not_kept():
    refuse = [True]

    def build(a, b, nodes):
        if refuse[0]:
            raise FibreTransportError("refused")
        return _tilted_flow(a, b, nodes)

    store = integrate.CellStore(1e-3, 1)
    with pytest.raises(FibreTransportError, match="refused"):
        store.transport(build, 0.1234, 0.1236, (), (0.3, -0.7))
    assert store.partial == {}
    refuse[0] = False
    assert store.transport(build, 0.1234, 0.1236, (), (0.3, -0.7)) == (
        integrate.CellStore(1e-3, 1).transport(build, 0.1234, 0.1236, (),
                                               (0.3, -0.7)))


def test_backward_transports_invert_forward_ones():
    spec = make_instance("sphere-levi-civita", step=1e-3)
    octant = spec.path_named("octant")
    T = spec.transport
    forward = loop_matrix(T, octant)
    x0 = octant.at(1.0)
    cols = [transport(T, octant, 1.0, 0.0, vector_element(x0, e)).vector
            for e in ((1.0, 0.0), (0.0, 1.0))]
    backward = tuple(zip(*cols))
    product = [sum(backward[i][k] * forward[k][j] for k in range(2))
               for i in range(2) for j in range(2)]
    assert product == pytest.approx([1.0, 0.0, 0.0, 1.0], abs=1e-12)
    tilted = spec.path_named("tilted")
    u = vector_element(tilted.at(0.8), (0.4, 0.2))
    there = transport(T, tilted, 0.8, 0.05, u)
    again = transport(T, tilted, 0.8, 0.05, u)
    assert there == again
    back = transport(T, tilted, 0.05, 0.8, there)
    assert back.vector == pytest.approx(u.vector, abs=1e-12)


def test_locality_is_exact_when_a_node_lands_on_a_breakpoint():
    step = 1.0 / 6.0
    spec = make_instance("sphere-levi-civita", step=step)
    octant = spec.path_named("octant")
    # lattice nodes 2 and 4 are the octant's kinks, to the bit
    assert octant.breakpoints == (2 * step, 4 * step)
    T = spec.transport
    report = law_named("2.5/2.7").check(T, octant, trials=60, seed=0)
    assert report.passed and report.max_deviation == 0.0
    third, two_thirds = octant.breakpoints
    for s, t in ((third, 0.9), (0.1, third), (third, two_thirds),
                 (two_thirds, 0.05), (0.95, third)):
        q = restrict(octant, Interval(min(s, t), max(s, t)))
        u = vector_element(octant.at(s), (0.6, 0.8))
        assert transport(T, q, s, t, u) == transport(T, octant, s, t, u)
    angle = holonomy_angle(T, octant, spec.metric)
    assert abs(angle - math.pi / 2) < 1e-2


# ---------------------------------------------------------------------------
# The Magnus cell: exp(Omega) in closed form.
# ---------------------------------------------------------------------------

ZERO = ((0.0, 0.0), (0.0, 0.0))


def _two_by_two(rng, kind, scale):
    """A row-major 2 x 2 matrix tau * I + N with N**2 = delta * I and delta
    of the sign ``kind`` names, entries of size about ``scale``."""
    while True:
        tau, n, b, c = (scale * rng.uniform(-1.0, 1.0) for _ in range(4))
        if kind == "delta = 0":       # N nilpotent: delta is 0 to the bit
            n, b, c = 0.0, *rng.choice(((b, 0.0), (0.0, c)))
        delta = n * n + b * c
        if {"delta > 0": delta > 0, "delta < 0": delta < 0,
                "delta = 0": delta == 0}[kind]:
            return (tau + n, b, c, tau - n)


def _matmul2(x, y):
    return [sum(x[2 * i + m] * y[2 * m + j] for m in range(2))
            for i in range(2) for j in range(2)]


def _scaled_and_squared(o):
    """exp of the row-major 2 x 2 matrix o, as a reference: o scaled by
    2**-q to a row-sum norm below 1, its Taylor polynomial of degree 18 in
    Horner form (the remainder is below 1 / 19!, under 2**-55), squared q
    times."""
    norm = max(abs(o[0]) + abs(o[1]), abs(o[2]) + abs(o[3]))
    q = max(0, math.frexp(norm)[1])
    x = [math.ldexp(c, -q) for c in o]
    eye = total = [1.0, 0.0, 0.0, 1.0]
    for k in range(18, 0, -1):
        total = [e + c / k for e, c in zip(eye, _matmul2(x, total))]
    for _ in range(q):
        total = _matmul2(total, total)
    return total


@pytest.mark.parametrize("kind", ("delta > 0", "delta < 0", "delta = 0"))
@pytest.mark.parametrize("scale", (1e-9, 1e-2, 1.0))
def test_the_closed_form_exponential_agrees_with_the_generic_one(kind, scale):
    rng = random.Random(7)
    for _ in range(100):
        o = _two_by_two(rng, kind, scale)
        closed, generic = integrate._exp2(*o), _scaled_and_squared(o)
        ulp = sys.float_info.epsilon * max(map(abs, generic))
        assert max(abs(x - y) for x, y in zip(closed, generic)) <= 8 * ulp, o


def test_the_exponential_of_zero_is_exactly_the_identity():
    assert integrate._exp2(0.0, 0.0, 0.0, 0.0) == (1.0, 0.0, 0.0, 1.0)
    assert integrate._cell2(ZERO, ZERO, 8e-3) == (1.0, 0.0, 0.0, 1.0)


@pytest.mark.parametrize("bad", (math.nan, math.inf, -math.inf))
@pytest.mark.parametrize("n", (2,))
def test_a_non_finite_stage_entry_makes_the_propagator_non_finite(bad, n):
    rng = random.Random(3)
    for background in ("zeros", "random"):
        for stage in (0, 1):
            for entry in range(n * n):
                a = [[[rng.uniform(-3.0, 3.0) if background == "random"
                       else 0.0 for _ in range(n)] for _ in range(n)]
                     for _ in range(2)]
                a[stage][entry // n][entry % n] = bad
                for h in (8e-3, -8e-3):
                    prop = integrate._cell2(a[0], a[1], h)
                    assert not all(map(math.isfinite, prop)), (a, h)


@pytest.mark.parametrize("a1, a2", (
    (((1e3, 0.0), (0.0, 1e3)),) * 2,             # e**tau overflows
    (((0.0, 1e3), (1e3, 0.0)),) * 2,             # cosh r overflows
    (((0.0, 1e160), (-1e160, 0.0)), ZERO),       # delta overflows to -inf
    (((1e300, 1e300), (1e300, 1e300)),) * 2))    # Omega overflows
def test_an_overflow_makes_the_rank_2_propagator_non_finite(a1, a2):
    assert not all(map(math.isfinite, integrate._cell2(a1, a2, 1.0)))


@pytest.mark.parametrize("angle", (1.0, 1e3, 3e7))
def test_a_large_rotation_within_the_squaring_cap_stays_accurate(angle):
    """The closed form squares nothing, so a rotation by 3e7 is as
    accurate as the cosine and sine of its angle."""
    a = ((0.0, 2.0 * angle), (-2.0 * angle, 0.0))
    c, s = math.cos(angle), math.sin(angle)
    exact = (c, s, -s, c)
    prop = integrate._cell2(a, ZERO, 1.0)
    assert max(abs(x - y) for x, y in zip(prop, exact)) <= 1e-8


def test_transport_checks_its_parameters_once_at_the_entry():
    spec = make_instance("sphere-levi-civita")
    octant = spec.path_named("octant")
    u = vector_element(octant.at(0.0), (0.6, 0.8))
    with pytest.raises(FibreTransportError, match="outside"):
        transport(spec.transport, octant, 0.0, 1.5, u)
    assert (transport(spec.transport, octant, -1e-12, 1.0 + 1e-12, u)
            == transport(spec.transport, octant, 0.0, 1.0, u))


def test_path_reads_do_not_grow_with_the_number_of_cells(monkeypatch):
    """A cold octant transport reads the point map and velocity through
    their raw callables; only the public entry checks a parameter."""
    octant = sphere.octant_loop()
    u = vector_element(octant.at(0.0), (0.6, 0.8))
    reads = []
    for attr in ("at", "velocity"):
        original = getattr(Path, attr)

        def counted(self, *args, original=original):
            reads.append(1)
            return original(self, *args)

        monkeypatch.setattr(Path, attr, counted)
    per_step = {}
    for step in (1e-3, 1e-4):
        coefficients, calls = _counting_coefficients()
        T = linear_ode_transport(sphere.tangent_bundle(), coefficients, step)
        reads.clear()
        transport(T, octant, 0.0, 1.0, u)
        assert len(calls) > 1.0 / step
        per_step[step] = len(reads)
    assert per_step[1e-3] == per_step[1e-4] <= 4


def test_no_base_point_is_built_per_integrator_stage(monkeypatch):
    """Coefficients read chart coordinates straight from the jet, so a cold
    octant transport builds the same few BasePoints at any step."""
    octant = sphere.octant_loop()
    u = vector_element(octant.at(0.0), (0.6, 0.8))
    built = []
    original = BasePoint.__new__

    def counted(cls, *args, **kwargs):
        built.append(1)
        return original(cls, *args, **kwargs)

    monkeypatch.setattr(BasePoint, "__new__", counted)
    per_step = {}
    for step in (1e-3, 1e-4):
        T = linear_ode_transport(sphere.tangent_bundle(),
                                 sphere.coefficient_matrix, step)
        built.clear()
        transport(T, octant, 0.0, 1.0, u)
        per_step[step] = len(built)
    assert per_step[1e-3] == per_step[1e-4] <= 4


# ---------------------------------------------------------------------------
# Aligned blocks: a run of stored cells is applied as O(log) block products.
# ---------------------------------------------------------------------------

def _whole_cells(s, t, step):
    lo, hi = min(s, t), max(s, t)
    return math.floor(hi / step) - math.ceil(lo / step)


def test_a_transport_applies_logarithmically_many_blocks(monkeypatch):
    step = 2.0 ** -10
    T = linear_ode_transport(sphere.tangent_bundle(),
                             sphere.coefficient_matrix, step)
    path = sphere.great_circle_arc((1.9, 0.3), (1.1, 1.8))
    applied = []
    original = integrate._apply_propagators

    def counted(steps, v):
        steps = list(steps)
        applied.append(len(steps))
        return original(steps, v)

    monkeypatch.setattr(integrate, "_apply_propagators", counted)
    for s, t in ((0.0, 1.0), (0.1234, 0.8765), (0.8765, 0.1234),
                 (3 * step, 1000 * step), (0.999, 0.001)):
        u = vector_element(path.at(s), (1.0, 0.0))
        applied.clear()
        cold = transport(T, path, s, t, u)
        warm = transport(T, path, s, t, u)
        n = _whole_cells(s, t, step)
        assert n > 700
        # one stretch, no breakpoint: one application per transport, and
        # the transport that builds the cells applies them as blocks too
        assert applied[0] == applied[1] <= 2 * math.ceil(math.log2(n)) + 2
        assert cold == warm


def test_a_transport_gives_the_same_bits_after_any_earlier_transports():
    targets = ((0.1, 0.9), (0.9, 0.1), (0.3, 0.37), (0.7, 0.2), (0.5, 0.5001))
    spec = make_instance("sphere-levi-civita")
    octant = spec.path_named("octant")
    u = (0.6, -0.8)

    def run(T):
        return [transport(T, octant, s, t, vector_element(octant.at(s), u))
                for s, t in targets]

    expected = run(spec.transport)
    rng = random.Random(5)
    for _ in range(4):
        T = make_instance("sphere-levi-civita").transport
        earlier = [(rng.random(), rng.random()) for _ in range(12)]
        earlier += targets
        rng.shuffle(earlier)
        for s, t in earlier:
            transport(T, octant, s, t, vector_element(octant.at(s), u))
        assert run(T) == expected


@pytest.mark.parametrize("d", (1, -1))
def test_blocks_match_the_cell_by_cell_product(d):
    step = 1e-3
    path = sphere.great_circle_arc((1.9, 0.3), (1.1, 1.8))

    def coefficient(r):
        return sphere.coefficient_matrix(*path.jet(r))

    def build(a, b, nodes):
        return integrate.rk4_linear_flow(coefficient, a, b, nodes)

    s, t = (0.0123, 0.9876)[::d]
    store = integrate.CellStore(step, d)
    u = (0.3, -0.7)
    nodes = [k * step for k in range(13, 988)][::d]
    props = build(s, t, nodes)
    one_by_one = integrate._apply_propagators(
        [(props, o) for o in range(0, len(props), 4)], u)
    blocks = store.transport(build, s, t, (), u)
    assert len(store.mats) == 9         # cells up to blocks of 256 cells
    assert blocks == pytest.approx(one_by_one, abs=1e-14)
    assert store.transport(build, s, t, (), u) == blocks


@pytest.mark.parametrize("seed", (0, 3))
def test_locality_is_exact_at_the_default_step(seed):
    spec = make_instance("sphere-levi-civita")
    for p in spec.law_paths:
        report = law_named("2.5/2.7").check(spec.transport, p, trials=40,
                                            seed=seed)
        assert report.passed and report.max_deviation == 0.0, p.name


# ---------------------------------------------------------------------------
# Finiteness is checked once per flow, on its propagators; a flow that fails
# is replayed with each stage checked, so the refusal names the first stage.
# ---------------------------------------------------------------------------

# phi = 0.0 + 1.0 * r on this arc, so a coefficient callable reads r as x[1]
ARC = sphere.latitude_arc(1.0, 0.0, 1.0)

# A bad stage value, and the refusal the checked replay names it by: the
# cell reads exactly four entries, so a matrix of another shape is refused
# rather than read in part.
BAD_STAGES = (
    (((0.0, 0.0), (math.nan, 0.0)), "non-finite transport coefficients"),
    (((0.0,) * 3,) * 3, "transport coefficients not 2 x 2"),
    (((0.0,),), "transport coefficients not 2 x 2"),
)


def _transport_along_arc(coefficients, s, t):
    T = linear_ode_transport(sphere.tangent_bundle(), coefficients)
    return transport(T, ARC, s, t, vector_element(ARC.at(s), (1.0, 0.0)))


def _stage_parameters(s, t):
    """The parameters a cold transport reads coefficients at, in order."""
    seen = []

    def coefficients(x, xdot):
        seen.append(x[1])
        return sphere.coefficient_matrix(x, xdot)

    _transport_along_arc(coefficients, s, t)
    return seen


@pytest.mark.parametrize("s, t", [(0.1, 0.9), (0.9, 0.1)])
def test_stages_non_finite_past_mid_flow_are_refused_at_the_first(s, t):
    def bad(r):
        return r >= 0.6 if t > s else r <= 0.4

    first = next(r for r in _stage_parameters(s, t) if bad(r))
    for value, refusal in BAD_STAGES:
        def coefficients(x, xdot):
            if bad(x[1]):
                return value
            return sphere.coefficient_matrix(x, xdot)

        with pytest.raises(FibreTransportError) as exc:
            _transport_along_arc(coefficients, s, t)
        assert str(exc.value) == (f"{refusal} at parameter {first}"
                                  f" of {ARC.name!r}")


def test_a_non_finite_stage_is_refused_before_a_later_stage_raises():
    first = next(r for r in _stage_parameters(0.1, 0.9) if r >= 0.5)
    for value, refusal in (
            (((math.inf, 0.0), (0.0, 0.0)), "non-finite transport coefficients"),
            *BAD_STAGES[1:]):
        def coefficients(x, xdot):
            if x[1] >= 0.6:
                raise ValueError("a stage past the bad one")
            if x[1] >= 0.5:
                return value
            return sphere.coefficient_matrix(x, xdot)

        with pytest.raises(FibreTransportError) as exc:
            _transport_along_arc(coefficients, 0.1, 0.9)
        assert str(exc.value) == (f"{refusal} at parameter {first}"
                                  f" of {ARC.name!r}")


def test_finite_coefficients_whose_propagators_overflow_are_not_refused():
    huge = ((0.0, 1e300), (-1e300, 0.0))
    moved = _transport_along_arc(lambda x, xdot: huge, 0.1, 0.9).vector
    assert not all(map(math.isfinite, moved))
