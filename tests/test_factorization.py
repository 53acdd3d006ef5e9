import math
import random

import pytest

from fibretransport.bundles import label_element, vector_element
from fibretransport.errors import FibreTransportError
from fibretransport.factorization import (Factorization, apply_gauge,
                                          canonical_factorization,
                                          factorization_to_dict, fibre_map,
                                          gauge_between, map_compose,
                                          map_deviation, map_invert,
                                          random_gauge,
                                          transport_from_factorization)
from fibretransport.laws import law_named
from fibretransport.transport import transport


EYE3 = ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0))


class TestFibreMaps:
    def test_a_fibre_map_is_read_on_the_frame_of_its_source(self, perm, par):
        """Labels map to their images; a matrix's columns are the images of
        e0 and e1 over path(s)."""
        p, T = perm.path_named("zigzag"), perm.transport
        x = p.at(0.1)
        assert fibre_map(T, p, 0.1, 0.6) == {
            lab: transport(T, p, 0.1, 0.6, label_element(x, lab)).label
            for lab in "abc"}
        p, T = par.path_named("walk"), par.transport
        x = p.at(0.1)
        (a, c), (b, d) = (transport(T, p, 0.1, 0.9, vector_element(x, e)).vector
                          for e in ((1.0, 0.0), (0.0, 1.0)))
        assert fibre_map(T, p, 0.1, 0.9) == ((a, b), (c, d))

    def test_dict_maps(self):
        f = {"a": "b", "b": "a"}
        g = {"a": "a", "b": "b"}
        assert map_compose(f, f) == {"a": "a", "b": "b"}
        assert map_invert(f) == f
        assert map_deviation(f, f) == 0.0
        assert map_deviation(f, g) == 1.0

    def test_matrix_maps(self):
        m = ((0.0, -1.0), (1.0, 0.0))
        mm = map_compose(m, m)
        assert mm == ((-1.0, 0.0), (0.0, -1.0))
        assert map_deviation(m, m) == 0.0
        inv = map_invert(m)
        assert map_deviation(map_compose(inv, m), ((1.0, 0.0), (0.0, 1.0))) < 1e-12

    def test_matrix_deviation_is_the_generic_maximum(self):
        rng = random.Random(5)
        for n in (1, 2, 3):
            for _ in range(200):
                a, b = (tuple(tuple(rng.choice((0.0, -0.0, 1.0,
                                                rng.uniform(-3.0, 3.0)))
                                    for _ in range(n)) for _ in range(n))
                        for _ in range(2))
                want = max(abs(x - y) for ra, rb in zip(a, b)
                           for x, y in zip(ra, rb))
                got = map_deviation(a, b)
                assert (got, math.copysign(1.0, got)) == \
                    (want, math.copysign(1.0, want))
        assert map_deviation((), ()) == 0.0
        assert map_deviation(((1.0, 2.0),), ((1.0,),)) == math.inf

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_matrix_deviation_keeps_nan(self, n):
        for i in range(n):
            for j in range(n):
                for side in (0, 1):
                    m = [[[0.0] * n for _ in range(n)],
                         [[2.0] * n for _ in range(n)]]
                    m[side][i][j] = math.nan
                    a, b = (tuple(map(tuple, rows)) for rows in m)
                    assert math.isnan(map_deviation(a, b)), m

    @pytest.mark.parametrize("m", [
        ((0.0, 1.0), (0.0, 2.0)),
        ((1.0, 2.0), (2.0, 4.0)),
        ((1.0, 0.0), (math.nan, 1.0)),
        ((0.0, 1.0), (math.nan, math.nan)),
        ((math.inf, 0.0), (0.0, 1.0)),
        ((1e-310, 0.0), (0.0, 1.0)),
        ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 0.0))],
        ids=["zero-column", "rank-one", "nan", "nan-row", "inf", "overflow",
             "rank-three-singular"])
    def test_singular_or_non_finite_matrix_refused(self, m):
        with pytest.raises(FibreTransportError,
                           match="singular or not finite"):
            map_invert(m)

    def test_a_three_by_three_matrix_is_refused(self):
        with pytest.raises(FibreTransportError, match="not 2 x 2"):
            map_invert(EYE3)

    def test_non_bijection_rejected(self):
        with pytest.raises(FibreTransportError, match="not a bijection"):
            map_invert({"a": "b", "b": "b"})

    def test_mixed_kinds_rejected(self):
        with pytest.raises(FibreTransportError, match="label map with a matrix"):
            map_compose({"a": "b"}, ((1.0,),))


class TestCanonicalFamily:
    def test_anchor_is_identity(self, perm):
        p = perm.path_named("walk")
        f = canonical_factorization(perm.transport, p)
        anchor_map = f.map_at(f.anchor)
        assert all(anchor_map[k] == k for k in anchor_map)

    def test_grid_lookup_is_exact(self, perm):
        p = perm.path_named("walk")
        f = canonical_factorization(perm.transport, p, grid=5)
        assert len(f.grid) == 5
        f.map_at(f.grid[2])
        with pytest.raises(FibreTransportError, match="not on the factorization grid"):
            f.map_at(0.123456)

    def test_anchor_inserted_when_absent(self, perm):
        p = perm.path_named("walk")
        f = canonical_factorization(perm.transport, p, s0=0.1, grid=3)
        assert 0.1 in f.grid
        assert f.anchor == 0.1

    def test_roundtrip_reproduces_finite_transport(self, perm):
        p = perm.path_named("zigzag")
        f = canonical_factorization(perm.transport, p)
        S = transport_from_factorization(f)
        for s, t in [(0.0, 1.0), (0.3, 0.8), (0.9, 0.2)]:
            s_g = min(f.grid, key=lambda g: abs(g - s))
            t_g = min(f.grid, key=lambda g: abs(g - t))
            u = label_element(p.at(s_g), "b")
            assert transport(S, p, s_g, t_g, u) == transport(
                perm.transport, p, s_g, t_g, u)

    def test_roundtrip_reproduces_matrix_transport(self, par):
        p = par.path_named("figure-eight")
        f = canonical_factorization(par.transport, p)
        S = transport_from_factorization(f)
        for s_g, t_g in [(f.grid[0], f.grid[-1]), (f.grid[3], f.grid[1])]:
            u = vector_element(p.at(s_g), (0.6, -0.4))
            got = transport(S, p, s_g, t_g, u)
            want = transport(par.transport, p, s_g, t_g, u)
            assert got.vector == pytest.approx(want.vector, abs=1e-12)

    def test_domain_mismatch_rejected(self, perm):
        from fibretransport.paths import Interval, restrict
        f = canonical_factorization(perm.transport, perm.path_named("walk"))
        shorter = restrict(perm.path_named("walk"), Interval(0.0, 0.5))
        u = label_element(shorter.at(0.0), "a")
        with pytest.raises(FibreTransportError,
                           match=r"moves along 'walk' only, got"):
            transport(transport_from_factorization(f), shorter, 0.0, 0.5, u)

    def test_the_rebuilt_transport_moves_along_its_own_path_only(self, perm):
        # walk and zigzag share a space and a domain; the true transport
        # moves a from 0 to 1 along zigzag to b, while walk's grid maps
        # would give c
        walk, zigzag = perm.path_named("walk"), perm.path_named("zigzag")
        S = transport_from_factorization(
            canonical_factorization(perm.transport, walk, grid=3))
        u = label_element(zigzag.at(0.0), "a")
        assert transport(perm.transport, zigzag, 0.0, 1.0, u).label == "b"
        with pytest.raises(FibreTransportError,
                           match=r"moves along 'walk' only, got 'zigzag'"):
            transport(S, zigzag, 0.0, 1.0, u)
        assert transport(S, walk, 0.0, 1.0, u) == transport(
            perm.transport, walk, 0.0, 1.0, u)

    def test_a_family_cannot_be_paired_with_another_path(self, perm):
        # the walk family paired with zigzag would read zigzag's transport
        # off walk's maps (a to c instead of b) and fail law 3.6 falsely;
        # the family carries its path, so no call takes the pair
        walk, zigzag = perm.path_named("walk"), perm.path_named("zigzag")
        f = canonical_factorization(perm.transport, walk)
        assert f.path == walk
        with pytest.raises(TypeError):
            transport_from_factorization(f, zigzag)
        law = law_named("3.6-roundtrip")
        with pytest.raises(TypeError):
            law.check(perm.transport, zigzag, f)
        report = law.check(perm.transport, f)
        assert report.passed and report.max_deviation == 0.0
        zig = canonical_factorization(perm.transport, zigzag)
        u = label_element(zigzag.at(0.0), "a")
        assert transport(transport_from_factorization(zig), zigzag, 0.0, 1.0,
                         u).label == "b"

    def test_the_family_laws_share_one_family_per_rule_and_path(self, perm):
        roundtrip, gauge = law_named("3.6-roundtrip"), law_named("3.11/3.12")
        (f,) = roundtrip.inputs(perm)
        assert gauge.inputs(perm)[0] is f
        assert f.path is perm.law_paths[0]
        # the same rule along another path, or at another tolerance, is
        # tabulated again
        other = perm._replace(law_paths=perm.law_paths[::-1])
        assert roundtrip.inputs(other)[0].path is other.law_paths[0]
        loose = perm._replace(
            transport=perm.transport._replace(tolerance=1e-9))
        assert roundtrip.inputs(loose)[0].tolerance == 1e-9


class TestGauge:
    def test_gauge_roundtrip_exact_labels(self, perm):
        p = perm.path_named("walk")
        f1 = canonical_factorization(perm.transport, p)
        rng = random.Random(123)
        D = random_gauge(rng, perm.bundle, p.at(f1.anchor))
        f2 = apply_gauge(f1, D)
        rec = gauge_between(f2, f1)
        assert map_deviation(rec, D) == 0.0

    def test_random_gauge_retries_only_singular_draws(self, par,
                                                      monkeypatch):
        # a second call means the TypeError was swallowed and the draw
        # retried; the sentinel ends that loop instead of letting it spin
        class Retried(BaseException):
            pass

        calls = []

        def inverse(m):
            calls.append(m)
            raise TypeError("not a matrix") if len(calls) == 1 else Retried

        monkeypatch.setattr("fibretransport.linalg.inverse", inverse)
        p = par.path_named("walk")
        with pytest.raises(TypeError):
            random_gauge(random.Random(0), par.bundle, p.at(0.0))

    def test_gauge_roundtrip_matrices(self, par):
        p = par.path_named("figure-eight")
        f1 = canonical_factorization(par.transport, p)
        D = ((2.0, 1.0), (1.0, 1.0))
        f2 = apply_gauge(f1, D)
        rec = gauge_between(f2, f1)
        assert map_deviation(rec, D) < 1e-12

    def test_a_three_by_three_gauge_is_refused(self, par):
        f = canonical_factorization(par.transport, par.path_named("walk"),
                                    grid=3)
        with pytest.raises(FibreTransportError, match="not 2 x 2"):
            apply_gauge(f, EYE3)

    def test_grid_mismatch(self, perm):
        p = perm.path_named("walk")
        f1 = canonical_factorization(perm.transport, p, grid=5)
        f2 = canonical_factorization(perm.transport, p, grid=7)
        with pytest.raises(FibreTransportError, match="different grids"):
            gauge_between(f1, f2)

    def test_families_along_different_paths_are_refused(self, perm):
        # one grid, one space, one domain: only the paths differ
        f1 = canonical_factorization(perm.transport, perm.path_named("walk"))
        f2 = canonical_factorization(perm.transport,
                                     perm.path_named("zigzag"))
        assert f1.grid == f2.grid
        with pytest.raises(FibreTransportError,
                           match="different grids or paths"):
            gauge_between(f1, f2)

    def test_a_nan_deviation_is_refused_wherever_it_falls(self, par):
        # finite, invertible maps whose induced transports overflow: the
        # pair (1.0, 0.5) composes 1e300 * 1e300 = inf on both sides, and
        # inf - inf is a NaN deviation after the zero of the pair (0, 0)
        f = canonical_factorization(par.transport, par.path_named("walk"),
                                    grid=3)
        f = Factorization(bundle=f.bundle, path=f.path,
                          anchor=0.0, grid=f.grid,
                          maps=(((1.0, 0.0), (0.0, 1.0)),
                                ((1e-300, 0.0), (0.0, 1.0)),
                                ((1e300, 0.0), (0.0, 1.0))))
        with pytest.raises(FibreTransportError,
                           match=r"induce different transports \(deviation nan\)"):
            gauge_between(f, f)

    def test_a_singular_family_map_names_the_induced_transport(self, par):
        f = canonical_factorization(par.transport, par.path_named("walk"),
                                    grid=3)
        maps = (f.maps[0], ((1.0, 2.0), (2.0, 4.0)), f.maps[2])
        g = Factorization(bundle=f.bundle, path=f.path,
                          anchor=f.anchor, grid=f.grid, maps=maps)
        with pytest.raises(FibreTransportError,
                           match=r"factored\[walk\]: the family's map at 0.5"):
            gauge_between(g, f)
        S = transport_from_factorization(g)
        u = vector_element(par.path_named("walk").at(0.0), (1.0, 0.0))
        with pytest.raises(FibreTransportError,
                           match=r"factored\[walk\]: the family's map at 0.5"):
            transport(S, par.path_named("walk"), 0.0, 0.5, u)

    def test_unrelated_families_rejected(self, perm):
        p = perm.path_named("walk")
        f1 = canonical_factorization(perm.transport, p, grid=3)
        # corrupt one non-anchor entry: no single gauge can relate the pair
        broken = dict(zip(f1.grid, f1.maps))
        broken[f1.grid[2]] = {"a": "b", "b": "a", "c": "c"}
        f2 = Factorization(bundle=f1.bundle, path=f1.path,
                           anchor=f1.anchor, grid=f1.grid,
                           maps=tuple(broken[g] for g in f1.grid),
                           tolerance=f1.tolerance)
        with pytest.raises(FibreTransportError, match="induce different transports"):
            gauge_between(f1, f2)


class TestReports:
    def test_roundtrip_law_exact(self, perm):
        p = perm.path_named("walk")
        r = law_named("3.6-roundtrip").check(
            perm.transport, canonical_factorization(perm.transport, p))
        assert r.law == "3.6-roundtrip"
        assert r.passed and r.max_deviation == 0.0

    def test_gauge_law_exact(self, par):
        p = par.path_named("walk")
        r = law_named("3.11/3.12").check(
            par.transport, canonical_factorization(par.transport, p))
        assert r.law == "3.11/3.12"
        assert r.passed and r.max_deviation == 0.0


def test_serialized_shape(perm):
    p = perm.path_named("walk")
    f = canonical_factorization(perm.transport, p, grid=3)
    data = factorization_to_dict(f)
    assert data["path"] == "walk"
    assert len(data["grid"]) == len(data["maps"]) == 3
    assert data["fibre_kind"] == "finite"
