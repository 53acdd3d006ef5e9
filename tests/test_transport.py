import json
import math
import re
import sys

import pytest

from fibretransport.bundles import (Section, fibre_labels, graph_point,
                                    label_element, vector_element)
from fibretransport.cli import run_law
from fibretransport.errors import FibreTransportError
from fibretransport.instances import make_instance
from fibretransport.laws import (LAWS, REMAPS, is_transported_section,
                                 law_named, liftings_disjoint_or_equal)
from fibretransport.lifting import propagate_section
from fibretransport.paths import (EDGE_SLACK, UNIT, Interval, affine_remap,
                                  piecewise_path, restrict)
from fibretransport.transport import (Failure, Transport, inverse_transport,
                                      run_trials, transport)


class TestValidation:
    def test_unknown_declared_property(self):
        with pytest.raises(FibreTransportError, match="unknown declared properties"):
            Transport(name="bad", bundle=make_instance("perm-c3").bundle,
                      apply_fn=lambda p, s, t, u: u, declared=frozenset({"magic"}))

    def test_wrong_space(self, perm):
        p = piecewise_path("other", UNIT, [(1.0, "n0")])
        u = label_element(graph_point("other", "n0"), "a")
        with pytest.raises(FibreTransportError, match="fed to a transport over"):
            transport(perm.transport, p, 0.0, 1.0, u)

    def test_wrong_fibre_kind(self, perm):
        p = perm.path_named("walk")
        u = vector_element(p.at(0.0), (1.0, 0.0))
        with pytest.raises(FibreTransportError, match="moves labelled elements"):
            transport(perm.transport, p, 0.0, 1.0, u)

    def test_dimension_mismatch(self, sphere):
        p = sphere.path_named("quarter-equator")
        u = vector_element(p.at(0.0), (1.0, 0.0, 0.0))
        with pytest.raises(FibreTransportError, match="length 3 in a rank-2 fibre"):
            transport(sphere.transport, p, 0.0, 1.0, u)

    def test_label_outside_a_finite_fibre(self, perm):
        p = perm.path_named("walk")
        u = label_element(p.at(0.0), "zz")
        with pytest.raises(FibreTransportError, match="'zz' is not in the"):
            transport(perm.transport, p, 0.0, 1.0, u)

    def test_element_over_wrong_point(self, perm):
        p = perm.path_named("walk")
        u = label_element(p.at(1.0), "a")  # walk starts at n0, ends elsewhere
        with pytest.raises(FibreTransportError, match="is not attached over"):
            transport(perm.transport, p, 0.0, 1.0, u)

    @pytest.mark.parametrize("name", ["perm-c3", "foliation-2sec",
                                      "parallelization-flat"])
    def test_an_equal_but_distinct_node_point_is_accepted(self, name):
        """The source point is matched by identity first; an equal point
        that is another object is still compared, and accepted."""
        spec = make_instance(name)
        p = spec.path_named("walk")
        x = p.at(0.0)
        fresh = graph_point(p.space, x.node)
        assert fresh == x and fresh is not x
        if spec.bundle.fibre_kind == "vector":
            u, v = (vector_element(x, (0.5, -2.0)),
                    vector_element(fresh, (0.5, -2.0)))
        else:
            label = fibre_labels(spec.bundle, x)[0]
            u, v = label_element(x, label), label_element(fresh, label)
        assert (transport(spec.transport, p, 0.0, 1.0, v)
                == transport(spec.transport, p, 0.0, 1.0, u))

    @pytest.mark.parametrize("name", [
        "parallelization-flat", "counterexample:group_breaking",
        "counterexample:nonlocal", "counterexample:nonlinear"])
    def test_a_vector_over_another_node_is_refused(self, name):
        """These rules read their source node from the element, so
        transport must refuse one that is not over path(s)."""
        spec = make_instance(name)
        p = spec.path_named("walk")
        u = vector_element(p.at(1.0), (1.0, 0.0))  # walk ends elsewhere
        assert u.over != p.at(0.0)
        with pytest.raises(FibreTransportError,
                           match=r"is not attached over path\(0\.0\)"):
            transport(spec.transport, p, 0.0, 1.0, u)


class TestCheckedParameters:
    @pytest.mark.parametrize("bad", [1.0 + 2 * EDGE_SLACK, -2 * EDGE_SLACK,
                                     math.nan])
    def test_beyond_the_slack_or_nan_is_refused(self, perm, bad):
        p = perm.path_named("walk")
        u = label_element(p.at(0.0), "a")
        message = re.escape(f"{bad} outside [0.0, 1.0]")
        with pytest.raises(FibreTransportError, match=message):
            transport(perm.transport, p, bad, 1.0, u)
        with pytest.raises(FibreTransportError, match=message):
            transport(perm.transport, p, 0.0, bad, u)
        # the parameters are checked before the element
        wrong = vector_element(p.at(0.0), (1.0, 0.0))
        with pytest.raises(FibreTransportError, match=message):
            transport(perm.transport, p, 0.0, bad, wrong)

    def test_within_the_slack_snaps_onto_the_edge(self, perm):
        p = perm.path_named("walk")
        u = label_element(p.at(0.0), "a")
        seen = []
        spy = Transport("spy", perm.bundle,
                        lambda p, s, t, u: seen.append((s, t)) or u)
        below, above = -0.5 * EDGE_SLACK, 1.0 + 0.5 * EDGE_SLACK
        transport(spy, p, below, above, u)
        assert seen == [(0.0, 1.0)]
        assert (transport(perm.transport, p, below, above, u)
                == transport(perm.transport, p, 0.0, 1.0, u))


class TestCoreSemantics:
    def test_same_parameter_is_bitwise_identity(self, sphere):
        p = sphere.path_named("tilted")
        u = vector_element(p.at(0.37), (0.123456789, -0.5))
        w = transport(sphere.transport, p, 0.37, 0.37, u)
        assert w.vector == u.vector  # no integrator arithmetic at all

    def test_permutation_walk(self, perm):
        p = perm.path_named("walk")
        u = label_element(p.at(0.0), "a")
        w = transport(perm.transport, p, 0.0, 1.0, u)
        # n0 -> n1 sends a to b, n1 -> n2 sends b to c
        assert w.label == "c"

    def test_inverse_transport_returns(self, perm):
        p = perm.path_named("walk")
        u = label_element(p.at(0.0), "b")
        w = transport(perm.transport, p, 0.0, 1.0, u)
        back = inverse_transport(perm.transport, p, 0.0, 1.0)(w)
        assert back.label == "b"
        assert back.over == u.over

    def test_group_law_composition(self, perm):
        p = perm.path_named("zigzag")
        u = label_element(p.at(0.0), "a")
        mid = transport(perm.transport, p, 0.0, 0.4, u)
        direct = transport(perm.transport, p, 0.0, 0.9, u)
        stitched = transport(perm.transport, p, 0.4, 0.9, mid)
        assert stitched == direct


class TestSections:
    def test_propagate_follows_the_section(self, fol):
        p = fol.path_named("walk")
        u = label_element(p.at(0.0), "a0")
        values = propagate_section(fol.transport, p, 0.0, u)
        assert values[0][1].label == "a0"
        assert values[-1][1].label == "a2"

    def test_recognizes_family_sections(self, fol):
        from fibretransport.bundles import section_through, table_section
        p = fol.path_named("walk")
        u = label_element(p.at(0.0), "a0")
        alpha = section_through(fol.bundle, u)
        assert is_transported_section(fol.transport, alpha, p)
        crossed = table_section("crossed", "fol3",
                                {"g0": "a0", "g1": "b1", "g2": "b2"})
        assert not is_transported_section(fol.transport, crossed, p)

    def test_undefined_section_rejected(self, fol):
        p = fol.path_named("walk")
        hole = Section(name="partial", assignment=lambda x: (_ for _ in ()).throw(
            KeyError(x.node)))
        with pytest.raises(FibreTransportError, match="undefined at"):
            is_transported_section(fol.transport, hole, p)

    def test_a_nan_rule_transports_no_section(self):
        """NaN is not within any tolerance: the predicate asks that every
        deviation be at most law 2.4's threshold, not that none exceed it."""
        par = make_instance("parallelization-flat")
        nan = Transport(name="nan", bundle=par.bundle,
                        apply_fn=lambda p, s, t, u: vector_element(
                            p.at(t), (math.nan, math.nan)))
        constant = Section(name="constant", assignment=lambda x:
                           vector_element(x, (1.0, 0.0)))
        assert not is_transported_section(nan, constant, par.law_paths[0])

    def test_law_2_4_checks_each_anchor_once(self, perm, monkeypatch):
        """Each section is one lifting, so its anchor is checked once; each
        re-propagation is one checked transport."""
        from fibretransport import lifting
        tr = sys.modules["fibretransport.transport"]
        checked = []
        original = tr.checked_source

        def counted(*args):
            checked.append(args)
            return original(*args)

        monkeypatch.setattr(tr, "checked_source", counted)
        monkeypatch.setattr(lifting, "checked_source", counted)
        law = law_named("2.4")
        paths = perm.law_paths
        report = law.check(perm.transport, paths, trials=7)
        assert report.passed and report.trials == 7
        assert len(checked) == len(paths) + 7


class TestTolerancePolicy:
    def test_factors(self, sphere):
        T = sphere.transport
        assert law_named("2.2").threshold(T) == 2.0 * T.tolerance
        assert law_named("2.3").threshold(T) == T.tolerance
        assert law_named("4.7").threshold(T) == 0.0

    def test_linearity_relative(self, perm, sphere):
        # exact transports must be exactly linear; inexact ones get a
        # relative allowance decoupled from their absolute tolerance
        flat = make_instance("parallelization-flat").transport
        assert law_named("2.8").threshold(flat) == 0.0
        assert law_named("2.8").threshold(sphere.transport) == 1e-9

    def test_unknown_law_has_no_tolerance(self, sphere):
        with pytest.raises(FibreTransportError, match="unknown law id"):
            law_named("9.9")


class TestCheckerPreconditions:
    def test_reparam_needs_matching_target(self, perm):
        bad = affine_remap(UNIT, Interval(0.0, 2.0))
        with pytest.raises(FibreTransportError, match="'affine' targets"):
            law_named("2.6").check(perm.transport, perm.law_paths, [bad],
                                   trials=5)

    def test_inverse_path_needs_declaration(self, perm):
        T = Transport(name="plain", bundle=perm.bundle,
                      apply_fn=perm.transport.apply_fn, declared=frozenset())
        with pytest.raises(FibreTransportError, match="declared reparam_invariant"):
            law_named("3.2").check(T, perm.law_paths, trials=5)

    def test_inverse_path_needs_paths_on_the_unit_interval(self, perm):
        # law 3.2 is law 2.6 along the canonical reversal of [0, 1], so a
        # path on another domain is refused when the law is built
        half = restrict(perm.path_named("walk"), Interval(0.0, 0.5))
        target = re.escape(f"'reversal' targets {UNIT}")
        with pytest.raises(FibreTransportError, match=target):
            law_named("3.2").check(perm.transport, [*perm.law_paths, half],
                                   trials=5)

    def test_metric_consistency_needs_metric(self, sphere):
        with pytest.raises(FibreTransportError, match="needs a bundle metric"):
            law_named("2.9").check(sphere.transport, None,
                                   sphere.law_paths, trials=5)


class TestDerivedPaths:
    def test_laws_2_6_and_3_2_build_each_derived_path_once(self, sphere,
                                                           monkeypatch):
        # the package attribute fibretransport.transport is the function
        module = sys.modules["fibretransport.transport"]
        built = []

        def counted(*args, build=module.reparameterize):
            built.append(args)
            return build(*args)

        monkeypatch.setattr(module, "reparameterize", counted)
        T, paths = sphere.transport, sphere.law_paths
        assert law_named("2.6").check(T, paths, REMAPS, trials=20).passed
        assert law_named("3.2").check(T, paths, trials=20).passed
        # reused paths keep their cached cells: one build per draw would
        # make 40; law 3.2 derives by the reversal alone
        assert len(built) <= len(paths) * (len(REMAPS) + 1)


GROUP = law_named("2.2")


class TestReports:
    def test_json_shape_and_determinism(self, perm):
        r1 = GROUP.check(perm.transport, perm.law_paths, trials=50, seed=7)
        r2 = GROUP.check(perm.transport, perm.law_paths, trials=50, seed=7)
        assert r1.to_json() == r2.to_json()
        data = json.loads(r1.to_json())
        assert data["law"] == "2.2"
        assert data["passed"] is True
        assert data["trials"] == 50
        assert data["max_deviation"] == 0.0

    def test_seed_changes_draws(self, perm):
        r1 = GROUP.check(perm.transport, perm.law_paths, trials=50, seed=1)
        r2 = GROUP.check(perm.transport, perm.law_paths, trials=50, seed=2)
        assert r1.passed and r2.passed  # both pass, draws differ internally

    def test_failures_are_capped(self):
        cx = make_instance("counterexample:group_breaking")
        report = GROUP.check(cx.transport, cx.law_paths, trials=200)
        assert not report.passed
        assert len(report.failures) <= 20
        assert report.max_deviation > 1.0

    def test_non_finite_deviations_serialize_as_strict_json(self, perm):
        def trial(k, rng):
            yield math.inf, "walk", {"s": 0.25}, [[1.0, -math.inf]]
            yield math.nan, "walk", {"s": 0.5}, [[math.nan, 2.0]]

        def reject(name):
            raise ValueError(f"non-standard JSON constant {name}")

        report = run_trials("2.2", perm.transport, 1, 1e-9, 0, trial)
        data = json.loads(report.to_json(), parse_constant=reject)
        assert data["max_deviation"] == "nan"
        assert [f["deviation"] for f in data["failures"]] == ["inf", "nan"]
        assert [f["elements"] for f in data["failures"]] == [
            [[1.0, "-inf"]], [["nan", 2.0]]]
        assert data["passed"] is False

    def test_finite_reports_dump_as_plain_json(self, perm):
        report = GROUP.check(perm.transport, perm.law_paths, trials=20)
        assert report.to_json() == json.dumps(
            report.to_dict(), sort_keys=True, indent=2) + "\n"


def reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


class TestNaNTransports:
    """A transport that answers NaN must fail, however the NaN falls."""

    @staticmethod
    def nan_at(spec, component, reach=0.0):
        """spec with NaN in one component of every map from s to a t != s
        with t >= reach."""
        T = spec.transport

        def apply(p, s, t, u):
            w = T.apply_fn(p, s, t, u)
            if s == t or t < reach:
                return w
            vec = list(w.vector)
            vec[component] = math.nan
            return vector_element(w.over, vec)

        # a Transport checks its fields, so it is rebuilt through its
        # constructor; an InstanceSpec checks nothing
        return spec._replace(
            transport=Transport(**{**T._asdict(), "apply_fn": apply}))

    @pytest.mark.parametrize("component", [0, 1])
    @pytest.mark.parametrize("law", ["2.2", "2.8"])
    def test_laws_fail_with_a_nan_maximum(self, par, law, component):
        report = run_law(self.nan_at(par, component), law, trials=30)
        assert not report.passed
        assert math.isnan(report.max_deviation)
        data = json.loads(report.to_json(), parse_constant=reject_constant)
        assert data["passed"] is False
        assert data["max_deviation"] == "nan"

    @pytest.mark.parametrize("component", [0, 1])
    @pytest.mark.parametrize("law", ["3.6-roundtrip", "3.11/3.12"])
    def test_factorization_laws_refuse_a_nan_family(self, par, law,
                                                    component):
        # the canonical family holds the NaN maps, which have no inverse: a
        # trial that meets one ends in a failed record carrying the refusal
        report = run_law(self.nan_at(par, component), law, trials=30)
        assert not report.passed
        first = report.failures[0]
        assert (first.path, first.params, first.deviation) == (
            "", {"trial": 0}, math.inf)
        assert first.elements[0].startswith(
            "factored[walk]: the family's map at 0.1")
        data = json.loads(report.to_json(), parse_constant=reject_constant)
        assert data["passed"] is False

    def test_a_nan_at_the_end_of_the_lifting_grid_is_kept(self, par):
        # law 4.6 compares two liftings on a grid, and only its last point,
        # s = 1, sees the NaN
        report = run_law(self.nan_at(par, 0, reach=0.99), "4.6", trials=30)
        assert not report.passed
        assert math.isnan(report.max_deviation)


# Laws whose checker takes its trial count from the caller; the others size
# their own samples from a grid, a path or a single enumeration.
SAMPLED = [law.id for law in LAWS
           if law.id not in ("3.6-roundtrip", "3.11/3.12", "4.4", "4.7")]


class TestTrialCounts:
    @pytest.mark.parametrize("trials", [0, -5])
    @pytest.mark.parametrize("law", SAMPLED)
    def test_sampled_checkers_refuse_fewer_than_one_trial(self, law, trials):
        preset = ("counterexample:metric_breaking" if law == "2.9"
                  else "parallelization-flat")
        spec = make_instance(preset)
        with pytest.raises(FibreTransportError, match="at least one trial"):
            run_law(spec, law, trials=trials)

    @pytest.mark.parametrize("count", [0, -5])
    def test_dichotomy_trials_refuse_too(self, par, count):
        p = par.path_named("figure-eight")
        with pytest.raises(FibreTransportError, match="at least one trial"):
            liftings_disjoint_or_equal(par.transport, p, trials=count)

    def test_run_trials_refuses_before_drawing(self, perm):
        def trial(k, rng):
            raise AssertionError("no trial may run")
            yield

        with pytest.raises(FibreTransportError,
                           match="law 2.2 needs at least one trial, got 0"):
            run_trials("2.2", perm.transport, 0, None, 0, trial)

    def test_a_refusal_inside_a_trial_is_one_more_failed_record(self, perm):
        def trial(k, rng):
            yield 0.0, "walk", {"s": 0.5}, ["kept"]
            if k == 1:
                raise FibreTransportError("refused")

        report = run_trials("2.2", perm.transport, 3, 0.0, 0, trial)
        assert report.trials == 4 and report.max_deviation == math.inf
        assert report.failures == (Failure("", {"trial": 1}, ("refused",),
                                           math.inf),)
