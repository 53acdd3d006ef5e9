import csv
import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

import fibretransport
from fibretransport import factorization as fz
from fibretransport import instances
from fibretransport.bundles import rebase
from fibretransport.cli import law_filename, main, run_law
from fibretransport.instances import make_instance
from fibretransport.transport import Transport


def read_json(path):
    return json.loads(path.read_text())


def one_error_line(capsys) -> str:
    """The run's stderr, asserted to be a single error line."""
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    return err


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    """Every command pays the import first; records are tuples, so the
    import needs neither module (-I -S: no site hooks, no environment)."""
    src = str(Path(fibretransport.__file__).resolve().parents[1])
    code = ("import sys; sys.path.insert(0, sys.argv[1]); "
            "import fibretransport.cli; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-I", "-S", "-c", code, src],
                          capture_output=True, text=True, timeout=60,
                          check=True)
    assert proc.stdout == "[]\n"


class TestCheck:
    def test_all_laws_pass_and_files_land(self, tmp_path, capsys):
        rc = main(["check", "--instance", "perm-c3", "--out", str(tmp_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "14/14 laws passed" in out
        files = sorted(f.name for f in tmp_path.iterdir())
        assert "law_2.2.json" in files
        assert "law_2.5+2.7.json" in files  # slash sanitized for filenames
        assert "law_3.11+3.12.json" in files
        data = read_json(tmp_path / "law_2.2.json")
        assert data["law"] == "2.2"
        assert data["passed"] is True
        assert data["seed"] == 0

    @pytest.mark.parametrize("name", ["perm-c3", "foliation-2sec",
                                      "parallelization-flat",
                                      "sphere-levi-civita"])
    def test_each_check_tabulates_the_canonical_family_once(
            self, name, tmp_path, monkeypatch):
        """Laws 3.6-roundtrip and 3.11/3.12 read one family per run."""
        calls = []
        tabulate = fz.canonical_factorization
        monkeypatch.setattr(fz, "canonical_factorization",
                            lambda *a: calls.append(a) or tabulate(*a))
        for run in (1, 2):
            assert main(["check", "--instance", name, "--trials", "5",
                         "--out", str(tmp_path)]) == 0
            assert len(calls) == run

    def test_law_subset(self, tmp_path):
        rc = main(["check", "--instance", "perm-c3", "--laws", "2.2,2.3",
                   "--out", str(tmp_path)])
        assert rc == 0
        assert {f.name for f in tmp_path.iterdir()} == {
            "law_2.2.json", "law_2.3.json"}

    def test_reruns_are_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for d in (a, b):
            assert main(["check", "--instance", "perm-c3", "--seed", "11",
                         "--out", str(d)]) == 0
        for f in sorted(a.iterdir()):
            assert f.read_bytes() == (b / f.name).read_bytes()

    def test_different_seed_changes_bytes(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        main(["check", "--instance", "perm-c3", "--laws", "2.2",
              "--seed", "1", "--out", str(a)])
        main(["check", "--instance", "perm-c3", "--laws", "2.2",
              "--seed", "2", "--out", str(b)])
        ja = read_json(a / "law_2.2.json")
        jb = read_json(b / "law_2.2.json")
        assert ja["seed"] == 1 and jb["seed"] == 2

    def test_counterexample_fails_with_code_1(self, tmp_path):
        rc = main(["check", "--instance", "counterexample:group_breaking",
                   "--laws", "2.2", "--out", str(tmp_path)])
        assert rc == 1
        data = read_json(tmp_path / "law_2.2.json")
        assert data["passed"] is False
        assert data["failures"]

    def test_preserved_laws_still_pass(self, tmp_path):
        rc = main(["check", "--instance", "counterexample:group_breaking",
                   "--laws", "2.3,2.6,2.8", "--out", str(tmp_path)])
        assert rc == 0

    def test_a_broken_transport_fails_its_laws_and_the_run_goes_on(
            self, tmp_path, monkeypatch, capsys):
        """A transport that leaves its image over path(s) makes some trials
        raise; each such trial is a failed record, not a config error."""
        flat = make_instance("parallelization-flat")
        T = flat.transport

        def apply(p, s, t, u):
            return rebase(T.apply_fn(p, s, t, u), p.at(s))

        stuck = flat._replace(
            transport=Transport(**{**T._asdict(), "apply_fn": apply}))
        monkeypatch.setitem(instances.PRESETS, "stuck", lambda step: stuck)
        rc = main(["check", "--instance", "stuck", "--trials", "20",
                   "--out", str(tmp_path)])
        assert rc == 1
        assert capsys.readouterr().err == ""
        assert ({f.name for f in tmp_path.iterdir()}
                == {law_filename(law) for law in stuck.applicable})
        # law 2.2 meets the image over path(s) as a refused input
        failure = read_json(tmp_path / "law_2.2.json")["failures"][0]
        assert failure["path"] == "" and failure["deviation"] == "inf"

    def test_unknown_instance_is_config_error(self, capsys):
        assert main(["check", "--instance", "bogus"]) == 2
        assert "unknown instance" in capsys.readouterr().err

    def test_unknown_law_is_config_error(self, capsys):
        assert main(["check", "--instance", "perm-c3", "--laws", "1.1"]) == 2
        assert "unknown law" in capsys.readouterr().err

    def test_the_retired_axiom_pair_id_is_unknown(self, tmp_path, capsys):
        # laws 2.2 and 2.3 run under their own ids only
        rc = main(["check", "--instance", "perm-c3", "--laws", "2.2+2.3",
                   "--out", str(tmp_path)])
        assert rc == 2
        assert "unknown law id '2.2+2.3'" in one_error_line(capsys)
        assert not any(tmp_path.iterdir())

    def test_product_law_without_product_pair(self, tmp_path, capsys):
        # law 2.2 passes here, but the run is refused on 3.4: every law runs
        # before a line is printed or a file written, so nothing is left
        rc = main(["check", "--instance", "counterexample:nonlocal",
                   "--laws", "2.2,3.4", "--out", str(tmp_path)])
        assert rc == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert "product pair" in err
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("laws", [",", " , ", ""])
    def test_empty_law_list_is_config_error(self, laws, tmp_path, capsys):
        # an empty selection must not fall back to every applicable law
        rc = main(["check", "--instance", "perm-c3", "--laws", laws,
                   "--out", str(tmp_path)])
        assert rc == 2
        assert "--laws" in one_error_line(capsys)
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("argv", [
        ["check", "--laws", "2.2,2.2"],
        ["check", "--laws", "2.2, 2.3,2.2"]])
    def test_a_law_named_twice_is_config_error(self, argv, tmp_path, capsys):
        # a repeated law would run twice
        rc = main([*argv, "--instance", "perm-c3", "--out", str(tmp_path)])
        assert rc == 2
        assert "more than once" in one_error_line(capsys)
        assert not any(tmp_path.iterdir())


class TestHolonomy:
    def test_csv_table(self, tmp_path):
        rc = main(["holonomy", "--instance", "sphere-levi-civita",
                   "--loop", "equator", "--steps", "2e-2,1e-2",
                   "--format", "csv", "--out", str(tmp_path)])
        assert rc == 0
        rows = list(csv.DictReader((tmp_path / "holonomy.csv").open()))
        assert len(rows) == 2
        assert abs(float(rows[0]["angle"])) < 1e-12

    def test_json_payload(self, tmp_path):
        rc = main(["holonomy", "--instance", "parallelization-flat",
                   "--steps", "1e-2,5e-3", "--out", str(tmp_path)])
        assert rc == 0
        data = read_json(tmp_path / "holonomy.json")
        assert data["loop"] == "figure-eight"
        angles = [row["angle"] for row in data["rows"]]
        # exact instance: the step is ignored, both rows agree to the bit
        assert angles[0] == angles[1] == 0.0

    def test_an_angle_read_on_the_other_side_of_the_half_turn_is_no_error(
            self, tmp_path):
        # latitude-60 turns by exactly pi; at step 7e-3 the loop matrix's
        # sine entry rounds below zero, and the angle still reads +pi, the
        # principal value, so the two rows differ by rounding, not by 2 pi
        rc = main(["holonomy", "--instance", "sphere-levi-civita",
                   "--loop", "latitude-60", "--steps", "7e-3,1e-3",
                   "--format", "csv", "--out", str(tmp_path)])
        assert rc == 0
        rows = list(csv.DictReader((tmp_path / "holonomy.csv").open()))
        assert all(abs(float(r["angle"]) - math.pi) <= 1e-12 for r in rows)
        assert all(float(r["error_vs_finest"]) <= 1e-15 for r in rows)

    def test_no_loops_declared(self, capsys):
        assert main(["holonomy", "--instance", "perm-c3"]) == 2

    def test_step_below_the_finest_is_config_error(self, capsys):
        # cells are kept for a transport's whole span, so the step bounds memory
        assert main(["holonomy", "--instance", "sphere-levi-civita",
                     "--loop", "octant", "--steps", "1e-3,1e-8"]) == 2
        assert "step out of range" in capsys.readouterr().err

    @pytest.mark.parametrize("instance, steps", [
        ("sphere-levi-civita", "1e-3,x"), ("sphere-levi-civita", "fine"),
        ("sphere-levi-civita", "1e-3,nan"),
        # an exact instance ignores the step, but not a malformed one
        ("parallelization-flat", "inf"), ("parallelization-flat", "1e-3,-1"),
        # a step named twice would be integrated twice, however it is spelt
        ("sphere-levi-civita", "1e-2,1e-2"), ("sphere-levi-civita", "1e-2,0.01"),
        ("parallelization-flat", "1e-3,5e-4,0.001")])
    def test_malformed_steps_is_config_error(self, instance, steps, capsys):
        rc = main(["holonomy", "--instance", instance, "--steps", steps])
        assert rc == 2
        assert "--steps" in one_error_line(capsys)

    def test_a_value_error_inside_the_library_is_not_a_config_error(
            self, monkeypatch):
        """Only a refused input exits 2; a fault inside the library keeps
        its traceback."""
        from fibretransport import sphere
        monkeypatch.setattr(sphere, "coefficient_matrix",
                            lambda x, xdot: math.acos(2.0))
        with pytest.raises(ValueError, match="math domain error"):
            main(["holonomy", "--instance", "sphere-levi-civita",
                  "--loop", "octant"])


class TestLift:
    def test_label_table(self, tmp_path):
        rc = main(["lift", "--instance", "foliation-2sec", "--path", "walk",
                   "--element", "b0", "--samples", "4", "--format", "csv",
                   "--out", str(tmp_path)])
        assert rc == 0
        rows = list(csv.DictReader((tmp_path / "lifting.csv").open()))
        assert rows[0]["label"] == "b0"
        assert rows[-1]["label"] == "b2"

    def test_vector_defaults(self, tmp_path):
        rc = main(["lift", "--instance", "parallelization-flat",
                   "--path", "walk", "--out", str(tmp_path)])
        assert rc == 0
        data = read_json(tmp_path / "lifting.json")
        assert data["through"] == [1.0, 0.0]
        assert len(data["values"]) == 11

    def test_vector_table(self, tmp_path):
        rc = main(["lift", "--instance", "parallelization-flat",
                   "--path", "figure-eight", "--element", "0.6,0.8",
                   "--samples", "3", "--format", "csv", "--out", str(tmp_path)])
        assert rc == 0
        lines = (tmp_path / "lifting.csv").read_text().splitlines()
        assert lines[0] == "s,c0,c1"
        assert lines[1] == "%.17e,%.17e,%.17e" % (0.0, 0.6, 0.8)
        assert len(lines[1:]) == 3

    def test_an_element_of_the_wrong_rank_is_config_error(self, capsys):
        rc = main(["lift", "--instance", "parallelization-flat",
                   "--element", "1,2,3"])
        assert rc == 2
        assert "rank-2 fibre" in one_error_line(capsys)

    @pytest.mark.parametrize("samples", ["0", "-3"])
    def test_samples_below_one_is_config_error(self, samples, capsys):
        rc = main(["lift", "--instance", "perm-c3", "--samples", samples])
        assert rc == 2
        assert "--samples" in one_error_line(capsys)

    def test_one_sample_is_the_anchor_alone(self, tmp_path):
        rc = main(["lift", "--instance", "perm-c3", "--samples", "1",
                   "--out", str(tmp_path)])
        assert rc == 0
        data = read_json(tmp_path / "lifting.json")
        assert [v["s"] for v in data["values"]] == [data["s0"]]

    @pytest.mark.parametrize("instance", ["perm-c3", "foliation-2sec"])
    def test_absent_label_is_config_error(self, instance, capsys):
        rc = main(["lift", "--instance", instance, "--path", "walk",
                   "--element", "zz"])
        assert rc == 2
        assert "'zz'" in one_error_line(capsys)

    @pytest.mark.parametrize("element", ["nan,1", "1,inf", "1,x"])
    def test_non_finite_component_is_config_error(self, element, tmp_path,
                                                  capsys):
        rc = main(["lift", "--instance", "parallelization-flat",
                   "--element", element, "--out", str(tmp_path)])
        assert rc == 2
        assert "--element" in one_error_line(capsys)
        assert not any(tmp_path.iterdir())


class TestFactorize:
    def test_writes_family_and_report(self, tmp_path):
        rc = main(["factorize", "--instance", "perm-c3", "--path", "zigzag",
                   "--grid", "7", "--out", str(tmp_path)])
        assert rc == 0
        fam = read_json(tmp_path / "factorization.json")
        assert fam["path"] == "zigzag"
        assert len(fam["grid"]) == 7
        rep = read_json(tmp_path / "law_3.6-roundtrip.json")
        assert rep["passed"] is True

    def test_tabulates_the_family_once(self, tmp_path, monkeypatch):
        # the family written to factorization.json is the one law
        # 3.6-roundtrip checks, so the transports behind it run once
        from fibretransport import factorization
        tabulate = factorization.canonical_factorization
        calls = []

        def counted(*args, **kwargs):
            calls.append(args[1].name)
            return tabulate(*args, **kwargs)

        monkeypatch.setattr(factorization, "canonical_factorization", counted)
        rc = main(["factorize", "--instance", "sphere-levi-civita",
                   "--grid", "7", "--out", str(tmp_path)])
        assert rc == 0
        assert len(calls) == 1


@pytest.mark.parametrize("command", ["factorize", "lift"])
def test_an_anchor_within_the_edge_slack_is_snapped_onto_the_edge(command,
                                                                 tmp_path):
    """An --s0 just past the domain's end names the end: both commands
    tabulate 11 distinct points and report s0 == 1.0."""
    rc = main([command, "--instance", "perm-c3", "--path", "zigzag",
               "--s0", "1.0000000001", "--out", str(tmp_path)])
    assert rc == 0
    if command == "factorize":
        data = read_json(tmp_path / "factorization.json")
        params = data["grid"]
    else:
        data = read_json(tmp_path / "lifting.json")
        params = [v["s"] for v in data["values"]]
    assert data["s0"] == 1.0 and max(params) == 1.0
    assert len(set(params)) == len(params) == 11


@pytest.mark.parametrize("command", ["factorize", "lift"])
def test_an_anchor_of_negative_zero_writes_what_zero_writes(command,
                                                            tmp_path, capsys):
    """--s0 -0.0 names the grid point 0.0: both commands write the files
    and the summary line that --s0 0 writes."""
    written = []
    for s0 in ("-0.0", "0"):
        out = tmp_path / s0
        out.mkdir()
        assert main([command, "--instance", "perm-c3", "--s0", s0,
                     "--out", str(out)]) == 0
        written.append(({f.name: f.read_bytes() for f in out.iterdir()},
                        capsys.readouterr().out))
    assert written[0] == written[1]
    assert b"-0.0" not in b"".join(written[0][0].values())


@pytest.mark.parametrize("extra", [
    ["--trials", "0"],
    ["--trials", "-5"],
])
def test_inputs_that_would_pass_a_saboteur_are_refused(extra, tmp_path,
                                                       capsys):
    rc = main(["check", "--instance", "counterexample:nonlocal",
               "--out", str(tmp_path), *extra])
    assert rc == 2
    one_error_line(capsys)
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("argv", [
    ["check", "--instance", "perm-c3", "--format", "csv"],
    ["holonomy", "--instance", "parallelization-flat", "--trials", "5"],
    ["holonomy", "--instance", "parallelization-flat", "--step", "0.5"],
    ["holonomy", "--instance", "parallelization-flat", "--tol", "2.2=1"],
    ["lift", "--instance", "perm-c3", "--trials", "5"],
    ["lift", "--instance", "perm-c3", "--tol", "2.2=1"],
    ["factorize", "--instance", "perm-c3", "--trials", "5"],
    ["factorize", "--instance", "perm-c3", "--format", "csv"],
    # no option loosens a law's threshold, so a saboteur never passes
    ["check", "--instance", "counterexample:nonlocal", "--tol", "2.5/2.7=10"],
    ["factorize", "--instance", "perm-c3", "--tol", "3.6-roundtrip=1"],
])
def test_options_a_subcommand_does_not_read_are_refused(argv, capsys):
    # holonomy --step must not be read as an abbreviation of --steps
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"unrecognized arguments: {argv[3]}" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["check", "--instance", "perm-c3", "--step", "nan"],
    ["lift", "--instance", "perm-c3", "--step", "7"],
    ["factorize", "--instance", "foliation-2sec", "--step", "1e-9"],
    ["holonomy", "--instance", "parallelization-flat", "--steps", "1e-8"],
])
def test_an_exact_instance_refuses_an_out_of_range_step(argv, capsys):
    # the step is ignored on exact presets, but never taken when out of range
    assert main(argv) == 2
    assert "step out of range" in one_error_line(capsys)


def test_a_reused_parser_carries_nothing_between_calls(tmp_path):
    argv = ["check", "--instance", "perm-c3", "--laws", "2.2", "--trials", "5"]
    assert main([*argv, "--seed", "5", "--out", str(tmp_path / "a")]) == 0
    assert read_json(tmp_path / "a" / "law_2.2.json")["seed"] == 5
    assert main([*argv, "--out", str(tmp_path / "b")]) == 0
    default = run_law(make_instance("perm-c3"), "2.2", trials=5).to_json()
    assert (tmp_path / "b" / "law_2.2.json").read_text() == default
    assert json.loads(default)["seed"] == 0


def test_out_naming_a_file_is_config_error(tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("keep me\n")
    assert main(["check", "--instance", "perm-c3", "--laws", "2.2",
                 "--out", str(taken)]) == 2
    assert "--out" in one_error_line(capsys)
    assert taken.read_text() == "keep me\n"


def test_law_filename_sanitizes():
    assert law_filename("2.5/2.7") == "law_2.5+2.7.json"
    assert law_filename("3.6-roundtrip") == "law_3.6-roundtrip.json"
