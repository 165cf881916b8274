import hashlib
import json
import math
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twistcat import branchcut, catalogs, cli, cocycle, fusionring, grouprep, modcat, specio
from twistcat.catalogs import builtin_catalog
from twistcat.cocycle import AbelianCocycle
from twistcat.errors import StructuralError
from twistcat.grouprep import CentralEmbedding
from twistcat.specio import BUNDLED_FIXTURES, fixture_path, load_spec, parse_matrix_entry
from twistcat.unitscalar import UnitScalar

import oracles

GOLDEN_DIR = Path(__file__).parent / "golden"


def run_cli(*argv):
    return cli.main(list(argv))


def test_verify_good_fixture_exit_zero(capsys):
    assert run_cli("verify", "--spec", "z2-lattice-on-z4") == 0
    out = capsys.readouterr().out
    assert "all passed" in out
    assert "FAIL" not in out


def test_verify_broken_fixture_prints_witness(capsys):
    assert run_cli("verify", "--spec", "z2-lattice-on-z4-broken") == 1
    out = capsys.readouterr().out
    assert "FAIL" in out
    assert "witness ((1,), (1,), (1,))" in out


@pytest.mark.parametrize(
    "spec, code",
    [("q8-z2", cli.EXIT_OK), ("z2-lattice-on-z4-broken", cli.EXIT_VALIDATION),
     ("nope", cli.EXIT_PARSE)],
)
def test_the_module_entry_point_exits_with_mains_code_and_output(spec, code, capsys):
    # a fresh process from `python -m twistcat.cli` to its stdout and exit code
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    run = subprocess.run(
        [sys.executable, "-m", "twistcat.cli", "verify", "--spec", spec],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path}, timeout=120,
    )
    assert run.returncode == run_cli("verify", "--spec", spec) == code
    captured = capsys.readouterr()
    assert (run.stdout, run.stderr) == (captured.out, captured.err)
    if code == cli.EXIT_PARSE:
        assert run.stdout == "" and re.fullmatch(r"error: [^\n]*\n", run.stderr)


def test_missing_spec_is_parse_error(capsys):
    assert run_cli("verify", "--spec", "/nonexistent/path.json") == 2


def test_malformed_json_is_parse_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    assert run_cli("verify", "--spec", str(bad)) == 2


def test_spec_file_that_is_not_an_object_is_parse_error(tmp_path, capsys):
    bad = tmp_path / "list.json"
    bad.write_text("[1, 2]", encoding="utf-8")
    assert run_cli("verify", "--spec", str(bad)) == cli.EXIT_PARSE
    assert capsys.readouterr() == ("", "error: spec file must contain a JSON object\n")


@pytest.mark.parametrize(
    "data",
    [
        b"\xff{}", '{"schema_version": 1}'.encode("utf-16"),
        b'{"schema_version": 1' + b"0" * 5000 + b"}", b"[" * 100000 + b"]" * 100000,
    ],
    ids=["not-utf8", "utf16", "integer-literal-too-long", "nested-too-deep"],
)
def test_unreadable_spec_is_parse_error(data, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_bytes(data)
    assert run_cli("verify", "--spec", str(bad)) == cli.EXIT_PARSE
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: spec file ")


@pytest.mark.parametrize("over", [0, 1], ids=["at-cap", "over-cap"])
def test_spec_file_over_the_byte_cap_is_refused_before_parsing(over, tmp_path, capsys,
                                                               monkeypatch):
    # the cap is lowered to the fixture's size, so no large file is written
    path = tmp_path / "spec.json"
    path.write_bytes(fixture_path("z2-lattice-on-z4").read_bytes())
    size = path.stat().st_size
    monkeypatch.setattr(specio, "MAX_SPEC_BYTES", size - over)
    parsed, loads = [], json.loads
    monkeypatch.setattr(json, "loads", lambda text: parsed.append(text) or loads(text))
    code = run_cli("verify", "--spec", str(path))
    if not over:
        assert code == cli.EXIT_OK and len(parsed) == 1
        return
    assert code == cli.EXIT_PARSE and not parsed
    assert capsys.readouterr().err == (
        f"error: spec file {path} is {size} bytes, over MAX_SPEC_BYTES = {size - 1}\n"
    )


def test_verify_reads_the_spec_file_once(tmp_path, monkeypatch):
    # the digest is taken from the bytes that are parsed, not from a second read
    path = tmp_path / "spec.json"
    path.write_bytes(fixture_path("z2-lattice-on-z4").read_bytes())
    reads = []
    for name in ("read_bytes", "read_text"):
        real = getattr(Path, name)
        monkeypatch.setattr(Path, name, lambda self, *a, _real=real, **k: (
            reads.append(self) or _real(self, *a, **k)))
    assert run_cli("verify", "--spec", str(path), "--out", str(tmp_path / "report.json")) == 0
    assert reads == [path]
    monkeypatch.undo()
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert load_spec(path).digest == digest
    assert json.loads((tmp_path / "report.json").read_text())["spec_digest"] == digest


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--spec", "q8-z2"],
        ["fusion", "--spec", "q8-z2"],
        ["smatrix", "--spec", "q8-z2"],
        ["monodromy", "--spec", "q8-z2", "--z1", "3,0", "--z2", "2,0", "--grades", "1|1|1"],
    ],
    ids=["verify", "fusion", "smatrix", "monodromy"],
)
def test_directory_as_out_is_parse_error(argv, tmp_path, capsys):
    # the report is printed before the write fails; this used to end in a traceback
    assert run_cli(*argv, "--out", str(tmp_path)) == cli.EXIT_PARSE
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: ")


def test_directory_as_spec_is_parse_error(tmp_path, capsys):
    assert run_cli("verify", "--spec", str(tmp_path)) == cli.EXIT_PARSE
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: ")


def test_wrong_schema_version(tmp_path):
    spec = tmp_path / "v2.json"
    spec.write_text(json.dumps({"schema_version": 99}), encoding="utf-8")
    assert run_cli("verify", "--spec", str(spec)) == 2


def test_reports_byte_identical(tmp_path, capsys):
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    assert run_cli("verify", "--spec", "q8-z2", "--seed", "0", "--out", str(out1)) == 0
    assert run_cli("verify", "--spec", "q8-z2", "--seed", "0", "--out", str(out2)) == 0
    assert out1.read_bytes() == out2.read_bytes()
    payload = json.loads(out1.read_text())
    assert payload["schema_version"] == 1
    assert payload["seed"] == 0
    assert len(payload["spec_digest"]) == 64
    assert all(v["status"] == "pass" for v in payload["verdicts"])
    assert "fusion" in payload["tables"] and "smatrix" in payload["tables"]


def test_a_builtin_catalog_warmed_by_another_spec_writes_the_same_report(tmp_path, capsys):
    # q8-z2 verified cold, then after q8 graded at the identity has built and
    # checked the process's q8 catalog: the second run reuses that catalog
    # and its fusion table, and its report is the cold run's, byte for byte
    cold, warm = tmp_path / "cold.json", tmp_path / "warm.json"
    assert run_cli("verify", "--spec", "q8-z2", "--seed", "3", "--out", str(cold)) == 0
    catalogs._shared_catalog.cache_clear()
    other = Path(__file__).parent / "golden" / "specs" / "q8-identity-z2.json"
    assert run_cli("fusion", "--spec", str(other)) == 0
    hits = catalogs._shared_catalog.cache_info().hits
    assert run_cli("verify", "--spec", "q8-z2", "--seed", "3", "--out", str(warm)) == 0
    assert catalogs._shared_catalog.cache_info().hits > hits
    assert warm.read_bytes() == cold.read_bytes()


def test_su2_smatrix_values(tmp_path, capsys):
    out = tmp_path / "s.json"
    assert run_cli("smatrix", "--su2", "--max-spin", "3", "--out", str(out)) == 0
    payload = json.loads(out.read_text())
    assert payload["tables"]["smatrix"]["entries"] == [
        [1, 2, 3, 4],
        [2, -4, 6, -8],
        [3, 6, 9, 12],
        [4, -8, 12, -16],
    ]


@pytest.mark.parametrize(
    "argv",
    [
        ["--max-spin", "3"],
        ["--spec", "q8-z2", "--su2", "--max-spin", "3"],
        ["--spec", "su2-lattice", "--su2", "--max-spin", "3"],
    ],
    ids=["no-spec-without-su2", "su2-with-finite-spec", "su2-with-su2-spec"],
)
def test_smatrix_takes_spec_or_su2_not_both(argv, capsys):
    # the spec-less call printed the SU(2) table, and --su2 with --spec was ignored
    assert run_cli("smatrix", *argv) == cli.EXIT_PARSE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: smatrix needs --spec or --su2 with --max-spin, not both\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["--spec", "q8-z2", "--max-spin", "3", "--cocycle-param", "1"],
        ["--spec", "su2-lattice", "--max-spin", "3", "--cocycle-param", "1"],
        ["--spec", "q8-z2", "--cocycle-param", "1"],
        ["--spec", "su2-lattice", "--max-spin", "3"],
    ],
    ids=["finite-spec-both", "su2-spec-both", "finite-spec-param", "su2-spec-max-spin"],
)
def test_smatrix_su2_options_need_su2(argv, capsys):
    # each exited 0: the options were ignored, or --max-spin overrode the
    # spec's max_spin
    assert run_cli("smatrix", *argv) == cli.EXIT_PARSE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: smatrix takes --max-spin and --cocycle-param with --su2 only\n"


def test_smatrix_su2_cocycle_param(tmp_path, capsys):
    out = tmp_path / "s.json"
    # s = 2 is the fermionic sign cocycle: b(1, 1) = 0, so no entry is negative
    assert run_cli("smatrix", "--su2", "--max-spin", "2", "--cocycle-param", "2",
                   "--out", str(out)) == 0
    payload = json.loads(out.read_text())
    assert payload["spec"] == "su2(s=2)"
    assert payload["tables"]["smatrix"]["entries"] == [[1, 2, 3], [2, 4, 6], [3, 6, 9]]
    # without the option, s is 3
    assert run_cli("smatrix", "--su2", "--max-spin", "2", "--out", str(out)) == 0
    assert json.loads(out.read_text())["spec"] == "su2(s=3)"


def test_verify_takes_branch_integers_from_the_monodromy_path(monkeypatch, capsys):
    # verify's positive-real pairs read branch_integers, as the monodromy
    # command does, not a second path to p on the rounded difference
    monkeypatch.setattr(branchcut, "branch_integers", lambda z1, z2: (1, 0))
    assert run_cli("verify", "--spec", "q8-z2") == cli.EXIT_VALIDATION
    out = capsys.readouterr().out
    assert "FAIL  monodromy-positive-reals" in out
    assert "1 FAILED" in out


def test_verify_decides_the_positive_real_pairs_in_one_call(monkeypatch):
    calls = []

    def spy(z1, z2):
        calls.append((np.shape(z1), np.shape(z2)))
        return decide(z1, z2)

    decide = branchcut.branch_integers
    monkeypatch.setattr(branchcut, "branch_integers", spy)
    assert run_cli("verify", "--spec", "q8-z2") == 0
    assert calls == [((200,), (200,))]


def test_verify_reads_categorical_dimensions_from_dim_exponents(monkeypatch, capsys):
    # both dimension verdicts of a catalog, and the su2 one, read the exact
    # exponents: a nonzero table fails them, and nothing else
    monkeypatch.setattr(fusionring, "dim_exponents", lambda c: np.ones(c.group.order, np.int64))
    assert run_cli("verify", "--spec", "q8-z2") == cli.EXIT_VALIDATION
    out = capsys.readouterr().out
    assert "FAIL  group-order-identity" in out and "FAIL  categorical-dimensions" in out
    assert "2 FAILED" in out
    assert run_cli("verify", "--spec", "su2-lattice") == cli.EXIT_VALIDATION
    out = capsys.readouterr().out
    assert "FAIL  categorical-dimensions" in out and "1 FAILED" in out


def test_verify_cross_checks_multiplicities_against_projector_ranks(monkeypatch, capsys):
    # the paper's hypothesis: each N^c_ab is the rank (the trace) of its
    # triple's averaging projector; a character-sum table one too high at
    # every nonzero cell is an internal inconsistency under verify and fusion.
    # The table is patched where hom_dims reads it, which a mutant copy of
    # the property reads as well
    names = grouprep.RepCatalog.hom_dims.func.__globals__
    real = names["hom_dim_table"]
    monkeypatch.setitem(
        names, "hom_dim_table", lambda group, chars: (t := real(group, chars)) + (t > 0)
    )
    for command in ("verify", "fusion"):
        assert run_cli(command, "--spec", "q8-z2") == cli.EXIT_INCONSISTENT
        captured = capsys.readouterr()
        assert captured.err == (
            "internal inconsistency: projector rank 1 does not match character dimension 2\n"
        )


def test_equivalent_irreps_are_refused_under_every_command(tmp_path, capsys):
    # S3 with a one-dimensional irrep listed twice, Sum d^2 = 6: with the
    # trivial rep twice, verify and fusion exited 3 from the fusion table's
    # unit row and smatrix passed; with the sign rep twice, verify and fusion
    # found no unit.  Element 3 is the 3-cycle (1, 2, 0), element 2 the
    # transposition (1, 0, 2)
    standard = [[["e(1/3)", "0"], ["0", "e(2/3)"]], [["0", "1"], ["1", "0"]]]
    for label, on_transposition in [("trivial", "1"), ("sign", "-1")]:
        one, twin = [[["1"]], [[on_transposition]]], label + "'"
        spec = {
            "schema_version": 1, "name": "s3-twice", "mode": "finite-group",
            "grading_group": [1], "cocycle": {"builder": "trivial"},
            "group": {"permutation_generators": [[1, 2, 0], [1, 0, 2]]},
            "irreps": {"generators": [3, 2], "list": [
                {"label": label, "matrices": one}, {"label": twin, "matrices": one},
                {"label": "standard", "matrices": standard},
            ]},
            "central_embedding": [0], "complete": True,
        }
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec), encoding="utf-8")
        message = f"irreps {label!r} and {twin!r} are equivalent"
        for command in ("verify", "fusion", "smatrix"):
            assert run_cli(command, "--spec", str(path)) == cli.EXIT_VALIDATION, command
            out, err = capsys.readouterr()
            if command == "verify":
                assert f"  FAIL  irreps-valid: {message}\n" in out
            else:
                assert err == f"validation failure: {message}\n"


def test_finite_smatrix_integral(tmp_path):
    out = tmp_path / "s.json"
    assert run_cli("smatrix", "--spec", "q8-z2", "--out", str(out)) == 0
    entries = json.loads(out.read_text())["tables"]["smatrix"]["entries"]
    assert entries[-1][-1] == -4  # spin (x) spin


def test_fusion_su2(tmp_path):
    out = tmp_path / "f.json"
    assert run_cli("fusion", "--spec", "su2-lattice", "--out", str(out)) == 0
    fusion = json.loads(out.read_text())["tables"]["fusion"]
    assert fusion["V(1)xV(1)"] == ["V(0)", "V(2)"]
    assert fusion["V(2)xV(3)"] == ["V(1)", "V(3)", "V(5)"]


@pytest.mark.parametrize(
    "grading, cocycle_config, code, err, commands",
    [
        ([2], {"tables": {"f": {}, "omega": {"1|1": "3/4"}}}, cli.EXIT_VALIDATION,
         "validation failure: cocycle tables violate the hexagon-1 axiom at ((1,), (1,), (1,))\n",
         ("fusion", "smatrix")),
        ([3], {"builder": "cyclic", "n": 3, "s": 1}, cli.EXIT_PARSE,
         "error: spec field 'grading_group' must be [2] in su2 mode, got [3]\n",
         ("verify", "fusion", "smatrix")),
    ],
    ids=["invalid-cocycle", "graded-by-z3"],
)
def test_su2_fusion_refuses_the_cocycle_as_smatrix_does(
    grading, cocycle_config, code, err, commands, tmp_path, capsys
):
    # fusion used to print the Clebsch-Gordan table and exit 0 on both; the
    # Z/3 grading is refused by the spec reader, where verify used to check
    # the cocycle first and then exit on the ring's own message
    spec = {
        "schema_version": 1, "name": "su2-refused", "mode": "su2",
        "grading_group": grading, "cocycle": cocycle_config, "max_spin": 3,
    }
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec), encoding="utf-8")
    for command in commands:
        assert run_cli(command, "--spec", str(path)) == code, command
        assert capsys.readouterr() == ("", err), command


@pytest.mark.parametrize("max_spin", [-1, 65])
def test_smatrix_su2_spin_cap_is_refused_as_in_a_spec_file(max_spin, tmp_path, capsys):
    # --max-spin 65 used to print the ring's "max_spin must be between 0 and 64"
    spec = {
        "schema_version": 1, "name": "su2-cap", "mode": "su2", "grading_group": [2],
        "cocycle": {"builder": "cyclic", "n": 2, "s": 3}, "max_spin": max_spin,
    }
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec), encoding="utf-8")
    err = f"error: spec field 'max_spin' must be an integer in [0, 65), got {max_spin}\n"
    for argv in (["--su2", f"--max-spin={max_spin}"], ["--spec", str(path)]):
        assert run_cli("smatrix", *argv) == cli.EXIT_PARSE, argv
        assert capsys.readouterr() == ("", err), argv


def test_monodromy_reals(capsys):
    assert (
        run_cli(
            "monodromy", "--spec", "z2-lattice-on-z4",
            "--z1", "3,0", "--z2", "2,0", "--grades", "1|1|1",
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "p_z1_z2 = 0" in out
    assert "scalar exponent 1/2" in out  # F(1,1,1)^{-1} = -1


def test_monodromy_branch_crossing(capsys):
    assert (
        run_cli(
            "monodromy", "--spec", "z2-lattice-on-z4",
            "--z1", "1,0.01", "--z2", "0.9005,0.019983", "--grades", "1|1|1",
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "p_z1_z2 = 1" in out


def test_monodromy_region_violation(capsys):
    code = run_cli(
        "monodromy", "--spec", "z2-lattice-on-z4",
        "--z1", "1,0", "--z2", "3,0", "--grades", "1|1|1",
    )
    assert code == 1
    out = capsys.readouterr().out
    assert "|z1| > |z2|" in out


def test_monodromy_path(capsys):
    assert (
        run_cli(
            "monodromy", "--spec", "z2-lattice-on-z4",
            "--path", "1,0; 0,-1; -1,0; 0,1; 1,0", "--grades", "1|1",
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "winding 1" in out
    assert "transport exponent 1/2" in out


def test_monodromy_path_with_tiny_segment(capsys):
    # the segment's squared length underflows; it must not crash the command
    code = run_cli(
        "monodromy", "--spec", "z2-lattice-on-z4",
        "--path", "1,1e-300; 1,-1e-300", "--grades", "0|0",
    )
    assert code == cli.EXIT_OK
    captured = capsys.readouterr()
    assert "winding 1" in captured.out
    assert "Traceback" not in captured.out + captured.err


@pytest.mark.parametrize(
    "where, grades, code, want",
    [
        (["--z1", "10,0", "--z2", "7,-5e-324"], "1|1|1", 0, "p_z2_z2-z1 = -1"),
        (["--path", "3,1e-300 3,-5e-324"], "1|1", 0, "winding 1,"),
        (["--path", "1e308,1e308 -1e308,1e308"], "1|1", 0, "winding 0,"),
        (["--z1", "1e308,1e308", "--z2", "1e308,0"], "1|1|1", 1, "region |z1| > |z2| > |z1 - z2|"),
        (
            ["--z1", "1.7e308,1.7e308", "--z2", "1.6e308,1.6e308"], "1|1|1", 0,
            "p_z1_z2 = 0, p_z2_z2-z1 = 0",
        ),
        (
            ["--z1=0.9e308,1.795e308", "--z2=-1.08e308,1.67e308"], "1|1|1", 0,
            "p_z1_z2 = 0, p_z2_z2-z1 = 0",
        ),
    ],
    ids=[
        "subnormal-point", "subnormal-path", "huge-path", "huge-points-outside-region",
        "moduli-past-the-float-range", "difference-past-the-float-range",
    ],
)
def test_monodromy_at_the_float_extremes(where, grades, code, want, capsys):
    # the float logarithms raised OverflowError, ValueError or exited 3 here
    assert run_cli("monodromy", "--spec", "z2-lattice-on-z4", *where, "--grades", grades) == code
    captured = capsys.readouterr()
    assert want in captured.out
    assert captured.err == ""


def test_monodromy_negative_point_needs_equals_sign(capsys):
    argv = ["monodromy", "--spec", "z2-lattice-on-z4", "--grades", "1|1|1"]
    assert run_cli(*argv, "--z1=-3,0", "--z2=-2,0") == cli.EXIT_OK
    assert "p_z1_z2 = 0, p_z2_z2-z1 = 0" in capsys.readouterr().out
    # given as a separate argument, argparse reads '-3,0' as an option
    with pytest.raises(SystemExit) as exc:
        run_cli(*argv, "--z1", "-3,0", "--z2", "-2,0")
    assert exc.value.code == cli.EXIT_PARSE
    assert "expected one argument" in capsys.readouterr().err
    with pytest.raises(SystemExit):
        run_cli("monodromy", "--help")
    assert "--z1=-3,0" in capsys.readouterr().out


@pytest.mark.parametrize(
    "points", [["--z1", "3,0", "--z2", "2,0"], ["--z1", "3,0"], ["--z2", "2,0"]],
    ids=["both-points", "z1", "z2"],
)
def test_monodromy_takes_points_or_a_path_not_both(points, tmp_path, capsys):
    # the path was answered and the points silently dropped, with exit 0
    out = tmp_path / "report.json"
    argv = ["--path", "1,0;0,1;1,0", "--grades", "1|1", "--out", str(out)]
    assert run_cli("monodromy", "--spec", "z2-lattice-on-z4", *points, *argv) == cli.EXIT_PARSE
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    assert captured.err == "error: monodromy takes --z1/--z2 or --path, not both\n"


_NEITHER = "monodromy needs --z1/--z2 or --path"


@pytest.mark.parametrize(
    "spec, query, message",
    [
        # an empty --path counted as no path, and the points were answered with exit 0
        ("z2-lattice-on-z4", ["--path", "", "--z1", "3,0", "--z2", "2,0", "--grades", "1|1|1"],
         "monodromy takes --z1/--z2 or --path, not both"),
        ("z2-lattice-on-z4", ["--path", "", "--grades", "1|1"], "a path needs at least one waypoint"),
        ("z2-lattice-on-z4", ["--path", " ; ", "--grades", "1|1"],
         "a path needs at least one waypoint"),
        ("z2-lattice-on-z4", ["--z1", "3,0", "--z2", "2,0", "--grades", "1|1"],
         "expected 3 grades joined by '|', got '1|1'"),
        ("z2-lattice-on-z4", ["--z1", "3,0", "--grades", "1|1|1"], _NEITHER),
        # refused before the spec is read, or its cocycle is built
        ("/nonexistent/path.json", ["--grades", "1|1|1"], _NEITHER),
        ("z2-lattice-on-z4-broken", ["--grades", "1|1|1"], _NEITHER),
    ],
    ids=["empty-path-and-points", "empty-path", "path-of-separators", "two-grades-for-points",
         "z1-alone", "neither-missing-spec", "neither-invalid-cocycle"],
)
def test_monodromy_refusals_are_one_line_parse_errors(spec, query, message, capsys):
    assert run_cli("monodromy", "--spec", spec, *query) == cli.EXIT_PARSE
    assert capsys.readouterr() == ("", f"error: {message}\n")


_COORDS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-300, -1e-300, 1e308, -1e308]),
)
_POINT_TEXT = st.builds(lambda x, y: f"{x!r},{y!r}", _COORDS, _COORDS)
_POINT_ARGS = st.one_of(
    st.builds(
        lambda z1, z2: [f"--z1={z1}", f"--z2={z2}", "--grades=1|1|1"], _POINT_TEXT, _POINT_TEXT
    ),
    st.builds(
        lambda path: [f"--path={' '.join(path)}", "--grades=1|1"],
        st.lists(_POINT_TEXT, min_size=1, max_size=4),
    ),
)


@settings(max_examples=200, deadline=None)
@given(_POINT_ARGS)
def test_monodromy_point_fuzz(argv):
    # '=' keeps argparse from reading a leading '-' as an option
    code = cli.main(["monodromy", "--spec", "z2-lattice-on-z4", *argv])
    assert code in (cli.EXIT_OK, cli.EXIT_VALIDATION, cli.EXIT_PARSE)


@pytest.mark.parametrize(
    "source, kept, dim_squares",
    [
        (fixture_path("z2-lattice-on-z4"), None, 4),
        (GOLDEN_DIR / "specs" / "d5-table-z2.json", 3, 6),
        (GOLDEN_DIR / "specs" / "d5-table-z2.json", 0, 0),
    ],
    ids=["all-irreps", "one-irrep-dropped", "no-irreps"],
)
def test_verify_incomplete_catalog(source, kept, dim_squares, tmp_path, capsys):
    # the order identity used to raise StructuralError and discard every verdict
    spec = json.loads(source.read_text(encoding="utf-8"))
    spec["complete"] = False
    if kept is not None:
        spec["irreps"]["list"] = spec["irreps"]["list"][:kept]
    path, out = tmp_path / "spec.json", tmp_path / "report.json"
    path.write_text(json.dumps(spec), encoding="utf-8")
    assert run_cli("verify", "--spec", str(path), "--out", str(out)) == cli.EXIT_OK
    report = json.loads(out.read_text())
    verdicts = {v["check"]: v for v in report["verdicts"]}
    assert "group-order-identity" not in verdicts
    assert verdicts["irreps-valid"]["detail"].endswith(f"sum of dim^2 = {dim_squares}")
    assert set(report["tables"]) == {"smatrix"}
    capsys.readouterr()
    assert run_cli("fusion", "--spec", str(path)) == cli.EXIT_PARSE
    assert capsys.readouterr().err == "error: fusion tables require a complete irrep catalog\n"


@pytest.mark.parametrize("name", BUNDLED_FIXTURES)
def test_verify_report_matches_golden(name, tmp_path, capsys):
    out = tmp_path / "report.json"
    run_cli("verify", "--spec", name, "--seed", "0", "--out", str(out))
    assert out.read_bytes() == (GOLDEN_DIR / f"{name}.json").read_bytes()


_TABLE_REPORTS = {
    f"{command}/{name}.json": (command, "--spec", name)
    for command in ("fusion", "smatrix")
    for name in BUNDLED_FIXTURES
    if name != "z2-lattice-on-z4-broken"  # exits 1 before any report is written
}
_TABLE_REPORTS["smatrix/su2-max-spin-10-s3.json"] = (
    "smatrix", "--su2", "--max-spin", "10", "--cocycle-param", "3",
)


@pytest.mark.parametrize("golden", sorted(_TABLE_REPORTS))
def test_table_report_matches_golden(golden, tmp_path, capsys):
    out = tmp_path / "report.json"
    assert run_cli(*_TABLE_REPORTS[golden], "--seed", "0", "--out", str(out)) == cli.EXIT_OK
    assert out.read_bytes() == (GOLDEN_DIR / golden).read_bytes()


def test_verify_validates_cocycle_once(monkeypatch, capsys):
    calls = []
    original = cocycle.validate_cocycle

    def counting(c):
        calls.append(c)
        return original(c)

    monkeypatch.setattr(cocycle, "validate_cocycle", counting)
    assert run_cli("verify", "--spec", "z2-lattice-on-z4") == 0
    assert len(calls) == 1


@pytest.mark.parametrize("name", ["q8-z2", "su2-lattice"])
def test_verify_builds_one_s_table(name, monkeypatch, capsys):
    # the su2 matrix verdicts and the emitted table of either mode read one table
    calls, original = [], fusionring.s_table
    monkeypatch.setattr(fusionring, "s_table", lambda *args: calls.append(args) or original(*args))
    assert run_cli("verify", "--spec", name) == 0
    assert len(calls) == 1


def test_parse_matrix_entry():
    assert parse_matrix_entry("1+0i") == 1
    assert parse_matrix_entry("-0.5+0.25i") == complex(-0.5, 0.25)
    assert parse_matrix_entry("e(1/4)") == 1j
    assert parse_matrix_entry("e(1/2)") == -1
    with pytest.raises(StructuralError):
        parse_matrix_entry("one")
    # spaces at the ends and beside a part's sign are kept out of the number
    assert parse_matrix_entry(" 1 + 2i ") == complex(1, 2)
    assert parse_matrix_entry("- 0.5") == -0.5
    assert parse_matrix_entry("-0.5  -  0.25i") == complex(-0.5, -0.25)
    # any other space would glue two numbers together: "1 2" read as 12,
    # "0. 5" as 0.5, "1e 5" as 1e5 and "e(1 /2)" as -1
    for text in ["1 2", "0. 5", "1e 5", "1e +5", "e(1 /2)", "1 + 2 i"]:
        with pytest.raises(StructuralError, match="has a space other than at its ends"):
            parse_matrix_entry(text)


def test_spec_with_table_group_and_exponent_entries(tmp_path, capsys):
    z4_table = [[(a + b) % 4 for b in range(4)] for a in range(4)]
    spec = {
        "schema_version": 1,
        "name": "z4-from-table",
        "mode": "finite-group",
        "grading_group": [2],
        "cocycle": {"builder": "cyclic", "n": 2, "s": 3},
        "group": {"table": z4_table},
        "irreps": {
            "generators": [1],
            "list": [
                {"label": f"chi{k}", "matrices": [[[f"e({k}/4)"]]]} for k in range(4)
            ],
        },
        "central_embedding": [2],
        "complete": True,
    }
    path = tmp_path / "z4.json"
    path.write_text(json.dumps(spec), encoding="utf-8")
    assert run_cli("verify", "--spec", str(path)) == 0


def test_spec_with_permutation_group_and_rank2_grading(tmp_path):
    spec = {
        "schema_version": 1,
        "name": "klein",
        "mode": "finite-group",
        "grading_group": [2, 2],
        "cocycle": {"builder": "trivial"},
        "group": {"permutation_generators": [[1, 0, 3, 2], [2, 3, 0, 1]]},
        "irreps": {
            "generators": [1, 2],
            "list": [
                {"label": f"chi{u}{v}", "matrices": [[[f"{1 - 2 * u}"]], [[f"{1 - 2 * v}"]]]}
                for u in range(2)
                for v in range(2)
            ],
        },
        "central_embedding": [1, 2],
        "complete": True,
    }
    path = tmp_path / "klein.json"
    path.write_text(json.dumps(spec), encoding="utf-8")
    assert run_cli("verify", "--spec", str(path)) == 0
    cat = load_spec(path).build_category()
    assert sorted(m.grade for m in cat.catalog) == [(0, 0), (0, 1), (1, 0), (1, 1)]


def test_spec_with_cocycle_tables(tmp_path):
    spec = {
        "schema_version": 1,
        "name": "lattice-from-tables",
        "mode": "finite-group",
        "grading_group": [2],
        "cocycle": {"tables": {"f": {"1|1|1": "1/2"}, "omega": {"1|1": "3/4"}}},
        "group": {"builtin": "z4"},
        "irreps": "builtin",
        "central_embedding": [2],
        "complete": True,
    }
    path = tmp_path / "tables.json"
    path.write_text(json.dumps(spec), encoding="utf-8")
    assert run_cli("verify", "--spec", str(path)) == 0
    cocycle = load_spec(path).build_cocycle()
    assert UnitScalar(oracles.omega(cocycle, (1,), (1,))).to_complex() == -1j


def test_human_and_machine_verdicts_agree(tmp_path, capsys):
    out = tmp_path / "r.json"
    run_cli("verify", "--spec", "s3-trivial-grading", "--out", str(out))
    human = capsys.readouterr().out
    payload = json.loads(out.read_text())
    for verdict in payload["verdicts"]:
        assert verdict["check"] in human
        assert verdict["status"] == "pass"


# the two-element group as a multiplication table, graded by Z/2 at its
# non-identity element; merged into the z2-lattice-on-z4 fixture it verifies
Z2_TABLE = {
    "group": {"table": [[0, 1], [1, 0]]},
    "irreps": {
        "generators": [1],
        "list": [
            {"label": "even", "matrices": [[["1"]]]},
            {"label": "odd", "matrices": [[["-1"]]]},
        ],
    },
    "central_embedding": [1],
}


def _z2_table_irrep(**item):
    """``Z2_TABLE`` with fields of its first irrep replaced."""
    first = {"label": "even", "matrices": [[["1"]]], **item}
    odd = Z2_TABLE["irreps"]["list"][1]
    return {**Z2_TABLE, "irreps": {"generators": [1], "list": [first, odd]}}


def test_z2_table_spec_verifies(tmp_path, capsys):
    path = tmp_path / "spec.json"
    spec = json.loads(fixture_path("z2-lattice-on-z4").read_text(encoding="utf-8"))
    path.write_text(json.dumps({**spec, **Z2_TABLE}), encoding="utf-8")
    assert run_cli("verify", "--spec", str(path)) == cli.EXIT_OK


@pytest.mark.parametrize(
    "changes, field",
    [
        ({"cocycle": {"builder": "cyclic", "s": 3}}, "cocycle.n"),
        ({"irreps": {"generators": [1]}}, "irreps.list"),
        ({"grading_group": "x"}, "grading_group"),
        ({"cocycle": {"tables": {"f": {"1|1|1": "1/0"}}}}, "cocycle.tables.f.1|1|1"),
        ({"cocycle": 5}, "cocycle"),
        ({"cocycle": {"tables": 5}}, "cocycle.tables"),
        ({"cocycle": {"tables": {"f": [["1|1|1", "1/2"]]}}}, "cocycle.tables.f"),
        ({"cocycle": {"tables": {"f": {"a|1|1": "1/2"}}}}, "cocycle.tables.f.a|1|1"),
        ({"group": 5}, "group"),
        (
            {"irreps": {"generators": [1], "list": [{"label": "chi0"}]}},
            "irreps.list[0].matrices",
        ),
        ({"central_embedding": "x"}, "central_embedding"),
        ({"mode": "su2", "max_spin": "x"}, "max_spin"),
        ({"irreps": {"generators": [1], "list": 5}}, "irreps.list"),
        ({"irreps": {"generators": 5, "list": []}}, "irreps.generators"),
        (
            {"irreps": {"generators": [1], "list": [{"label": "chi0", "matrices": 5}]}},
            "irreps.list[0].matrices",
        ),
        ({"group": {"builtin": 5}}, "group.builtin"),
        ({"group": {"table": [[0, 1], [1, "x"]]}}, "group.table[1][1]"),
        ({"complete": "no"}, "complete"),
        ({"cocycle": {"builder": "cyclic", "n": "2", "s": 3}}, "cocycle.n"),
        ({"cocycle": {"builder": "cyclic", "n": 2, "s": "3"}}, "cocycle.s"),
        ({"cocycle": {"builder": "cyclic", "n": True, "s": 3}}, "cocycle.n"),
        ({"name": 5}, "name"),
        (_z2_table_irrep(matrices=[[[1]]]), "irreps.list[0].matrices[0][0][0]"),
        ({**Z2_TABLE, "group": {"table": [[0, 1], [1]]}}, "group.table[1]"),
        ({**Z2_TABLE, "group": {"table": [[0, 1], [1, 10**30]]}}, "group.table[1][1]"),
        ({**Z2_TABLE, "group": {"permutation_generators": 5}}, "group.permutation_generators"),
        (_z2_table_irrep(label=5), "irreps.list[0].label"),
        (_z2_table_irrep(matrices=[5]), "irreps.list[0].matrices[0]"),
        ({"cocycle": {"tables": {"f": {"1|1|1": float("inf")}}}}, "cocycle.tables.f.1|1|1"),
        (_z2_table_irrep(matrices=[["1"]]), "irreps.list[0].matrices[0][0]"),
        ({"grading_group": ["2"]}, "grading_group[0]"),
        ({"central_embedding": ["2"]}, "central_embedding[0]"),
        ({"mode": "su2", "max_spin": "3"}, "max_spin"),
        ({"mode": "su2", "max_spin": 3.7}, "max_spin"),
        ({"schema_version": 1.0}, "schema_version"),
        (_z2_table_irrep(label="odd"), "irreps.list[1].label"),
        (_z2_table_irrep(matrices=[[["one"]]]), "irreps.list[0].matrices[0][0][0]"),
        ({"group": {}}, "group"),
        ({**Z2_TABLE, "group": {"table": [[0, 1]]}}, "group.table[0]"),
        ({**Z2_TABLE, "group": {"table": [[0, 1], [1, 2]]}}, "group.table[1][1]"),
        ({**Z2_TABLE, "group": {"table": [list(range(65))] * 65}}, "group.table"),
        ({"mode": "su2", "max_spin": 65}, "max_spin"),
        ({"mode": "su2", "max_spin": -1}, "max_spin"),
        (_z2_table_irrep(matrices=[[["nan"]]]), "irreps.list[0].matrices[0][0][0]"),
        (_z2_table_irrep(matrices=[[["inf"]]]), "irreps.list[0].matrices[0][0][0]"),
        (_z2_table_irrep(matrices=[[["1e999"]]]), "irreps.list[0].matrices[0][0][0]"),
        ({"group": {"builtin": "x9"}}, "group.builtin"),
        ({"group": {"builtin": "z65"}}, "group.builtin"),
        ({"group": {"builtin": "z" + "7" * 5000}}, "group.builtin"),
        (_z2_table_irrep(matrices=[[["1 2"]]]), "irreps.list[0].matrices[0][0][0]"),
    ],
    ids=[
        "cyclic-without-n", "irreps-without-list", "grading-group-string", "zero-denominator",
        "cocycle-number", "tables-number", "f-table-list", "non-integer-residue",
        "group-number", "irrep-without-matrices", "embedding-string", "max-spin-string",
        "irreps-list-number", "generators-number", "matrices-number", "builtin-number",
        "group-table-string-entry", "complete-string", "cyclic-n-string", "cyclic-s-string",
        "cyclic-n-boolean", "name-number",
        "matrix-entry-number", "group-table-ragged", "group-table-huge-entry",
        "permutation-generators-number", "irrep-label-number", "matrix-number",
        "table-exponent-infinity", "matrix-row-string", "grading-group-string-entry",
        "embedding-string-entry", "max-spin-numeric-string", "max-spin-float",
        "schema-version-float", "irrep-label-repeated", "matrix-entry-unparseable",
        "group-empty", "group-table-not-square", "group-table-entry-out-of-range",
        "group-table-above-order-cap", "max-spin-above-cap", "max-spin-negative",
        "matrix-entry-nan", "matrix-entry-inf", "matrix-entry-overflow",
        "builtin-unknown", "builtin-above-cap", "builtin-long-name",
        "matrix-entry-inner-space",
    ],
)
@pytest.mark.parametrize("command", ["verify", "fusion"])
def test_malformed_spec_field_is_parse_error(changes, field, command, tmp_path, capsys):
    path = tmp_path / "spec.json"
    spec = json.loads(fixture_path("z2-lattice-on-z4").read_text(encoding="utf-8"))
    path.write_text(json.dumps({**spec, **changes}), encoding="utf-8")
    assert run_cli(command, "--spec", str(path)) == cli.EXIT_PARSE
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert repr(field) in err


@pytest.mark.parametrize("value", [True, False, 0.5, 0.1], ids=["true", "false", "0.5", "0.1"])
@pytest.mark.parametrize("table, key", [("f", "1|1|1"), ("omega", "1|1")])
def test_table_exponent_boolean_or_float_is_parse_error(table, key, value, tmp_path, capsys):
    # Fraction reads true as 1 and 0.1 as 3602879701896397/36028797018963968
    tables = {"f": {"1|1|1": "1/2", "0|1|1": 3}, "omega": {"1|1": "3/4", "1|0": -2}}
    spec = {"schema_version": 1, "mode": "su2", "grading_group": [2]}
    spec["cocycle"] = {"tables": tables}
    assert _run_spec("smatrix", spec, tmp_path)[0] == cli.EXIT_OK  # strings and integers
    tables[table][key] = value
    assert _run_spec("smatrix", spec, tmp_path)[0] == cli.EXIT_PARSE
    field = f"cocycle.tables.{table}.{key}"
    assert capsys.readouterr().err == (
        f"error: spec field {field!r} must be a rational exponent, got {value!r}\n"
    )


def test_table_boolean_after_equal_integer_is_parse_error(tmp_path, capsys):
    # true == 1 with the same hash, so a memo keyed by value would read it as 1
    spec = {"schema_version": 1, "mode": "su2", "grading_group": [2]}
    spec["cocycle"] = {"tables": {"f": {"1|1|1": 1, "1|1|0": True}}}
    assert _run_spec("smatrix", spec, tmp_path)[0] == cli.EXIT_PARSE
    field = "cocycle.tables.f.1|1|0"
    assert capsys.readouterr().err == (
        f"error: spec field {field!r} must be a rational exponent, got True\n"
    )


@pytest.mark.parametrize(
    "value",
    ["1e-1000000", "1e10000000", "0.5", "1/2 ", "1_0", "\u0663/\u0664", "inf", "1/-2"],
    ids=["tiny-exponent-notation", "huge-exponent-notation", "decimal", "trailing-space",
         "underscore", "non-ascii-digits", "infinity", "negative-denominator"],
)
@pytest.mark.parametrize("command", ["verify", "smatrix"])
def test_table_exponent_outside_p_over_q_is_refused_before_fraction(
    command, value, tmp_path, capsys, monkeypatch
):
    # exponent notation used to reach Fraction: "1e10000000" took seconds to
    # expand, and "1e-1000000" ended in a traceback with exit 1
    parsed = []

    def fraction(*args):
        parsed.extend(args)
        return Fraction(*args)

    monkeypatch.setattr(specio, "Fraction", fraction)
    tables = {"f": {"1|1|1": "1/2"}, "omega": {"1|1": "3/4", "1|0": value}}
    if command == "verify":
        spec = json.loads(fixture_path("z2-lattice-on-z4").read_text(encoding="utf-8"))
    else:
        spec = {"schema_version": 1, "mode": "su2", "grading_group": [2]}
    spec["cocycle"] = {"tables": tables}
    assert _run_spec(command, spec, tmp_path)[0] == cli.EXIT_PARSE
    field = "cocycle.tables.omega.1|0"
    assert capsys.readouterr().err == (
        f"error: spec field {field!r} must be a rational exponent, got {value!r}\n"
    )
    assert value not in parsed and "3/4" in parsed  # the entries before it were read


def test_trivial_builder_above_table_cap_is_parse_error(tmp_path, capsys):
    path = tmp_path / "spec.json"
    spec = json.loads(fixture_path("z2-lattice-on-z4").read_text(encoding="utf-8"))
    spec.update(grading_group=[300], cocycle={"builder": "trivial"})
    path.write_text(json.dumps(spec), encoding="utf-8")
    assert run_cli("verify", "--spec", str(path)) == cli.EXIT_PARSE
    assert "exceeds the table-cocycle cap" in capsys.readouterr().err


@pytest.mark.parametrize(
    "cocycle_field",
    [{"builder": "cyclic", "n": 300, "s": 1}, {"builder": "trivial"}, {"tables": {}}],
    ids=["cyclic", "trivial", "tables"],
)
def test_every_cocycle_builder_gives_the_one_table_cap_message(cocycle_field, tmp_path, capsys):
    # the cyclic builder said "cyclic order 300 exceeds the table cap 256"
    spec = json.loads(fixture_path("z2-lattice-on-z4").read_text(encoding="utf-8"))
    spec.update(grading_group=[300], cocycle=cocycle_field)
    assert _run_spec("verify", spec, tmp_path)[0] == cli.EXIT_PARSE
    assert capsys.readouterr() == ("", "error: group order 300 exceeds the table-cocycle cap 256\n")


def _z2_spec_with_factors(factors, cocycle):
    """Builtin Z/2 graded by the given invariant factors, the last through 1."""
    return {
        "schema_version": 1, "name": "z2-many-factors", "mode": "finite-group",
        "grading_group": factors, "cocycle": cocycle,
        "group": {"builtin": "z2"}, "irreps": "builtin",
        "central_embedding": [0] * (len(factors) - 1) + [1 % factors[-1]], "complete": True,
    }


@pytest.mark.parametrize(
    "cocycle_field", [{"builder": "trivial"}, {"tables": {}}], ids=["trivial", "tables"]
)
@pytest.mark.parametrize("count", [9, 32, 70])
@pytest.mark.parametrize("command", ["verify", "fusion"])
def test_more_invariant_factors_than_the_cap_is_parse_error(
    command, count, cocycle_field, tmp_path, capsys
):
    # 32 factors of 1 keep the order at 1, but used to crash the kernels
    # with more than numpy's 64 array dimensions
    code, _, _ = _run_spec(command, _z2_spec_with_factors([1] * count, cocycle_field), tmp_path)
    assert code == cli.EXIT_PARSE
    err = capsys.readouterr().err
    assert err == f"error: {count} invariant factors exceed the table-cocycle cap 8\n"


@pytest.mark.parametrize("factors, message", [
    ([2**40], "group order 1099511627776 exceeds the table-cocycle cap 256"),
    ([2] * 9, "group order 512 exceeds the table-cocycle cap 256"),
], ids=["order", "factors"])
def test_table_spec_above_the_caps_is_refused_before_its_tables_are_read(
    factors, message, tmp_path, capsys, monkeypatch
):
    # a table spec on Z/2^40 used to end in an OverflowError traceback, exit 1
    monkeypatch.setattr(specio, "_parse_tables", lambda *a: pytest.fail("tables were read"))
    spec = {"schema_version": 1, "mode": "su2", "grading_group": factors,
            "cocycle": {"tables": {"f": {"1|1|1": "1/2"}}}}
    assert _run_spec("smatrix", spec, tmp_path)[0] == cli.EXIT_PARSE
    assert capsys.readouterr().err == f"error: {message}\n"


def test_eight_invariant_factors_verify(tmp_path, capsys):
    spec = _z2_spec_with_factors([1] * 7 + [2], {"builder": "trivial"})
    assert _run_spec("verify", spec, tmp_path)[0] == cli.EXIT_OK


def test_table_denominator_above_cap_is_parse_error(tmp_path, capsys):
    # this exponent used to raise OverflowError while filling the int64 tables
    path = tmp_path / "spec.json"
    spec = json.loads(fixture_path("z2-lattice-on-z4").read_text(encoding="utf-8"))
    spec["cocycle"] = {"tables": {"f": {"1|1|1": "1/18446744073709551629"}}}
    path.write_text(json.dumps(spec), encoding="utf-8")
    assert run_cli("verify", "--spec", str(path)) == cli.EXIT_PARSE
    assert "exceeds the cap MAX_DENOM" in capsys.readouterr().err


def test_table_spec_report_matches_golden(tmp_path, capsys):
    # F and Omega given as sparse exponents over 2, 3, 4 and 6, some unreduced
    out = tmp_path / "report.json"
    spec = GOLDEN_DIR / "specs" / "z4-coboundary-tables.json"
    assert run_cli("verify", "--spec", str(spec), "--seed", "0", "--out", str(out)) == cli.EXIT_OK
    assert out.read_bytes() == (GOLDEN_DIR / "z4-coboundary-tables.json").read_bytes()


def test_nonabelian_table_spec_report_matches_golden(tmp_path, capsys):
    # D_5 as a relabelled multiplication table with two-dimensional e(p/q)
    # irreps, graded by Z/2 at the identity: no bundled fixture is nonabelian
    # and given by a table
    out = tmp_path / "report.json"
    spec = GOLDEN_DIR / "specs" / "d5-table-z2.json"
    assert run_cli("verify", "--spec", str(spec), "--seed", "0", "--out", str(out)) == cli.EXIT_OK
    assert out.read_bytes() == (GOLDEN_DIR / "d5-table-z2.json").read_bytes()


def test_f42_permutation_spec_report_matches_golden(tmp_path, capsys):
    # F42 = Z/7 x| Z/6 from the permutations x+1 and 3x of Z/7, with six
    # characters and the induced 6-dim irrep, graded by Z/2 at the identity;
    # seed 2 samples (rho6, rho6, rho6), whose naturality cells are the largest
    out = tmp_path / "report.json"
    spec = GOLDEN_DIR / "specs" / "f42-z2.json"
    assert run_cli("verify", "--spec", str(spec), "--seed", "2", "--out", str(out)) == cli.EXIT_OK
    assert out.read_bytes() == (GOLDEN_DIR / "f42-z2-seed2.json").read_bytes()


def test_non_unitary_irrep_verifies_without_stderr(tmp_path, capsys):
    # rho1 conjugated by diag(2, 1): nothing downstream assumes unitary
    # matrices, and validation used to print a warning for it on exit 0
    spec = json.loads((GOLDEN_DIR / "specs" / "d5-table-z2.json").read_text(encoding="utf-8"))
    rho1 = next(item for item in spec["irreps"]["list"] if item["label"] == "rho1")
    rho1["matrices"][1] = [["0", "2"], ["0.5", "0"]]
    code, report, _ = _run_spec("verify", spec, tmp_path)
    assert code == cli.EXIT_OK and {v["status"] for v in report["verdicts"]} == {"pass"}
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("name", ["d4-centre-z2", "q8-identity-z2"])
def test_repeated_signature_report_matches_golden(name, tmp_path, capsys):
    # builtin d4 graded by its centre and q8 graded at the identity: several
    # irreps share a (grade, dim) signature, so the self-checks evaluate each
    # identity once per signature and read it back once per catalog tuple
    out = tmp_path / "report.json"
    spec = GOLDEN_DIR / "specs" / f"{name}.json"
    assert run_cli("verify", "--spec", str(spec), "--seed", "0", "--out", str(out)) == cli.EXIT_OK
    assert out.read_bytes() == (GOLDEN_DIR / f"{name}.json").read_bytes()


def test_irrep_above_the_dimension_bound_fails_irreps_valid(tmp_path, capsys):
    # a 2-dim rep of Z/2 (reducible, but a homomorphism): no irrep has
    # dim^2 > |G|, and the bound is checked before the batched products
    path = tmp_path / "spec.json"
    spec = json.loads(fixture_path("z2-lattice-on-z4").read_text(encoding="utf-8"))
    changes = _z2_table_irrep(matrices=[[["1", "0"], ["0", "-1"]]])
    path.write_text(json.dumps({**spec, **changes}), encoding="utf-8")
    assert run_cli("verify", "--spec", str(path)) == cli.EXIT_VALIDATION
    out = capsys.readouterr().out
    assert "FAIL  irreps-valid: dimension 2 is too large for an irrep: 2^2 > |G| = 2" in out


@pytest.mark.parametrize(
    "changes",
    [
        {**Z2_TABLE, "irreps": {**Z2_TABLE["irreps"], "generators": [-1]}},
        {**Z2_TABLE, "irreps": {**Z2_TABLE["irreps"], "generators": [99]}},
        {**Z2_TABLE, "group": {"permutation_generators": [[1, 2, 3, 4, 0], [1, 0, 2, 3, 4]]}},
    ],
    ids=["generator-index-negative", "generator-index-too-large", "s5"],
)
def test_bad_group_or_generators_fail_irreps_valid(changes, tmp_path, capsys):
    # -1 used to pass as the last element and 99 raised IndexError; a group
    # above MAX_GROUP_ORDER is refused before its table is built
    path = tmp_path / "spec.json"
    spec = json.loads(fixture_path("z2-lattice-on-z4").read_text(encoding="utf-8"))
    path.write_text(json.dumps({**spec, **changes}), encoding="utf-8")
    assert run_cli("verify", "--spec", str(path)) == cli.EXIT_VALIDATION
    out = capsys.readouterr().out
    assert "FAIL  irreps-valid: " in out
    assert "element index" in out or "MAX_GROUP_ORDER" in out


@pytest.mark.parametrize("name", ["z\u00b2", "z" + "7" * 5000], ids=["superscript", "long"])
def test_malformed_builtin_name_is_structural(name, tmp_path, capsys):
    # both passed str.isdigit and then raised ValueError from int(); the
    # name is refused while the spec is read, and echoed only in part
    path = tmp_path / "spec.json"
    spec = json.loads(fixture_path("z2-lattice-on-z4").read_text(encoding="utf-8"))
    path.write_text(json.dumps({**spec, "group": {"builtin": name}}), encoding="utf-8")
    for command in ("verify", "fusion"):
        assert run_cli(command, "--spec", str(path)) == cli.EXIT_PARSE
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("error: spec field 'group.builtin': unknown builtin group")
        assert len(err) < 200


@pytest.mark.parametrize(
    "argv",
    [
        ["monodromy", "--z1", "x,0", "--z2", "1,0", "--grades", "1|1|1"],
        ["monodromy", "--z1", "3,0", "--z2", "2,0", "--grades", "a|1|1"],
        ["monodromy", "--z1", "3,0", "--z2", "nan,0", "--grades", "1|1|1"],
        ["monodromy", "--path", "1,0; x,1", "--grades", "1|1"],
        ["monodromy", "--path", "1,0; inf,1", "--grades", "1|1"],
        ["monodromy", "--path", "1,0; 0,1", "--grades", "1,0|1"],
        # residues int() reads, as 3, 11 and 1
        ["monodromy", "--z1", "3,0", "--z2", "2,0", "--grades", "\u0663|1|1"],
        ["monodromy", "--z1", "3,0", "--z2", "2,0", "--grades", "1_1|1|1"],
        ["monodromy", "--z1", "3,0", "--z2", "2,0", "--grades", " 1 |1|1"],
        ["verify", "--seed", "-3"],
    ],
    ids=[
        "z1-unparseable", "grades-unparseable", "z2-nan", "path-unparseable", "path-infinite",
        "grades-wrong-rank", "grades-other-digits", "grades-underscore", "grades-spaces",
        "seed-negative",
    ],
)
def test_bad_cli_argument_is_parse_error(argv, capsys):
    assert run_cli(*argv, "--spec", "z2-lattice-on-z4") == cli.EXIT_PARSE
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: ")


@pytest.mark.parametrize(
    "argv",
    [
        ["verify"], ["smatrix"], ["fusion"],
        ["monodromy", "--z1=3,0", "--z2=2,0", "--grades=1|1|1"],
    ],
    ids=["verify", "smatrix", "fusion", "monodromy"],
)
def test_no_subcommand_takes_tolerance(argv, capsys):
    # every coherence check is exact, so verify has no tolerance to take either
    with pytest.raises(SystemExit) as exc:
        run_cli(*argv, "--spec", "q8-z2", "--tolerance", "0")
    assert exc.value.code == cli.EXIT_PARSE
    assert "unrecognized arguments: --tolerance" in capsys.readouterr().err


def _cyclic_spec(n, s):
    """Builtin Z/n graded by Z/n through 1, with the cyclic cocycle."""
    return {
        "schema_version": 1, "name": f"z{n}-cyclic-s{s}", "mode": "finite-group",
        "grading_group": [n], "cocycle": {"builder": "cyclic", "n": n, "s": s},
        "group": {"builtin": f"z{n}"}, "irreps": "builtin",
        # Z/1 has no element 1; its only element generates it
        "central_embedding": [1 % n], "complete": True,
    }


def _run_spec(command, spec, tmp_path):
    path, out = tmp_path / "spec.json", tmp_path / "report.json"
    path.write_text(json.dumps(spec), encoding="utf-8")
    code = run_cli(command, "--spec", str(path), "--out", str(out))
    return code, (json.loads(out.read_text()) if code in (0, 1) else None), path


def test_overflowing_irrep_matrices_fail_in_one_line(tmp_path, capsys):
    # chi1's generator 1e200 overflows at rho(2) = 1e400; generating and
    # validating it used to print numpy RuntimeWarnings before a nan verdict
    spec = {
        "schema_version": 1, "name": "z4-overflow", "mode": "finite-group",
        "grading_group": [2], "cocycle": {"builder": "cyclic", "n": 2, "s": 3},
        "group": {"builtin": "z4"},
        "irreps": {"generators": [1], "list": [
            {"label": f"chi{k}", "matrices": [[[entry]]]}
            for k, entry in enumerate(["1", "1e200", "-1", "-i"])
        ]},
        "central_embedding": [2], "complete": True,
    }
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec), encoding="utf-8")
    assert run_cli("verify", "--spec", str(path)) == cli.EXIT_VALIDATION
    out, err = capsys.readouterr()
    assert "  FAIL  irreps-valid: irrep 'chi1' has non-finite matrix entries\n" in out
    assert err == ""


def _entry_exponent(entry):
    """An S entry's root-of-unity exponent in [0, 1)."""
    if isinstance(entry, int):
        return Fraction(0) if entry > 0 else Fraction(1, 2)
    return Fraction(entry["exponent"])


@pytest.mark.parametrize("n, s", [(4, 1), (8, 2)])
@pytest.mark.parametrize("command", ["verify", "smatrix"])
def test_non_integral_s_entries_are_emitted_exactly(command, n, s, tmp_path, capsys):
    # both used to exit 3: "matrix entries deviate from integers by 1.00e+00"
    code, report, _ = _run_spec(command, _cyclic_spec(n, s), tmp_path)
    assert code == cli.EXIT_OK
    entries = report["tables"]["smatrix"]["entries"]
    # b(1, 1) = 2 s / (2 n), so the exponent of S(1, 1) is -s / n
    assert entries[1][1] == {"exponent": str(Fraction(-s, n) % 1), "magnitude": 1}


def test_cyclic_sweep_verifies_with_exact_s_exponents(tmp_path, capsys):
    for n in range(1, 9):
        for s in range(n * math.gcd(n, 2)):
            code, report, path = _run_spec("verify", _cyclic_spec(n, s), tmp_path)
            assert code == cli.EXIT_OK, (n, s)
            cat = load_spec(path).build_category()
            grades = [m.grade for m in cat.catalog]
            want = [[-oracles.b(cat.cocycle, a1, a2) % 1 for a2 in grades] for a1 in grades]
            entries = report["tables"]["smatrix"]["entries"]
            assert [[_entry_exponent(e) for e in row] for row in entries] == want, (n, s)


def test_exact_checks_pass_every_tolerance(tmp_path, capsys):
    # double-braiding used to read a float deviation of 1e-16 to 1e-15 on 64
    # of these 84 catalogs, and fail every tolerance below it; every
    # deviation is exactly 0
    path = tmp_path / "spec.json"
    for n in (3, 4, 5, 6, 7, 8, 9, 12):
        for s in range(n * math.gcd(n, 2)):
            path.write_text(json.dumps(_cyclic_spec(n, s)), encoding="utf-8")
            assert run_cli("verify", "--spec", str(path)) == cli.EXIT_OK, (n, s)
            out = capsys.readouterr().out
            assert "FAIL" not in out and "max deviation 0.00e+00" in out, (n, s)


def _table_spec(n, f_num, omega_num, denom, name):
    """Builtin Z/n graded by Z/n through 1, with the cocycle given as tables."""
    def entries(table):
        return {
            "|".join(map(str, key)): f"{int(v)}/{denom}"
            for key, v in np.ndenumerate(table) if v
        }
    spec = _cyclic_spec(n, 0)
    spec.update(name=name, cocycle={"tables": {"f": entries(f_num), "omega": entries(omega_num)}})
    return spec


@st.composite
def _twisted_cyclic(draw):
    n = draw(st.integers(1, 6))
    s = draw(st.integers(0, n * math.gcd(n, 2) - 1))
    q = draw(st.integers(2, 12))
    phi = np.zeros((n, n), dtype=np.int64)
    phi[1:, 1:] = np.array(
        draw(st.lists(st.integers(0, q - 1), min_size=(n - 1) ** 2, max_size=(n - 1) ** 2)),
        dtype=np.int64,
    ).reshape(n - 1, n - 1)
    return n, s, phi, q


@settings(max_examples=60, deadline=None)
@given(_twisted_cyclic())
def test_coboundary_leaves_verdicts_and_tables_unchanged(tmp_path_factory, case):
    n, s, phi, q = case
    tmp_path = tmp_path_factory.mktemp("coboundary")
    base = cocycle.build_cyclic(n, s)
    results = []
    for name, (f, w, denom) in [
        ("class", (base.f_num, base.omega_num, base.denom)),
        ("twisted", oracles.coboundary(base, phi, q)),
    ]:
        code, report, _ = _run_spec("verify", _table_spec(n, f, w, denom, name), tmp_path)
        statuses = [(v["check"], v["status"]) for v in report["verdicts"]]
        results.append((code, statuses, report["tables"]))
    assert results[0][0] == cli.EXIT_OK
    assert results[0] == results[1]


def test_unnormalized_coboundary_fails_normalization_alone(tmp_path, capsys):
    # a coboundary keeps the pentagon and both hexagons, whatever the cochain;
    # g(0, 1) = 1/4 makes F(0, 0, 1) = g(0, 1) - g(0, 0) nonzero, the first
    # cell in C order on an identity slice
    base = cocycle.build_cyclic(4, 1)
    phi = np.zeros((4, 4), dtype=np.int64)
    phi[1:, 1:] = np.random.default_rng(0).integers(0, 4, size=(3, 3))
    phi[0, 1] = 1
    path = tmp_path / "spec.json"
    spec = _table_spec(4, *oracles.coboundary(base, phi, 4), "z4-unnormalized")
    path.write_text(json.dumps(spec), encoding="utf-8")
    witness = "((0,), (0,), (1,))"
    for argv in (["fusion"], ["smatrix"], ["monodromy", "--z1=3,0", "--z2=2,0", "--grades=1|1|1"]):
        assert run_cli(*argv, "--spec", str(path)) == cli.EXIT_VALIDATION, argv
        assert capsys.readouterr().err == (
            f"validation failure: cocycle tables violate the normalization axiom at {witness}\n"
        ), argv
    report = tmp_path / "report.json"
    assert run_cli("verify", "--spec", str(path), "--out", str(report)) == cli.EXIT_VALIDATION
    (verdict,) = json.loads(report.read_text())["verdicts"]
    assert verdict["check"] == "cocycle-axioms" and verdict["status"] == "fail"
    detail = verdict["detail"]
    assert detail.startswith("FAIL  normalization: ") and f"first failing witness {witness}" in detail
    assert "pentagon" not in detail and "hexagon" not in detail


@pytest.mark.parametrize("key, witness, hexagon", [
    ("1|0", "((1,), (0,))", "hexagon-2: 8 tuples checked, first failing witness ((1,), (0,), (0,))"),
    ("0|1", "((0,), (1,))", "hexagon-1: 8 tuples checked, first failing witness ((0,), (0,), (1,))"),
], ids=["omega-a-0", "omega-0-a"])
def test_omega_off_the_identity_fails_normalization_at_its_cell(
    key, witness, hexagon, tmp_path, capsys
):
    # normalization's Omega(., 0) and Omega(0, .) witnesses, F being 0
    spec = json.loads(fixture_path("z2-lattice-on-z4").read_text(encoding="utf-8"))
    spec["cocycle"] = {"tables": {"omega": {key: "1/2"}}}
    code, report, _ = _run_spec("verify", spec, tmp_path)
    assert code == cli.EXIT_VALIDATION and capsys.readouterr().err == ""
    assert report["verdicts"] == [{
        "check": "cocycle-axioms", "status": "fail",
        "detail": f"FAIL  {hexagon}; FAIL  normalization: 8 tuples checked, first failing "
        f"witness {witness} (F on identity slices and Omega(.,0), Omega(0,.))",
    }]


def test_builtin_irreps_on_a_table_group_is_refused_per_command(tmp_path, capsys):
    # verify keeps the cocycle's verdict, fusion and smatrix stop, and
    # monodromy builds no category
    spec = json.loads(fixture_path("z2-lattice-on-z4").read_text(encoding="utf-8"))
    spec.update(group={"table": [[0, 1], [1, 0]]}, irreps="builtin", central_embedding=[1])
    message = "'irreps': 'builtin' requires a builtin group"
    code, report, path = _run_spec("verify", spec, tmp_path)
    assert code == cli.EXIT_VALIDATION
    verdicts = {v["check"]: v for v in report["verdicts"]}
    assert verdicts["irreps-valid"] == {"check": "irreps-valid", "status": "fail", "detail": message}
    capsys.readouterr()
    for command in ("fusion", "smatrix"):
        assert run_cli(command, "--spec", str(path)) == cli.EXIT_PARSE
        assert capsys.readouterr() == ("", f"error: {message}\n")
    query = ["--z1", "3,0", "--z2", "2,0", "--grades", "1|1|1"]
    assert run_cli("monodromy", "--spec", str(path), *query) == cli.EXIT_OK


def test_a_library_fault_fails_verify_with_its_witness(monkeypatch, tmp_path, capsys):
    # a flip whose rows are rolled by one is not undone by the flip back
    flip = modcat.flip_matrix
    monkeypatch.setattr(modcat, "flip_matrix", lambda d1, d2: np.roll(flip(d1, d2), 1, 0))
    out = tmp_path / "report.json"
    assert run_cli("verify", "--spec", "s3-trivial-grading", "--out", str(out)) == 1
    verdicts = {v["check"]: v for v in json.loads(out.read_text())["verdicts"]}
    assert verdicts["coherence:double-braiding"] == {
        "check": "coherence:double-braiding", "status": "fail",
        "detail": "9 tuples, max deviation 1.00e+00, witness ('standard', 'standard')",
    }


def test_twist_is_minus_q_and_coboundary_invariant():
    # Z/n graded by Z/n through 1: chi_k has grade k, and build_cyclic's closed
    # form gives q(k) = s k^2 / d with d = n gcd(n, 2), so theta = e(-s k^2 / d)
    rng = np.random.default_rng(0)
    for n in range(1, 9):
        zn = builtin_catalog(f"z{n}")
        d = n * math.gcd(n, 2)
        for s in range(d):
            base = cocycle.build_cyclic(n, s)
            phi = np.zeros((n, n), dtype=np.int64)
            phi[1:, 1:] = rng.integers(0, 12, size=(n - 1, n - 1))
            twisted = AbelianCocycle(base.group, *oracles.coboundary(base, phi, 12))
            for c in (base, twisted):
                cat = modcat.TwistedCategory(zn, c, CentralEmbedding(c.group, (1 % n,)))
                for m in cat.catalog:
                    (k,) = m.grade
                    assert cat.twist(m).exponent == Fraction(-s * k * k, d) % 1, (n, s, k)


def _zn_table_spec(n, s, label, order):
    """Z/n as a group table with the irreps ``chi_k = e(k/n)`` on the generator,
    graded by Z/2 through ``n/2`` (so ``chi_k`` has grade ``k mod 2``) with the
    cyclic cocycle ``s``.  Element ``i`` is written as ``label[i]``, and the
    irreps are listed in ``order``."""
    table = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            table[label[i]][label[j]] = label[(i + j) % n]
    return {
        "schema_version": 1, "name": f"z{n}-table", "mode": "finite-group",
        "grading_group": [2], "cocycle": {"builder": "cyclic", "n": 2, "s": s},
        "group": {"table": table},
        "irreps": {
            "generators": [label[1]],
            "list": [{"label": f"chi{k}", "matrices": [[[f"e({k}/{n})"]]]} for k in order],
        },
        "central_embedding": [label[n // 2]], "complete": True,
    }


@st.composite
def _relabelled_zn(draw):
    n = 2 * draw(st.integers(1, 4))
    s = draw(st.integers(0, 3))
    return n, s, draw(st.permutations(range(n))), draw(st.permutations(range(n)))


@settings(max_examples=40, deadline=None)
@given(_relabelled_zn())
def test_relabelling_leaves_verdicts_and_permutes_tables(tmp_path_factory, case):
    n, s, label, order = case
    tmp_path = tmp_path_factory.mktemp("relabel")
    results = []
    for spec in [
        _zn_table_spec(n, s, range(n), range(n)),
        _zn_table_spec(n, s, label, range(n)),  # element labels permuted
        _zn_table_spec(n, s, range(n), order),  # irreps listed in another order
    ]:
        code, report, _ = _run_spec("verify", spec, tmp_path)
        statuses = [(v["check"], v["status"]) for v in report["verdicts"]]
        results.append((code, statuses, report["tables"]))
    assert results[0][0] == cli.EXIT_OK
    assert results[1] == results[0]
    (_, statuses, tables), (code, reordered_statuses, reordered) = results[0], results[2]
    assert (code, reordered_statuses) == (cli.EXIT_OK, statuses)
    labels = [f"chi{k}" for k in order]
    fusion, smatrix = tables["fusion"], tables["smatrix"]
    assert reordered["fusion"] == {
        "labels": labels,
        "dims": [fusion["dims"][k] for k in order],
        "coefficients": fusion["coefficients"],  # keyed by label
    }
    assert reordered["smatrix"] == {
        "labels": labels,
        "entries": [[smatrix["entries"][i][j] for j in order] for i in order],
    }
