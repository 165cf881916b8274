import json
from pathlib import Path

import pytest

from twistcat import cli, cocycle, modcat
from twistcat.errors import StructuralError
from twistcat.specio import BUNDLED_FIXTURES, fixture_path, load_spec, parse_matrix_entry

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


def test_missing_spec_is_parse_error(capsys):
    assert run_cli("verify", "--spec", "/nonexistent/path.json") == 2


def test_malformed_json_is_parse_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    assert run_cli("verify", "--spec", str(bad)) == 2


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
    monkeypatch.setattr(modcat, "validate_cocycle", counting)
    assert run_cli("verify", "--spec", "z2-lattice-on-z4") == 0
    assert len(calls) == 1


def test_parse_matrix_entry():
    assert parse_matrix_entry("1+0i") == 1
    assert parse_matrix_entry("-0.5+0.25i") == complex(-0.5, 0.25)
    assert parse_matrix_entry("e(1/4)") == 1j
    assert parse_matrix_entry("e(1/2)") == -1
    with pytest.raises(StructuralError):
        parse_matrix_entry("one")


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
    assert cocycle.omega((1,), (1,)).to_complex() == -1j


def test_human_and_machine_verdicts_agree(tmp_path, capsys):
    out = tmp_path / "r.json"
    run_cli("verify", "--spec", "s3-trivial-grading", "--out", str(out))
    human = capsys.readouterr().out
    payload = json.loads(out.read_text())
    for verdict in payload["verdicts"]:
        assert verdict["check"] in human
        assert verdict["status"] == "pass"


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
    ],
    ids=[
        "cyclic-without-n", "irreps-without-list", "grading-group-string", "zero-denominator",
        "cocycle-number", "tables-number", "f-table-list", "non-integer-residue",
        "group-number", "irrep-without-matrices", "embedding-string", "max-spin-string",
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


def test_trivial_builder_above_table_cap_is_parse_error(tmp_path, capsys):
    path = tmp_path / "spec.json"
    spec = json.loads(fixture_path("z2-lattice-on-z4").read_text(encoding="utf-8"))
    spec.update(grading_group=[300], cocycle={"builder": "trivial"})
    path.write_text(json.dumps(spec), encoding="utf-8")
    assert run_cli("verify", "--spec", str(path)) == cli.EXIT_PARSE
    assert "exceeds the table-cocycle cap" in capsys.readouterr().err


def test_table_spec_report_matches_golden(tmp_path, capsys):
    # F and Omega given as sparse exponents over 2, 3, 4 and 6, some unreduced
    out = tmp_path / "report.json"
    spec = GOLDEN_DIR / "specs" / "z4-coboundary-tables.json"
    assert run_cli("verify", "--spec", str(spec), "--seed", "0", "--out", str(out)) == cli.EXIT_OK
    assert out.read_bytes() == (GOLDEN_DIR / "z4-coboundary-tables.json").read_bytes()
