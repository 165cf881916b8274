import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


@pytest.mark.parametrize(
    "data",
    [b"\xff{}", b'{"schema_version": 1' + b"0" * 5000 + b"}", b"[" * 100000 + b"]" * 100000],
    ids=["not-utf8", "integer-literal-too-long", "nested-too-deep"],
)
def test_unreadable_spec_is_parse_error(data, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_bytes(data)
    assert run_cli("verify", "--spec", str(bad)) == cli.EXIT_PARSE
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: spec file ")


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
    ],
    ids=[
        "subnormal-point", "subnormal-path", "huge-path", "huge-points-outside-region",
        "moduli-past-the-float-range",
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
    ],
    ids=["all-irreps", "one-irrep-dropped"],
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
    assert run_cli("fusion", "--spec", str(path)) == cli.EXIT_PARSE


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


@pytest.mark.parametrize(
    "changes",
    [
        {**Z2_TABLE, "irreps": {**Z2_TABLE["irreps"], "generators": [-1]}},
        {**Z2_TABLE, "irreps": {**Z2_TABLE["irreps"], "generators": [99]}},
        {"group": {"builtin": "z65"}},
        {**Z2_TABLE, "group": {"permutation_generators": [[1, 2, 3, 4, 0], [1, 0, 2, 3, 4]]}},
    ],
    ids=["generator-index-negative", "generator-index-too-large", "builtin-above-cap", "s5"],
)
def test_bad_group_or_generators_fail_irreps_valid(changes, tmp_path, capsys):
    # -1 used to pass as the last element and 99 raised IndexError; the
    # groups above MAX_GROUP_ORDER are refused before their tables are built
    path = tmp_path / "spec.json"
    spec = json.loads(fixture_path("z2-lattice-on-z4").read_text(encoding="utf-8"))
    path.write_text(json.dumps({**spec, **changes}), encoding="utf-8")
    assert run_cli("verify", "--spec", str(path)) == cli.EXIT_VALIDATION
    out = capsys.readouterr().out
    assert "FAIL  irreps-valid: " in out
    assert "element index" in out or "MAX_GROUP_ORDER" in out


@pytest.mark.parametrize("name", ["z\u00b2", "z" + "7" * 5000], ids=["superscript", "long"])
def test_malformed_builtin_name_is_structural(name, tmp_path, capsys):
    # both passed str.isdigit and then raised ValueError from int()
    path = tmp_path / "spec.json"
    spec = json.loads(fixture_path("z2-lattice-on-z4").read_text(encoding="utf-8"))
    path.write_text(json.dumps({**spec, "group": {"builtin": name}}), encoding="utf-8")
    assert run_cli("verify", "--spec", str(path)) == cli.EXIT_VALIDATION
    assert "FAIL  irreps-valid: unknown builtin group" in capsys.readouterr().out
    assert run_cli("fusion", "--spec", str(path)) == cli.EXIT_PARSE
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: unknown builtin group")


@pytest.mark.parametrize(
    "argv",
    [
        ["monodromy", "--z1", "x,0", "--z2", "1,0", "--grades", "1|1|1"],
        ["monodromy", "--z1", "3,0", "--z2", "2,0", "--grades", "a|1|1"],
        ["monodromy", "--z1", "3,0", "--z2", "nan,0", "--grades", "1|1|1"],
        ["monodromy", "--path", "1,0; x,1", "--grades", "1|1"],
        ["monodromy", "--path", "1,0; inf,1", "--grades", "1|1"],
        ["monodromy", "--path", "1,0; 0,1", "--grades", "1,0|1"],
        ["verify", "--seed", "-3"],
        ["verify", "--tolerance", "-1"],
        ["verify", "--tolerance", "nan"],
        ["verify", "--tolerance", "inf"],
    ],
    ids=[
        "z1-unparseable", "grades-unparseable", "z2-nan", "path-unparseable", "path-infinite",
        "grades-wrong-rank", "seed-negative", "tolerance-negative", "tolerance-nan",
        "tolerance-infinite",
    ],
)
def test_bad_cli_argument_is_parse_error(argv, capsys):
    assert run_cli(*argv, "--spec", "z2-lattice-on-z4") == cli.EXIT_PARSE
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: ")
