"""The spec table path: sparse exponent entries to arrays, through the one
bulk reader ``specio._parse_tables``; and the su2 mode's refusals, which the
reader owns."""

import json
import random
import re
import tracemalloc
from fractions import Fraction
from math import gcd, lcm

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twistcat import specio
from twistcat.abgroup import FinAbGroup
from twistcat.cocycle import AbelianCocycle, build_cyclic, validate_cocycle
from twistcat.errors import CocycleError, StructuralError
from twistcat.fusionring import dim_exponents
from twistcat.specio import CategorySpec, _parse_cocycle

import oracles

GROUPS = [(n,) for n in range(1, 13)] + [
    (a, b) for a in range(2, 7) for b in range(2, 7) if a * b <= 12
]


def _valid_tables(draw, factors):
    """Numerator arrays and denominator of a valid cocycle on ``factors``."""
    if len(factors) == 1:
        n = factors[0]
        c = build_cyclic(n, draw(st.integers(0, 2 * n * n)))
        return c.f_num, c.omega_num, c.denom
    # F = 1 and Omega a bicharacter: sum_ij B_ij x_i y_j / gcd(n_i, n_j)
    gcds = [[gcd(x, y) for y in factors] for x in factors]
    denom = lcm(*gcds[0], *gcds[1])
    xy = np.array(list(FinAbGroup(factors).elements()))
    w = sum(
        draw(st.integers(0, gcds[i][j] - 1)) * (denom // gcds[i][j]) * np.outer(xy[:, i], xy[:, j])
        for i in range(2)
        for j in range(2)
    )
    m = len(xy)
    return np.zeros((m, m, m), dtype=np.int64), w % denom, denom


@st.composite
def table_specs(draw):
    """A ``cocycle.tables`` config, its group, whether it may be broken, and
    whether its keys are canonical.

    Entries of a valid cocycle are written with unreduced exponents.  Keys
    are canonical (reduced residues, no decoys, the form the builders write)
    or unreduced.  Unreduced unbroken specs also carry decoy keys
    that reduce to a later entry's element, so the later value must win.
    Broken specs drop entries, and unreduced ones add decoys anywhere.
    """
    factors = draw(st.sampled_from(GROUPS))
    f, w, denom = _valid_tables(draw, factors)
    rnd = random.Random(draw(st.integers(0, 2**32 - 1)))  # bulk choices, cheaper than draws
    broken, canonical = draw(st.booleans()), draw(st.booleans())
    shift = 0 if canonical else 1
    elts = list(FinAbGroup(factors).elements())

    def key(idx, lo, hi):
        return "|".join(
            ",".join(str(r + n * rnd.randint(lo, hi)) for r, n in zip(elts[i], factors))
            for i in idx
        )

    def value(num):
        scale = rnd.randint(1, 3)
        return f"{(num + denom * rnd.randint(-2, 2)) * scale}/{denom * scale}"

    tables = {}
    for name, table in (("f", f), ("omega", w)):
        entries = []
        for idx in zip(*np.nonzero(table)):
            if broken and rnd.random() < 0.05:
                continue  # dropped entry
            if not canonical and rnd.random() < 0.2:
                entries.append((key(idx, -2, -1), value(rnd.randrange(denom))))
            entries.append((key(idx, 0, shift), value(int(table[idx]))))
        if broken and not canonical:
            for _ in range(rnd.randint(0, 3)):
                idx = [rnd.randrange(len(elts)) for _ in range(table.ndim)]
                decoy = (key(idx, -2, 2), f"{rnd.randint(-20, 20)}/{rnd.randint(1, 12)}")
                entries.insert(rnd.randint(0, len(entries)), decoy)
        tables[name] = dict(entries)
    return factors, tables, broken, canonical


@settings(max_examples=80, deadline=None)
@given(table_specs())
def test_table_spec_path_matches_given_exponents(drawn):
    factors, tables, broken, canonical = drawn
    group = FinAbGroup(factors)
    m = group.order
    # reference: the last entry per reduced key wins; omitted entries are 0
    expected = {}
    for name, arity in (("f", 3), ("omega", 2)):
        exps = expected[name] = {}
        for text, value in tables[name].items():
            elts = tuple(
                tuple(int(r) % n for r, n in zip(part.split(","), factors))
                for part in text.split("|")
            )
            assert len(elts) == arity
            exps[elts] = Fraction(value) % 1
    denom = lcm(1, *(x.denominator for exps in expected.values() for x in exps.values()))

    source = _parse_cocycle({"tables": tables}, group)
    spec = CategorySpec("h", "finite-group", None, group, source)
    try:
        c = spec.build_cocycle()
    except CocycleError as exc:
        f_num, omega_num = np.zeros((m, m, m), dtype=np.int64), np.zeros((m, m), dtype=np.int64)
        for table, exps in ((f_num, expected["f"]), (omega_num, expected["omega"])):
            for elts, x in exps.items():
                table[tuple(group.index(a) for a in elts)] = x.numerator * (denom // x.denominator)
        report = validate_cocycle(AbelianCocycle(group, f_num, omega_num, denom))
        assert broken and not report.passed
        assert exc.report == report
        first = report.failures()[0]
        assert str(exc) == f"cocycle tables violate the {first.axiom} axiom at {first.witness}"
        return
    assert c.denom == denom
    for a1 in group.elements():
        for a2 in group.elements():
            assert oracles.omega(c, a1, a2) == expected["omega"].get((a1, a2), 0)
            for a3 in group.elements():
                assert oracles.f(c, a1, a2, a3) == expected["f"].get((a1, a2, a3), 0)
    # a valid cocycle leaves every categorical dimension equal to the ordinary one
    assert not dim_exponents(c).any()


def _tables(tables, factors=(2,)):
    """``_parse_tables`` of ``tables``: per table the flat indices and the
    exponents their entries read, and the exponents list."""
    f, omega, exponents = specio._parse_tables(tables, FinAbGroup(factors))
    return [(flat.tolist(), [exponents[i] for i in ids]) for flat, ids in (f, omega)], exponents


def _refused(tables, message, factors=(2,)):
    with pytest.raises(StructuralError, match=f"^{re.escape(message)}$"):
        specio._parse_tables(tables, FinAbGroup(factors))


def test_misaligned_keys_are_refused_at_the_first():
    # 4 + 2 parts split into two 3-part keys when the keys are joined, so the
    # bulk reader counts each key's parts before it splits them
    message = "spec field 'cocycle.tables.f.{}' must key 3 elements joined by '|'"
    for keys, first in [
        (["1|1|1|1", "1|1"], "1|1|1|1"),
        (["1|1", "1|1|1|1"], "1|1"),
        (["1|1|1", "1|1|1|1"], "1|1|1|1"),  # a trailing extra part
        (["0|1|1", "1|1|1|1", "1|1"], "1|1|1|1"),
    ]:
        _refused({"f": dict.fromkeys(keys, "1/2")}, message.format(first))


def test_later_key_for_the_same_element_wins():
    # canonical '1|1' and unreduced '5|1' name the same cell of Omega on Z/4
    half, quarter = Fraction(1, 2), Fraction(1, 4)
    for entries, value in [({"1|1": "1/4", "5|1": "1/2"}, half),
                           ({"5|1": "1/2", "1|1": "1/4"}, quarter)]:
        assert _tables({"omega": entries}, (4,))[0][1] == ([5], [value])


@pytest.mark.parametrize("part", ["\u0663", "1_1", " 1 "])
def test_a_residue_is_ascii_digits_with_an_optional_sign(part):
    # int() reads these as 3, 11 and 1; a key part reads only the
    # exponent's integer form, so each names its key
    key = f"{part}|1"
    _refused({"omega": {"1|1": "1/4", key: "1/2"}},
             f"spec field 'cocycle.tables.omega.{key}' must be residues of Z/4 joined by ',', "
             f"got {part!r}", (4,))


def test_string_then_boolean_exponent_is_refused():
    _refused({"f": {"1|1|1": "1", "1|1|0": True}},
             "spec field 'cocycle.tables.f.1|1|0' must be a rational exponent, got True")


def test_exponent_string_shared_by_both_tables_is_parsed_once():
    (f, omega), exponents = _tables({"f": {"1|1|1": "1/2"}, "omega": {"1|1": "1/2"}})
    assert f == ([7], [Fraction(1, 2)]) and omega == ([3], [Fraction(1, 2)])
    assert exponents == [Fraction(1, 2)]


def test_empty_f_table():
    tables = {"f": {}, "omega": {"1|1": "1/2"}}
    assert _tables(tables)[0] == [([], []), ([3], [Fraction(1, 2)])]
    group = FinAbGroup((2,))
    spec = CategorySpec("e", "su2", None, group, _parse_cocycle({"tables": tables}, group))
    c = spec.build_cocycle()
    assert c.denom == 2 and c.omega_num.tolist() == [[0, 0], [0, 1]] and not c.f_num.any()


def test_bad_exponent_after_many_good_entries_is_named():
    keys = ["|".join(map(str, (i // 576, i // 24 % 24, i % 24))) for i in range(10_001)]
    tables = {"f": dict.fromkeys(keys, "1/3"), "omega": {"1|1": "1/3"}}
    tables["f"][keys[-1]] = "1/0"
    _refused(tables, f"spec field 'cocycle.tables.f.{keys[-1]}' must be a rational exponent, "
             "got '1/0'", (24,))
    del tables["f"][keys[-1]]
    (f, omega), _ = _tables(tables, (24,))
    assert f[0] == list(range(10_000)) and omega[0] == [25]


def test_a_bad_part_is_named_before_a_bad_exponent_of_its_entry():
    # each entry is checked as its arity, then its parts, then its value
    _refused({"f": {"1|x|1": "1/0", "1|1|1": "1/2"}},
             "spec field 'cocycle.tables.f.1|x|1' must be residues of Z/2 joined by ',', got 'x'")


def test_tables_above_the_order_cap_are_refused_at_load(monkeypatch):
    # the reader enumerates the group's elements, so the caps come first
    monkeypatch.setattr(specio, "_parse_tables", lambda *a: pytest.fail("tables were read"))
    for factors, message in [((300,), "group order 300 exceeds the table-cocycle cap 256"),
                             ((1,) * 9, "9 invariant factors exceed the table-cocycle cap 8")]:
        with pytest.raises(StructuralError, match=f"^{re.escape(message)}$"):
            _parse_cocycle({"tables": {"f": {"1|1|1": "1/2"}}}, FinAbGroup(factors))


def test_bulk_reader_holds_one_chunk_of_key_parts():
    # a dense F table of several chunks, with canonical keys and with the
    # first part unreduced: a per-entry walk peaked at 83 and 89 bytes per
    # entry here, and splitting every key at once at 188
    n = 40
    group = FinAbGroup((n,))
    for shift in (0, n):
        tables = {"f": {f"{a + shift}|{b}|{c}": "1/2"
                        for a in range(n) for b in range(n) for c in range(n)}}
        assert len(tables["f"]) > 7 * specio._CHUNK_KEYS
        tracemalloc.start()
        try:
            f, _, _ = specio._parse_tables(tables, group)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(f[0], np.arange(n**3))
        assert peak < 64 * len(tables["f"]), shift


def _su2_spec_file(tmp_path, **fields):
    """An su2 spec file of the lattice cocycle up to spin 3, ``fields`` replaced."""
    spec = {
        "schema_version": 1, "name": "su2", "mode": "su2", "grading_group": [2],
        "cocycle": {"builder": "cyclic", "n": 2, "s": 3}, "max_spin": 3, **fields,
    }
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec), encoding="utf-8")
    return path


@pytest.mark.parametrize(
    "grading, cocycle",
    [
        ([3], {"builder": "cyclic", "n": 3, "s": 1}),
        ([1, 2], {"builder": "trivial"}),
        ([4], {"tables": {"omega": {"1|1": "1/3"}}}),
    ],
    ids=["z3-cyclic", "z1xz2-trivial", "z4-invalid-table"],
)
def test_su2_spec_needs_a_z2_grading(grading, cocycle, tmp_path):
    # su2_ring used to refuse these once the cocycle was built and
    # validated; now the reader does, and builds no cocycle
    path = _su2_spec_file(tmp_path, grading_group=grading, cocycle=cocycle)
    message = f"spec field 'grading_group' must be [2] in su2 mode, got {grading}"
    with pytest.raises(StructuralError, match=f"^{re.escape(message)}$"):
        specio.load_spec(path)
    assert specio.load_spec(_su2_spec_file(tmp_path)).grading.factors == (2,)


@pytest.mark.parametrize("max_spin", [-1, 65])
def test_su2_spin_cap_has_one_message(max_spin, tmp_path):
    # su2_spec, behind smatrix --su2, used to leave the cap to su2_ring's
    # "max_spin must be between 0 and 64"
    message = f"spec field 'max_spin' must be an integer in [0, 65), got {max_spin}"
    path = _su2_spec_file(tmp_path, max_spin=max_spin)
    for read in (lambda: specio.load_spec(path), lambda: specio.su2_spec(max_spin, 3)):
        with pytest.raises(StructuralError, match=f"^{re.escape(message)}$"):
            read()
    top = _su2_spec_file(tmp_path, max_spin=64)
    assert specio.su2_spec(64, 3).max_spin == specio.load_spec(top).max_spin == 64
