"""End-to-end acceptance suite: one criterion per test, each printing a
verdict line (run with ``pytest tests/test_acceptance.py -v -s``)."""

import json
import time
from itertools import product

import numpy as np
import pytest

from twistcat import cli
from twistcat.branchcut import assoc_scalar, branch_integers, clockwise_unit_loop, transport_scalar
from twistcat.cocycle import build_cyclic, validate_cocycle
from twistcat.fusionring import dim_exponents, fusion_table, su2_s_table, su2_spins
from twistcat.specio import load_spec
from twistcat.unitscalar import UnitScalar, root_of_unity

import oracles

FINITE_FIXTURES = ("z2-lattice-on-z4", "super-on-z4", "s3-trivial-grading", "q8-z2")


def _verdict(num: int, name: str, passed: bool, detail: str = "") -> None:
    status = "PASS" if passed else "FAIL"
    line = f"ACCEPTANCE {num} ({name}): {status}"
    if detail:
        line += f": {detail}"
    print(line)
    assert passed, line


def test_criterion_1_cocycle_axiom_sweep():
    start = time.monotonic()
    failures = []
    total = 0
    for n in range(1, 13):
        for s in range(n * n):
            total += 1
            report = validate_cocycle(build_cyclic(n, s))
            if not report.passed:
                failures.append((n, s, report.failures()[0].axiom))
    elapsed = time.monotonic() - start
    _verdict(
        1, "cocycle axioms",
        not failures and elapsed < 60.0,
        f"{total} cyclic cocycles, exact arithmetic, {elapsed:.1f}s",
    )


def test_criterion_2_reference_cocycle_values():
    lattice = build_cyclic(2, 3)
    super_cocycle = build_cyclic(2, 2)
    ok = (
        UnitScalar(oracles.f(lattice, (1,), (1,), (1,))).to_complex() == -1
        and UnitScalar(oracles.omega(lattice, (1,), (1,))).to_complex() == -1j
        and (super_cocycle.f_num == 0).all()
        and UnitScalar(oracles.omega(super_cocycle, (1,), (1,))).to_complex() == -1
    )
    _verdict(2, "reference cocycle values", ok, "F(1,1,1) = -1, Omega(1,1) = -i; super F = 1, Omega(1,1) = -1")


def test_criterion_3_su2_smatrix():
    num, mag = su2_s_table(su2_spins(10), build_cyclic(2, 3))
    s = np.where(num == 0, mag, -mag)
    ok = all(s[m, n] == (-1) ** (m * n) * (m + 1) * (n + 1) for m, n in np.ndindex(s.shape))
    _verdict(3, "S-matrix closed form", ok, "S_mn = (-1)^{mn}(m+1)(n+1) exactly, 0 <= m,n <= 10")


def test_criterion_4_categorical_dimensions():
    ok = True
    details = []
    for name in FINITE_FIXTURES:
        cat = load_spec(name).build_category()
        x, denom = dim_exponents(cat.cocycle), cat.cocycle.denom
        for m in cat.catalog:
            value = m.dim * root_of_unity(int(x[cat.grading.index(m.grade)]), denom)
            if abs(value - m.dim) > 1e-9:
                ok = False
    su2_spec = load_spec("su2-lattice")
    cocycle = su2_spec.build_cocycle()
    for n in range(su2_spec.max_spin + 1):
        if dim_exponents(cocycle)[n % 2] != 0:
            ok = False
    for name, expected in [("s3-trivial-grading", 6), ("q8-z2", 8), ("z2-lattice-on-z4", 4)]:
        cat = load_spec(name).build_category()
        value = oracles.dim_sum(cat, dim_exponents(cat.cocycle))
        details.append(f"{name}: {value}")
        if value != expected:
            ok = False
    _verdict(4, "categorical dimension", ok, "; ".join(details))


def test_criterion_5_matrix_coherence(tmp_path, capsys):
    ok = True
    for name in FINITE_FIXTURES:
        report = load_spec(name).build_category().coherence_suite()
        if not report.passed:
            ok = False
    su2_ok = validate_cocycle(load_spec("su2-lattice").build_cocycle()).passed
    code = cli.main(["verify", "--spec", "z2-lattice-on-z4-broken"])
    out = capsys.readouterr().out
    witness_printed = "witness ((1,), (1,), (1,))" in out
    with capsys.disabled():
        _verdict(
            5, "matrix coherence",
            ok and su2_ok and code == 1 and witness_printed,
            "pentagon/triangle/hexagons/snakes/balancing/twist-dual hold exactly; "
            "mutated fixture fails with printed witness",
        )


def test_criterion_6_fusion_cross_validation():
    ok = True
    for name in ("s3-trivial-grading", "q8-z2"):
        cat = load_spec(name).build_category()
        table = fusion_table(cat)
        members = cat.catalog
        for a, b, c in product(range(len(members)), repeat=3):
            n = oracles.hom_dim(
                cat.group, members[a].character, members[b].character, members[c].character
            )
            rank = len(oracles.intertwiner_basis(
                [members[a].rep], [members[b].rep], [members[c].rep], expected=[n]
            )[0])
            if rank != int(table.coefficients[a, b, c]):
                ok = False
        table.check_associativity()
    _verdict(6, "fusion cross-validation", ok, "character sums equal projector ranks; associativity exhaustive")


def test_criterion_7_monodromy():
    lattice = build_cyclic(2, 3)
    grades = list(lattice.group.elements())
    rng = np.random.default_rng(0)
    ok = True
    for _ in range(10_000):
        r1 = float(rng.uniform(0.1, 10.0))
        r2 = float(rng.uniform(0.5 * r1, r1))
        if branch_integers(r1, r2) != (0, 0):
            ok = False
            break
        a1, a2, a3 = (grades[int(i)] for i in rng.integers(0, len(grades), 3))
        f_inv = UnitScalar(-oracles.f(lattice, a1, a2, a3))
        if assoc_scalar(lattice, r1, r2, a1, a2, a3) != f_inv:
            ok = False
            break
    loop = clockwise_unit_loop()
    for name in FINITE_FIXTURES:
        cat = load_spec(name).build_category()
        for m, n in product(cat.catalog, repeat=2):
            transport = transport_scalar(cat.cocycle, loop, m.grade, n.grade)
            composed = cat.braiding(n, m) @ cat.braiding(m, n)
            if np.abs(composed - transport.to_complex() * np.eye(m.dim * n.dim)).max() > 1e-9:
                ok = False
    su2_cocycle = load_spec("su2-lattice").build_cocycle()
    for a1 in grades:
        for a2 in grades:
            transport = transport_scalar(su2_cocycle, loop, a1, a2)
            composed = -oracles.omega(su2_cocycle, a1, a2) - oracles.omega(su2_cocycle, a2, a1)
            if transport != UnitScalar(composed):
                ok = False
    _verdict(
        7, "monodromy", ok,
        "10^4 seeded positive-real pairs give p = 0 and scalar = F^-1; "
        "clockwise-loop transport equals the composed double braiding on every fixture",
    )


def test_criterion_8_determinism(tmp_path, capsys):
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    code1 = cli.main(["verify", "--spec", "z2-lattice-on-z4", "--seed", "7", "--out", str(out1)])
    code2 = cli.main(["verify", "--spec", "z2-lattice-on-z4", "--seed", "7", "--out", str(out2)])
    capsys.readouterr()
    identical = out1.read_bytes() == out2.read_bytes()
    with capsys.disabled():
        _verdict(
            8, "determinism",
            code1 == 0 and code2 == 0 and identical,
            "byte-identical machine-readable reports for a fixed fixture and seed",
        )
