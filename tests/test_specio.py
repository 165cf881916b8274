"""Property test of the spec table path: sparse exponent entries to arrays."""

import random
from fractions import Fraction
from math import gcd, lcm

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from twistcat.abgroup import FinAbGroup
from twistcat.cocycle import AbelianCocycle, build_cyclic, validate_cocycle
from twistcat.errors import CocycleError
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
    """A ``cocycle.tables`` config, its group, and whether it may be broken.

    Entries of a valid cocycle are written with unreduced residues and
    exponents.  Unbroken specs also carry decoy keys that reduce to a later
    entry's element, so the later value must win.  Broken specs add decoys
    anywhere and drop entries.
    """
    factors = draw(st.sampled_from(GROUPS))
    f, w, denom = _valid_tables(draw, factors)
    rnd = random.Random(draw(st.integers(0, 2**32 - 1)))  # bulk choices, cheaper than draws
    broken = draw(st.booleans())
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
            if rnd.random() < 0.2:
                entries.append((key(idx, -2, -1), value(rnd.randrange(denom))))
            entries.append((key(idx, 0, 1), value(int(table[idx]))))
        if broken:
            for _ in range(rnd.randint(0, 3)):
                idx = [rnd.randrange(len(elts)) for _ in range(table.ndim)]
                decoy = (key(idx, -2, 2), f"{rnd.randint(-20, 20)}/{rnd.randint(1, 12)}")
                entries.insert(rnd.randint(0, len(entries)), decoy)
        tables[name] = dict(entries)
    return factors, tables, broken


@settings(max_examples=60, deadline=None)
@given(table_specs())
def test_table_spec_path_matches_given_exponents(drawn):
    factors, tables, broken = drawn
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

    spec = CategorySpec("h", "finite-group", None, group, _parse_cocycle({"tables": tables}, group))
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
