import re
from fractions import Fraction
from itertools import product
from math import gcd, lcm, prod

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from twistcat.abgroup import FinAbGroup
from twistcat.cocycle import (
    MAX_DENOM,
    AbelianCocycle,
    _check_hexagons,
    _check_pentagon,
    build_cyclic,
    validate_cocycle,
)
from twistcat.errors import CocycleError, StructuralError
from twistcat.specio import CategorySpec, _parse_cocycle

import oracles


def _table(entries):  # a cocycle.tables entry for {element tuple: exponent}
    return {"|".join(",".join(map(str, a)) for a in key): str(v) for key, v in entries.items()}


def _spec_cocycle(group, tables):
    """The cocycle a spec's ``cocycle.tables`` describes, built as ``verify`` builds it."""
    config = _parse_cocycle({"tables": tables}, group)
    return CategorySpec("tables", "finite-group", None, group, config).build_cocycle()


def _b_num(c, a1, a2):  # the braiding form b(a1, a2) the library stores, in [0, 1)
    return Fraction(int(c.b_num[c.group.index(a1), c.group.index(a2)]), c.denom)


@pytest.fixture(scope="module")
def lattice():
    return build_cyclic(2, 3)


@pytest.fixture(scope="module")
def super_cocycle():
    return build_cyclic(2, 2)


def test_lattice_cocycle_values(lattice):
    assert lattice.f((1,), (1,), (1,)).to_complex() == -1
    assert lattice.omega((1,), (1,)).to_complex() == -1j
    for a, b, c in product([(0,), (1,)], repeat=3):
        if (a, b, c) != ((1,), (1,), (1,)):
            assert lattice.f(a, b, c).exponent == 0


def test_super_cocycle_values(super_cocycle):
    assert (super_cocycle.f_num == 0).all()
    for i1, i2 in product([0, 1], repeat=2):
        assert super_cocycle.omega((i1,), (i2,)).to_complex() == (-1) ** (i1 * i2)


def test_trivial_cocycle_passes():
    c = build_cyclic(5, 0)
    assert (c.f_num == 0).all() and (c.omega_num == 0).all()
    assert validate_cocycle(c).passed


def test_validate_counts_12_5():
    report = validate_cocycle(build_cyclic(12, 5))
    assert report.passed
    by_name = {c.axiom: c for c in report.checks}
    assert by_name["pentagon"].checked == 12**4 == 20736
    assert by_name["hexagon-1"].checked == 12**3


def test_from_tables_accepts_super():
    g = FinAbGroup((2,))
    elts = list(g.elements())
    f = {(a, b, c): Fraction(0) for a in elts for b in elts for c in elts}
    om = {(a, b): Fraction(a[0] * b[0], 2) for a in elts for b in elts}
    c = _spec_cocycle(g, {"f": _table(f), "omega": _table(om)})
    assert c.omega((1,), (1,)).to_complex() == -1


def test_from_tables_unreduced_key():
    # a key part is reduced to its element; a key must name one element per argument
    g = FinAbGroup((2,))
    assert _spec_cocycle(g, {"omega": {"3|1": "1/2"}}).omega((1,), (1,)).exponent == Fraction(1, 2)
    with pytest.raises(StructuralError, match=re.escape("'cocycle.tables.f.1|1' must key 3")):
        _spec_cocycle(g, {"f": {"1|1": "1/2"}})


def test_builders_keep_their_report():
    g = FinAbGroup((2,))
    for c in (build_cyclic(6, 5), _spec_cocycle(g, {"omega": {"1|1": "1/2"}})):
        assert c.report == validate_cocycle(c) and c.report.passed
    # the trivial builder states its report without running the kernels
    for factors in [(1,), (3,), (2, 2)]:
        c = AbelianCocycle.trivial(FinAbGroup(factors))
        assert c.report == validate_cocycle(c)
    assert AbelianCocycle(g, np.zeros((2, 2, 2)), np.zeros((2, 2)), 1).report is None


def test_hexagon_failure_witness():
    # F(1,1,1) = -1 with Omega = 1 violates the hexagons at (1,1,1)
    g = FinAbGroup((2,))
    with pytest.raises(CocycleError) as err:
        _spec_cocycle(g, {"f": {"1|1|1": "1/2"}})
    report = err.value.report
    failing = {c.axiom for c in report.failures()}
    assert "hexagon-1" in failing
    hex1 = next(c for c in report.checks if c.axiom == "hexagon-1")
    assert hex1.witness == ((1,), (1,), (1,))


def test_flipped_f_sign_breaks_pentagon():
    base = build_cyclic(4, 1)
    f_num = base.f_num.copy()
    f_num[1, 1, 3] = (f_num[1, 1, 3] + base.denom // 2) % base.denom
    broken = AbelianCocycle(base.group, f_num, base.omega_num, base.denom)
    report = validate_cocycle(broken)
    pentagon = next(c for c in report.checks if c.axiom == "pentagon")
    assert not pentagon.passed
    assert pentagon.witness is not None and len(pentagon.witness) == 4


def test_qform_examples(lattice, super_cocycle):
    assert oracles.q(lattice, (1,)) == Fraction(3, 4)
    assert oracles.q(lattice, (0,)) == 0
    assert oracles.q(super_cocycle, (1,)) == Fraction(1, 2)


def test_bform_examples(lattice, super_cocycle):
    assert _b_num(lattice, (1,), (1,)) == Fraction(1, 2)
    assert _b_num(lattice, (1,), (0,)) == 0
    assert _b_num(super_cocycle, (1,), (1,)) == 0


@pytest.mark.parametrize("n,s", [(2, 1), (3, 2), (4, 3), (5, 2), (6, 5), (8, 3), (12, 7)])
def test_quadratic_form_law(n, s):
    c = build_cyclic(n, s)
    g = c.group
    for a in g.elements():
        qa = oracles.q(c, a)
        for k in range(g.exponent):
            assert oracles.q(c, g.element([k * x for x in a])) == (k * k * qa) % 1


@pytest.mark.parametrize("n,s", [(2, 3), (3, 1), (4, 2), (6, 4), (9, 5)])
def test_polarization_and_biadditivity(n, s):
    c = build_cyclic(n, s)
    g = c.group
    for a1 in g.elements():
        for a2 in g.elements():
            assert _b_num(c, a1, a2) == oracles.b(c, a1, a2)
            assert _b_num(c, a1, a2) == _b_num(c, a2, a1)
            for a3 in g.elements():
                assert _b_num(c, g.add(a1, a3), a2) == (_b_num(c, a1, a2) + _b_num(c, a3, a2)) % 1


@pytest.mark.parametrize("n,s", [(2, 3), (4, 1), (5, 3), (7, 2), (12, 11)])
def test_rigidity_identity(n, s):
    # F(-a, a, -a) F(a, -a, a) = 1, a consequence of pentagon + normalization
    c = build_cyclic(n, s)
    g = c.group
    for a in g.elements():
        na = g.neg(a)
        assert (c.f(na, a, na).exponent + c.f(a, na, a).exponent) % 1 == 0


@pytest.mark.parametrize("n,s", [(2, 1), (3, 2), (4, 3), (8, 5), (11, 6)])
def test_twist_dual_identity(n, s):
    c = build_cyclic(n, s)
    g = c.group
    for a in g.elements():
        assert oracles.q(c, a) == oracles.q(c, g.neg(a))


def test_cyclic_sweep_small():
    for n in range(1, 9):
        for s in range(n * n):
            build_cyclic(n, s)  # validates eagerly; raises on any axiom failure


def test_cyclic_family_matches_quadratic_parameterization():
    # q(1) = s / (n * gcd(n, 2)), covering every quadratic form on Z/n
    for n in (2, 3, 4, 6):
        d = n * gcd(n, 2)
        values = {oracles.q(build_cyclic(n, s), (1 % n,)) for s in range(n * n)}
        assert values == {Fraction(s, d) % 1 for s in range(d)}


def test_order_cap():
    with pytest.raises(StructuralError):
        build_cyclic(300, 1)


@pytest.mark.parametrize("factors", [(257,), (3, 100)], ids=["257", "3x100"])
def test_trivial_order_cap(factors):
    with pytest.raises(StructuralError, match="exceeds the table-cocycle cap"):
        AbelianCocycle.trivial(FinAbGroup(factors))


def _coboundary_tables(group, q):
    """Total ``(F, Omega) = (d phi, phi(a, b) - phi(b, a))``, a valid cocycle,
    for the normalized 2-cochain ``phi(a, b) = (1 + 2 i j) / q`` on nonzero
    elements with indices ``i``, ``j``."""
    elts, add = list(group.elements()), group.add
    phi = {
        (a, b): Fraction(1 + 2 * group.index(a) * group.index(b), q) if a != group.zero != b else 0
        for a in elts
        for b in elts
    }
    f = {
        (a, b, c): phi[b, c] - phi[add(a, b), c] + phi[a, add(b, c)] - phi[a, b]
        for a, b, c in product(elts, repeat=3)
    }
    return f, {(a, b): phi[a, b] - phi[b, a] for a in elts for b in elts}


def test_denominator_at_cap_validates():
    # 5 * denom is above 2**31 here, so the pentagon runs in int64
    g = FinAbGroup((3,))
    f, omega = _coboundary_tables(g, MAX_DENOM)
    assert _spec_cocycle(g, {"f": _table(f), "omega": _table(omega)}).denom == MAX_DENOM


@pytest.mark.parametrize("q", [MAX_DENOM + 1, 2**62 + 135], ids=["cap+1", "2**62+135"])
def test_denominator_above_cap_rejected(q):
    # 2**62 + 135 used to wrap F + F + F in int64 and fail a valid cocycle
    g = FinAbGroup((3,))
    f, omega = _coboundary_tables(g, q)
    with pytest.raises(StructuralError, match="exceeds the cap MAX_DENOM"):
        _spec_cocycle(g, {"f": _table(f), "omega": _table(omega)})
    with pytest.raises(StructuralError, match="exceeds the cap MAX_DENOM"):
        AbelianCocycle(g, np.zeros((3, 3, 3), np.int64), np.zeros((3, 3), np.int64), q)


def _reference_pentagon(c):
    """Per-tuple pentagon over A^4: ``(passed, first failing tuple)``."""
    g, L = c.group, c.denom
    F, S = c.f_num.tolist(), g.add_index_table.tolist()
    for i, j, k, l in product(range(g.order), repeat=4):
        d = F[i][j][k] + F[i][S[j][k]][l] + F[j][k][l] - F[i][j][S[k][l]] - F[S[i][j]][k][l]
        if d % L:
            return False, tuple(g.element_at(x) for x in (i, j, k, l))
    return True, None


# (bound, round up): 5 * denom just inside or just past the int16 and int32 casts
DENOM_BOUNDS = [
    (1, True),
    ((2**15 - 1) // 5, False),
    (2**15 // 5 + 1, True),
    ((2**31 - 1) // 5, False),
    (2**31 // 5 + 1, True),
]


@pytest.mark.parametrize(
    "bound, round_up", DENOM_BOUNDS, ids=["small", "int16", "int32-low", "int32", "int64"]
)
@settings(max_examples=10, deadline=None)
# the trivial group at bound 1 has L = 1, where no shift is nonzero mod L
@example(factors=[1], twists=[0, 0, 0], steps=0, shifts=1, seed=0)
@given(
    factors=st.lists(st.integers(1, 12), min_size=1, max_size=3).filter(lambda f: prod(f) <= 12),
    twists=st.lists(st.integers(0, 287), min_size=3, max_size=3),
    steps=st.integers(0, 3),
    shifts=st.integers(0, 2),
    seed=st.integers(0, 2**32 - 1),
)
def test_pentagon_matches_per_tuple_reference(
    bound, round_up, factors, twists, steps, shifts, seed
):
    """A valid F (pulled-back cyclic cocycles plus a coboundary) over a
    denominator near a dtype bound, with up to two entries shifted."""
    g = FinAbGroup(tuple(factors))
    m, rng = g.order, np.random.default_rng(seed)
    base = lcm(*(n * gcd(n, 2) for n in factors))
    L = bound + (-bound) % base + steps * base if round_up else bound - bound % base - steps * base
    digits = np.unravel_index(np.arange(m), factors)
    f = np.zeros((m, m, m), dtype=np.int64)
    for n, s, x in zip(factors, twists, digits):
        cyc = build_cyclic(n, s)
        f += cyc.f_num[np.ix_(x, x, x)] * (L // cyc.denom)
    phi, S, a = rng.integers(0, L, size=(m, m)), g.add_index_table, np.arange(m)
    f += phi[None, :, :] - phi[S] + phi[a[:, None, None], S[None]] - phi[:, :, None]
    for _ in range(shifts if L > 1 else 0):
        f[tuple(rng.integers(0, m, size=3))] += rng.integers(1, L)
    c = AbelianCocycle(g, f, np.zeros((m, m), dtype=np.int64), L)
    check = _check_pentagon(c)
    assert check.checked == m**4
    assert (check.passed, check.witness) == _reference_pentagon(c)


def _reference_hexagons(c):
    """Per-tuple hexagons over A^3: ``(passed, first failing tuple)`` for each."""
    g, L = c.group, c.denom
    F, W, S = c.f_num.tolist(), c.omega_num.tolist(), g.add_index_table.tolist()
    first = [None, None]
    for i, j, k in product(range(g.order), repeat=3):
        hexagons = (
            F[i][j][k] + W[S[i][j]][k] + F[k][i][j] - W[j][k] - F[i][k][j] - W[i][k],
            -F[i][j][k] + W[i][S[j][k]] - F[j][k][i] - W[i][j] + F[j][i][k] - W[i][k],
        )
        for n, h in enumerate(hexagons):
            if h % L and first[n] is None:
                first[n] = tuple(g.element_at(x) for x in (i, j, k))
    return [(w is None, w) for w in first]


@pytest.mark.parametrize(
    "bound, round_up", DENOM_BOUNDS, ids=["small", "int16", "int32-low", "int32", "int64"]
)
@settings(max_examples=10, deadline=None)
@example(factors=[1], twists=[0, 0, 0], bichar=[0] * 9, steps=0, shifts=[1, 1], seed=0)
@given(
    factors=st.lists(st.integers(1, 12), min_size=1, max_size=3).filter(lambda f: prod(f) <= 12),
    twists=st.lists(st.integers(0, 287), min_size=3, max_size=3),
    bichar=st.lists(st.integers(0, 11), min_size=9, max_size=9),
    steps=st.integers(0, 3),
    shifts=st.lists(st.integers(0, 2), min_size=2, max_size=2),
    seed=st.integers(0, 2**32 - 1),
)
def test_hexagons_match_per_tuple_reference(
    bound, round_up, factors, twists, bichar, steps, shifts, seed
):
    """A valid (F, Omega) (pulled-back cyclic cocycles, a bicharacter on
    Omega and a coboundary) over a denominator near a dtype bound, with up to
    two entries of F and of Omega shifted."""
    g = FinAbGroup(tuple(factors))
    m, rng = g.order, np.random.default_rng(seed)
    base = lcm(*(n * gcd(n, 2) for n in factors))
    L = bound + (-bound) % base + steps * base if round_up else bound - bound % base - steps * base
    digits = np.unravel_index(np.arange(m), factors)
    f, w = np.zeros((m, m, m), dtype=np.int64), np.zeros((m, m), dtype=np.int64)
    for n, s, x in zip(factors, twists, digits):
        cyc = build_cyclic(n, s)
        f += cyc.f_num[np.ix_(x, x, x)] * (L // cyc.denom)
        w += cyc.omega_num[np.ix_(x, x)] * (L // cyc.denom)
    for p, (n_p, x_p) in enumerate(zip(factors, digits)):
        for q, (n_q, x_q) in enumerate(zip(factors, digits)):
            w += bichar[3 * p + q] * x_p[:, None] * x_q[None, :] * (L // gcd(n_p, n_q))
    phi, S, a = rng.integers(0, L, size=(m, m)), g.add_index_table, np.arange(m)
    f += phi[None, :, :] - phi[S] + phi[a[:, None, None], S[None]] - phi[:, :, None]
    w += phi - phi.T
    for table, count in zip((f, w), shifts):
        for _ in range(count if L > 1 else 0):
            table[tuple(rng.integers(0, m, size=table.ndim))] += rng.integers(1, L)
    c = AbelianCocycle(g, f, w, L)
    checks = _check_hexagons(c)
    assert [check.checked for check in checks] == [m**3, m**3]
    assert [(check.passed, check.witness) for check in checks] == _reference_hexagons(c)


@pytest.mark.parametrize("s", [10**30, -(10**30) - 1, 2**63])
def test_build_cyclic_reduces_huge_twist(s):
    # s and s + d give the same tables, so a twist beyond int64 is reduced first
    n = 4
    c, ref = build_cyclic(n, s), build_cyclic(n, s % 8)
    assert np.array_equal(c.f_num, ref.f_num) and np.array_equal(c.omega_num, ref.omega_num)
    assert c.name == f"cyclic(n={n}, s={s})"
