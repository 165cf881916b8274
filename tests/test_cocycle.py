import re
import tracemalloc
from fractions import Fraction
from functools import partial
from itertools import product
from math import gcd, lcm, prod

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from twistcat.abgroup import FinAbGroup
from twistcat.branchcut import assoc_numerator
from twistcat.catalogs import builtin_catalog
from twistcat.cocycle import (
    MAX_DENOM,
    AbelianCocycle,
    _check_hexagons,
    _check_pentagon,
    _narrow_dtype,
    _pentagon_holds,
    build_cyclic,
    hexagon_residues,
    pentagon_slabs,
    validate_cocycle,
)
from twistcat.errors import CocycleError, StructuralError
from twistcat.fusionring import dim_exponents
from twistcat.grouprep import CentralEmbedding
from twistcat.specio import CategorySpec, _parse_cocycle
from twistcat.unitscalar import UnitScalar

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
    assert UnitScalar(oracles.f(lattice, (1,), (1,), (1,))).to_complex() == -1
    assert UnitScalar(oracles.omega(lattice, (1,), (1,))).to_complex() == -1j
    for a, b, c in product([(0,), (1,)], repeat=3):
        if (a, b, c) != ((1,), (1,), (1,)):
            assert oracles.f(lattice, a, b, c) == 0


def test_super_cocycle_values(super_cocycle):
    assert (super_cocycle.f_num == 0).all()
    for i1, i2 in product([0, 1], repeat=2):
        value = UnitScalar(oracles.omega(super_cocycle, (i1,), (i2,))).to_complex()
        assert value == (-1) ** (i1 * i2)


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
    assert UnitScalar(oracles.omega(c, (1,), (1,))).to_complex() == -1


def test_from_tables_unreduced_key():
    # a key part is reduced to its element; a key must name one element per argument
    g = FinAbGroup((2,))
    assert oracles.omega(_spec_cocycle(g, {"omega": {"3|1": "1/2"}}), (1,), (1,)) == Fraction(1, 2)
    with pytest.raises(StructuralError, match=re.escape("'cocycle.tables.f.1|1' must key 3")):
        _spec_cocycle(g, {"f": {"1|1": "1/2"}})


def test_builders_keep_their_report():
    g = FinAbGroup((2,))
    for c in (build_cyclic(6, 5), _spec_cocycle(g, {"omega": {"1|1": "1/2"}})):
        assert c.report == validate_cocycle(c) and c.report.passed
    for factors in [(1,), (3,), (2, 2)]:
        c = AbelianCocycle.trivial(FinAbGroup(factors))
        assert c.report == validate_cocycle(c) and c.report.passed
    # a directly built cocycle validates when its report is first read, once
    c = AbelianCocycle(g, np.zeros((2, 2, 2)), np.zeros((2, 2)), 1)
    assert "report" not in vars(c)
    report = c.report
    assert c.report is report and report == validate_cocycle(c)


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
        for k in range(oracles.exponent(g)):
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
                left = _b_num(c, oracles.add(g, a1, a3), a2)
                assert left == (_b_num(c, a1, a2) + _b_num(c, a3, a2)) % 1


@pytest.mark.parametrize("n,s", [(2, 3), (4, 1), (5, 3), (7, 2), (12, 11)])
def test_rigidity_identity(n, s):
    # F(-a, a, -a) F(a, -a, a) = 1, a consequence of pentagon + normalization
    c = build_cyclic(n, s)
    g = c.group
    for a in g.elements():
        na = oracles.neg(g, a)
        assert (oracles.f(c, na, a, na) + oracles.f(c, a, na, a)) % 1 == 0


@pytest.mark.parametrize("n,s", [(2, 1), (3, 2), (4, 3), (8, 5), (11, 6)])
def test_twist_dual_identity(n, s):
    c = build_cyclic(n, s)
    g = c.group
    for a in g.elements():
        assert oracles.q(c, a) == oracles.q(c, oracles.neg(g, a))


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
    elts, add = list(group.elements()), partial(oracles.add, group)
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
        f += cyc.f_num[np.ix_(x, x, x)].astype(np.int64) * (L // cyc.denom)
    phi, S, a = rng.integers(0, L, size=(m, m)), g.add_index_table, np.arange(m)
    f += phi[None, :, :] - phi[S] + phi[a[:, None, None], S[None]] - phi[:, :, None]
    for _ in range(shifts if L > 1 else 0):
        f[tuple(rng.integers(0, m, size=3))] += rng.integers(1, L)
    c = AbelianCocycle(g, f, np.zeros((m, m), dtype=np.int64), L)
    check = _check_pentagon(c)
    assert check.checked == m**4
    assert (check.passed, check.witness) == _reference_pentagon(c)


@pytest.mark.parametrize(
    "factors, j",
    [((2, 4), 0), ((2, 4), 1), ((3, 3), 0), ((3, 3), 1), ((4, 1, 2), 0), ((4, 1, 2), 1),
     ((4, 1, 2), 2), ((2, 2, 2), 0), ((2, 2, 2), 1), ((2, 2, 2), 2), ((1,), 0)],
    ids=lambda v: "x".join(map(str, v)) if isinstance(v, tuple) else f"j{v}",
)
def test_pentagon_failure_through_one_factor(factors, j):
    """F pulled back along the projection onto the factor Z/n_j from a
    normalized table on Z/n_j (a cyclic cocycle plus a normalized coboundary)
    with one entry at nonzero arguments shifted.  Of the generator slabs only
    the one at the unit vector e_j sees the failure.  On a factor Z/1 the
    shifted entry is F(0, 0, 0), which every slab sees, and on the trivial
    group slab 0 is the only one."""
    g, n = FinAbGroup(factors), factors[j]
    m, rng = g.order, np.random.default_rng(n * 10 + j)
    cyc = build_cyclic(n, 1)
    L = 2 * cyc.denom  # > 1 even on Z/1, so that the shift is nonzero mod L
    phi, S, a = rng.integers(0, L, size=(n, n)), cyc.group.add_index_table, np.arange(n)
    phi[0, :] = phi[:, 0] = 0
    f = 2 * cyc.f_num + phi[None, :, :] - phi[S] + phi[a[:, None, None], S[None]] - phi[:, :, None]
    f[tuple(rng.integers(1, n, size=3)) if n > 1 else (0, 0, 0)] += 1
    x = np.unravel_index(np.arange(m), factors)[j]
    c = AbelianCocycle(g, f[np.ix_(x, x, x)], np.zeros((m, m), dtype=np.int64), L)
    reference = _reference_pentagon(c)
    assert not reference[0]
    check = _check_pentagon(c)
    assert check.checked == m**4
    assert (check.passed, check.witness) == reference
    if n > 1:
        gens = [prod(factors[k + 1:]) for k, n_k in enumerate(factors) if n_k > 1]
        failing = [r for r in gens if np.count_nonzero(next(pentagon_slabs(c, [r])))]
        assert failing == [prod(factors[j + 1:])]


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
        f += cyc.f_num[np.ix_(x, x, x)].astype(np.int64) * (L // cyc.denom)
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
    checks = _check_hexagons(c, False)
    assert [check.checked for check in checks] == [m**3, m**3]
    assert [(check.passed, check.witness) for check in checks] == _reference_hexagons(c)


@pytest.mark.parametrize("s", [10**30, -(10**30) - 1, 2**63])
def test_build_cyclic_reduces_huge_twist(s):
    # s and s + d give the same tables, so a twist beyond int64 is reduced first
    n = 4
    c, ref = build_cyclic(n, s), build_cyclic(n, s % 8)
    assert np.array_equal(c.f_num, ref.f_num) and np.array_equal(c.omega_num, ref.omega_num)
    assert c.name == f"cyclic(n={n}, s={s})"


def _exact_residues(g, F, W):
    """Unreduced integer pentagon residue ``G[x, y, z, u]`` and hexagon
    residues ``h1``, ``h2`` indexed ``[a1, a2, a3]``, from the formulas."""
    S, x = g.add_index_table, np.arange(g.order)
    X, Y, Z, U = np.ix_(x, x, x, x)
    G = F[X, Y, Z] + F[X, S[Y, Z], U] + F[Y, Z, U] - F[S[X, Y], Z, U] - F[X, Y, S[Z, U]]
    A1, A2, A3 = np.ix_(x, x, x)
    h1 = W[S[A1, A2], A3] + F[A1, A2, A3] + F[A3, A1, A2] - W[A2, A3] - F[A1, A3, A2] - W[A1, A3]
    h2 = -F[A1, A2, A3] + W[A1, S[A2, A3]] - F[A2, A3, A1] - W[A1, A2] + F[A2, A1, A3] - W[A1, A3]
    return G, h1, h2


@pytest.mark.parametrize("factors", [(1,), (3,), (4,), (2, 2), (2, 3), (1, 4), (2, 2, 2)])
def test_hexagon_coboundary_is_a_sum_of_pentagon_residues(factors):
    # d_(a,b,b') h1(., ., c) = G(a,b,b',c) - G(a,b,c,b') + G(a,c,b,b') - G(c,a,b,b')
    # and d h2(c, ., .) is its negative, exactly, on unnormalized integer
    # tables; the kernels give the same residues mod the denominator
    g, rng = FinAbGroup(factors), np.random.default_rng(len(factors) * 100 + sum(factors))
    m, S, x = g.order, g.add_index_table, np.arange(g.order)
    F, W = rng.integers(-1000, 1000, size=(m, m, m)), rng.integers(-1000, 1000, size=(m, m))
    G, h1, h2 = _exact_residues(g, F, W)
    a, b, bp, c = np.ix_(x, x, x, x)
    rhs = G[a, b, bp, c] - G[a, b, c, bp] + G[a, c, b, bp] - G[c, a, b, bp]
    d_h1 = h1[b, bp, c] - h1[S[a, b], bp, c] + h1[a, S[b, bp], c] - h1[a, b, c]
    d_h2 = h2[c, b, bp] - h2[c, S[a, b], bp] + h2[c, a, S[b, bp]] - h2[c, a, b]
    assert np.array_equal(d_h1, rhs) and np.array_equal(d_h2, -rhs)
    L = 997
    cocycle = AbelianCocycle(g, F, W, L)
    assert np.array_equal([d.copy() for d in pentagon_slabs(cocycle, range(m))], G % L)
    assert all(np.array_equal(h, r % L) for h, r in zip(hexagon_residues(cocycle), (h1, h2)))


@pytest.mark.parametrize(
    "make",
    [partial(build_cyclic, 64, 1), partial(AbelianCocycle.trivial, FinAbGroup((2,) * 6))],
    ids=["cyclic-64", "trivial-2^6"],
)
def test_pentagon_decision_allocates_two_slabs(make):
    # pentagon_slabs holds two buffers the size of F and reads every sum
    # argument through a gather into them or a window over one doubled row
    # of F; any copy of F on top of that breaks the bound
    c = make()
    c.group.add_index_table  # cached on the group, built before tracing
    nbytes = c.f_num.nbytes
    tracemalloc.start()
    try:
        assert _pentagon_holds(c)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * nbytes


_HEXAGON_SHAPES = [(1,), (2,), (3,), (4,), (6,), (2, 2), (2, 3), (1, 4), (4, 1, 2), (2, 2, 2)]


def _valid_tables(g, twists, bichar, L, rng):
    """A valid (F, Omega) over ``L``: pulled-back cyclic cocycles, a
    bicharacter on Omega and an unnormalized coboundary."""
    m, factors = g.order, g.factors
    digits = np.unravel_index(np.arange(m), factors)
    f, w = np.zeros((m, m, m), dtype=np.int64), np.zeros((m, m), dtype=np.int64)
    for n, s, x in zip(factors, twists, digits):
        cyc = build_cyclic(n, s)
        f += cyc.f_num[np.ix_(x, x, x)].astype(np.int64) * (L // cyc.denom)
        w += cyc.omega_num[np.ix_(x, x)] * (L // cyc.denom)
    for p, (n_p, x_p) in enumerate(zip(factors, digits)):
        for q, (n_q, x_q) in enumerate(zip(factors, digits)):
            w += bichar[3 * p + q] * x_p[:, None] * x_q[None, :] * (L // gcd(n_p, n_q))
    phi, S, a = rng.integers(0, L, size=(m, m)), g.add_index_table, np.arange(m)
    f += phi[None, :, :] - phi[S] + phi[a[:, None, None], S[None]] - phi[:, :, None]
    return f, w + phi - phi.T


def _pulled_back_shift(g, j, L):
    """``psi(x_j, y_j) = x_j^2 y_j`` on the digits of factor ``j``: zero on
    the row and column of 0, not additive in either argument mod ``L``, and
    seen by the hexagon rows at the generator of factor ``j`` only."""
    x = np.unravel_index(np.arange(g.order), g.factors)[j]
    return x[:, None] ** 2 * x[None, :] % L


@settings(max_examples=60, deadline=None)
@example(factors=(1,), twists=[0, 0, 0], bichar=[0] * 9, mode="normalization", seed=0)
@example(factors=(4, 1, 2), twists=[1, 0, 3], bichar=[0] * 9, mode="pulled-back", seed=1)
@example(factors=(1, 4), twists=[0, 1, 0], bichar=[0] * 9, mode="pulled-back", seed=2)
@given(
    factors=st.sampled_from(_HEXAGON_SHAPES),
    twists=st.lists(st.integers(0, 287), min_size=3, max_size=3),
    bichar=st.lists(st.integers(0, 11), min_size=9, max_size=9),
    mode=st.sampled_from(["valid", "omega-shift", "pulled-back", "normalization", "f-shift"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_hexagon_certificate_matches_full_scan(factors, twists, bichar, mode, seed):
    """The hexagons decided from the generator rows under a passing
    pentagon, against the full scan and the per-tuple reference, on valid
    tables and on tables with Omega shifted, Omega shifted by a pulled-back
    table on one factor, the normalization of Omega broken, or F shifted."""
    g, rng = FinAbGroup(factors), np.random.default_rng(seed)
    m = g.order
    L = 2 * lcm(*(n * gcd(n, 2) for n in factors))  # > 1, so that shifts are nonzero
    f, w = _valid_tables(g, twists, bichar, L, rng)
    if mode == "omega-shift":
        w[tuple(rng.integers(0, m, size=2))] += rng.integers(1, L)
    elif mode == "pulled-back":
        w += _pulled_back_shift(g, int(rng.integers(len(factors))), L)
    elif mode == "normalization":
        w[(0, int(rng.integers(m)))[:: rng.choice([1, -1])]] += rng.integers(1, L)
    elif mode == "f-shift":
        f[tuple(rng.integers(0, m, size=3))] += rng.integers(1, L)
    c = AbelianCocycle(g, f, w, L)
    certified = _check_hexagons(c, _pentagon_holds(c))
    assert certified == _check_hexagons(c, False)
    assert [check.checked for check in certified] == [m**3, m**3]
    assert [(check.passed, check.witness) for check in certified] == _reference_hexagons(c)


@pytest.mark.parametrize(
    "factors, j",
    [((1,), None), ((2,), 0), ((1, 4), 1), ((4, 1, 2), 0), ((4, 1, 2), 2), ((2, 2, 2), 0),
     ((2, 2, 2), 1), ((2, 2, 2), 2)],
    ids=lambda v: "x".join(map(str, v)) if isinstance(v, tuple) else f"j{v}",
)
def test_hexagon_certificate_reads_every_generator_row(factors, j):
    # F = 0, so the pentagon holds.  On the trivial group Omega(0, 0) = 1
    # fails both hexagons at (0, 0, 0), the one row there is.  Otherwise
    # Omega is the pulled-back shift on factor j, which only the rows at the
    # generator of factor j see: a certificate that skips a row passes there.
    g = FinAbGroup(factors)
    m, L = g.order, 4 * max(factors)
    w = np.ones((1, 1), np.int64) if j is None else _pulled_back_shift(g, j, L)
    c = AbelianCocycle(g, np.zeros((m, m, m), np.int64), w, L)
    assert _pentagon_holds(c)
    checks = _check_hexagons(c, True)
    assert [(check.passed, check.witness) for check in checks] == _reference_hexagons(c)
    assert not any(check.passed for check in checks)


def test_table_broken_through_the_last_factor_is_refused():
    # F or Omega on Z/2 x Z/4 pulled back from a normalized non-cocycle on
    # Z/4: the slabs and rows at the generator of Z/2 are zero, so a
    # certificate that skips the last generator, or reads row 0 only, passes
    g = FinAbGroup((2, 4))
    f = {f"{x},1|{y},1|{z},1": "1/2" for x, y, z in product(range(2), repeat=3)}
    omega = {f"{x},1|{y},1": "1/4" for x, y in product(range(2), repeat=2)}
    for tables, axiom, witness in [({"f": f}, "pentagon", ((0, 1), (0, 1), (0, 1), (0, 2))),
                                   ({"omega": omega}, "hexagon-1", ((0, 1), (0, 1), (0, 1)))]:
        with pytest.raises(CocycleError, match=re.escape(f"the {axiom} axiom at {witness}")):
            _spec_cocycle(g, tables)


@pytest.mark.parametrize(
    "L", [(2**15 - 1) // 5, (2**31 - 1) // 5, MAX_DENOM], ids=["int16", "int32", "int64"]
)
@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 13, 24, 64])
def test_cyclic_windows_match_the_gathers(n, L):
    """Z/n reads the pentagon's and hexagons' sums as windows over doubled
    rows of F and Omega and as slices of F; Z/1 x Z/n has the same
    enumeration, add_index_table and generator row but rank 2, so it gathers
    them.  On random unnormalized tables, valid ones, and the valid ones with
    an entry of F or Omega shifted, in each kernel dtype, the pentagon slabs
    are equal at every row, so are the hexagon residues, and the verdicts
    and witnesses agree."""
    cyclic, product = FinAbGroup((n,)), FinAbGroup((1, n))
    rng = np.random.default_rng([n, L])
    L_valid = L - L % (n * gcd(n, 2))
    f_valid, w_valid = _valid_tables(cyclic, [int(rng.integers(2 * n)), 0, 0], [1] * 9, L_valid,
                                     rng)
    cell = tuple(rng.integers(1, n, size=3)) if n > 1 else (0, 0, 0)
    f_shifted, w_shifted = f_valid.copy(), w_valid.copy()
    f_shifted[cell] += 1
    w_shifted[cell[:2]] += 1
    random = rng.integers(0, L, size=(n, n, n)), rng.integers(0, L, size=(n, n))
    for (f, w), denom, valid in [
        (random, L, False), ((f_valid, w_valid), L_valid, True),
        ((f_shifted, w_valid), L_valid, False), ((f_valid, w_shifted), L_valid, True),
    ]:
        a, b = (AbelianCocycle(g, f, w, denom) for g in (cyclic, product))
        assert a.f_num.dtype == _narrow_dtype(L)
        for x, y in zip(pentagon_slabs(a, range(n)), pentagon_slabs(b, range(n)), strict=True):
            assert np.array_equal(x, y)
        assert all(map(np.array_equal, hexagon_residues(a), hexagon_residues(b)))
        checks, references = [_check_pentagon(a)], [_check_pentagon(b)]
        assert checks[0].passed == valid
        checks += _check_hexagons(a, valid)
        references += _check_hexagons(b, valid)
        for check, reference in zip(checks, references, strict=True):
            assert check.passed == reference.passed
            assert tuple((0, *x) for x in check.witness or ()) == (reference.witness or ())


def test_coboundaries_at_the_kernel_dtype_bounds():
    # denominators with 5 * L just inside and just past 2**15 and 2**31, two
    # inside 2**16 and 2**32 but past 2**15 and 2**31, and the cap.  The
    # coboundary of a normalized cochain L - 1 - r, with r one of the four
    # 0/1 offsets (of 512) that do so, reaches a hexagon-2 residue of -3 L
    # before it is reduced: past the int16 range at L = 13107, so a kernel
    # dtype one size too small wraps it.  One perturbed entry is refused.
    g = FinAbGroup((4,))
    x, s = np.arange(4), g.add_index_table
    r = np.array([[0, 0, 0, 0], [0, 0, 0, 0], [0, 1, 0, 1], [0, 0, 0, 1]])
    for L in (6553, 6554, 13107, 429496729, 429496730, 858993458, MAX_DENOM):
        phi = np.where((x[:, None] > 0) & (x > 0), L - 1 - r, 0)
        f = (
            phi[None, :, :] - phi[s[:, :, None], x] + phi[x[:, None, None], s[None, :, :]]
            - phi[:, :, None]
        ) % L
        omega = (phi - phi.T) % L
        assert AbelianCocycle(g, f, omega, L).report.passed, L
        f = f.copy()  # the cocycle keeps a table of its kernel dtype read-only
        f[1, 2, 3] = (f[1, 2, 3] + 1) % L
        assert not AbelianCocycle(g, f, omega, L).report.passed, L


def test_builders_store_f_in_the_kernel_dtype():
    g = FinAbGroup((3,))
    f, omega = _coboundary_tables(g, MAX_DENOM)
    cocycles = [
        build_cyclic(2, 3),
        build_cyclic(64, 1),
        AbelianCocycle.trivial(FinAbGroup((2, 4))),
        _spec_cocycle(FinAbGroup((2,)), {"f": {"1|1|1": "1/2"}, "omega": {"1|1": "1/4"}}),
        _spec_cocycle(g, {"f": _table(f), "omega": _table(omega)}),
        AbelianCocycle(g, np.full((3, 3, 3), -1), np.zeros((3, 3), np.int64), 2**20),
    ]
    assert [c.f_num.dtype for c in cocycles] == [
        np.int16, np.int16, np.int16, np.int16, np.int64, np.int32
    ]
    for c in cocycles:
        assert c.f_num.dtype == _narrow_dtype(c.denom)
        assert c.omega_num.dtype == c.b_num.dtype == np.int64
        assert not any(t.flags.writeable for t in (c.f_num, c.omega_num, c.b_num))
        assert c.f_num.min() >= 0 and c.f_num.max() < c.denom
    assert (cocycles[-1].f_num == 2**20 - 1).all()


@pytest.mark.parametrize(
    "L", [bound for bound, _ in DENOM_BOUNDS], ids=["small", "int16", "int32-low", "int32", "int64"]
)
def test_narrow_f_readers_match_fraction_references(L):
    """``assoc_numerator``, ``dim_exponents`` and the category's scalars on
    tables whose entries sit near the top of ``[0, L)``, for ``5 * L`` just
    inside or just past the int16 and int32 bounds."""
    g, rng = FinAbGroup((4,)), np.random.default_rng(L)
    m, neg, x = 4, g.neg_index_table, np.arange(4)
    c = AbelianCocycle(
        g, rng.integers(L // 2, L, size=(m, m, m)), rng.integers(L // 2, L, size=(m, m)), L
    )
    assert c.f_num.dtype == _narrow_dtype(L)
    F, W = c.f_num.tolist(), c.omega_num.tolist()

    def e(num):  # an exponent numerator as a Fraction mod 1
        return Fraction(int(num), L) % 1

    def unit(num):  # e^{2 pi i num / L} through the reduced Fraction num / L
        return UnitScalar(Fraction(num, L)).to_complex()

    for p12, p2 in product([-1, 0, 1], repeat=2):
        nums = assoc_numerator(c, p12, p2, x[:, None, None], x[None, :, None], x[None, None, :])
        for i, j, k in product(range(m), repeat=3):
            want = e(-p12 * (W[i][j] + W[j][i]) + p2 * (W[i][k] + W[k][i]) - F[i][j][k])
            assert e(nums[i, j, k]) == e(assoc_numerator(c, p12, p2, i, j, k)) == want
    assert [e(v) for v in dim_exponents(c)] == [
        e(-(W[a][a] + W[a][neg[a]] + F[a][neg[a]][a])) for a in range(m)
    ]
    cat = oracles.unchecked_category(builtin_catalog("z4"), c, CentralEmbedding(g, (1,)))
    by_grade = {g.index(member.grade): member for member in cat.catalog}
    for i, j, k in product(range(m), repeat=3):
        assert cat.associator(by_grade[i], by_grade[j], by_grade[k])[0, 0] == unit(-F[i][j][k])
    for a, member in by_grade.items():
        assert cat.evaluation(member)[0, 0] == unit(-F[a][neg[a]][a])
        assert cat.twist(member) == UnitScalar(Fraction(-W[a][a], L))
    # the snake on M* reads F(a, -a, a) + F(-a, a, -a) at each member's grade
    residues = [e(F[a][neg[a]][a] + F[neg[a]][a][neg[a]]) for a in (g.index(member.grade) for member in cat.catalog)]
    failing = [member.label for member, r in zip(cat.catalog, residues) if r]
    snake = next(check for check in cat.coherence_suite().checks if check.axiom == "snake")
    assert snake.witness == ((failing[0],) if failing else None)
    assert snake.max_error == max(abs(UnitScalar(r).to_complex() - 1) for r in residues)
