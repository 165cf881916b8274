from fractions import Fraction
from itertools import product
from math import gcd

import pytest

from twistcat.abgroup import FinAbGroup
from twistcat.cocycle import AbelianCocycle, build_cyclic, validate_cocycle
from twistcat.errors import CocycleError, StructuralError


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
            assert lattice.f(a, b, c).is_one


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
    c = AbelianCocycle.from_tables(g, f, om)
    assert c.omega((1,), (1,)).to_complex() == -1


def test_from_tables_missing_entry():
    g = FinAbGroup((2,))
    elts = list(g.elements())
    f = {(a, b, c): Fraction(0) for a in elts for b in elts for c in elts}
    om = {(a, b): Fraction(0) for a in elts for b in elts}
    del om[((1,), (1,))]
    with pytest.raises(StructuralError, match="missing Omega"):
        AbelianCocycle.from_tables(g, f, om)


def test_hexagon_failure_witness():
    # F(1,1,1) = -1 with Omega = 1 violates the hexagons at (1,1,1)
    g = FinAbGroup((2,))
    elts = list(g.elements())
    f = {(a, b, c): Fraction(0) for a in elts for b in elts for c in elts}
    f[((1,), (1,), (1,))] = Fraction(1, 2)
    om = {(a, b): Fraction(0) for a in elts for b in elts}
    with pytest.raises(CocycleError) as err:
        AbelianCocycle.from_tables(g, f, om)
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
    assert lattice.q((1,)) == Fraction(3, 4)
    assert lattice.q((0,)) == 0
    assert super_cocycle.q((1,)) == Fraction(1, 2)


def test_bform_examples(lattice, super_cocycle):
    assert lattice.b((1,), (1,)) == Fraction(1, 2)
    assert lattice.b((1,), (0,)) == 0
    assert super_cocycle.b((1,), (1,)) == 0


def test_comm_factor_examples(lattice, super_cocycle):
    assert super_cocycle.comm_factor((1,), (1,), (1,)).to_complex() == -1
    assert lattice.comm_factor((0,), (1,), (1,)).to_complex() == 1
    assert lattice.comm_factor((1,), (1,), (1,)).to_complex() == -1j


@pytest.mark.parametrize("n,s", [(2, 1), (3, 2), (4, 3), (5, 2), (6, 5), (8, 3), (12, 7)])
def test_quadratic_form_law(n, s):
    c = build_cyclic(n, s)
    g = c.group
    for a in g.elements():
        qa = c.q(a)
        for k in range(g.exponent):
            assert c.q(g.scale(k, a)) == (k * k * qa) % 1


@pytest.mark.parametrize("n,s", [(2, 3), (3, 1), (4, 2), (6, 4), (9, 5)])
def test_polarization_and_biadditivity(n, s):
    c = build_cyclic(n, s)
    g = c.group
    for a1 in g.elements():
        for a2 in g.elements():
            assert c.b(a1, a2) == (c.q(g.add(a1, a2)) - c.q(a1) - c.q(a2)) % 1
            assert c.b(a1, a2) == c.b(a2, a1)
            for a3 in g.elements():
                assert c.b(g.add(a1, a3), a2) == (c.b(a1, a2) + c.b(a3, a2)) % 1


@pytest.mark.parametrize("n,s", [(2, 3), (4, 1), (5, 3), (7, 2), (12, 11)])
def test_rigidity_identity(n, s):
    # F(-a, a, -a) F(a, -a, a) = 1, a consequence of pentagon + normalization
    c = build_cyclic(n, s)
    g = c.group
    for a in g.elements():
        na = g.neg(a)
        assert (c.f(na, a, na) * c.f(a, na, a)).is_one


@pytest.mark.parametrize("n,s", [(2, 1), (3, 2), (4, 3), (8, 5), (11, 6)])
def test_twist_dual_identity(n, s):
    c = build_cyclic(n, s)
    g = c.group
    for a in g.elements():
        assert c.q(a) == c.q(g.neg(a))


def test_cyclic_sweep_small():
    for n in range(1, 9):
        for s in range(n * n):
            build_cyclic(n, s)  # validates eagerly; raises on any axiom failure


def test_cyclic_family_matches_quadratic_parameterization():
    # q(1) = s / (n * gcd(n, 2)), covering every quadratic form on Z/n
    for n in (2, 3, 4, 6):
        d = n * gcd(n, 2)
        values = {build_cyclic(n, s).q((1 % n,)) for s in range(n * n)}
        assert values == {Fraction(s, d) % 1 for s in range(d)}


def test_order_cap():
    with pytest.raises(StructuralError):
        build_cyclic(300, 1)


@pytest.mark.parametrize("factors", [(257,), (3, 100)], ids=["257", "3x100"])
def test_trivial_order_cap(factors):
    with pytest.raises(StructuralError, match="exceeds the table-cocycle cap"):
        AbelianCocycle.trivial(FinAbGroup(factors))
