from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given
from hypothesis import strategies as st

from twistcat.abgroup import FinAbGroup
from twistcat.errors import StructuralError

from oracles import pairing

small_factor_lists = st.lists(st.integers(min_value=1, max_value=6), min_size=1, max_size=3)


def test_elt_add_examples():
    assert FinAbGroup((2,)).add((1,), (1,)) == (0,)
    assert FinAbGroup((4,)).add((3,), (2,)) == (1,)
    assert FinAbGroup((2, 3)).add((1, 2), (1, 2)) == (0, 1)


def test_shape_mismatch_is_structural():
    g = FinAbGroup((2, 3))
    with pytest.raises(StructuralError):
        g.add((1,), (1, 2))
    with pytest.raises(StructuralError):
        g.check((1, 5))


def test_pairing_examples():
    z2 = FinAbGroup((2,))
    assert pairing(z2, (1,), (1,)) == Fraction(1, 2)
    assert pairing(z2, (0,), (1,)) == 0
    z4 = FinAbGroup((4,))
    assert pairing(z4, (1,), (3,)) == Fraction(3, 4)


def test_pairing_bimultiplicative_exhaustive():
    for factors in [(2,), (4,), (2, 3), (2, 2, 2), (6, 2), (4, 4)]:
        g = FinAbGroup(factors)
        assert g.order <= 64
        for chi, a, b in product(g.elements(), g.elements(), g.elements()):
            assert pairing(g, chi, g.add(a, b)) == (pairing(g, chi, a) + pairing(g, chi, b)) % 1
            assert pairing(g, g.add(chi, a), b) == (pairing(g, chi, b) + pairing(g, a, b)) % 1


def test_pairing_nondegenerate():
    for factors in [(2,), (5,), (2, 4), (3, 3)]:
        g = FinAbGroup(factors)
        for a in g.elements():
            if a == g.zero:
                continue
            assert any(pairing(g, chi, a) != 0 for chi in g.elements())


@given(small_factor_lists, st.data())
def test_index_round_trip(factors, data):
    g = FinAbGroup(tuple(factors))
    idx = data.draw(st.integers(min_value=0, max_value=g.order - 1))
    assert g.index(g.element_at(idx)) == idx


@given(small_factor_lists, st.data())
def test_neg_is_inverse(factors, data):
    g = FinAbGroup(tuple(factors))
    a = g.element_at(data.draw(st.integers(min_value=0, max_value=g.order - 1)))
    assert g.add(a, g.neg(a)) == g.zero


@pytest.mark.parametrize(
    "factors", [(1,), (7,), (3, 2), (2, 2, 2), (4, 6)], ids=["1", "7", "3x2", "2x2x2", "4x6"]
)
def test_add_index_table_matches_elementwise(factors):
    g = FinAbGroup(factors)
    assert g.add_index_table.shape == (g.order, g.order)
    for a in g.elements():
        for b in g.elements():
            assert g.add_index_table[g.index(a), g.index(b)] == g.index(g.add(a, b))


def test_invalid_factors_rejected():
    with pytest.raises(StructuralError):
        FinAbGroup((0,))
    with pytest.raises(StructuralError):
        FinAbGroup(())


def test_dual_generators_and_exponent():
    # the standard basis tuples generate the dual: e_i takes alpha to alpha_i / n_i
    g = FinAbGroup((4, 2))
    assert [pairing(g, e, (3, 1)) for e in [(1, 0), (0, 1)]] == [Fraction(3, 4), Fraction(1, 2)]
    assert g.exponent == 4
    assert FinAbGroup((1,)).exponent == 1
