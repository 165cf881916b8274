from itertools import product

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from twistcat.abgroup import FinAbGroup
from twistcat.catalogs import cyclic_group
from twistcat.cocycle import AbelianCocycle, build_cyclic
from twistcat.errors import ConsistencyError, StructuralError
from twistcat.fusionring import (
    FusionTable,
    fusion_table,
    group_order_identity,
    su2_cat_dim_scalar,
    su2_s_table,
    su2_spins,
    su2_tensor,
)
from twistcat.grouprep import CentralEmbedding, hom_dim, intertwiner_basis
from twistcat.modcat import TwistedCategory

spins = st.integers(min_value=0, max_value=30)


def su2_integers(spins, cocycle):
    """``su2_s_table`` as the integers ``+-d_i d_j``, read as ``cli`` reads a +-1 entry."""
    num, mag = su2_s_table(spins, cocycle)
    return np.where(num == 0, mag, -mag)


def test_s3_fusion_table(s3_cat):
    table = fusion_table(s3_cat).to_dict()
    w = "standard"
    assert table[w][w] == {"trivial": 1, "sign": 1, w: 1}
    assert table["sign"]["sign"] == {"trivial": 1}
    assert table["trivial"][w] == {w: 1}


def test_cyclic_fusion_is_group_law():
    group, reps = cyclic_group(5)
    grading = FinAbGroup((1,))
    cat = TwistedCategory(
        group, AbelianCocycle.trivial(grading), CentralEmbedding(grading, (0,)), reps
    )
    table = fusion_table(cat).to_dict()
    for a, b in product(range(5), repeat=2):
        assert table[f"chi{a}"][f"chi{b}"] == {f"chi{(a + b) % 5}": 1}


def test_q8_fusion_spin_squared(q8_cat):
    table = fusion_table(q8_cat).to_dict()
    assert table["spin"]["spin"] == dict.fromkeys(["trivial", "sign-i", "sign-j", "sign-k"], 1)


def test_fusion_matches_projector_ranks(s3_cat, q8_cat):
    for cat in (s3_cat, q8_cat):
        table = fusion_table(cat)
        members = cat.catalog
        for a, ma in enumerate(members):
            for b, mb in enumerate(members):
                for c, mc in enumerate(members):
                    n = hom_dim(cat.group, ma.character, mb.character, mc.character)
                    basis = intertwiner_basis(ma.rep, mb.rep, mc.rep, expected=n)
                    assert len(basis) == int(table.coefficients[a, b, c])


def test_fusion_associativity(categories):
    for cat in categories.values():
        table = fusion_table(cat)
        assert table.check_associativity() == len(table.labels) ** 4


def test_dimension_rule_failure_detected():
    labels = ("1", "x")
    dims = (1, 2)
    coeff = np.zeros((2, 2, 2), dtype=int)
    coeff[0] = np.eye(2, dtype=int)
    coeff[1, 0, 1] = 1
    coeff[1, 1, 0] = 1  # x (x) x = 1 only: dimension rule 1 != 4 must fail
    table = FusionTable(labels, dims, coeff)
    with pytest.raises(ConsistencyError, match="dimension rule"):
        table.check_invariants("1")


def test_su2_tensor_examples():
    assert su2_tensor(1, 1).spins == (0, 2)
    assert su2_tensor(0, 7).spins == (7,)
    assert su2_tensor(2, 3).spins == (1, 3, 5)
    assert su2_tensor(2, 3).dim == 12


@given(spins, spins)
def test_su2_tensor_dimension(m, n):
    assert su2_tensor(m, n).dim == (m + 1) * (n + 1)


@given(spins, spins)
def test_su2_tensor_grades(m, n):
    obj = su2_tensor(m, n)
    assert all(k % 2 == (m + n) % 2 for k in obj.spins)


def test_su2_smatrix_entries():
    lattice = build_cyclic(2, 3)
    assert su2_integers([1, 1], lattice)[0, 1] == -4
    assert su2_integers([0, 5], lattice)[0, 1] == 6
    assert su2_integers([3, 5], lattice)[0, 1] == -24  # (-1)^{15} * 4 * 6
    trivial = build_cyclic(2, 0)
    assert su2_integers([3, 5], trivial)[0, 1] == 24


def test_su2_smatrix_symmetry_and_magnitude():
    lattice = build_cyclic(2, 3)
    s = su2_integers(su2_spins(6), lattice)
    assert np.array_equal(s, s.T)
    for m, n in product(range(7), repeat=2):
        assert abs(int(s[m, n])) == (m + 1) * (n + 1)


def test_su2_smatrix_low_spin_block():
    lattice = build_cyclic(2, 3)
    s = su2_integers(su2_spins(3), lattice)
    expected = [[1, 2, 3, 4], [2, -4, 6, -8], [3, 6, 9, 12], [4, -8, 12, -16]]
    assert np.array_equal(s, np.array(expected))


@pytest.mark.parametrize("max_spin", [0, 1, 13, 64])
def test_su2_smatrix_matches_entrywise(max_spin):
    # b(1, 1) = s / 2 on Z/2, so S_mn = (-1)^{s m n} (m + 1)(n + 1)
    for s in range(8):
        out = su2_integers(su2_spins(max_spin), build_cyclic(2, s))
        expected = np.array(
            [[(-1) ** (s * m * n) * (m + 1) * (n + 1) for n in range(max_spin + 1)]
             for m in range(max_spin + 1)],
            dtype=np.int64,
        )
        assert out.dtype == np.int64
        assert np.array_equal(out, expected)


def test_su2_smatrix_rejects_bad_spins_and_forms():
    for max_spin in (-1, 65):
        with pytest.raises(StructuralError, match="max_spin"):
            su2_spins(max_spin)
    # Omega(1, 1) = e(1/8) gives b(1, 1) = 1/4; only odd spins reach it, as e(-1/4)
    quarter = AbelianCocycle(
        FinAbGroup((2,)), np.zeros((2, 2, 2), np.int64), np.array([[0, 0], [0, 1]]), 8
    )
    num, mag = su2_s_table(su2_spins(1), quarter)
    assert num.tolist() == [[0, 0], [0, 6]] and mag.tolist() == [[1, 2], [2, 4]]


def test_su2_needs_z2_cocycle():
    with pytest.raises(StructuralError):
        su2_s_table([1, 1], build_cyclic(3, 1))


def test_su2_cat_dim_scalar_trivial_for_valid_cocycles():
    for s in range(4):
        c = build_cyclic(2, s)
        assert su2_cat_dim_scalar(0, c) == 0
        assert su2_cat_dim_scalar(1, c) == 0


def test_group_order_identity(categories):
    expected = {
        "z2-lattice-on-z4": 4,
        "super-on-z4": 4,
        "s3-trivial-grading": 6,
        "q8-z2": 8,
    }
    for name, cat in categories.items():
        assert group_order_identity(cat) == expected[name]


def test_group_order_identity_trivial_group():
    group, reps = cyclic_group(1)
    grading = FinAbGroup((1,))
    cat = TwistedCategory(
        group, AbelianCocycle.trivial(grading), CentralEmbedding(grading, (0,)), reps
    )
    assert group_order_identity(cat) == 1
