import json
from itertools import product
from math import gcd
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from twistcat.abgroup import FinAbGroup
from twistcat import fusionring
from twistcat.catalogs import builtin_catalog, cyclic_group
from twistcat.cocycle import AbelianCocycle, build_cyclic
from twistcat.errors import ConsistencyError, StructuralError
from twistcat.fusionring import (
    FusionTable,
    dim_exponents,
    fusion_table,
    su2_s_table,
    su2_spins,
    su2_tensor,
)
from twistcat.grouprep import CentralEmbedding, hom_dim_table, validate_irrep
from twistcat.modcat import TwistedCategory
from twistcat.specio import load_spec
from twistcat.unitscalar import root_of_unity

import oracles

GOLDEN_SPECS = sorted((Path(__file__).parent / "golden" / "specs").glob("*.json"))
FINITE_FIXTURES = ("z2-lattice-on-z4", "super-on-z4", "s3-trivial-grading", "q8-z2")

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
                    n = oracles.hom_dim(cat.group, ma.character, mb.character, mc.character)
                    basis = oracles.intertwiner_basis([ma.rep], [mb.rep], [mc.rep], expected=[n])[0]
                    assert len(basis) == int(table.coefficients[a, b, c])


def test_fusion_associativity(categories):
    for cat in categories.values():
        table = fusion_table(cat)
        assert table.check_associativity() == len(table.labels) ** 4


@pytest.mark.parametrize("name", ["s3-trivial-grading", "q8-z2", "super-on-z4"])
def test_fusion_associativity_failure_names_the_first_tuple(categories, name):
    # one coefficient raised by 1 breaks associativity; the slabbed check must
    # name the same first tuple as the whole-table einsum reference
    table = fusion_table(categories[name])
    k = len(table.labels)
    assert oracles.first_nonassociative(table.coefficients) is None
    rng = np.random.default_rng(0)
    for _ in range(5):
        coeff = table.coefficients.copy()
        coeff[tuple(rng.integers(k, size=3))] += 1
        want = oracles.first_nonassociative(coeff)
        assert want is not None
        labels = tuple(table.labels[i] for i in want)
        with pytest.raises(ConsistencyError) as err:
            FusionTable(table.labels, table.dims, coeff).check_associativity()
        assert str(err.value) == f"fusion associativity fails at {labels}"


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
    assert fusionring.su2_tensor(1, 1) == (0, 2)
    assert fusionring.su2_tensor(0, 7) == (7,)
    assert fusionring.su2_tensor(2, 3) == (1, 3, 5)
    assert sum(k + 1 for k in fusionring.su2_tensor(2, 3)) == 12


@given(spins, spins)
def test_su2_tensor_dimension(m, n):
    assert sum(k + 1 for k in su2_tensor(m, n)) == (m + 1) * (n + 1)


@given(spins, spins)
def test_su2_tensor_grades(m, n):
    assert all(k % 2 == (m + n) % 2 for k in su2_tensor(m, n))


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


def test_su2_dim_exponents_vanish_for_valid_cocycles():
    for s in range(4):
        c = build_cyclic(2, s)
        assert dim_exponents(c)[0] == 0
        assert dim_exponents(c)[1] == 0


def test_group_order_identity(categories):
    expected = {
        "z2-lattice-on-z4": 4,
        "super-on-z4": 4,
        "s3-trivial-grading": 6,
        "q8-z2": 8,
    }
    for name, cat in categories.items():
        assert oracles.dim_sum(cat, dim_exponents(cat.cocycle)) == expected[name]


def test_group_order_identity_trivial_group():
    group, reps = cyclic_group(1)
    grading = FinAbGroup((1,))
    cat = TwistedCategory(
        group, AbelianCocycle.trivial(grading), CentralEmbedding(grading, (0,)), reps
    )
    assert oracles.dim_sum(cat, dim_exponents(cat.cocycle)) == 1


def _lattice_with_shifted_f():
    """The rank-one lattice cocycle with ``F(1, 1, 1)`` moved off its value, unvalidated."""
    lattice = build_cyclic(2, 3)
    f_num = lattice.f_num.copy()
    f_num[1, 1, 1] += 1
    return AbelianCocycle(lattice.group, f_num, lattice.omega_num, lattice.denom)


def _shifted_lattice_on_z4():
    group, reps = builtin_catalog("z4")
    broken = _lattice_with_shifted_f()
    return oracles.unchecked_category(group, broken, CentralEmbedding(broken.group, (2,)), reps)


@pytest.mark.parametrize(
    "spec", [*FINITE_FIXTURES, *(p.name for p in GOLDEN_SPECS), "shifted-lattice-on-z4"]
)
def test_dim_exponents_match_the_dense_trace(spec, categories):
    if spec == "shifted-lattice-on-z4":
        cat = _shifted_lattice_on_z4()
    elif spec in categories:
        cat = categories[spec]
    else:
        cat = load_spec(next(p for p in GOLDEN_SPECS if p.name == spec)).build_category()
    x, denom, g = dim_exponents(cat.cocycle), cat.cocycle.denom, cat.grading
    for m in cat.catalog:
        for obj in (m, oracles.dual(cat, m)):  # grades a and -a
            trace = oracles.cat_trace(cat, obj, np.eye(obj.dim)) / obj.dim
            assert abs(trace - root_of_unity(int(x[g.index(obj.grade)]), denom)) <= 1e-12, obj.label


@pytest.mark.parametrize("n", range(1, 9))
def test_dim_exponents_vanish_on_every_cyclic_class(n):
    for s in range(n * gcd(n, 2)):
        assert not dim_exponents(build_cyclic(n, s)).any(), s


def test_dim_exponents_read_a_shifted_f():
    # lattice: -(Omega(1,1) + Omega(1,1) + F(1,1,1)) = -(3 + 3 + 2) = 0 mod 4;
    # with F(1,1,1) = 3/4 it is -9 = 3 mod 4
    assert fusionring.dim_exponents(build_cyclic(2, 3)).tolist() == [0, 0]
    assert fusionring.dim_exponents(_lattice_with_shifted_f()).tolist() == [0, 3]


def test_to_dict_matches_the_cell_by_cell_reference(categories):
    tables = [fusion_table(cat) for cat in categories.values()]
    group, reps = builtin_catalog("z64")
    coeff = hom_dim_table(group, validate_irrep(reps.values()))
    tables.append(FusionTable(tuple(reps), (1,) * group.order, coeff))
    for table in tables:
        got, want = table.to_dict(), oracles.fusion_dict(table.labels, table.coefficients)
        assert got == want and list(got) == list(table.labels)
        # equal as JSON too: the coefficients are ints, not numpy scalars
        assert json.dumps(got, sort_keys=True) == json.dumps(want, sort_keys=True)
