import cmath
import warnings
from itertools import product
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twistcat import grouprep
from twistcat.abgroup import FinAbGroup
from twistcat.catalogs import builtin_catalog, cyclic_group
from twistcat.cocycle import build_cyclic
from twistcat.errors import (
    ConsistencyError,
    GradingError,
    RepresentationError,
    StructuralError,
)
from twistcat.grouprep import (
    MAX_GROUP_ORDER,
    CentralEmbedding,
    FiniteGroup,
    MatrixRep,
    RepCatalog,
    grade_of,
    hom_dim_table,
    rep_from_generators,
    validate_irrep,
)
from twistcat.modcat import TwistedCategory
from twistcat.specio import load_spec
from twistcat.unitscalar import UnitScalar

import oracles
from oracles import add, dual_rep, hom_dim, neg, pairing, tensor_rep


def _builtin(name):
    """A builtin's group and its irreps by label."""
    catalog = builtin_catalog(name)
    return catalog.group, catalog.irreps


@pytest.fixture(scope="module")
def s3():
    return _builtin("s3")


@pytest.fixture(scope="module")
def q8():
    return _builtin("q8")


def test_z2_table():
    g = FiniteGroup([[0, 1], [1, 0]])
    assert g.order == 2
    assert g.identity == 0
    assert g.conjugacy_classes == ((0,), (1,))


def test_s3_structure(s3):
    group, _ = s3
    assert group.order == 6
    assert group.num_classes == 3
    assert sorted(map(len, group.conjugacy_classes)) == [1, 2, 3]
    assert group.center == (group.identity,)


def test_q8_structure(q8):
    group, _ = q8
    assert group.order == 8
    assert group.num_classes == 5
    assert len(group.center) == 2


def test_non_associative_table_rejected():
    # a loop of order 5: 0 is the identity and every element its own inverse,
    # which no group of order 5 allows
    loop = [[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 4, 0, 1, 3], [3, 2, 4, 0, 1], [4, 3, 1, 2, 0]]
    with pytest.raises(StructuralError, match="table is not associative at element 1"):
        FiniteGroup(loop)


@pytest.mark.parametrize(
    "table, element",
    [
        ([[0, 1, 2], [1, 2, 0], [2, 1, 0]], 1),  # 1 * 2 = 0 but 2 * 1 = 1
        ([[0, 1, 2], [1, 0, 2], [2, 2, 2]], 2),  # no 0 in row 2
        ([[0, 1, 2], [1, 0, 0], [2, 0, 1]], 1),  # two 0s in row 1
    ],
)
def test_missing_inverse_rejected(table, element):
    with pytest.raises(StructuralError, match=f"element {element} has no two-sided inverse"):
        FiniteGroup(table)


def test_table_above_order_cap_rejected():
    # checked before the n^3 associativity gathers
    with pytest.raises(StructuralError, match="group order 65 exceeds MAX_GROUP_ORDER"):
        FiniteGroup(np.zeros((65, 65), dtype=np.int64))


def test_missing_identity_rejected():
    with pytest.raises(StructuralError, match=r"table has no \(or no unique\) identity element"):
        FiniteGroup([[0, 0], [0, 0]])
    # identity not at index 0 is fine
    assert FiniteGroup([[1, 0], [0, 1]]).identity == 1


def test_trivial_rep_character():
    group, _ = cyclic_group(5)
    triv = MatrixRep(group, np.ones((5, 1, 1), dtype=complex))
    (chars,) = validate_irrep([triv])
    assert np.allclose(chars, 1.0)


def test_s3_standard_character(s3):
    group, reps = s3
    (chars,) = validate_irrep([reps["standard"]])
    # classes ordered: identity, transpositions, 3-cycles
    sizes = tuple(group.class_sizes)
    assert sizes == (1, 3, 2)
    assert np.allclose(chars, [2.0, 0.0, -1.0])


def test_reducible_rejected(s3):
    group, _ = s3
    double_trivial = MatrixRep(group, np.tile(np.eye(2), (6, 1, 1)))
    with pytest.raises(RepresentationError, match="not irreducible"):
        validate_irrep([double_trivial])


def test_non_homomorphism_rejected(s3):
    group, reps = s3
    mats = reps["standard"].matrices.copy()
    mats[3] = np.eye(2)
    with pytest.raises(RepresentationError, match="not a homomorphism"):
        validate_irrep([MatrixRep(group, mats)])


def test_overflowing_products_fail_without_warnings():
    # Z/2 with rho(1) = 1e200: every generated matrix is finite, and the
    # homomorphism product rho(1) rho(1) overflows to inf; on Z/4 the walk
    # itself overflows at rho(2).  Tier-1 turns RuntimeWarnings into errors.
    group, _ = cyclic_group(2)
    with pytest.raises(RepresentationError, match=r"= inf at a=1$"):
        validate_irrep([rep_from_generators(group, [1], [[[1e200]]])])
    group, _ = cyclic_group(4)
    rep = rep_from_generators(group, [1], [[[1e200]]])
    assert np.isinf(rep.matrices[2]).all() and np.isnan(rep.matrices[3]).all()
    with pytest.raises(RepresentationError, match="not a homomorphism"):
        validate_irrep([rep])


def test_homomorphism_check_names_the_lowest_failing_element():
    # Z/6 relabelled so that 2Z/6 takes indices 0..2, with a 2-dim rep
    # multiplied on the right by I + E, E nilpotent, on the odd residues:
    # every a outside 2Z/6 fails, and a=4 by the most
    residues = [0, 2, 4, 1, 3, 5]
    index = {r: i for i, r in enumerate(residues)}
    group = FiniteGroup([[index[(x + y) % 6] for y in residues] for x in residues])
    rot = np.array([[np.cos(0.3), -np.sin(0.3)], [np.sin(0.3), np.cos(0.3)]])
    skew = np.array([[1.0, 0.1], [0.0, 1.0]])
    mats = np.array([
        rot @ np.diag(np.exp([2j * np.pi * r / 6, -2j * np.pi * r / 6])) @ rot.T
        @ (skew if r % 2 else np.eye(2))
        for r in residues
    ])
    mats[group.identity] = np.eye(2)
    errs = [  # the per-element loop
        float(np.abs(mats[a] @ mats - mats[group.table[a]]).max()) for a in range(group.order)
    ]
    assert [a for a, err in enumerate(errs) if not err <= 1e-9] == [3, 4, 5]
    assert max(errs) == errs[4] > errs[3]
    with pytest.raises(RepresentationError, match=rf"= {errs[3]:.2e} at a=3$"):
        validate_irrep([MatrixRep(group, mats)])


def test_intertwiner_check_fails_on_a_corrupted_factor(s3):
    # rho1 scaled by i at g^-1 and rho3 by -i at g leave every term
    # rho3(h) (x) (rho1 (x) rho2)(h^-1)^T of the projector as it was, so it
    # keeps its rank; only the per-element intertwiner check can fail
    group, reps = s3
    w, g = reps["standard"], 3
    m1, m3 = w.matrices.copy(), w.matrices.copy()
    m1[group.inverse[g]] *= 1j
    m3[g] *= -1j
    t = oracles.intertwiner_basis([w], [w], [w], expected=[1])[0][0]
    prod = tensor_rep(MatrixRep(group, m1), w).matrices
    err = max(float(np.abs(m3[h] @ t - t @ prod[h]).max()) for h in range(group.order))
    assert err > 1e-8
    with pytest.raises(ConsistencyError, match="not an intertwiner"):
        oracles.intertwiner_basis(
            [MatrixRep(group, m1)], [w], [MatrixRep(group, m3)], expected=[1]
        )


@pytest.mark.parametrize("name", ["s3", "d4", "q8"])
def test_intertwiner_stacks_match_single_triples(name):
    # every triple with a nonzero hom space, in one call: stacks of several
    # signatures, each basis bit for bit the one-triple call's
    group, reps = _builtin(name)
    chars = {k: validate_irrep([r])[0] for k, r in reps.items()}
    triples = [
        (reps[a], reps[b], reps[c], n) for a, b, c in product(reps, repeat=3)
        if (n := hom_dim(group, chars[a], chars[b], chars[c]))
    ]
    assert len({(r1.dim, r2.dim, r3.dim) for r1, r2, r3, _ in triples}) > 1
    stacked = oracles.intertwiner_basis(
        *([t[k] for t in triples] for k in range(3)), expected=[t[3] for t in triples]
    )
    for (r1, r2, r3, n), basis in zip(triples, stacked, strict=True):
        single = oracles.intertwiner_basis([r1], [r2], [r3], expected=[n])[0]
        assert len(basis) == len(single) > 0
        assert all(np.array_equal(x, y) for x, y in zip(basis, single))


def test_intertwiner_stack_raises_its_first_failing_triple(s3):
    # a failing triple raises the error it raises on its own, and of several
    # failing triples in different stacks, the first in sequence order
    group, reps = s3
    w, g = reps["standard"], 3
    m1, m3 = w.matrices.copy(), w.matrices.copy()
    m1[group.inverse[g]] *= 1j
    m3[g] *= -1j
    corrupted = (MatrixRep(group, m1), w, MatrixRep(group, m3), 1)  # fails the intertwiner check
    wrong_rank = (w, w, reps["trivial"], 2)  # a rank-1 projector, another stack
    good = (w, w, w, 1)
    for triples, match in [
        ([good, corrupted, wrong_rank], "not an intertwiner"),
        ([wrong_rank, good, corrupted], "projector rank 1 does not match character dimension 2"),
    ]:
        with pytest.raises(ConsistencyError, match=match):
            oracles.intertwiner_basis(
                *([t[k] for t in triples] for k in range(3)), expected=[t[3] for t in triples]
            )
    assert len(oracles.intertwiner_basis([w, w], [w, w], [w, w], expected=[1, 1])) == 2


def test_intertwiner_basis_needs_one_rank_per_triple(s3):
    _, reps = s3
    w = reps["standard"]
    for expected in ([1], [1, 1, 1]):
        with pytest.raises(ValueError, match="zip"):
            oracles.intertwiner_basis([w, w], [w, w], [w, w], expected=expected)


def test_hom_dim_s3(s3):
    group, reps = s3
    chars = {k: validate_irrep([r])[0] for k, r in reps.items()}
    w = chars["standard"]
    assert hom_dim(group, w, w, w) == 1
    assert hom_dim(group, w, w, chars["trivial"]) == 1
    assert hom_dim(group, w, w, chars["sign"]) == 1
    assert hom_dim(group, chars["trivial"], chars["trivial"], chars["trivial"]) == 1
    assert hom_dim(group, chars["trivial"], chars["sign"], chars["trivial"]) == 0


def test_hom_dim_table_of_known_fusion_rules():
    # read through the module, so that a mutation table row can replace it.
    # Z/5: chi_a (x) chi_b = chi_{a+b}, which the conjugated third character
    # tells from chi_{-(a+b)}
    group, reps = cyclic_group(5)
    a = np.arange(5)
    want = (a[:, None, None] + a[None, :, None]) % 5 == a[None, None, :]
    table = grouprep.hom_dim_table(group, validate_irrep(list(reps.values())))
    assert np.array_equal(table, want)
    # S3 (trivial, sign, standard): sign (x) sign = trivial, sign (x) standard
    # = standard, standard (x) standard = trivial + sign + standard
    group, reps = _builtin("s3")
    assert list(reps) == ["trivial", "sign", "standard"]
    want = [
        [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
        [[0, 1, 0], [1, 0, 0], [0, 0, 1]],
        [[0, 0, 1], [0, 0, 1], [1, 1, 1]],
    ]
    assert grouprep.hom_dim_table(group, validate_irrep(list(reps.values()))).tolist() == want


def test_intertwiner_basis_s3(s3):
    group, reps = s3
    w = reps["standard"]
    for label, expected in [("trivial", 1), ("sign", 1), ("standard", 1)]:
        basis = oracles.intertwiner_basis([w], [w], [reps[label]], expected=[expected])[0]
        assert len(basis) == expected
    identity_span = oracles.intertwiner_basis([reps["trivial"]], [w], [w], expected=[1])[0]
    assert len(identity_span) == 1
    t = identity_span[0]
    assert np.allclose(t / t[0, 0], np.eye(2))


def test_intertwiner_equivariance(q8):
    group, reps = q8
    spin = reps["spin"]
    prod = tensor_rep(spin, spin)
    for label in ["trivial", "sign-i", "sign-j", "sign-k"]:
        ((t,),) = oracles.intertwiner_basis([spin], [spin], [reps[label]], expected=[1])
        for g in range(group.order):
            assert np.abs(reps[label].matrices[g] @ t - t @ prod.matrices[g]).max() <= 1e-8


def test_grade_of_z4_over_z2():
    group, reps = cyclic_group(4)
    grading = FinAbGroup((2,))
    emb = CentralEmbedding(grading, (2,))  # chi_1 -> g^2
    emb.validate(group)
    assert grade_of([reps["chi1"]], emb) == [(1,)]  # g -> i squares to -1
    assert grade_of([reps["chi2"]], emb) == [(0,)]  # g -> -1 squares to +1
    assert grade_of([reps["chi0"]], emb) == [(0,)]


def test_grade_of_failure():
    group, reps = cyclic_group(4)
    grading = FinAbGroup((4,))
    emb = CentralEmbedding(grading, (1,))  # chi_1 -> g, order 4 divides 4
    emb.validate(group)
    # rep chi1 pairs g with i = chi(1); fine.  A non-matching embedding:
    bad = CentralEmbedding(FinAbGroup((2,)), (1,))  # g has order 4, not dividing 2
    with pytest.raises(StructuralError):
        bad.validate(group)


def test_embedding_must_be_central(s3):
    group, _ = s3
    noncentral = next(a for a in range(group.order) if a not in group.center)
    with pytest.raises(StructuralError, match="central"):
        CentralEmbedding(FinAbGroup((2,)), (noncentral,)).validate(group)


def test_tensor_and_dual(s3):
    group, reps = s3
    w = reps["standard"]
    ww = tensor_rep(w, w)
    assert ww.dim == 4
    (chars_w,) = validate_irrep([w])
    traces = np.einsum("nii->n", ww.matrices)
    traces_w = np.einsum("nii->n", w.matrices)
    assert np.allclose(traces, traces_w**2)  # character of tensor is the product
    (dual_chars,) = validate_irrep([dual_rep(w)])
    assert np.allclose(dual_chars, np.conj(chars_w))


def test_column_orthogonality_builtins():
    for name in ["z4", "s3", "d4", "q8"]:
        group, reps = _builtin(name)
        assert sum(r.dim**2 for r in reps.values()) == group.order


def test_rep_from_generators_matches_direct():
    group, reps = cyclic_group(4)
    built = rep_from_generators(group, [1], [np.array([[1j]])])
    assert np.allclose(built.matrices, reps["chi1"].matrices)


def test_from_permutations_klein():
    g = FiniteGroup.from_permutations([(1, 0, 3, 2), (2, 3, 0, 1)])
    assert g.order == 4
    assert all(g.mul(a, a) == g.identity for a in range(4))


def test_hom_dim_non_integer_rejected(s3):
    group, _ = s3
    fake = np.array([0.5, 0.3, 0.1], dtype=complex)
    with pytest.raises(ConsistencyError):
        hom_dim(group, fake, fake, fake)


def test_grade_of_reducible_rep_fails():
    group, reps = cyclic_group(4)
    grading = FinAbGroup((2,))
    emb = CentralEmbedding(grading, (2,))
    mixed = MatrixRep(
        group,
        np.stack(
            [
                np.block(
                    [
                        [reps["chi0"].matrices[g], np.zeros((1, 1))],
                        [np.zeros((1, 1)), reps["chi1"].matrices[g]],
                    ]
                )
                for g in range(4)
            ]
        ),
    )
    # g^2 acts by diag(1, -1), which is no character scalar
    with pytest.raises(GradingError):
        grade_of([mixed], emb)


def test_grade_additivity_and_duality():
    group, reps = cyclic_group(4)
    grading = FinAbGroup((2,))
    emb = CentralEmbedding(grading, (2,))
    (g1,) = grade_of([reps["chi1"]], emb)
    (g3,) = grade_of([reps["chi3"]], emb)
    assert grade_of([tensor_rep(reps["chi1"], reps["chi3"])], emb) == [add(grading, g1, g3)]
    assert grade_of([tensor_rep(reps["chi1"], reps["chi2"])], emb) == [(1,)]
    assert grade_of([dual_rep(reps["chi1"])], emb) == [neg(grading, g1)]


def test_non_unitary_rep_validates_without_warning(s3):
    group, reps = s3
    conj = np.array([[1.0, 0.7], [0.0, 1.0]])  # non-unitary change of basis
    inv = np.linalg.inv(conj)
    mats = np.stack([conj @ m @ inv for m in reps["standard"].matrices])
    mats[group.identity] = np.eye(2)
    skewed = MatrixRep(group, mats)
    assert max(float(np.abs(m @ m.conj().T - np.eye(2)).max()) for m in mats) > 0.5
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        (chars,) = validate_irrep([skewed])
    assert np.allclose(chars, [2.0, 0.0, -1.0])


@pytest.mark.parametrize("index", [-1, 2, 99])
def test_rep_from_generators_rejects_index_outside_group(index):
    group, _ = cyclic_group(2)
    with pytest.raises(StructuralError, match=f"generator index {index} is not an element index"):
        rep_from_generators(group, [index], [[[-1]]])


def test_group_order_cap():
    # only the rejection path: nothing of the refused order is allocated
    with pytest.raises(StructuralError, match="exceeds MAX_GROUP_ORDER = 64"):
        cyclic_group(MAX_GROUP_ORDER + 1)
    s5 = [(1, 2, 3, 4, 0), (1, 0, 2, 3, 4)]
    with pytest.raises(StructuralError, match="more than MAX_GROUP_ORDER = 64 elements"):
        FiniteGroup.from_permutations(s5)


def _power(group, x, k):
    out = group.identity
    for _ in range(k):
        out = group.mul(out, x)
    return out


def _rs_closed_forms(name, r_name, s_name, r_mat, s_mat, signs):
    """Each element r^a s^b of a two-generator builtin with its image
    ``R^a S^b`` under the 2-dim irrep and ``u^a v^b`` under each 1-dim one."""
    group = builtin_catalog(name).group
    r, s = (group.element_names.index(x) for x in (r_name, s_name))
    expected = {label: np.empty((group.order, 1, 1), dtype=complex) for label in signs}
    two_dim = np.empty((group.order, 2, 2), dtype=complex)
    for a, b in product(range(4), range(2)):
        g = group.mul(_power(group, r, a), _power(group, s, b))
        two_dim[g] = np.linalg.matrix_power(r_mat, a) @ np.linalg.matrix_power(s_mat, b)
        for label, (u, v) in signs.items():
            expected[label][g] = u**a * v**b
    return expected, two_dim


def _builtin_closed_forms(name):
    if name == "d4":
        signs = {"trivial": (1, 1), "sign-s": (1, -1), "sign-r": (-1, 1), "sign-rs": (-1, -1)}
        rot, refl = np.array([[0, -1], [1, 0]]), np.diag([1, -1])
        expected, standard = _rs_closed_forms(name, "r^1", "r^0s", rot, refl, signs)
        return {**expected, "standard": standard}
    if name == "q8":
        signs = {"trivial": (1, 1), "sign-j": (1, -1), "sign-i": (-1, 1), "sign-k": (-1, -1)}
        i_mat, j_mat = np.diag([1j, -1j]), np.array([[0, -1], [1, 0]])
        expected, spin = _rs_closed_forms(name, "i", "j", i_mat, j_mat, signs)
        return {**expected, "spin": spin}
    # S3 acts on the plane by permuting the vertices v_k of a triangle: the
    # matrix M_p has M_p v_k = v_{p[k]}; the 3-cycle turns by 2 pi / 3
    group = builtin_catalog(name).group
    angles = 2 * np.pi * (np.arange(3) + 1) / 3
    vertices = np.array([np.cos(angles), np.sin(angles)])
    perms = [list(p) for p in group.element_names]
    return {
        "trivial": np.ones((6, 1, 1)),
        "sign": np.array([[[np.linalg.det(np.eye(3)[:, p])]] for p in perms]),
        "standard": np.array([vertices[:, p] @ np.linalg.pinv(vertices) for p in perms]),
    }


@pytest.mark.parametrize("name", ["s3", "d4", "q8"])
def test_builtin_irreps_match_closed_forms(name):
    reps = builtin_catalog(name).irreps
    expected = _builtin_closed_forms(name)
    assert list(reps) == list(expected)
    for label, rep in reps.items():
        assert np.abs(rep.matrices - expected[label]).max() <= 1e-12, label


def _grades_by_search(rep, embedding):
    """Every alpha of the grading group with ``rho(iota(chi)) = chi(alpha) I``
    for each dual generator ``chi``, a standard basis tuple, by trying them all."""
    grading, eye = embedding.grading, np.eye(rep.dim)
    generators = [tuple(int(i == j) for j in range(grading.rank)) for i in range(grading.rank)]
    return [
        alpha
        for alpha in grading.elements()
        if all(
            np.abs(
                rep.matrices[img] - UnitScalar(pairing(grading, chi, alpha)).to_complex() * eye
            ).max() <= 1e-9
            for chi, img in zip(generators, embedding.images)
        )
    ]


def _assert_grade_matches_search(rep, embedding):
    matches = _grades_by_search(rep, embedding)
    if len(matches) == 1:
        assert grade_of([rep], embedding) == [matches[0]]
    else:
        with pytest.raises(GradingError):
            grade_of([rep], embedding)
    return matches


def _builtin_embeddings(group):
    """Each central element as the image of Z/n, for n its order and twice it."""
    for img in group.center:
        k = group.element_order(img)
        for n in (k, 2 * k):
            yield CentralEmbedding(FinAbGroup((n,)), (img,))
    center = group.center
    for a, b in product(center, center):
        yield CentralEmbedding(
            FinAbGroup((group.element_order(a), group.element_order(b))), (a, b)
        )


@pytest.mark.parametrize("name", ["z1", "z2", "z3", "z4", "z6", "z8", "s3", "d4", "q8"])
def test_grade_of_matches_search_on_builtins(name):
    group, reps = _builtin(name)
    graded = 0
    for embedding in _builtin_embeddings(group):
        for rep in reps.values():
            graded += len(_assert_grade_matches_search(rep, embedding)) == 1
    assert graded > 0


def test_grade_of_matches_search_on_golden_catalogs(categories):
    golden = sorted((Path(__file__).parent / "golden" / "specs").glob("*.json"))
    for cat in [*categories.values(), *(load_spec(path).build_category() for path in golden)]:
        for m in cat.catalog:
            assert _assert_grade_matches_search(m.rep, cat.embedding) == [m.grade]


def test_grade_of_rejects_what_search_rejects(s3):
    z4, chis = cyclic_group(4)
    # reducible, chi1 + chi0: g^2 acts by diag(-1, 1), no scalar
    mixed = MatrixRep(z4, np.stack([np.diag([chi[0, 0], 1]) for chi in chis["chi1"].matrices]))
    group, reps = s3
    swap = group.element_names.index((1, 0, 2))
    cases = [
        (mixed, CentralEmbedding(FinAbGroup((2,)), (2,))),
        # g acts by i, which is no square root of 1
        (chis["chi1"], CentralEmbedding(FinAbGroup((2,)), (1,))),
        # a non-central image acts by diag(1, -1) on the standard irrep
        (reps["standard"], CentralEmbedding(FinAbGroup((2,)), (swap,))),
    ]
    d4 = builtin_catalog("d4").irreps
    # a rotation by a quarter turn has zero diagonal entries
    cases.append((d4["standard"], CentralEmbedding(FinAbGroup((4,)), (1,))))
    for rep, embedding in cases:
        assert _assert_grade_matches_search(rep, embedding) == []


def test_non_finite_entries_fail_every_check():
    group, reps = cyclic_group(4)
    mats = reps["chi1"].matrices.copy()
    mats[2] = np.nan
    with pytest.raises(RepresentationError):
        validate_irrep([MatrixRep(group, mats)])
    with pytest.raises(GradingError):
        grade_of([MatrixRep(group, mats)], CentralEmbedding(FinAbGroup((2,)), (2,)))
    chars = np.array([validate_irrep([r])[0] for r in reps.values()])
    chars[1, 2] = np.nan
    with pytest.raises(ConsistencyError):
        hom_dim_table(group, chars)
    with pytest.raises(ConsistencyError):
        hom_dim(group, chars[1], chars[1], chars[2])


def _bits(chars):
    return np.asarray(chars).view(np.int64)


def test_characters_equal_the_per_irrep_reference_bit_for_bit(categories):
    builtins = [f"z{n}" for n in range(1, MAX_GROUP_ORDER + 1)] + ["s3", "d4", "q8"]
    catalogs = [list(builtin_catalog(name).irreps.values()) for name in builtins]
    golden = sorted((Path(__file__).parent / "golden" / "specs").glob("*.json"))
    for cat in [*categories.values(), *(load_spec(path).build_category() for path in golden)]:
        catalogs.append([m.rep for m in cat.catalog])
    # more reps of one dimension than |G| / d^2, validated a chunk at a time
    z4 = builtin_catalog("z4").irreps
    catalogs.append([z4["chi1"], z4["chi3"]] * 5)
    for reps in catalogs:
        chars = validate_irrep(reps)
        assert len(chars) == len(reps)
        for rep, got in zip(reps, chars):
            assert np.array_equal(_bits(got), _bits(oracles.validate_irrep(rep)))


def _z4_faults():
    """Z/4, its characters, and one rep of Z/4 failing each check, by the
    words of the message it must raise."""
    group, reps = cyclic_group(4)
    chi1 = reps["chi1"].matrices
    wrong_identity, not_hom = chi1.copy(), chi1.copy()
    wrong_identity[0] = 2
    not_hom[3] = 1
    return group, reps, {
        "too large": MatrixRep(group, np.tile(np.eye(3), (4, 1, 1))),
        "identity element": MatrixRep(group, wrong_identity),
        "not a homomorphism": MatrixRep(group, not_hom),
        "not irreducible": MatrixRep(group, np.array([np.diag([1, m[0, 0]]) for m in chi1])),
    }


def _category(group, irreps):
    cocycle = build_cyclic(2, 3)
    embedding = CentralEmbedding(cocycle.group, (2,))
    return TwistedCategory(RepCatalog(group, irreps), cocycle, embedding, complete=False)


def _reference_message(rep):
    with pytest.raises(RepresentationError) as raised:
        oracles.validate_irrep(rep)
    return str(raised.value)


def test_a_catalog_names_its_faulty_irrep_with_the_reference_message():
    group, reps, faults = _z4_faults()
    # Z/4 with a wrong class list, {1, 3} as one class: chi1 is a
    # homomorphism whose trace differs on it
    lied = FiniteGroup(group.table)
    lied.conjugacy_classes = ((0,), (1, 3), (2,))
    lied_reps = {k: MatrixRep(lied, r.matrices) for k, r in reps.items()}
    cases = [(group, reps, fault, words) for words, fault in faults.items()]
    cases.append((lied, lied_reps, lied_reps["chi1"], "not constant on conjugacy class 1"))
    for group, reps, fault, words in cases:
        want = _reference_message(fault)
        assert words in want
        with pytest.raises(RepresentationError) as raised:
            _category(group, {"chi0": reps["chi0"], "bad": fault, "chi2": reps["chi2"]})
        assert str(raised.value) == want


def test_grading_names_the_rep_without_a_grade():
    _, reps, _ = _z4_faults()
    # g acts by i on chi1, which is no square root of 1
    embedding = CentralEmbedding(FinAbGroup((2,)), (1,))
    assert grade_of([reps["chi0"], reps["chi2"]], embedding) == [(0,), (1,)]
    assert _grades_by_search(reps["chi1"], embedding) == []
    with pytest.raises(GradingError, match="0 candidate grades"):
        grade_of([reps["chi0"], reps["chi1"], reps["chi2"]], embedding)


def test_the_first_faulty_irrep_in_catalog_order_is_named():
    # the two faults sit in different dimension stacks, each order in turn
    group, reps, faults = _z4_faults()
    reducible, not_hom = faults["not irreducible"], faults["not a homomorphism"]
    for first, second in [(reducible, not_hom), (not_hom, reducible)]:
        with pytest.raises(RepresentationError) as raised:
            _category(group, {"chi0": reps["chi0"], "a": first, "b": second})
        assert str(raised.value) == _reference_message(first)
    # a fault in the second chunk of the one-dimensional stack, before a
    # fault in the two-dimensional one
    valid = {f"chi1-{k}": reps["chi1"] for k in range(5)}
    with pytest.raises(RepresentationError) as raised:
        _category(group, {**valid, "a": not_hom, "b": reducible})
    assert str(raised.value) == _reference_message(not_hom)


def test_non_unitary_irreps_validate_without_warning_in_catalog_order(s3):
    group, reps = s3

    def skewed(t):
        conj = np.array([[1.0, t], [0.0, 1.0]])
        mats = np.stack([conj @ m @ np.linalg.inv(conj) for m in reps["standard"].matrices])
        mats[group.identity] = np.eye(2)
        return MatrixRep(group, mats)

    catalog = [reps["trivial"], skewed(0.7), reps["sign"], skewed(0.3)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        want = [oracles.validate_irrep(r) for r in catalog]
        got = validate_irrep(catalog)
    assert len(got) == len(want)
    for chars, ref in zip(got, want):
        assert np.array_equal(chars, ref)


@pytest.mark.parametrize("n", [1, 2, 7, 64])
def test_cyclic_characters_are_the_closed_forms_bit_for_bit(n):
    _, reps = cyclic_group(n)
    for k in range(n):
        want = np.array([[[cmath.exp(2j * cmath.pi * (k * a % n) / n)]] for a in range(n)])
        want[0] = 1.0  # exact identity
        assert np.array_equal(reps[f"chi{k}"].matrices.view(np.int64), want.view(np.int64))


BUILTINS = [f"z{n}" for n in range(1, MAX_GROUP_ORDER + 1)] + ["s3", "d4", "q8"]
GOLDEN_SPECS = sorted((Path(__file__).parent / "golden" / "specs").glob("*.json"))


def test_classes_and_centre_match_the_loop_oracles():
    groups = [builtin_catalog(name).group for name in BUILTINS]
    groups += [load_spec(path).build_category().group for path in GOLDEN_SPECS]
    for group in groups:
        assert group.conjugacy_classes == oracles.conjugacy_classes(group)
        assert group.center == oracles.center(group)


def _assert_permutation_group_matches_the_oracles(generators):
    group = FiniteGroup.from_permutations(generators)
    elements = oracles.permutation_closure(generators)
    assert group.element_names == tuple(elements)
    assert np.array_equal(group.table, oracles.permutation_table(elements))
    assert group.conjugacy_classes == oracles.conjugacy_classes(group)
    assert group.center == oracles.center(group)


def test_permutation_groups_match_the_loop_oracles():
    # S3 as the builtin generates it, and every golden spec's permutation group
    sources = [[(1, 2, 0), (1, 0, 2)]]
    for path in GOLDEN_SPECS:
        kind, value = load_spec(path).group_source
        if kind == "permutations":
            sources.append(value)
    assert len(sources) > 1
    for generators in sources:
        _assert_permutation_group_matches_the_oracles(generators)


@st.composite
def _permutation_generators(draw):
    width = draw(st.integers(1, 7))
    return draw(st.lists(st.permutations(range(width)), min_size=1, max_size=3))


@settings(max_examples=150, deadline=None)
@given(_permutation_generators())
def test_drawn_permutation_groups_match_the_loop_oracles(generators):
    if len(oracles.permutation_closure(generators)) > MAX_GROUP_ORDER:
        with pytest.raises(StructuralError) as raised:
            FiniteGroup.from_permutations(generators)
        assert str(raised.value) == (
            f"permutation group has more than MAX_GROUP_ORDER = {MAX_GROUP_ORDER} elements"
        )
    else:
        _assert_permutation_group_matches_the_oracles(generators)


def test_trivial_permutation_groups_have_order_one():
    for generators in ([()], [(0,)]):
        group = FiniteGroup.from_permutations(generators)
        assert group.order == 1
        _assert_permutation_group_matches_the_oracles(generators)


def test_cyclic_characters_match_the_loop_oracle_bit_for_bit():
    # through builtin_catalog, which reads catalogs.cyclic_group at call time
    for n in range(1, MAX_GROUP_ORDER + 1):
        reps = builtin_catalog(f"z{n}").irreps
        want = oracles.cyclic_characters(n)
        assert list(reps) == list(want)
        for label, mats in want.items():
            assert np.array_equal(_bits(reps[label].matrices), _bits(mats))
