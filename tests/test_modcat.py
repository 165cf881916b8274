import dataclasses
import re
from itertools import product

import numpy as np
import pytest

from twistcat.abgroup import FinAbGroup
from twistcat.catalogs import builtin_catalog
from twistcat.cocycle import AbelianCocycle, build_cyclic
from twistcat.errors import CocycleError, ConsistencyError, StructuralError
from twistcat import modcat
from twistcat.fusionring import fusion_table
from twistcat.grouprep import CentralEmbedding, hom_dim, intertwiner_basis
from twistcat.modcat import TwistedCategory, flip_matrix
from twistcat.unitscalar import UnitScalar


def test_flip_matrix_moves_coordinates():
    flip = flip_matrix(2, 3)
    v = np.zeros(6)
    v[0 * 3 + 2] = 1.0  # e_0 (x) f_2
    w = flip @ v
    assert w[2 * 2 + 0] == 1.0  # f_2 (x) e_0


def test_associator_scalars(lattice_cat, q8_cat):
    odd = [m for m in lattice_cat.catalog if m.grade == (1,)]
    mor = lattice_cat.associator(odd[0], odd[0], odd[1])
    assert np.allclose(mor.matrix, -np.eye(1))
    # any slot with grade zero gives the identity
    even = [m for m in lattice_cat.catalog if m.grade == (0,)]
    mor = lattice_cat.associator(even[0], odd[0], odd[1])
    assert np.allclose(mor.matrix, np.eye(1))
    # three odd two-dimensional objects: -1 times the identity on 8 dimensions
    spin = q8_cat["spin"]
    mor = q8_cat.associator(spin, spin, spin)
    assert mor.matrix.shape == (8, 8)
    assert np.allclose(mor.matrix, -np.eye(8))


def test_braiding_scalars(lattice_cat, s3_cat):
    odd = [m for m in lattice_cat.catalog if m.grade == (1,)]
    even = [m for m in lattice_cat.catalog if m.grade == (0,)]
    # grade zero on either side: plain flip
    mor = lattice_cat.braiding(even[0], odd[0])
    assert np.allclose(mor.matrix, flip_matrix(1, 1))
    # odd (x) odd with Omega(1,1) = -i: scalar Omega^{-1} = i
    mor = lattice_cat.braiding(odd[0], odd[1])
    assert np.allclose(mor.matrix, 1j * flip_matrix(1, 1))
    # symmetric category: plain flip on the 2-dimensional object
    w = s3_cat["standard"]
    assert np.allclose(s3_cat.braiding(w, w).matrix, flip_matrix(2, 2))


def test_category_reuses_the_builders_report(monkeypatch):
    group, reps = builtin_catalog("z4")
    real, calls = modcat.validate_cocycle, []
    monkeypatch.setattr(modcat, "validate_cocycle", lambda c: calls.append(c) or real(c))
    kept = build_cyclic(2, 3)
    TwistedCategory(group, kept, CentralEmbedding(kept.group, (2,)), reps)
    assert calls == []
    bare = AbelianCocycle(kept.group, kept.f_num, kept.omega_num, kept.denom)
    TwistedCategory(group, bare, CentralEmbedding(bare.group, (2,)), reps)
    assert calls == [bare]


def test_braiding_super():
    group, reps = builtin_catalog("z4")
    cocycle = build_cyclic(2, 2)
    cat = TwistedCategory(group, cocycle, CentralEmbedding(cocycle.group, (2,)), reps)
    odd = [m for m in cat.catalog if m.grade == (1,)]
    mor = cat.braiding(odd[0], odd[1])
    assert np.allclose(mor.matrix, -flip_matrix(1, 1))


def test_twist_values(lattice_cat):
    odd = [m for m in lattice_cat.catalog if m.grade == (1,)]
    even = [m for m in lattice_cat.catalog if m.grade == (0,)]
    assert lattice_cat.twist(even[0]).is_one
    assert lattice_cat.twist(odd[0]).to_complex() == 1j  # (-i)^{-1}
    assert lattice_cat.twist(lattice_cat.unit).is_one


def test_evaluation_scaled_by_f(lattice_cat, q8_cat):
    even = [m for m in lattice_cat.catalog if m.grade == (0,)]
    ev = lattice_cat.evaluation(even[0])
    assert np.allclose(ev.matrix, np.eye(1).reshape(1, 1))
    spin = q8_cat["spin"]  # odd: F(1,1,1)^{-1} = -1 scales the pairing
    ev = q8_cat.evaluation(spin)
    assert np.allclose(ev.matrix, -np.eye(2).reshape(1, 4))


def test_cat_trace_basics(s3_cat):
    triv = s3_cat["trivial"]
    assert abs(s3_cat.cat_trace(triv, np.eye(1)) - 1) <= 1e-12
    w = s3_cat["standard"]
    assert abs(s3_cat.cat_trace(w, 2.5 * np.eye(2)) - 5.0) <= 1e-12


def test_cat_trace_shape_check(s3_cat):
    with pytest.raises(StructuralError):
        s3_cat.cat_trace(s3_cat["standard"], np.eye(3))


def test_cat_dims_equal_ordinary_dims(categories):
    for cat in categories.values():
        for m in cat.catalog:
            value = cat.cat_dim(m)
            assert abs(value - m.dim) <= 1e-9
            assert abs(value.imag) <= 1e-9
            dual = cat.dual_object(m)
            assert abs(cat.cat_dim(dual) - m.dim) <= 1e-9


def test_s_entry_examples(lattice_cat, q8_cat, s3_cat):
    odd = [m for m in lattice_cat.catalog if m.grade == (1,)]
    even = [m for m in lattice_cat.catalog if m.grade == (0,)]
    assert abs(lattice_cat.s_entry(even[0], even[1]) - 1) <= 1e-9
    assert abs(lattice_cat.s_entry(odd[0], odd[1]) - (-1)) <= 1e-9
    spin = q8_cat["spin"]
    assert abs(q8_cat.s_entry(spin, spin) - (-4)) <= 1e-9  # dims 2 and 2, both odd
    w = s3_cat["standard"]
    assert abs(s3_cat.s_entry(w, w) - 4) <= 1e-9  # symmetric category


def test_s_entry_matches_bform(categories):
    for cat in categories.values():
        for m, n in product(cat.catalog, repeat=2):
            expected = (
                UnitScalar(-cat.cocycle.b(m.grade, n.grade)).to_complex() * m.dim * n.dim
            )
            assert abs(cat.s_entry(m, n) - expected) <= 1e-9


def test_double_braiding_scalar(categories):
    for cat in categories.values():
        for m, n in product(cat.catalog, repeat=2):
            scalar = UnitScalar(-cat.cocycle.b(m.grade, n.grade)).to_complex()
            mat = cat.double_braiding(m, n)
            assert np.abs(mat - scalar * np.eye(m.dim * n.dim)).max() <= 1e-9


def test_balancing_scalar_identity(categories):
    # Omega(a+b,a+b)^{-1} = (Omega(a,b)Omega(b,a))^{-1} Omega(a,a)^{-1} Omega(b,b)^{-1}
    for cat in categories.values():
        c = cat.cocycle
        g = c.group
        for a, b in product(g.elements(), repeat=2):
            lhs = (-c.q(g.add(a, b))) % 1
            rhs = (-c.b(a, b) - c.q(a) - c.q(b)) % 1
            assert lhs == rhs


def test_coherence_suite_passes(categories):
    for name, cat in categories.items():
        report = cat.coherence_suite()
        assert report.passed, f"{name}: {report.describe()}"
        axioms = {c.axiom for c in report.checks}
        assert {
            "pentagon(matrices)",
            "triangle",
            "hexagon-1(matrices)",
            "hexagon-2(matrices)",
            "snake",
            "balancing",
            "twist-dual",
            "double-braiding",
            "naturality(spot-checks)",
        } <= axioms
        assert max(c.max_error for c in report.checks) <= 1e-9


def test_coherence_suite_catches_corrupt_f():
    # corrupt F(1,1,1) to +1 while keeping Omega: hexagons fail with a witness
    group, reps = builtin_catalog("z4")
    lattice = build_cyclic(2, 3)
    f_num = lattice.f_num.copy()
    f_num[1, 1, 1] = 0
    broken = AbelianCocycle(lattice.group, f_num, lattice.omega_num, lattice.denom)
    cat = TwistedCategory(
        group, broken, CentralEmbedding(broken.group, (2,)), reps, validate=False
    )
    report = cat.coherence_suite()
    assert not report.passed
    failing = {c.axiom: c for c in report.checks if not c.passed}
    assert any("hexagon" in axiom for axiom in failing)
    witness = next(c.witness for a, c in failing.items() if "hexagon" in a)
    assert witness is not None


def test_eager_cocycle_validation_in_category():
    group, reps = builtin_catalog("z4")
    lattice = build_cyclic(2, 3)
    f_num = lattice.f_num.copy()
    f_num[1, 1, 1] = 0
    broken = AbelianCocycle(lattice.group, f_num, lattice.omega_num, lattice.denom)
    with pytest.raises(CocycleError):
        TwistedCategory(group, broken, CentralEmbedding(broken.group, (2,)), reps)


def test_incomplete_catalog_rejected():
    group, reps = builtin_catalog("z4")
    partial = {k: v for k, v in reps.items() if k != "chi3"}
    cocycle = build_cyclic(2, 3)
    with pytest.raises(StructuralError, match="complete"):
        TwistedCategory(group, cocycle, CentralEmbedding(cocycle.group, (2,)), partial)
    cat = TwistedCategory(
        group, cocycle, CentralEmbedding(cocycle.group, (2,)), partial, complete=False
    )
    assert len(cat.catalog) == 3


def test_snake_composites_are_identity(categories):
    # rebuild the snake composites outside the suite, as raw matrices
    for cat in categories.values():
        g = cat.grading
        for m in cat.catalog:
            d = m.dim
            a, neg = m.grade, g.neg(m.grade)
            ev = cat.evaluation(m).matrix
            coev = cat.coevaluation(m).matrix
            left = np.kron(np.eye(d), ev)
            right = np.kron(coev, np.eye(d))
            snake = cat.f_scalar(a, neg, a).to_complex() * (left @ right)
            assert np.abs(snake - np.eye(d)).max() <= 1e-9


def test_word_helpers(lattice_cat):
    odd = [m for m in lattice_cat.catalog if m.grade == (1,)]
    word = (odd[0], odd[1])
    assert lattice_cat.word_dim(word) == 1
    assert lattice_cat.word_grade(word) == (0,)
    assert lattice_cat.word_labels(word) == (odd[0].label, odd[1].label)


def _reference_identities(cat):
    """Each signature-collapsed identity of the suite as a plain per-tuple
    function returning (max deviation, exact parts hold)."""
    ax, br, eye, kron = cat.associator, cat.braiding, np.eye, np.kron

    def dev(lhs, rhs):
        return float(np.abs(lhs - rhs).max())

    def pentagon(m1, m2, m3, m4):
        lhs = ax((m1, m2), (m3,), (m4,)).matrix @ ax((m1,), (m2,), (m3, m4)).matrix
        rhs = (
            kron(ax((m1,), (m2,), (m3,)).matrix, eye(m4.dim))
            @ ax((m1,), (m2, m3), (m4,)).matrix
            @ kron(eye(m1.dim), ax((m2,), (m3,), (m4,)).matrix)
        )
        return dev(lhs, rhs), True

    def triangle(m1, m2):
        return dev(ax((m1,), (cat.unit,), (m2,)).matrix, eye(m1.dim * m2.dim)), True

    def hexagon1(x, y, z):
        inv = np.linalg.inv
        lhs = inv(ax((y,), (z,), (x,)).matrix) @ br((x,), (y, z)).matrix @ inv(
            ax((x,), (y,), (z,)).matrix
        )
        rhs = (
            kron(eye(y.dim), br((x,), (z,)).matrix)
            @ inv(ax((y,), (x,), (z,)).matrix)
            @ kron(br((x,), (y,)).matrix, eye(z.dim))
        )
        return dev(lhs, rhs), True

    def hexagon2(x, y, z):
        lhs = ax((z,), (x,), (y,)).matrix @ br((x, y), (z,)).matrix @ ax((x,), (y,), (z,)).matrix
        rhs = (
            kron(br((x,), (z,)).matrix, eye(y.dim))
            @ ax((x,), (z,), (y,)).matrix
            @ kron(eye(x.dim), br((y,), (z,)).matrix)
        )
        return dev(lhs, rhs), True

    def balancing(m, n):
        b = cat.cocycle.b(m.grade, n.grade)
        exact = cat.twist((m, n)).exponent == (
            UnitScalar(-b).exponent + cat.twist(m).exponent + cat.twist(n).exponent
        ) % 1
        lhs = cat.twist((m, n)).to_complex() * eye(m.dim * n.dim)
        rhs = cat.double_braiding(m, n) * cat.twist(m).to_complex() * cat.twist(n).to_complex()
        return dev(lhs, rhs), exact

    def double_braiding(m, n):
        scalar = UnitScalar(-cat.cocycle.b(m.grade, n.grade))
        exact = (
            -cat.omega_scalar(m.grade, n.grade).exponent
            - cat.omega_scalar(n.grade, m.grade).exponent
        ) % 1 == scalar.exponent
        err = dev(cat.double_braiding(m, n), scalar.to_complex() * eye(m.dim * n.dim))
        return err, exact

    return {
        "pentagon(matrices)": (4, pentagon),
        "triangle": (2, triangle),
        "hexagon-1(matrices)": (3, hexagon1),
        "hexagon-2(matrices)": (3, hexagon2),
        "balancing": (2, balancing),
        "double-braiding": (2, double_braiding),
    }


@pytest.mark.parametrize("name", ["z4", "q8"])
def test_signature_collapse_matches_per_tuple_sweep(name):
    # z4 and q8 graded by Z/2 at their central element 2: two (grade, dim)
    # signatures each, all one-dimensional in z4, dims 1 and 2 in q8.
    # Corrupt F(1,1,1) (hexagons), F(1,0,1) (pentagon, triangle) and
    # Omega(1,0) (balancing) so that witnesses come from repeated signatures.
    group, reps = builtin_catalog(name)
    lattice = build_cyclic(2, 3)
    f_num = lattice.f_num.copy()
    f_num[1, 1, 1] = 0
    f_num[1, 0, 1] = 1
    omega_num = lattice.omega_num.copy()
    omega_num[1, 0] = 1
    broken = AbelianCocycle(lattice.group, f_num, omega_num, lattice.denom)
    cat = TwistedCategory(
        group, broken, CentralEmbedding(broken.group, (2,)), reps, validate=False
    )
    k = len(cat.catalog)
    assert len({(m.grade, m.dim) for m in cat.catalog}) < k
    checks = {c.axiom: c for c in cat.coherence_suite().checks}
    for axiom, (arity, identity) in _reference_identities(cat).items():
        witness, max_err = None, 0.0
        for objs in product(cat.catalog, repeat=arity):
            err, exact = identity(*objs)
            max_err = max(max_err, err)
            if (err > modcat.MATRIX_TOL or not exact) and witness is None:
                witness = tuple(m.label for m in objs)
        check = checks[axiom]
        assert check.checked == k**arity, axiom
        assert check.witness == witness, axiom
        assert check.max_error == max_err, axiom
        assert check.passed == (witness is None), axiom
    failing = {a for a, c in checks.items() if not c.passed}
    assert {
        "pentagon(matrices)", "triangle", "hexagon-1(matrices)", "hexagon-2(matrices)",
        "balancing",
    } <= failing


@pytest.mark.parametrize(
    "n, s, corrupt_f, corrupt_omega",
    [
        (3, 1, (1, 2, 1), None),
        (3, 1, (2, 0, 1), None),
        (3, 1, None, (1, 2)),
        (3, 1, (2, 2, 2), (2, 1)),
        (6, 5, None, (1, 2)),
        (6, 5, (2, 0, 1), (4, 3)),
    ],
)
def test_exponent_checks_match_per_tuple_sweep_on_cyclic_gradings(n, s, corrupt_f, corrupt_omega):
    # Z/n graded by Z/n: every irrep has its own grade, and the corrupted
    # Omega is not symmetric, so swapped Omega(x, y) / Omega(y, x) would show.
    # The dense reference rounds, so max_error agrees to 1e-12, not bit for bit.
    group, reps = builtin_catalog(f"z{n}")
    good = build_cyclic(n, s)
    f_num, omega_num = good.f_num.copy(), good.omega_num.copy()
    if corrupt_f is not None:
        f_num[corrupt_f] += 1
    if corrupt_omega is not None:
        omega_num[corrupt_omega] += 1
    broken = AbelianCocycle(good.group, f_num, omega_num, good.denom)
    cat = TwistedCategory(
        group, broken, CentralEmbedding(broken.group, (1,)), reps, validate=False
    )
    assert len({m.grade for m in cat.catalog}) == n
    checks = {c.axiom: c for c in cat.coherence_suite().checks}
    for axiom, (arity, identity) in _reference_identities(cat).items():
        witness, max_err = None, 0.0
        for objs in product(cat.catalog, repeat=arity):
            err, exact = identity(*objs)
            max_err = max(max_err, err)
            if (err > modcat.MATRIX_TOL or not exact) and witness is None:
                witness = tuple(m.label for m in objs)
        check = checks[axiom]
        assert check.checked == n**arity, axiom
        assert check.witness == witness, axiom
        assert check.passed == (witness is None), axiom
        assert abs(check.max_error - max_err) <= 1e-12, axiom
    assert not all(c.passed for c in checks.values())


def _dense_reference(cat, tol, seed):
    """The snake, double-braiding and naturality checks, S entries, categorical
    dimensions and fusion coefficients built the dense way: words by tuple
    arithmetic, one ``UnitScalar`` per scalar, fresh ``np.eye``/``flip_matrix``,
    ``np.kron`` and ``hom_dim`` per triple."""
    g, c = cat.grading, cat.cocycle

    def grade(word):
        a = g.zero
        for m in word:
            a = g.add(a, m.grade)
        return a

    def dim(word):
        return int(np.prod([m.dim for m in word], initial=1))

    def f_inv(*grades):
        return c.f(*grades).inverse().to_complex()

    def braid(w1, w2):
        return c.omega(grade(w1), grade(w2)).inverse().to_complex() * flip_matrix(
            dim(w1), dim(w2)
        )

    def assoc(w1, w2, w3):
        return f_inv(grade(w1), grade(w2), grade(w3)) * np.eye(dim(w1) * dim(w2) * dim(w3))

    def double(m, n):
        return braid((n,), (m,)) @ braid((m,), (n,))

    def trace(word, f):
        a = grade(word)
        theta = c.omega(a, a).inverse().to_complex()
        braid_scalar = c.omega(a, g.neg(a)).inverse().to_complex()
        x = theta * np.asarray(f, dtype=np.complex128)
        x = braid_scalar * x.T
        return complex(f_inv(a, g.neg(a), a) * np.trace(x))

    checks = {}
    witness, max_err = None, 0.0
    for m in cat.catalog:
        a, neg, d = m.grade, g.neg(m.grade), m.dim
        ev = f_inv(a, neg, a) * np.eye(d).reshape(1, d * d)
        coev = np.eye(d).reshape(d * d, 1)
        snake_m = c.f(a, neg, a).to_complex() * (np.kron(np.eye(d), ev) @ np.kron(coev, np.eye(d)))
        err = float(np.abs(snake_m - np.eye(d)).max())
        snake_dual = f_inv(neg, a, neg) * (np.kron(ev, np.eye(d)) @ np.kron(np.eye(d), coev))
        err = max(err, float(np.abs(snake_dual - np.eye(d)).max()))
        max_err = max(max_err, err)
        if err > tol and witness is None:
            witness = (m.label,)
    checks["snake"] = (len(cat.catalog), witness, max_err.hex())

    witness, max_err = None, 0.0
    for m, n in product(cat.catalog, repeat=2):
        scalar = UnitScalar(-c.b(m.grade, n.grade)).to_complex()
        err = float(np.abs(double(m, n) - scalar * np.eye(m.dim * n.dim)).max())
        max_err = max(max_err, err)
        if err > tol and witness is None:
            witness = (m.label, n.label)
    checks["double-braiding"] = (len(cat.catalog) ** 2, witness, max_err.hex())

    triples = []
    for m1, m2, m3 in product(cat.catalog, repeat=3):
        if g.add(m1.grade, m2.grade) == m3.grade:
            n = hom_dim(cat.group, m1.character, m2.character, m3.character)
            if n > 0:
                triples.append((m1, m2, m3, n))
    rng = np.random.default_rng(seed)
    checked, witness, max_err = 0, None, 0.0
    picks = rng.choice(len(triples), size=min(8, len(triples)), replace=False)
    for t in sorted(int(i) for i in picks):
        m1, m2, m3, n = triples[t]
        f = intertwiner_basis(m1.rep, m2.rep, m3.rep, expected=n)[0]
        for y in cat.catalog:
            checked += 1
            lhs = braid((m3,), (y,)) @ np.kron(f, np.eye(y.dim))
            rhs = np.kron(np.eye(y.dim), f) @ braid((m1, m2), (y,))
            err = float(np.abs(lhs - rhs).max())
            lhs2 = assoc((m3,), (y,), (y,)) @ np.kron(f, np.eye(y.dim * y.dim))
            rhs2 = np.kron(f, np.eye(y.dim * y.dim)) @ assoc((m1, m2), (y,), (y,))
            err = max(err, float(np.abs(lhs2 - rhs2).max()))
            max_err = max(max_err, err)
            if err > tol and witness is None:
                witness = (m1.label, m2.label, m3.label, y.label)
    checks["naturality(spot-checks)"] = (checked, witness, max_err.hex())

    members = cat.catalog
    return {
        "checks": checks,
        "braiding": {
            (m.label, n.label): braid((m,), (n,)) for m, n in product(members, repeat=2)
        },
        "associator": {
            (m.label, n.label, y.label): assoc((m,), (n,), (y,))
            for m, n, y in product(members, repeat=3)
        },
        "s_entry": {
            (m.label, n.label): trace((m, n), double(m, n)) for m, n in product(members, repeat=2)
        },
        "cat_dim": {m.label: trace((m,), np.eye(m.dim)) for m in members},
        "fusion": np.array(
            [[[hom_dim(cat.group, a.character, b.character, d.character) for d in members]
              for b in members] for a in members]
        ),
    }


def _asymmetric_z3():
    # Z/3 graded by Z/3: -a != a, so Omega(a, -a) and Omega(-a, a) differ
    # once Omega(1, 2) is shifted; F(1, 2, 1) shifted makes the snake fail
    group, reps = builtin_catalog("z3")
    good = build_cyclic(3, 1)
    f_num, omega_num = good.f_num.copy(), good.omega_num.copy()
    f_num[1, 2, 1] += 1
    omega_num[1, 2] += 1
    broken = AbelianCocycle(good.group, f_num, omega_num, good.denom)
    return TwistedCategory(
        group, broken, CentralEmbedding(broken.group, (1,)), reps, validate=False
    )


@pytest.mark.parametrize(
    "name", ["z2-lattice-on-z4", "super-on-z4", "s3-trivial-grading", "q8-z2", "asymmetric-z3"]
)
@pytest.mark.parametrize("seed", [0, 5])
def test_index_paths_match_dense_reference(name, seed, categories):
    cat = _asymmetric_z3() if name == "asymmetric-z3" else categories[name]
    ref = _dense_reference(cat, modcat.MATRIX_TOL, seed)
    checks = {c.axiom: c for c in cat.coherence_suite(seed=seed).checks}
    for axiom, expected in ref["checks"].items():
        c = checks[axiom]
        assert (c.checked, c.witness, c.max_error.hex()) == expected, axiom
        assert c.passed == (expected[1] is None), axiom
    by_label = {m.label: m for m in cat.catalog}
    for (a, b), matrix in ref["braiding"].items():
        assert np.array_equal(cat.braiding(by_label[a], by_label[b]).matrix, matrix), (a, b)
    for (a, b, d), matrix in ref["associator"].items():
        got = cat.associator(by_label[a], by_label[b], by_label[d]).matrix
        assert np.array_equal(got, matrix), (a, b, d)
    for (a, b), value in ref["s_entry"].items():
        assert cat.s_entry(by_label[a], by_label[b]) == value, (a, b)
    for a, value in ref["cat_dim"].items():
        assert cat.cat_dim(by_label[a]) == value, a
    assert np.array_equal(cat.hom_dims, ref["fusion"])
    assert np.array_equal(fusion_table(cat).coefficients, ref["fusion"])
    if name == "asymmetric-z3":
        assert not checks["snake"].passed


def test_non_integral_characters_raise_like_hom_dim():
    group, reps = builtin_catalog("s3")
    cocycle = AbelianCocycle.trivial(FinAbGroup((1,)))
    cat = TwistedCategory(group, cocycle, CentralEmbedding(cocycle.group, (0,)), reps)
    fake = dataclasses.replace(cat.catalog[-1], character=0.5 * cat.catalog[-1].character)
    cat.catalog = cat.catalog[:-1] + (fake,)
    with pytest.raises(ConsistencyError) as ref:
        for a, b, d in product(cat.catalog, repeat=3):
            hom_dim(group, a.character, b.character, d.character)
    for compute in (lambda: cat.hom_dims, lambda: cat.coherence_suite()):
        with pytest.raises(ConsistencyError) as got:
            compute()
        pattern = r"character sum \((.*)\) is not a nonnegative integer"
        want = complex(re.fullmatch(pattern, str(ref.value)).group(1))
        assert abs(complex(re.fullmatch(pattern, str(got.value)).group(1)) - want) <= 1e-12
