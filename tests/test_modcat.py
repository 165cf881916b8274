import json
import re
from fractions import Fraction
from functools import partial
from itertools import product
from pathlib import Path

import numpy as np
import pytest

from twistcat.abgroup import FinAbGroup
from twistcat.catalogs import builtin_catalog
from twistcat.cocycle import AbelianCocycle, _pentagon_holds, build_cyclic, validate_cocycle
from twistcat.errors import CocycleError, ConsistencyError, StructuralError
from twistcat import catalogs, cli, cocycle, modcat
from twistcat.fusionring import dim_exponents, s_table
from twistcat import grouprep
from twistcat.grouprep import MATRIX_TOL, CentralEmbedding, RepCatalog
from twistcat.modcat import TwistedCategory, flip_matrix
from twistcat.specio import load_spec
from twistcat.unitscalar import UnitScalar, root_of_unity

import mutants
import oracles


def test_flip_matrix_moves_coordinates():
    flip = flip_matrix(2, 3)
    v = np.zeros(6)
    v[0 * 3 + 2] = 1.0  # e_0 (x) f_2
    w = flip @ v
    assert w[2 * 2 + 0] == 1.0  # f_2 (x) e_0


def test_associator_scalars(lattice_cat, q8_cat):
    odd = [m for m in lattice_cat.catalog if m.grade == (1,)]
    mor = lattice_cat.associator(odd[0], odd[0], odd[1])
    assert np.allclose(mor, -np.eye(1))
    # any slot with grade zero gives the identity
    even = [m for m in lattice_cat.catalog if m.grade == (0,)]
    mor = lattice_cat.associator(even[0], odd[0], odd[1])
    assert np.allclose(mor, np.eye(1))
    # three odd two-dimensional objects: -1 times the identity on 8 dimensions
    spin = q8_cat["spin"]
    mor = q8_cat.associator(spin, spin, spin)
    assert mor.shape == (8, 8)
    assert np.allclose(mor, -np.eye(8))


def test_braiding_scalars(lattice_cat, s3_cat):
    odd = [m for m in lattice_cat.catalog if m.grade == (1,)]
    even = [m for m in lattice_cat.catalog if m.grade == (0,)]
    # grade zero on either side: plain flip
    mor = lattice_cat.braiding(even[0], odd[0])
    assert np.allclose(mor, flip_matrix(1, 1))
    # odd (x) odd with Omega(1,1) = -i: scalar Omega^{-1} = i
    mor = lattice_cat.braiding(odd[0], odd[1])
    assert np.allclose(mor, 1j * flip_matrix(1, 1))
    # symmetric category: plain flip on the 2-dimensional object
    w = s3_cat["standard"]
    assert np.allclose(s3_cat.braiding(w, w), flip_matrix(2, 2))


def test_category_reuses_the_builders_report(monkeypatch):
    z4 = builtin_catalog("z4")
    real, calls = cocycle.validate_cocycle, []
    monkeypatch.setattr(cocycle, "validate_cocycle", lambda c: calls.append(c) or real(c))
    kept = build_cyclic(2, 3)
    assert calls == [kept]
    TwistedCategory(z4, kept, CentralEmbedding(kept.group, (2,)))
    assert calls == [kept]
    # a bare cocycle validates when the first category reads its report, once
    bare = AbelianCocycle(kept.group, kept.f_num, kept.omega_num, kept.denom)
    assert calls == [kept]
    for _ in range(2):
        TwistedCategory(z4, bare, CentralEmbedding(bare.group, (2,)))
        assert calls == [kept, bare]


def test_categories_share_one_read_only_layout_per_builder_and_dims(monkeypatch, s3_cat, q8_cat):
    # s3 and q8 both have 1- and 2-dim members, so their suites read the
    # same keys; each key is one array for the whole process
    real, read = modcat._layout, []
    for cat in (s3_cat, q8_cat):
        seen = {}
        monkeypatch.setattr(modcat, "_layout", lambda b, *d: seen.setdefault((b, *d), real(b, *d)))
        cat.coherence_suite()
        read.append(seen)
    shared = read[0].keys() & read[1].keys()
    assert {(flip_matrix, 2, 2), (modcat._identity, 4)} <= shared
    for key in shared:
        assert read[0][key] is read[1][key], key
        assert not read[0][key].flags.writeable, key
    assert real.cache_info().maxsize == modcat.LAYOUT_CACHE_SIZE
    # the public maps hand out products and copies, never a cached layout
    spin = q8_cat["spin"]
    maps = [q8_cat.associator(spin, spin, spin), q8_cat.braiding(spin, spin),
            q8_cat.evaluation(spin), q8_cat.coevaluation(spin)]
    assert all(m.flags.writeable for m in maps)


def test_a_patched_layout_builder_gets_its_own_cache_entries(monkeypatch):
    # the real flip's layouts are cached first; the rolled flip must not be
    # served them
    def double_braiding(cat):
        return next(c for c in cat.coherence_suite().checks if c.axiom == "double-braiding")

    assert double_braiding(load_spec("q8-z2").build_category()).passed
    assert not double_braiding(mutants._rolled_flip("q8-z2", monkeypatch)).passed


def _builtin_spec(tmp_path, name, grading, cocycle, image, irreps="builtin"):
    path = tmp_path / "spec.json"  # read once, by load_spec
    path.write_text(json.dumps({
        "schema_version": 1, "name": name, "mode": "finite-group", "grading_group": grading,
        "cocycle": cocycle, "group": {"builtin": name}, "irreps": irreps,
        "central_embedding": image, "complete": True,
    }), encoding="utf-8")
    return load_spec(path)


def test_specs_on_one_builtin_share_its_catalog_and_multiplicities(tmp_path):
    # q8 graded by Z/2 at its centre under the lattice cocycle, and graded
    # trivially under the trivial cocycle: two gradings, two cocycles, one Rep G
    lattice = load_spec("q8-z2").build_category()
    plain = _builtin_spec(tmp_path, "q8", [1], {"builder": "trivial"}, [0]).build_category()
    assert lattice.rep_catalog is plain.rep_catalog is builtin_catalog("Q8")
    assert lattice.hom_dims is plain.hom_dims
    assert [m.grade for m in lattice.catalog] != [m.grade for m in plain.catalog]
    for ours, theirs in zip(lattice.catalog, plain.catalog):
        assert ours.rep is theirs.rep and np.shares_memory(ours.character, theirs.character)
    # irreps a spec lists are its own, on the builtin's shared group, which
    # keeps nothing of them; and each build of a table spec validates its own
    listed = {"generators": [4, 1], "list": [  # j, then i
        {"label": "trivial", "matrices": [[["1"]], [["1"]]]},
        {"label": "sign-i", "matrices": [[["1"]], [["-1"]]]},
    ]}
    spec = _builtin_spec(tmp_path, "q8", [1], {"builder": "trivial"}, [0], listed)
    spec.complete = False
    own = spec.build_category()
    assert own.group is lattice.group and own.rep_catalog is not lattice.rep_catalog
    assert lattice.rep_catalog is builtin_catalog("q8")
    assert spec.build_category().rep_catalog is not own.rep_catalog
    table = load_spec(Path(__file__).parent / "golden" / "specs" / "d5-table-z2.json")
    assert table.build_category().rep_catalog is not table.build_category().rep_catalog


def test_own_irreps_on_a_builtin_leave_its_shared_catalog_and_reports_as_they_were(
    tmp_path, capsys
):
    # the q8 irreps listed as a spec's own are built and verified on the
    # shared group, which gains and loses no attribute, and a later report
    # on the builtin is byte-identical to one before
    out = tmp_path / "report.json"

    def run(spec):
        code = cli.main(["verify", "--spec", spec, "--seed", "3", "--out", str(out)])
        return code, capsys.readouterr(), out.read_bytes()

    q8 = builtin_catalog("q8")
    before = run("q8-z2")
    group = q8.group
    facts = {name: id(value) for name, value in vars(group).items()}
    own_spec = str(Path(__file__).parent / "golden" / "specs" / "q8-own-irreps-z2.json")
    own = load_spec(own_spec).build_category()
    assert own.group is group and own.rep_catalog is not q8
    assert list(own.rep_catalog.irreps) == list(q8.irreps)
    assert run(own_spec)[0] == 0
    assert run("q8-z2") == before
    assert builtin_catalog("q8") is q8 and q8.group is group
    assert {name: id(value) for name, value in vars(group).items()} == facts


def test_a_shared_catalog_is_read_only():
    q8 = builtin_catalog("q8")
    cat = load_spec("q8-z2").build_category()
    for array in (q8.characters, cat.catalog[-1].character, cat.hom_dims, q8.hom_dims):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0
    with pytest.raises(TypeError):
        q8.irreps["spin"] = q8.irreps["trivial"]
    with pytest.raises(ValueError, match="read-only"):
        q8.irreps["spin"].matrices[0] = 0
    with pytest.raises(AttributeError):
        q8.irreps = {}


def test_a_patched_cyclic_builder_gets_its_own_catalog(monkeypatch):
    real, calls = builtin_catalog("z4"), []
    build = catalogs.cyclic_group
    monkeypatch.setattr(catalogs, "cyclic_group", lambda n: calls.append(n) or build(n))
    patched = builtin_catalog("z4")
    assert patched is not real and builtin_catalog("z04") is patched and calls == [4]
    monkeypatch.undo()
    assert builtin_catalog("z4") is real


def test_braiding_super():
    cocycle = build_cyclic(2, 2)
    cat = TwistedCategory(builtin_catalog("z4"), cocycle, CentralEmbedding(cocycle.group, (2,)))
    odd = [m for m in cat.catalog if m.grade == (1,)]
    mor = cat.braiding(odd[0], odd[1])
    assert np.allclose(mor, -flip_matrix(1, 1))


def test_twist_values(lattice_cat):
    odd = [m for m in lattice_cat.catalog if m.grade == (1,)]
    even = [m for m in lattice_cat.catalog if m.grade == (0,)]
    assert lattice_cat.twist(even[0]).exponent == 0
    assert lattice_cat.twist(odd[0]).to_complex() == 1j  # (-i)^{-1}
    assert lattice_cat.twist(lattice_cat.unit).exponent == 0


def test_evaluation_scaled_by_f(lattice_cat, q8_cat):
    even = [m for m in lattice_cat.catalog if m.grade == (0,)]
    ev = lattice_cat.evaluation(even[0])
    assert np.allclose(ev, np.eye(1).reshape(1, 1))
    spin = q8_cat["spin"]  # odd: F(1,1,1)^{-1} = -1 scales the pairing
    ev = q8_cat.evaluation(spin)
    assert np.allclose(ev, -np.eye(2).reshape(1, 4))


def test_cat_trace_basics(s3_cat):
    triv = s3_cat["trivial"]
    assert abs(oracles.cat_trace(s3_cat, triv, np.eye(1)) - 1) <= 1e-12
    w = s3_cat["standard"]
    assert abs(oracles.cat_trace(s3_cat, w, 2.5 * np.eye(2)) - 5.0) <= 1e-12


def test_cat_dims_equal_ordinary_dims(categories):
    for cat in categories.values():
        x, g = dim_exponents(cat.cocycle), cat.grading
        for m in cat.catalog:
            # dimension d e^{2 pi i x / denom}: exactly d when x is 0
            assert x[g.index(m.grade)] == 0 and x[g.index(oracles.neg(g, m.grade))] == 0
            value = oracles.cat_trace(cat, m, np.eye(m.dim))
            assert abs(value - m.dim) <= 1e-9
            assert abs(value.imag) <= 1e-9
            dual = oracles.dual(cat, m)
            assert abs(oracles.cat_trace(cat, dual, np.eye(dual.dim)) - m.dim) <= 1e-9


def test_s_entry_examples(lattice_cat, q8_cat, s3_cat):
    odd = [m for m in lattice_cat.catalog if m.grade == (1,)]
    even = [m for m in lattice_cat.catalog if m.grade == (0,)]
    assert abs(oracles.s_trace(lattice_cat, even[0], even[1]) - 1) <= 1e-9
    assert abs(oracles.s_trace(lattice_cat, odd[0], odd[1]) - (-1)) <= 1e-9
    spin = q8_cat["spin"]
    assert abs(oracles.s_trace(q8_cat, spin, spin) - (-4)) <= 1e-9  # dims 2 and 2, both odd
    w = s3_cat["standard"]
    assert abs(oracles.s_trace(s3_cat, w, w) - 4) <= 1e-9  # symmetric category


def test_s_entry_matches_bform(categories):
    for cat in categories.values():
        for m, n in product(cat.catalog, repeat=2):
            expected = (
                UnitScalar(-oracles.b(cat.cocycle, m.grade, n.grade)).to_complex() * m.dim * n.dim
            )
            assert abs(oracles.s_trace(cat, m, n) - expected) <= 1e-9


def test_double_braiding_scalar(categories):
    for cat in categories.values():
        for m, n in product(cat.catalog, repeat=2):
            scalar = UnitScalar(-oracles.b(cat.cocycle, m.grade, n.grade)).to_complex()
            mat = cat.braiding(n, m) @ cat.braiding(m, n)
            assert np.abs(mat - scalar * np.eye(m.dim * n.dim)).max() <= 1e-9


def test_balancing_scalar_identity(categories):
    # Omega(a+b,a+b)^{-1} = (Omega(a,b)Omega(b,a))^{-1} Omega(a,a)^{-1} Omega(b,b)^{-1}
    for cat in categories.values():
        c = cat.cocycle
        g = c.group
        for a, b in product(g.elements(), repeat=2):
            b_ab = Fraction(int(c.b_num[g.index(a), g.index(b)]), c.denom)
            lhs = (-oracles.q(c, oracles.add(g, a, b))) % 1
            rhs = (-b_ab - oracles.q(c, a) - oracles.q(c, b)) % 1
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


def test_eager_cocycle_validation_in_category():
    # corrupt F(1,1,1) to +1 while keeping Omega: a category over it is
    # refused with the first failing axiom and its witness
    lattice = build_cyclic(2, 3)
    f_num = lattice.f_num.copy()
    f_num[1, 1, 1] = 0
    broken = AbelianCocycle(lattice.group, f_num, lattice.omega_num, lattice.denom)
    with pytest.raises(CocycleError, match=re.escape("axiom at ((1,), (1,), (1,))")) as info:
        TwistedCategory(builtin_catalog("z4"), broken, CentralEmbedding(broken.group, (2,)))
    first = info.value.report.failures()[0]
    assert "hexagon" in first.axiom and first.witness == ((1,), (1,), (1,))
    # the table builder's message: both are AbelianCocycle.require_valid's
    assert str(info.value) == "cocycle tables violate the hexagon-1 axiom at ((1,), (1,), (1,))"


def test_incomplete_catalog_rejected():
    z4 = builtin_catalog("z4")
    partial = RepCatalog(z4.group, {k: v for k, v in z4.irreps.items() if k != "chi3"})
    cocycle = build_cyclic(2, 3)
    with pytest.raises(StructuralError, match="complete"):
        TwistedCategory(partial, cocycle, CentralEmbedding(cocycle.group, (2,)))
    cat = TwistedCategory(partial, cocycle, CentralEmbedding(cocycle.group, (2,)), complete=False)
    assert len(cat.catalog) == 3


def test_snake_composites_are_identity(categories):
    # rebuild the snake composites outside the suite, as raw matrices
    for cat in categories.values():
        g = cat.grading
        for m in cat.catalog:
            d = m.dim
            a, neg = m.grade, oracles.neg(g, m.grade)
            ev = cat.evaluation(m)
            coev = cat.coevaluation(m)
            left = np.kron(np.eye(d), ev)
            right = np.kron(coev, np.eye(d))
            snake = UnitScalar(oracles.f(cat.cocycle, a, neg, a)).to_complex() * (left @ right)
            assert np.abs(snake - np.eye(d)).max() <= 1e-9


def test_word_helpers(lattice_cat):
    odd = [m for m in lattice_cat.catalog if m.grade == (1,)]
    word = (odd[0], odd[1])
    assert lattice_cat.evaluation(word).shape == (1, 1)  # the word has dimension 1
    # the word has grade 0: its twist is 1, while an odd object's is not
    assert lattice_cat.twist(word).exponent == 0 and lattice_cat.twist(odd[0]).exponent != 0


def _reference_identities(cat):
    """Each signature-collapsed identity of the suite as a plain per-tuple
    function returning (max deviation, exact parts hold); the double braiding
    as its exact residue and integer layout error."""
    ax, br, eye, kron = cat.associator, cat.braiding, np.eye, np.kron

    def dev(lhs, rhs):
        return float(np.abs(lhs - rhs).max())

    def pentagon(m1, m2, m3, m4):
        lhs = ax((m1, m2), (m3,), (m4,)) @ ax((m1,), (m2,), (m3, m4))
        rhs = (
            kron(ax((m1,), (m2,), (m3,)), eye(m4.dim))
            @ ax((m1,), (m2, m3), (m4,))
            @ kron(eye(m1.dim), ax((m2,), (m3,), (m4,)))
        )
        return dev(lhs, rhs), True

    def triangle(m1, m2):
        return dev(ax((m1,), (cat.unit,), (m2,)), eye(m1.dim * m2.dim)), True

    def hexagon1(x, y, z):
        inv = np.linalg.inv
        lhs = inv(ax((y,), (z,), (x,))) @ br((x,), (y, z)) @ inv(
            ax((x,), (y,), (z,))
        )
        rhs = (
            kron(eye(y.dim), br((x,), (z,)))
            @ inv(ax((y,), (x,), (z,)))
            @ kron(br((x,), (y,)), eye(z.dim))
        )
        return dev(lhs, rhs), True

    def hexagon2(x, y, z):
        lhs = ax((z,), (x,), (y,)) @ br((x, y), (z,)) @ ax((x,), (y,), (z,))
        rhs = (
            kron(br((x,), (z,)), eye(y.dim))
            @ ax((x,), (z,), (y,))
            @ kron(eye(x.dim), br((y,), (z,)))
        )
        return dev(lhs, rhs), True

    def double(m, n):
        return br((n,), (m,)) @ br((m,), (n,))

    def b(m, n):  # Omega(a, b) Omega(b, a): a corrupted Omega is not the polarization of q
        w = partial(oracles.omega, cat.cocycle)
        return w(m.grade, n.grade) + w(n.grade, m.grade)

    def balancing(m, n):
        exact = cat.twist((m, n)).exponent == (
            UnitScalar(-b(m, n)).exponent + cat.twist(m).exponent + cat.twist(n).exponent
        ) % 1
        lhs = cat.twist((m, n)).to_complex() * eye(m.dim * n.dim)
        rhs = double(m, n) * cat.twist(m).to_complex() * cat.twist(n).to_complex()
        return dev(lhs, rhs), exact

    def double_braid(m, n):  # exact: the scalars' residue against b_num, the flips' layout
        g, c = cat.grading, cat.cocycle
        r = b(m, n) - Fraction(int(c.b_num[g.index(m.grade), g.index(n.grade)]), c.denom)
        flips = flip_matrix(n.dim, m.dim) @ flip_matrix(m.dim, n.dim)
        layout = _layout_error(flips, eye(m.dim * n.dim, dtype=np.int64))
        return max(layout, _residue_error(r)), r % 1 == 0

    return {
        "pentagon(matrices)": (4, pentagon),
        "triangle": (2, triangle),
        "hexagon-1(matrices)": (3, hexagon1),
        "hexagon-2(matrices)": (3, hexagon2),
        "balancing": (2, balancing),
        "double-braiding": (2, double_braid),
    }


def test_pentagon_reads_only_the_generator_slabs(monkeypatch):
    # a passing pentagon is decided from the rank * |A|^3 residues at the
    # generators in validation: a return to the |A|-slab sweep shows as more
    # rows.  The suite reads the cocycle report and calls no slab kernel.
    z2, z4 = build_cyclic(2, 3), build_cyclic(4, 1)
    x0, x1 = np.unravel_index(np.arange(8), (2, 4))
    product_f = z2.f_num[np.ix_(x0, x0, x0)] * 2 + z4.f_num[np.ix_(x1, x1, x1)]
    product_omega = z2.omega_num[np.ix_(x0, x0)] * 2 + z4.omega_num[np.ix_(x1, x1)]
    cases = [
        (build_cyclic(64, 1), [1]),
        (AbelianCocycle(FinAbGroup((2, 4)), product_f, product_omega, 8), [4, 1]),
        (AbelianCocycle(FinAbGroup((1,)), np.zeros((1, 1, 1)), np.zeros((1, 1)), 1), [0]),
    ]
    z8 = build_cyclic(8, 1)
    cat = TwistedCategory(builtin_catalog("z8"), z8, CentralEmbedding(z8.group, (1,)))
    real, calls = cocycle.pentagon_slabs, []

    def spy(c, rows):
        calls.append(list(rows))
        return real(c, calls[-1])

    monkeypatch.setattr(cocycle, "pentagon_slabs", spy)
    for c, rows in cases:
        calls.clear()
        report = validate_cocycle(c)
        assert report.passed and report.checks[0].checked == c.group.order**4
        assert calls == [rows]
    calls.clear()
    report = cat.coherence_suite()
    assert report.passed and report.checks[0].checked == 8**4
    assert calls == []


# the suite's verdicts that it computes itself: pentagon and hexagons come
# from the cocycle report, which a category requires to pass
_SUITE_COMPUTED = ("triangle", "balancing", "double-braiding")


def _assert_suite_matches_sweep(cat, axioms, max_error_tol=0.0):
    """The suite's verdicts on ``axioms`` equal the per-tuple sweep's:
    ``checked``, witness and ``passed`` exactly, and the largest error within
    ``max_error_tol``.  Returns the suite's checks by axiom."""
    k = len(cat.catalog)
    checks = {c.axiom: c for c in cat.coherence_suite().checks}
    identities = _reference_identities(cat)
    for axiom in axioms:
        arity, identity = identities[axiom]
        witness, max_err = None, 0.0
        for objs in product(cat.catalog, repeat=arity):
            err, exact = identity(*objs)
            max_err = max(max_err, err)
            if (err > MATRIX_TOL or not exact) and witness is None:
                witness = tuple(m.label for m in objs)
        check = checks[axiom]
        assert check.checked == k**arity, axiom
        assert check.witness == witness, axiom
        assert check.passed == (witness is None), axiom
        assert abs(check.max_error - max_err) <= max_error_tol, axiom
    return checks


def _assert_category_refused(reps, cocycle, embedding, **kw):
    """A category over ``cocycle`` is refused with the first failure of
    ``validate_cocycle``, the check of pentagon and hexagons on all of ``A``."""
    with pytest.raises(CocycleError) as info:
        TwistedCategory(reps, cocycle, embedding, **kw)
    assert info.value.report.failures()[0] == validate_cocycle(cocycle).failures()[0]


def test_suite_pentagon_is_read_at_the_catalog_grades():
    # z4 graded by Z/4 at the central element 2 has grades {0, 2}.  F(1, 1, 1)
    # shifted breaks the pentagon on A^4, but no identity at grades in {0, 2}
    # reads it, so the per-tuple sweep's pentagon passes, as the suite's does.
    good = build_cyclic(4, 1)
    f_num = good.f_num.copy()
    f_num[1, 1, 1] += 1
    broken = AbelianCocycle(good.group, f_num, good.omega_num, good.denom)
    assert not _pentagon_holds(broken)
    embedding = CentralEmbedding(broken.group, (2,))
    cat = oracles.unchecked_category(builtin_catalog("z4"), broken, embedding)
    assert {m.grade for m in cat.catalog} == {(0,), (2,)}
    checks = _assert_suite_matches_sweep(cat, _reference_identities(cat), 1e-12)
    assert checks["pentagon(matrices)"].passed


@pytest.mark.parametrize(
    "name, image", [("z4", 2), ("q8", 2), ("z16", 8)], ids=["z4", "q8", "z16"]
)
def test_signature_collapse_matches_per_tuple_sweep(name, image):
    # z4 and q8 graded by Z/2 at their central element 2: two (grade, dim)
    # signatures each, all one-dimensional in z4, dims 1 and 2 in q8; z16
    # graded by Z/2 at element 8 has eight members per grade.
    # Corrupt F(1,1,1) (hexagons), F(1,0,1) (pentagon, triangle) and
    # Omega(1,0) (balancing) so that witnesses come from repeated signatures.
    reps = builtin_catalog(name)
    lattice = build_cyclic(2, 3)
    f_num = lattice.f_num.copy()
    f_num[1, 1, 1] = 0
    f_num[1, 0, 1] = 1
    omega_num = lattice.omega_num.copy()
    omega_num[1, 0] = 1
    broken = AbelianCocycle(lattice.group, f_num, omega_num, lattice.denom)
    embedding = CentralEmbedding(broken.group, (image,))
    _assert_category_refused(reps, broken, embedding)
    cat = oracles.unchecked_category(reps, broken, embedding)
    assert len({(m.grade, m.dim) for m in cat.catalog}) < len(cat.catalog)
    checks = _assert_suite_matches_sweep(cat, _SUITE_COMPUTED)
    assert {"triangle", "balancing"} <= {a for a, c in checks.items() if not c.passed}


@pytest.mark.parametrize(
    "n, s, corrupt_f, corrupt_omega, image, dropped",
    [
        (3, 1, (1, 2, 1), None, 1, None),
        (3, 1, (2, 0, 1), None, 1, None),
        (3, 1, None, (1, 2), 1, None),
        (3, 1, (2, 2, 2), (2, 1), 1, None),
        (6, 5, None, (1, 2), 1, None),
        (6, 5, (2, 0, 1), (4, 3), 1, None),
        # grades first appear as 0, 3, 2, 1 and 0, 5, 4, 3, 2, 1
        (4, 1, (1, 2, 1), (3, 2), 3, None),
        (6, 5, (2, 0, 1), (4, 3), 5, None),
        # grades 0, 1, 3: grade 2 is missing from the catalog
        (4, 1, (3, 1, 3), (1, 3), 1, "chi2"),
    ],
    ids=[
        "3-1-corrupt_f0-None", "3-1-corrupt_f1-None", "3-1-None-corrupt_omega2",
        "3-1-corrupt_f3-corrupt_omega3", "6-5-None-corrupt_omega4",
        "6-5-corrupt_f5-corrupt_omega5", "z4-image-3", "z6-image-5", "z4-without-chi2",
    ],
)
def test_exponent_checks_match_per_tuple_sweep_on_cyclic_gradings(
    n, s, corrupt_f, corrupt_omega, image, dropped
):
    # Z/n graded by Z/n: every irrep has its own grade, and the corrupted
    # Omega is not symmetric, so swapped Omega(x, y) / Omega(y, x) would show.
    # The dense reference rounds, so max_error agrees to 1e-12, not bit for bit.
    zn = builtin_catalog(f"z{n}")
    reps = RepCatalog(zn.group, {label: r for label, r in zn.irreps.items() if label != dropped})
    good = build_cyclic(n, s)
    f_num, omega_num = good.f_num.copy(), good.omega_num.copy()
    if corrupt_f is not None:
        f_num[corrupt_f] += 1
    if corrupt_omega is not None:
        omega_num[corrupt_omega] += 1
    broken = AbelianCocycle(good.group, f_num, omega_num, good.denom)
    embedding, complete = CentralEmbedding(broken.group, (image,)), dropped is None
    _assert_category_refused(reps, broken, embedding, complete=complete)
    cat = oracles.unchecked_category(reps, broken, embedding, complete=complete)
    assert len({m.grade for m in cat.catalog}) == len(cat.catalog)
    _assert_suite_matches_sweep(cat, _SUITE_COMPUTED, 1e-12)


def _seeded_maps(rng, shapes):
    """The naturality checks' maps: after the triples are sampled, one
    seeded integer ``d3 x d1 d2`` matrix per distinct ``(d3, d1 d2)`` of
    ``shapes``, a permutation of ``1..d3 d1 d2``, drawn in order of first
    appearance."""
    return {shape: rng.permutation(shape[0] * shape[1]).reshape(shape) + 1
            for shape in dict.fromkeys(shapes)}


def _residue_error(r) -> float:
    """``|e^{2 pi i r} - 1|`` for an exponent ``r``."""
    return abs(UnitScalar(r).to_complex() - 1)


def _layout_error(lhs, rhs) -> int:
    return int(np.abs(lhs - rhs).max())


def _first_failure(cells):
    """``(checked, witness, max error)`` over ``(members, residue, layout
    error)`` cells in catalog tuple order: a cell fails where its residue or
    its layout error is nonzero."""
    witness, max_err = None, 0.0
    for members, r, layout in cells:
        max_err = max(max_err, layout, _residue_error(r))
        if (r != 0 or layout != 0) and witness is None:
            witness = tuple(m.label for m in members)
    return len(cells), witness, max_err


def _dense_reference(cat, seed):
    """The snake, double-braiding and naturality checks, the structure maps,
    S entries, categorical dimensions and fusion coefficients built the dense
    way: words by tuple arithmetic, each check per catalog tuple as a
    ``Fraction`` residue and a layout error of fresh integer
    ``np.eye``/``flip_matrix``/``np.kron`` products, each map as a
    ``UnitScalar`` times a float layout, and ``hom_dim`` per triple."""
    g, c = cat.grading, cat.cocycle

    def grade(word):
        a = g.zero
        for m in word:
            a = oracles.add(g, a, m.grade)
        return a

    def dim(word):
        return int(np.prod([m.dim for m in word], initial=1))

    def eye(d):
        return np.eye(d, dtype=np.int64)

    def f_inv(*grades):
        return UnitScalar(-oracles.f(c, *grades)).to_complex()

    def omega_inv(a1, a2):
        return UnitScalar(-oracles.omega(c, a1, a2)).to_complex()

    def braid(w1, w2):
        return omega_inv(grade(w1), grade(w2)) * flip_matrix(dim(w1), dim(w2)).astype(np.float64)

    def assoc(w1, w2, w3):
        return f_inv(grade(w1), grade(w2), grade(w3)) * np.eye(dim(w1) * dim(w2) * dim(w3))

    def ev(word):
        a, d = grade(word), dim(word)
        return f_inv(a, oracles.neg(g, a), a) * np.eye(d).reshape(1, d * d)

    def double(m, n):
        return braid((n,), (m,)) @ braid((m,), (n,))

    def trace(word, f):  # e_M . R_{M,M*} . ((theta f) (x) 1) . i_M
        a, d, neg = grade(word), dim(word), oracles.neg(g, grade(word))
        theta_f = omega_inv(a, a) * np.asarray(f, dtype=np.complex128)
        middle = (omega_inv(a, neg) * flip_matrix(d, d)) @ np.kron(theta_f, np.eye(d))
        return complex((ev(word) @ middle @ np.eye(d).reshape(d * d, 1))[0, 0])

    checks, cells = {}, []
    for m in cat.catalog:
        a, neg, d = m.grade, oracles.neg(g, m.grade), m.dim
        # snake on M: F(a,-a,a)^-1 from e_M, F(a,-a,a) from A^-1; on M*:
        # F(a,-a,a)^-1 from e_M, F(-a,a,-a)^-1 from A
        r = (oracles.f(c, a, neg, a) + oracles.f(c, neg, a, neg)) % 1
        pair = eye(d).reshape(1, d * d)
        layout = max(
            _layout_error(np.kron(eye(d), pair) @ np.kron(pair.T, eye(d)), eye(d)),
            _layout_error(np.kron(pair, eye(d)) @ np.kron(eye(d), pair.T), eye(d)),
        )
        cells.append(((m,), r, layout))
    checks["snake"] = _first_failure(cells)

    cells = []
    for m, n in product(cat.catalog, repeat=2):
        # R_{N,M} R_{M,N} carries Omega(b,a)^-1 Omega(a,b)^-1 against e(-b(a,b))
        b = Fraction(int(c.b_num[g.index(m.grade), g.index(n.grade)]), c.denom)
        r = (oracles.omega(c, m.grade, n.grade) + oracles.omega(c, n.grade, m.grade) - b) % 1
        flips = flip_matrix(n.dim, m.dim) @ flip_matrix(m.dim, n.dim)
        layout = _layout_error(flips, eye(m.dim * n.dim))
        cells.append(((m, n), r, layout))
    checks["double-braiding"] = _first_failure(cells)

    triples = []
    for m1, m2, m3 in product(cat.catalog, repeat=3):
        if oracles.add(g, m1.grade, m2.grade) == m3.grade:
            n = oracles.hom_dim(cat.group, m1.character, m2.character, m3.character)
            if n > 0:
                triples.append((m1, m2, m3, n))
    rng = np.random.default_rng(seed)
    picks = rng.choice(len(triples), size=min(8, len(triples)), replace=False)
    sampled = [triples[t][:3] for t in sorted(int(i) for i in picks)]
    maps = _seeded_maps(rng, [(m3.dim, m1.dim * m2.dim) for m1, m2, m3 in sampled])
    cells = []
    for m1, m2, m3 in sampled:
        f, d12 = maps[m3.dim, m1.dim * m2.dim], m1.dim * m2.dim
        for y in cat.catalog:
            # the unit scalars of both sides are equal and dropped
            lhs = flip_matrix(m3.dim, y.dim) @ np.kron(f, eye(y.dim))
            rhs = np.kron(eye(y.dim), f) @ flip_matrix(d12, y.dim)
            cells.append(((m1, m2, m3, y), 0, _layout_error(lhs, rhs)))
    checks["naturality(spot-checks)"] = _first_failure(cells)

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
        "evaluation": {m.label: ev((m,)) for m in members},
        "coevaluation": {m.label: np.eye(m.dim).reshape(m.dim**2, 1) for m in members},
        "s_trace": {
            (m.label, n.label): trace((m, n), double(m, n)) for m, n in product(members, repeat=2)
        },
        "cat_dim": {m.label: trace((m,), np.eye(m.dim)) for m in members},
        "fusion": np.array(
            [[[oracles.hom_dim(cat.group, a.character, b.character, d.character) for d in members]
              for b in members] for a in members]
        ),
    }


def _same_bits(got, want):
    return got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


def _asymmetric_z3():
    # Z/3 graded by Z/3: -a != a, so Omega(a, -a) and Omega(-a, a) differ
    # once Omega(1, 2) is shifted; F(1, 2, 1) shifted makes the snake fail
    good = build_cyclic(3, 1)
    f_num, omega_num = good.f_num.copy(), good.omega_num.copy()
    f_num[1, 2, 1] += 1
    omega_num[1, 2] += 1
    broken = AbelianCocycle(good.group, f_num, omega_num, good.denom)
    return oracles.unchecked_category(
        builtin_catalog("z3"), broken, CentralEmbedding(broken.group, (1,))
    )


@pytest.mark.parametrize(
    "name", ["z2-lattice-on-z4", "super-on-z4", "s3-trivial-grading", "q8-z2", "asymmetric-z3"]
)
@pytest.mark.parametrize("seed", [0, 5])
def test_index_paths_match_dense_reference(name, seed, categories):
    cat = _asymmetric_z3() if name == "asymmetric-z3" else categories[name]
    ref = _dense_reference(cat, seed)
    checks = {c.axiom: c for c in cat.coherence_suite(seed=seed).checks}
    for axiom, expected in ref["checks"].items():
        c = checks[axiom]
        assert (c.checked, c.witness, c.max_error) == expected, axiom
        assert c.passed == (expected[1] is None), axiom
    by_label = {m.label: m for m in cat.catalog}
    for (a, b), matrix in ref["braiding"].items():
        assert _same_bits(cat.braiding(by_label[a], by_label[b]), matrix), (a, b)
    for (a, b, d), matrix in ref["associator"].items():
        got = cat.associator(by_label[a], by_label[b], by_label[d])
        assert _same_bits(got, matrix), (a, b, d)
    for a, row in ref["evaluation"].items():
        assert _same_bits(cat.evaluation(by_label[a]), row), a
        assert _same_bits(cat.coevaluation(by_label[a]), ref["coevaluation"][a]), a
    for (a, b), value in ref["s_trace"].items():
        assert oracles.s_trace(cat, by_label[a], by_label[b]) == value, (a, b)
    x, denom = dim_exponents(cat.cocycle), cat.cocycle.denom
    for a, value in ref["cat_dim"].items():
        m = by_label[a]  # the exact dimension against the reference's float trace
        exact = m.dim * root_of_unity(int(x[cat.grading.index(m.grade)]), denom)
        assert abs(exact - value) <= 1e-12, a
    assert np.array_equal(cat.hom_dims, ref["fusion"])
    if name == "asymmetric-z3":
        assert not checks["snake"].passed


def test_non_integral_characters_raise_like_hom_dim(monkeypatch):
    # the last member's character halved where a catalog of s3's irreps reads it
    real = grouprep.validate_irrep

    def halved(reps):
        *chars, last = real(reps)
        return [*chars, 0.5 * last]

    monkeypatch.setattr(grouprep, "validate_irrep", halved)
    s3 = builtin_catalog("s3")
    group = s3.group
    cocycle = AbelianCocycle.trivial(FinAbGroup((1,)))
    cat = TwistedCategory(
        RepCatalog(group, s3.irreps), cocycle, CentralEmbedding(cocycle.group, (0,))
    )
    with pytest.raises(ConsistencyError) as ref:
        for a, b, d in product(cat.catalog, repeat=3):
            oracles.hom_dim(group, a.character, b.character, d.character)
    for compute in (lambda: cat.hom_dims, lambda: cat.coherence_suite()):
        with pytest.raises(ConsistencyError) as got:
            compute()
        pattern = r"character sum \((.*)\) is not a nonnegative integer"
        want = complex(re.fullmatch(pattern, str(ref.value)).group(1))
        assert abs(complex(re.fullmatch(pattern, str(got.value)).group(1)) - want) <= 1e-12


def _per_tuple_self_checks(cat, seed):
    """The snake, double-braiding and naturality checks as per-tuple loops:
    one residue and one layout error per member, per pair and per ``y``,
    read from the cocycle's tables, ``modcat``'s layout helpers and
    ``modcat._kron`` at call time, so a mutation of either reaches both this
    reference and the suite.  Naturality drops the unit scalar that both its
    sides carry, as the suite does.  Per check: ``checked``, the witness, the
    largest error, and the arrays of every catalog tuple's residue (mod the
    cocycle denominator) and layout error; and the catalog positions of the
    sampled triples."""
    kron = lambda a, b: modcat._kron(a, b)  # noqa: E731
    c, neg = cat.cocycle, cat.grading.neg_index_table
    words = [cat._word(m) for m in cat.catalog]
    k = len(words)
    out = {}

    def check(members, residues, layouts):
        cells = [
            (objs, Fraction(int(r), c.denom), int(e))
            for objs, r, e in zip(members, residues.flat, layouts.flat)
        ]
        return (*_first_failure(cells), residues, layouts)

    residues, layouts = np.zeros(k, np.int64), np.zeros(k, np.int64)
    for x, (a, d) in enumerate(words):
        residues[x] = (int(c.f_num[a, neg[a], a]) + int(c.f_num[neg[a], a, neg[a]])) % c.denom
        eye, pair = modcat._eye(d), modcat._pairing(d)
        layouts[x] = max(
            _layout_error(kron(eye, pair) @ kron(pair.T, eye), eye),
            _layout_error(kron(pair, eye) @ kron(eye, pair.T), eye),
        )
    out["snake"] = check([(m,) for m in cat.catalog], residues, layouts)

    W, B = c.omega_num, c.b_num
    residues, layouts = np.zeros((k, k), np.int64), np.zeros((k, k), np.int64)
    for (x, (a1, d1)), (z, (a2, d2)) in product(enumerate(words), repeat=2):
        residues[x, z] = (int(W[a1, a2]) + int(W[a2, a1]) - int(B[a1, a2])) % c.denom
        flips = modcat._flip(d2, d1) @ modcat._flip(d1, d2)
        layouts[x, z] = _layout_error(flips, modcat._eye(d1 * d2))
    out["double-braiding"] = check(list(product(cat.catalog, repeat=2)), residues, layouts)

    rng = np.random.default_rng(seed)
    grades = np.array([a for a, _ in words], dtype=np.int64)
    sums = cat.grading.add_index_table[np.ix_(grades, grades)]
    triples = np.argwhere((sums[:, :, None] == grades) & (cat.hom_dims > 0))
    picks = rng.choice(len(triples), size=min(8, len(triples)), replace=False)
    sampled = [tuple(int(x) for x in triples[t]) for t in sorted(int(i) for i in picks)]
    shapes = [(words[l][1], words[i][1] * words[j][1]) for i, j, l in sampled]
    maps = _seeded_maps(rng, shapes)
    members, layouts = [], np.zeros((len(sampled), k), np.int64)
    for row, ((i, j, l), (d3, d12)) in enumerate(zip(sampled, shapes)):
        f = maps[d3, d12]
        for col, (y, (_, dy)) in enumerate(zip(cat.catalog, words)):
            members.append((cat.catalog[i], cat.catalog[j], cat.catalog[l], y))
            eye_y = modcat._eye(dy)
            lhs = modcat._flip(d3, dy) @ kron(f, eye_y)
            rhs = kron(eye_y, f) @ modcat._flip(d12, dy)
            layouts[row, col] = _layout_error(lhs, rhs)
    out["naturality(spot-checks)"] = check(members, np.zeros_like(layouts), layouts)
    return out, sampled


# builtin catalogs with repeated (grade, dim) signatures: (name, embedding
# image, grading order); image 0 is the identity, which grades every irrep 0
_REPEATED_SIGNATURES = [
    ("s3", 0, 2), ("d4", 2, 2), ("d4", 0, 2), ("q8", 2, 2), ("q8", 0, 2),
    ("z6", 3, 2), ("z6", 2, 3), ("z6", 0, 2),
]


def _graded_builtin(name, image, n, cocycle=None, category=TwistedCategory):
    cocycle = cocycle or build_cyclic(n, 3 if n == 2 else 1)
    return category(builtin_catalog(name), cocycle, CentralEmbedding(cocycle.group, (image,)))


def _coboundary_twisted(good, phi):
    """``good`` twisted by the normalized integer cochain ``phi`` over the
    cocycle denominator ``q``: F += phi(b,c) - phi(a+b,c) + phi(a,b+c) - phi(a,b),
    Omega += phi(a,b) - phi(b,a)."""
    phi, phi_denom = phi
    q = np.lcm(good.denom, phi_denom)
    phi = phi * (q // phi_denom)
    a, s = np.arange(good.group.order), good.group.add_index_table
    f = (
        good.f_num * (q // good.denom) + phi[None, :, :] - phi[s[:, :, None], a[None, None, :]]
        + phi[a[:, None, None], s[None, :, :]] - phi[:, :, None]
    )
    omega = good.omega_num * (q // good.denom) + phi - phi.T
    return AbelianCocycle(good.group, f % q, omega % q, int(q))


def _coboundary_twisted_z3():
    """The cyclic Z/3 cocycle twisted by the normalized cochain phi(1, 2) = 1/4.
    Cyclic F(a, -a, a) is 1 on Z/3 and +-1 on Z/2; here it is -i and i."""
    phi = np.zeros((3, 3), dtype=np.int64)
    phi[1, 2] = 1
    return _coboundary_twisted(build_cyclic(3, 1), (phi, 4))


def _coboundary_twisted_zn(n):
    """The monodromy-verify benchmark's cocycle on Z/n: a cyclic class whose
    form b takes values in {0, 1/2}, twisted by a seeded normalized cochain
    over 6, so every F and Omega entry varies."""
    phi = np.random.default_rng(n).integers(0, 6, size=(n, n))
    phi[0, :] = phi[:, 0] = 0
    return _coboundary_twisted(build_cyclic(n, {3: 0, 4: 2, 5: 0}[n]), (phi, 6))


def _assert_self_checks_match(cat, seed, failing=None):
    """The suite's snake, double-braiding and naturality verdicts equal the
    per-tuple loops', and so does every residue and layout error it
    computed per catalog tuple.  Returns the sampled triples and the failing
    check's witness."""
    arrays, verdict = {}, cat._verdict

    def spy(axiom, arity, residues, *, layout=None, **kwargs):  # the suite's arrays
        residues = list(residues)
        arrays[axiom] = residues, layout
        return verdict(axiom, arity, residues, layout=layout, **kwargs)

    cat._verdict = spy
    checks = {c.axiom: c for c in cat.coherence_suite(seed=seed).checks}
    ref, sampled = _per_tuple_self_checks(cat, seed)
    for axiom, (checked, witness, max_err, residues, layouts) in ref.items():
        c = checks[axiom]
        assert (c.checked, c.witness, c.max_error) == (checked, witness, max_err), axiom
        assert c.passed == (witness is None), axiom
        got_residues, got_layouts = arrays[axiom]
        if axiom == "naturality(spot-checks)":  # rows are sampled triples; no residue
            assert got_residues == []
            assert np.array_equal(got_layouts, layouts), axiom
            continue
        (got,) = got_residues
        assert np.array_equal(got, residues), axiom
        assert np.array_equal(got_layouts, layouts), axiom
    if failing is not None:
        assert not checks[failing].passed
        return sampled, checks[failing].witness
    return sampled, None


# the monodromy-verify shape: Z/n graded by Z/n through its generator, so
# every word is 1-dim and distinct, under a coboundary-twisted table cocycle
_MONODROMY_SHAPES = [("z3", 1, 3), ("z4", 1, 4), ("z5", 1, 5)]


@pytest.mark.parametrize("name, image, n", _REPEATED_SIGNATURES + _MONODROMY_SHAPES)
@pytest.mark.parametrize("seed", [0, 5])
def test_self_checks_collapse_to_signatures(name, image, n, seed):
    monodromy = (name, image, n) in _MONODROMY_SHAPES
    cat = _graded_builtin(name, image, n, _coboundary_twisted_zn(n) if monodromy else None)
    words = [cat._word(m) for m in cat.catalog]
    if monodromy:  # distinct words, all in one stack per check
        assert len(set(words)) == len(words) > len({d for _, d in words}) == 1
    else:
        assert len(set(words)) < len(words)
    sampled, _ = _assert_self_checks_match(cat, seed)
    # some seeded map serves several sampled triples; at seed 5 on d4 and
    # q8 at the identity, the (d3, d1 d2) = (2, 2) map serves (1, 2, 2) triples
    dims = [[cat.catalog[x].dim for x in t] for t in sampled]
    signatures = [(d3, d1 * d2) for d1, d2, d3 in dims]
    shared = {sig for sig in signatures if signatures.count(sig) > 1}
    assert shared
    if (name, image, seed) in {("d4", 0, 5), ("q8", 0, 5)}:
        assert (2, 2) in shared and dims.count([1, 2, 2]) > 1


@pytest.mark.parametrize(
    "name, image, n, make_cocycle",
    [(name, image, n, None) for name, image, n in _REPEATED_SIGNATURES]
    + [
        # the two cyclic classes whose S entries are not +-d_i d_j
        ("z4", 1, 4, lambda: build_cyclic(4, 1)),
        ("z8", 1, 8, lambda: build_cyclic(8, 2)),
        ("z6", 2, 3, _coboundary_twisted_z3),
    ],
)
def test_exact_s_table_matches_traces(name, image, n, make_cocycle):
    cat = _graded_builtin(name, image, n, make_cocycle and make_cocycle())
    grades = [cat.grading.index(m.grade) for m in cat.catalog]
    num, mag = s_table(cat.cocycle, grades, [m.dim for m in cat.catalog])
    exact = mag * np.exp(2j * np.pi * num / cat.cocycle.denom)
    traced = np.array([[oracles.s_trace(cat, m, k) for k in cat.catalog] for m in cat.catalog])
    assert np.abs(exact - traced).max() <= 1e-9


def _patch_layout_fault(fault, monkeypatch):
    """Patch a layout fault of the mutation table into ``modcat`` for the
    rest of a test; the fixture category its row builds is not read."""
    fault("q8-z2", monkeypatch)


@pytest.mark.parametrize(
    "fault, failing, name, image, n, seed",
    [
        (mutants._diag_identity, "snake", "s3", 0, 2, 0),
        (mutants._rolled_flip, "double-braiding", "q8", 2, 2, 0),
        (mutants._rolled_flip, "double-braiding", "d4", 0, 2, 0),
        (mutants._transposed_flip, "naturality(spot-checks)", "q8", 2, 2, 5),
        (mutants._swapped_kron, "naturality(spot-checks)", "d4", 2, 2, 5),
        (mutants._swapped_kron, "naturality(spot-checks)", "s3", 0, 2, 0),
    ],
    ids=[
        "identity-read-as-diag(1..d)-snake-s3-0-2-0", "rolled-flip-double-braiding-q8-2-2-0",
        "rolled-flip-double-braiding-d4-0-2-0", "transposed-flip-naturality(spot-checks)-q8-2-2-5",
        "swapped-kron-naturality(spot-checks)-d4-2-2-5",
        "swapped-kron-naturality(spot-checks)-s3-0-2-0",
    ],
)
def test_collapsed_self_checks_catch_mutations(fault, failing, name, image, n, seed, monkeypatch):
    # each layout self-check fails on its mutation, on a catalog with
    # repeated signatures, with the witness and errors of the per-tuple loops
    _patch_layout_fault(fault, monkeypatch)
    cat = _graded_builtin(name, image, n)
    words = [cat._word(m) for m in cat.catalog]
    assert len(set(words)) < len(words)
    assert _assert_self_checks_match(cat, seed, failing)[1] is not None


def test_collapsed_snake_residue_matches_per_tuple_loops():
    # z6 graded by Z/3 repeats each grade twice; F(1, 2, 1) shifted leaves the
    # snake residue F(a,-a,a) + F(-a,a,-a) nonzero at grades 1 and 2
    good = build_cyclic(3, 1)
    f_num = good.f_num.copy()
    f_num[1, 2, 1] += 1
    broken = AbelianCocycle(good.group, f_num, good.omega_num, good.denom)
    cat = _graded_builtin("z6", 2, 3, broken, category=oracles.unchecked_category)
    assert len({cat._word(m) for m in cat.catalog}) < len(cat.catalog)
    assert _assert_self_checks_match(cat, 0, "snake")[1] == ("chi1",)


@pytest.mark.parametrize(
    "method, old, new, fault, name, image, n, seed",
    [
        # each sampled triple's naturality errors read from the signature of
        # the triple at the mirrored position
        ("_naturality_layouts", "for shape in shapes]", "for shape in shapes[::-1]]",
         mutants._rolled_flip, "s3", 0, 2, 0),
        # the snake layouts written to the words in reverse order
        ("coherence_suite", "layout=snake_layout[at]", "layout=snake_layout[at][::-1]",
         mutants._diag_identity, "s3", 0, 2, 0),
        # the double-braiding layouts written to the second words in reverse order
        ("coherence_suite", "layout=double_layout[np.ix_(at, at)]",
         "layout=double_layout[np.ix_(at, at[::-1])]", mutants._rolled_flip, "q8", 2, 2, 0),
    ],
    ids=["naturality-triples", "snake-words", "double-braiding-words"],
)
def test_reference_catches_errors_written_to_the_wrong_stack_item(
    method, old, new, fault, name, image, n, seed, monkeypatch
):
    _patch_layout_fault(fault, monkeypatch)
    _assert_self_checks_match(_graded_builtin(name, image, n), seed)  # errors that vary
    mutant = mutants.load("modcat", old, new)
    monkeypatch.setattr(TwistedCategory, method, getattr(mutant.TwistedCategory, method))
    with pytest.raises(AssertionError):
        _assert_self_checks_match(_graded_builtin(name, image, n), seed)
