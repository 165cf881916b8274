"""Mutation tables.  In the first, each row is a fault, loaded into a copy
of one library module or patched in for one test, that must fail its named
verdict of the coherence suite on each listed fixture, where the fixture
passes it, and raise no error on the way.  The suite's pentagon and
hexagons come from the cocycle report, so these rows show that the verdicts
it computes itself still catch faults over a cocycle that passes
validation; a verdict without a row is listed in ``NO_ROW`` with its
reason.  In the second, each row is one function of a library module
replaced by its copy from a mutant module, which must make a named test,
passing without it, fail its assertion."""

import numpy as np
import pytest

from twistcat import modcat
from twistcat.abgroup import FinAbGroup
from twistcat.modcat import TwistedCategory
from twistcat.specio import load_spec

import mutants
import test_branchcut
import test_cocycle
import test_fusionring
import test_grouprep
import test_specio


def _antisymmetric_b(name, monkeypatch):
    """``b_num`` built as ``Omega(a1, a2) - Omega(a2, a1)``: a cocycle that
    still passes validation, whose ``b`` is not the polarization of ``q``."""
    cocycle = mutants.load("cocycle", "(w + w.T) % denom", "(w - w.T) % denom")
    cat = load_spec(name).build_category()
    c = cat.cocycle
    faulty = cocycle.AbelianCocycle(c.group, c.f_num, c.omega_num, c.denom)
    irreps = {m.label: m.rep for m in cat.catalog}
    return TwistedCategory(cat.group, faulty, cat.embedding, irreps, complete=cat.complete)


def _rolled_neg_index_table(name, monkeypatch):
    """``index(-a)`` read one place off, for every grading group."""
    real = FinAbGroup.neg_index_table.func
    monkeypatch.setattr(FinAbGroup, "neg_index_table", property(lambda g: np.roll(real(g), 1)))
    return load_spec(name).build_category()


def _swapped_kron(name, monkeypatch):
    """``_kron(a, b)`` computed as ``kron(b, a)``."""
    kron = modcat._kron
    monkeypatch.setattr(modcat, "_kron", lambda a, b: kron(b, a))
    return load_spec(name).build_category()


def _transposed_flip(name, monkeypatch):
    """``flip_matrix(d1, d2)`` transposed: the flip of ``V2 (x) V1``."""
    flip = modcat.flip_matrix
    monkeypatch.setattr(modcat, "flip_matrix", lambda d1, d2: flip(d1, d2).T)
    return load_spec(name).build_category()


def _rolled_flip(name, monkeypatch):
    """``flip_matrix(d1, d2)`` with its rows rolled by one: a permutation
    that the flip back does not undo."""
    flip = modcat.flip_matrix
    monkeypatch.setattr(modcat, "flip_matrix", lambda d1, d2: np.roll(flip(d1, d2), 1, 0))
    return load_spec(name).build_category()


def _diag_identity(name, monkeypatch):
    """The identity layout read as ``diag(1..d)``, which differs from the
    identity on 2-dim words only."""
    monkeypatch.setattr(modcat, "_identity", lambda d: np.diag(np.arange(1, d + 1)))
    return load_spec(name).build_category()


def _dropped_snake_term(name, monkeypatch):
    """The snake on ``M*`` read without the ``F(-a, a, -a)`` of its
    associator, so its residue is ``F(a, -a, a)`` alone."""
    mutant = mutants.load(
        "modcat", "self._ev_exponent(a) + self._ev_exponent(neg[a])", "self._ev_exponent(a)",
    )
    monkeypatch.setattr(TwistedCategory, "coherence_suite", mutant.TwistedCategory.coherence_suite)
    return load_spec(name).build_category()


# (fault, the verdict it must fail, the fixtures it must fail it on)
ROWS = [
    (_antisymmetric_b, "balancing", ["z2-lattice-on-z4", "q8-z2"]),
    (_rolled_neg_index_table, "twist-dual", ["z2-lattice-on-z4", "super-on-z4", "q8-z2"]),
    (_swapped_kron, "naturality(spot-checks)", ["s3-trivial-grading"]),
    (_transposed_flip, "naturality(spot-checks)", ["s3-trivial-grading"]),
    (_rolled_flip, "double-braiding", ["s3-trivial-grading", "q8-z2"]),
    (_diag_identity, "snake", ["s3-trivial-grading", "q8-z2"]),
    (_dropped_snake_term, "snake", ["z2-lattice-on-z4", "q8-z2"]),
]

# the suite's verdicts without a row, each with the reason no fault in the
# suite can fail it over a cocycle that passes validation
NO_ROW = {
    "pentagon(matrices)": "read from the cocycle report; the L1 rows of TEST_ROWS cover it",
    "hexagon-1(matrices)": "read from the cocycle report; the L1 rows of TEST_ROWS cover it",
    "hexagon-2(matrices)": "read from the cocycle report; the L1 rows of TEST_ROWS cover it",
    "triangle": "reads F(a, 0, b), which the cocycle report's normalization check requires to be 0",
}


def test_every_suite_verdict_has_a_row_or_a_reason(categories):
    rows = {verdict for _, verdict, _ in ROWS}
    assert not rows & NO_ROW.keys()
    for cat in categories.values():
        assert {c.axiom for c in cat.coherence_suite().checks} <= rows | NO_ROW.keys()


@pytest.mark.parametrize(
    "fault, verdict, name",
    [(fault, verdict, name) for fault, verdict, names in ROWS for name in names],
    ids=[f"{fault.__name__[1:]}-{name}" for fault, _, names in ROWS for name in names],
)
def test_mutant_fails_its_verdict(fault, verdict, name, monkeypatch, categories):
    assert next(c for c in categories[name].coherence_suite().checks if c.axiom == verdict).passed
    checks = {c.axiom: c for c in fault(name, monkeypatch).coherence_suite().checks}
    assert not checks[verdict].passed and checks[verdict].witness is not None


# (module, the function taken from its mutant, old, new, the test it must fail)
TEST_ROWS = [
    # the L1 certificates: the pentagon slabs and hexagon rows read at every generator
    ("cocycle", "_generator_rows",
     "return [prod(f[j + 1:]) for j, n in enumerate(f) if n > 1] or [0]",
     "return [prod(f[j + 1:]) for j, n in enumerate(f) if n > 1][:-1] or [0]",
     test_cocycle.test_table_broken_through_the_last_factor_is_refused),
    ("cocycle", "_hexagon_rows_vanish", "_hexagon_rows(c, _generator_rows(c.group))",
     "_hexagon_rows(c, [0])", test_cocycle.test_table_broken_through_the_last_factor_is_refused),
    # the kernel dtype one size too small at both bounds
    ("cocycle", "_narrow_dtype", "5 * denom < 2**15 else np.int32 if 5 * denom < 2**31",
     "5 * denom < 2**16 else np.int32 if 5 * denom < 2**32",
     test_cocycle.test_coboundaries_at_the_kernel_dtype_bounds),
    # the character sum without the conjugate of its third character
    ("grouprep", "hom_dim_table", "@ chars.conj().T", "@ chars.T",
     test_grouprep.test_hom_dim_table_of_known_fusion_rules),
    # the table reader: its count of each key's parts, its flag for parts
    # that may name one cell twice, and the order of an entry's checks
    ("specio", "_parse_tables", 'set(map(str.count, ks, repeat("|"))) <= {arity - 1}', "True",
     test_specio.test_misaligned_keys_are_refused_at_the_first),
    ("specio", "_Parts", "self.aliased |= index >= 0", "pass",
     test_specio.test_later_key_for_the_same_element_wins),
    ("specio", "_first_bad_entry",
     """        for part in text.split("|"):
            parse_element(part, group, f"spec field {where!r}")
        _parse_exponent(value, where)""",
     """        _parse_exponent(value, where)
        for part in text.split("|"):
            parse_element(part, group, f"spec field {where!r}")""",
     test_specio.test_a_bad_part_is_named_before_a_bad_exponent_of_its_entry),
    # the exact branch integer and crossing sign behind p(z1, z2) and winding
    ("branchcut", "_branch", "return 1 * up - 1 * down", "return 0",
     test_branchcut.test_p_int_examples),
    ("branchcut", "_cross_sign", "return (cross > 0) - (cross < 0)",
     "return (cross < 0) - (cross > 0)", test_branchcut.test_winding_examples),
    # the categorical dimension without F(a, -a, a), and Clebsch-Gordan without its top spin
    ("fusionring", "dim_exponents", "-(w[a, a] + w[a, neg] + f[a, neg, a])",
     "-(w[a, a] + w[a, neg])", test_fusionring.test_dim_exponents_read_a_shifted_f),
    ("fusionring", "su2_tensor", "range(abs(m - n), m + n + 1, 2)", "range(abs(m - n), m + n, 2)",
     test_fusionring.test_su2_tensor_examples),
]


@pytest.mark.parametrize(
    "module, name, old, new, test", TEST_ROWS, ids=[row[1].lstrip("_") for row in TEST_ROWS]
)
def test_mutant_fails_its_test(module, name, old, new, test, monkeypatch):
    test()
    monkeypatch.setattr(f"twistcat.{module}.{name}", getattr(mutants.load(module, old, new), name))
    with pytest.raises((AssertionError, pytest.fail.Exception)):
        test()
