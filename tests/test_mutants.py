"""Mutation tables.  In the first, each row is a fault of ``mutants``, loaded
into a copy of one library module or patched in for one test, that must fail its named
verdict of the coherence suite on each listed fixture, where the fixture
passes it, and raise no error on the way.  The suite's pentagon and
hexagons come from the cocycle report, so these rows show that the verdicts
it computes itself still catch faults over a cocycle that passes
validation; a verdict without a row is listed in ``NO_ROW`` with its
reason.  In the second, each row is one function or class attribute of a
library module replaced by its copy from a mutant module, which must make
a named test, passing without it, fail its assertion."""

import importlib
import inspect
import sys
from collections import Counter
from functools import partial
from operator import attrgetter

import pytest

from twistcat import catalogs

import mutants
import test_branchcut
import test_cli
import test_cocycle
import test_fusionring
import test_grouprep
import test_modcat
import test_specio
import test_su2_shadows
import test_su2_virasoro


# (fault, the verdict it must fail, the fixtures it must fail it on)
ROWS = [
    (mutants._antisymmetric_b, "balancing", ["z2-lattice-on-z4", "q8-z2"]),
    (mutants._rolled_neg_index_table, "twist-dual", ["z2-lattice-on-z4", "super-on-z4", "q8-z2"]),
    (mutants._swapped_kron, "naturality(spot-checks)", ["s3-trivial-grading"]),
    (mutants._transposed_flip, "naturality(spot-checks)", ["s3-trivial-grading"]),
    (mutants._rolled_flip, "double-braiding", ["s3-trivial-grading", "q8-z2"]),
    (mutants._diag_identity, "snake", ["s3-trivial-grading", "q8-z2"]),
    (mutants._dropped_snake_term, "snake", ["z2-lattice-on-z4", "q8-z2"]),
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


def _associators_match_dense_reference(categories):
    """``test_index_paths_match_dense_reference`` on s3 and q8 at seed 0:
    their 8-dim associators are the only layouts of 8 dims the suite or the
    public maps read."""
    for name in ("s3-trivial-grading", "q8-z2"):
        test_modcat.test_index_paths_match_dense_reference(name, 0, categories)


# (module, the function or class attribute taken from its mutant, old, new,
# the test it must fail)
TEST_ROWS = [
    # the L1 certificates: the pentagon slabs and hexagon rows read at every generator
    ("cocycle", "_generator_rows",
     "return [prod(f[j + 1:]) for j, n in enumerate(f) if n > 1] or [0]",
     "return [prod(f[j + 1:]) for j, n in enumerate(f) if n > 1][:-1] or [0]",
     test_cocycle.test_table_broken_through_the_last_factor_is_refused),
    ("cocycle", "_hexagon_rows_vanish", "_hexagon_rows(c, _generator_rows(c.group))",
     "_hexagon_rows(c, [0])", test_cocycle.test_table_broken_through_the_last_factor_is_refused),
    # the cyclic windows: F(a1, a2, a3+a4) and Omega(a1, a2+a3) read over a
    # row doubled along axis 0, F(a1+a2, a3, a4) read as F(a2-a1, a3, a4)
    # with the two slices swapped, and Omega(a1, a2+a3) read untransposed,
    # as Omega(a2, a3+a1); Z/5 in int16 shows each
    ("cocycle", "_sum_windows", "np.concatenate((V, V), axis=1)", "np.concatenate((V, V))",
     partial(test_cocycle.test_cyclic_windows_match_the_gathers, 5, (2**15 - 1) // 5)),
    ("cocycle", "pentagon_slabs",
     "d[:n - i] -= F[i:]  # F(i+a2, a3, a4) for a2 < n - i\n            d[n - i:] -= F[:i]",
     "d[:i] -= F[n - i:]\n            d[i:] -= F[:n - i]",
     partial(test_cocycle.test_cyclic_windows_match_the_gathers, 5, (2**15 - 1) // 5)),
    ("cocycle", "_hexagon_rows", "W1.transpose(1, 2, 0)[rows]", "W1[rows]",
     partial(test_cocycle.test_cyclic_windows_match_the_gathers, 5, (2**15 - 1) // 5)),
    # the kernel dtype one size too small at both bounds
    ("cocycle", "_narrow_dtype", "5 * denom < 2**15 else np.int32 if 5 * denom < 2**31",
     "5 * denom < 2**16 else np.int32 if 5 * denom < 2**32",
     test_cocycle.test_coboundaries_at_the_kernel_dtype_bounds),
    # the group facts gathered over the table: the classes keyed by their
    # largest member (the same sets in another order), the permutation
    # product written p_j p_i (the opposite group's table), and the cyclic
    # characters gathered at k + a
    ("grouprep", "FiniteGroup.conjugacy_classes", ".min(axis=0)", ".max(axis=0)",
     test_grouprep.test_classes_and_centre_match_the_loop_oracles),
    ("grouprep", "FiniteGroup.from_permutations", "perms[:, perms]",
     "perms[:, perms].transpose(1, 0, 2)",
     test_grouprep.test_permutation_groups_match_the_loop_oracles),
    ("catalogs", "cyclic_group", "idx[:, None] * idx % n", "(idx[:, None] + idx) % n",
     test_grouprep.test_cyclic_characters_match_the_loop_oracle_bit_for_bit),
    # the generator walk taken by left multiplication, b = g * a: each word is
    # then the product of its generator matrices in reverse, which q8's
    # non-commuting spin irrep shows
    ("grouprep", "_walk", "group.table[:, g]", "group.table[g]",
     partial(test_grouprep.test_builtin_irreps_match_closed_forms, "q8")),
    # the character sum without the conjugate of its third character
    ("grouprep", "hom_dim_table", "@ chars.conj().T", "@ chars.T",
     test_grouprep.test_hom_dim_table_of_known_fusion_rules),
    # the character-sum table with one cell raised by 1, and with its b and c
    # axes swapped, which the fixture's non-real Z/4 characters show: the
    # projector cross-check is the one runtime check of the fusion table
    ("grouprep", "hom_dim_table", "table = rounded.astype(np.int64)\n",
     "table = rounded.astype(np.int64)\n    table[0, 0, 0] += 1\n",
     test_cli.test_verify_good_fixture_exit_zero),
    ("grouprep", "hom_dim_table", "table = rounded.astype(np.int64)\n",
     "table = rounded.astype(np.int64).transpose(0, 2, 1)\n",
     test_cli.test_verify_good_fixture_exit_zero),
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
    # and the same fault seen through its finite shadow: V(m)xV(n) restricted to Q8
    ("fusionring", "su2_tensor", "range(abs(m - n), m + n + 1, 2)", "range(abs(m - n), m + n, 2)",
     test_su2_shadows.test_clebsch_gordan_restricts_to_q8_fusion),
    # the Virasoro weights: V(n) graded by n + 1, and the S table's first
    # axis read at the grades rolled by one
    ("fusionring", "su2_ring", "spins % 2", "(spins + 1) % 2",
     test_su2_virasoro.test_twists_are_the_virasoro_weights),
    ("fusionring", "s_table", "cocycle.b_num[np.ix_(grades, grades)]",
     "cocycle.b_num[np.ix_(np.roll(grades, 1), grades)]",
     test_su2_virasoro.test_s_entries_are_the_virasoro_sums),
    # the projector traces without the inverse, which Z/3 and Z/4's
    # non-real characters show; and the multiplicity cross-check disabled
    ("grouprep", "_projector_ranks", "traces[:, group.inverse]", "traces",
     test_fusionring.test_hom_dims_pass_the_projector_cross_check_and_match_the_oracle),
    ("grouprep", "RepCatalog.hom_dims", "bad = ~(np.abs(ranks - table) <= INTEGER_TOL)",
     "bad = np.zeros(table.shape, dtype=bool)",
     test_cli.test_verify_cross_checks_multiplicities_against_projector_ranks),
    # the identity layout wrong from 8 dims on, a size no snake, double
    # braiding or naturality check reads on s3 or q8
    ("modcat", "_identity", "return np.eye(d, dtype=np.int64)",
     "return np.diag(np.arange(1, d + 1)) if d >= 8 else np.eye(d, dtype=np.int64)",
     _associators_match_dense_reference),
    # the check that no two catalog members are equivalent disabled
    ("grouprep", "RepCatalog.characters", "same = np.abs(gram) > INTEGER_TOL",
     "same = np.zeros(gram.shape, dtype=bool)",
     test_cli.test_equivalent_irreps_are_refused_under_every_command),
]


def _row_ids(rows):
    """Each row's function name, numbered from its second row on."""
    seen = Counter()
    for row in rows:
        name = row[1].lstrip("_")
        seen[name] += 1
        yield name if seen[name] == 1 else f"{name}-{seen[name]}"


@pytest.mark.parametrize("module, name, old, new, test", TEST_ROWS, ids=list(_row_ids(TEST_ROWS)))
def test_mutant_fails_its_test(
    module, name, old, new, test, monkeypatch, capsys, tmp_path, categories
):
    # a test that takes fixtures gets this test's own
    fixtures = {
        "monkeypatch": monkeypatch, "capsys": capsys, "tmp_path": tmp_path,
        "categories": categories,
    }
    test = partial(test, **{p: fixtures[p] for p in inspect.signature(test).parameters})
    test()
    real = attrgetter(name)(importlib.import_module(f"twistcat.{module}"))
    mutant = attrgetter(name)(mutants.load(module, old, new))
    monkeypatch.setattr(f"twistcat.{module}.{name}", mutant)
    # and wherever a sibling module imported the function by name
    for sibling in [m for key, m in sys.modules.items() if key.startswith("twistcat.")]:
        if getattr(sibling, name, None) is real:
            monkeypatch.setattr(sibling, name, mutant)
    # the builtin catalogs the first run built and checked are rebuilt with the mutant
    catalogs._shared_catalog.cache_clear()
    with pytest.raises((AssertionError, pytest.fail.Exception)):
        test()
