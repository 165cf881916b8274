"""Mutation tables.  In the first, each row is a fault, loaded into a copy
of one library module or patched in for one test, that must fail its named
verdict of the coherence suite on each listed fixture, where the fixture
passes it, and raise no error on the way.  The suite's pentagon and
hexagons come from the cocycle report, so these rows show that the verdicts
it computes itself still catch faults over a cocycle that passes
validation.  In the second, each row is one function of a library module
replaced by its copy from a mutant module, which must make a named test,
passing without it, fail its assertion."""

import numpy as np
import pytest

from twistcat.abgroup import FinAbGroup
from twistcat.modcat import TwistedCategory
from twistcat.specio import load_spec

import mutants
import test_cocycle
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


# (fault, the verdict it must fail, the fixtures it must fail it on)
ROWS = [
    (_antisymmetric_b, "balancing", ["z2-lattice-on-z4", "q8-z2"]),
    (_rolled_neg_index_table, "twist-dual", ["z2-lattice-on-z4", "super-on-z4", "q8-z2"]),
]


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
    # the bulk table reader's count of each key's parts
    ("specio", "_read_canonical", 'set(map(str.count, chunk, repeat("|"))) <= {arity - 1}', "True",
     test_specio.test_misaligned_keys_are_refused_at_the_first),
]


@pytest.mark.parametrize(
    "module, name, old, new, test", TEST_ROWS, ids=[row[1][1:] for row in TEST_ROWS]
)
def test_mutant_fails_its_test(module, name, old, new, test, monkeypatch):
    test()
    monkeypatch.setattr(f"twistcat.{module}.{name}", getattr(mutants.load(module, old, new), name))
    with pytest.raises((AssertionError, pytest.fail.Exception)):
        test()
