"""Faulty copies of library modules, for tests that show a check catches a
fault: a module loaded afresh with one piece of its source replaced, and the
coherence-suite faults of ``test_mutants.ROWS``, which ``test_modcat`` reads
too."""

import importlib
import inspect
import sys
import types

import numpy as np

from twistcat import modcat
from twistcat.abgroup import FinAbGroup
from twistcat.modcat import TwistedCategory
from twistcat.specio import load_spec


def load(name, old, new):
    """``twistcat.<name>`` with its one occurrence of ``old`` replaced by
    ``new``, loaded as a fresh module of the package.  ``old`` must occur
    exactly once, so a mutation cannot go stale silently when the source
    changes."""
    module = importlib.import_module(f"twistcat.{name}")
    source = inspect.getsource(module)
    assert source.count(old) == 1, (name, old)
    mutant = types.ModuleType(f"twistcat._mutant_{name}")
    mutant.__package__, mutant.__file__ = "twistcat", module.__file__
    # dataclasses read their defining module from sys.modules while the source runs
    sys.modules[mutant.__name__] = mutant
    try:
        exec(compile(source.replace(old, new), module.__file__, "exec"), mutant.__dict__)
    finally:
        del sys.modules[mutant.__name__]
    return mutant


def _antisymmetric_b(name, monkeypatch):
    """``b_num`` built as ``Omega(a1, a2) - Omega(a2, a1)``: a cocycle that
    still passes validation, whose ``b`` is not the polarization of ``q``."""
    cocycle = load("cocycle", "(w + w.T) % denom", "(w - w.T) % denom")
    cat = load_spec(name).build_category()
    c = cat.cocycle
    faulty = cocycle.AbelianCocycle(c.group, c.f_num, c.omega_num, c.denom)
    return TwistedCategory(cat.rep_catalog, faulty, cat.embedding, complete=cat.complete)


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
    mutant = load(
        "modcat", "self._ev_exponent(a) + self._ev_exponent(neg[a])", "self._ev_exponent(a)",
    )
    monkeypatch.setattr(TwistedCategory, "coherence_suite", mutant.TwistedCategory.coherence_suite)
    return load_spec(name).build_category()
