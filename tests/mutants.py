"""Faulty copies of library modules, for tests that show a check catches a
fault: a module loaded afresh with one piece of its source replaced."""

import importlib
import inspect
import sys
import types


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
