"""Finite abelian groups in invariant-factor form.

A group is ``Z/n_1 x ... x Z/n_k`` and an element is a tuple of reduced
residues, enumerated in lexicographic (mixed-radix) order.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import product
from math import prod

import numpy as np

from .errors import StructuralError

GroupElt = tuple[int, ...]


@dataclass(frozen=True)
class FinAbGroup:
    """``Z/n_1 x ... x Z/n_k`` with componentwise arithmetic."""

    factors: tuple[int, ...]

    def __post_init__(self):
        factors = tuple(int(n) for n in self.factors)
        if not factors:
            raise StructuralError("at least one invariant factor is required")
        if any(n < 1 for n in factors):
            raise StructuralError(f"invariant factors must be >= 1, got {factors}")
        object.__setattr__(self, "factors", factors)

    @property
    def order(self) -> int:
        return prod(self.factors)

    @property
    def rank(self) -> int:
        return len(self.factors)

    @property
    def zero(self) -> GroupElt:
        return (0,) * self.rank

    def element(self, residues) -> GroupElt:
        """Reduce arbitrary integer residues to the canonical tuple."""
        residues = tuple(int(r) for r in residues)
        if len(residues) != self.rank:
            raise StructuralError(
                f"element has {len(residues)} residues, group has rank {self.rank}"
            )
        return tuple(r % n for r, n in zip(residues, self.factors))

    def check(self, a: GroupElt) -> GroupElt:
        if len(a) != self.rank or any(not 0 <= r < n for r, n in zip(a, self.factors)):
            raise StructuralError(f"{a} is not a reduced element of {self}")
        return a

    def elements(self):
        """All elements in lexicographic order (the canonical enumeration)."""
        return (tuple(t) for t in product(*(range(n) for n in self.factors)))

    def index(self, a: GroupElt) -> int:
        """Position of ``a`` in the lexicographic enumeration (mixed radix)."""
        self.check(a)
        idx = 0
        for r, n in zip(a, self.factors):
            idx = idx * n + r
        return idx

    def element_at(self, idx: int) -> GroupElt:
        if not 0 <= idx < self.order:
            raise StructuralError(f"index {idx} out of range for order {self.order}")
        residues = []
        for n in reversed(self.factors):
            residues.append(idx % n)
            idx //= n
        return tuple(reversed(residues))

    @cached_property
    def add_index_table(self) -> np.ndarray:
        """``(order, order)`` table of ``index(a + b)``, used by vectorized checks."""
        digits = np.unravel_index(np.arange(self.order), self.factors)
        sums = tuple((d[:, None] + d[None, :]) % n for d, n in zip(digits, self.factors))
        table = np.ravel_multi_index(sums, self.factors).astype(np.int64, copy=False)
        table.setflags(write=False)
        return table

    @cached_property
    def neg_index_table(self) -> np.ndarray:
        """``index(-a)`` by ``index(a)``: the column of 0 in each row of ``add_index_table``."""
        table = np.argmin(self.add_index_table, axis=1)
        table.setflags(write=False)
        return table

    def __str__(self) -> str:
        return " x ".join(f"Z/{n}" for n in self.factors)
