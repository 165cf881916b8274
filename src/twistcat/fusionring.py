"""Fusion coefficients for finite-group categories and the Z/2-graded
SU(2) fusion ring at the Grothendieck level (labels, grades, dimensions).

Finite-group coefficients are character sums ``N^c_ab = dim hom(Ma (x) Mb, Mc)``,
read from the category's one character-sum table, whose every cell the
category checks against its projector trace; that cross-check is the table's
one runtime check, since a complete catalog implies the ring identities.  The
SU(2) ring uses the Clebsch-Gordan rule with grade ``n mod 2``, no
infinite-dimensional matrices anywhere.  ``s_table`` reads both S tables
exactly from the cocycle's ``Omega`` numerators and the dimensions, with no
float trace and no normalization factor, and ``dim_exponents`` reads the
categorical dimensions of both the same way.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cocycle import AbelianCocycle
from .errors import StructuralError
from .modcat import TwistedCategory

MAX_SPIN = 64  # the largest spin of an su2 S-matrix or fusion table


@dataclass(frozen=True, eq=False)
class FusionTable:
    """Nonnegative-integer coefficients ``N^c_ab`` over irrep labels."""

    labels: tuple[str, ...]
    dims: tuple[int, ...]
    coefficients: np.ndarray  # indexed (a, b, c)

    def __post_init__(self):
        n = len(self.labels)
        coeff = np.asarray(self.coefficients, dtype=np.int64)
        if coeff.shape != (n, n, n):
            raise StructuralError(f"coefficient array shape {coeff.shape}, expected {(n,)*3}")
        if coeff.min() < 0:
            raise StructuralError("fusion coefficients must be nonnegative")
        coeff.setflags(write=False)
        object.__setattr__(self, "coefficients", coeff)

    def to_dict(self) -> dict:
        """``{a: {b: {c: N^c_ab}}}`` over every label pair, each cell holding
        its nonzero coefficients, filled in C order from the nonzero cells."""
        labels, coeff = self.labels, self.coefficients
        out = {la: {lb: {} for lb in labels} for la in labels}
        for (a, b, c), n in zip(np.argwhere(coeff).tolist(), coeff[coeff != 0].tolist()):
            out[labels[a]][labels[b]][labels[c]] = n
        return out


def fusion_table(cat: TwistedCategory) -> FusionTable:
    """All ``N^c_ab`` of a complete catalog: its ``hom_dims``, each cell
    cross-checked against its projector trace.  The ring identities
    (symmetry, the unit row, the dimension rule, associativity) are not
    checked again: a complete catalog of inequivalent irreps is a full set
    of irreps, whose characters multiply as ``chi_a chi_b = sum_c N^c_ab chi_c``,
    and each identity is a theorem of that ring."""
    if not cat.complete:
        raise StructuralError("fusion tables require a complete irrep catalog")
    members = cat.catalog
    return FusionTable(
        tuple(m.label for m in members), tuple(m.dim for m in members), cat.hom_dims
    )


# -- the symbolic Z/2-graded SU(2) ring ---------------------------------------


def su2_tensor(m: int, n: int) -> tuple[int, ...]:
    """Clebsch-Gordan: the spins ``k`` of ``V(m) (x) V(n) = V(|m-n|) +
    V(|m-n|+2) + ... + V(m+n)``, ascending; ``V(k)`` has dimension ``k + 1``
    and grade ``k mod 2``."""
    if m < 0 or n < 0:
        raise StructuralError("spins must be nonnegative")
    return tuple(range(abs(m - n), m + n + 1, 2))


def s_table(cocycle: AbelianCocycle, grades, dims) -> tuple[np.ndarray, np.ndarray]:
    """Exact unnormalized S entries ``mag e^{2 pi i num / denom}`` of objects with
    grade indices ``grades`` and dimensions ``dims``: ``num`` is ``-b(a_i, a_j)``
    in ``[0, denom)``, ``b`` the polarization of ``q(a) = Omega(a, a)``, and ``mag``
    is ``d_i d_j``.  For a valid cocycle this is the categorical trace of the
    double braiding on ``Mi (x) Mj``."""
    num = -cocycle.b_num[np.ix_(grades, grades)] % cocycle.denom
    return num, np.outer(dims, dims).astype(np.int64)


def su2_spins(max_spin: int) -> np.ndarray:
    """The spins ``0 .. max_spin`` of an S-matrix."""
    if not 0 <= max_spin <= MAX_SPIN:
        raise StructuralError(f"max_spin must be between 0 and {MAX_SPIN}")
    return np.arange(max_spin + 1)


def su2_s_table(spins, cocycle: AbelianCocycle) -> tuple[np.ndarray, np.ndarray]:
    """``s_table`` of the ``V(n)``, ``n`` in ``spins``: grade ``n mod 2``, dimension ``n + 1``."""
    if cocycle.group.factors != (2,):
        raise StructuralError("the graded SU(2) ring needs a cocycle on Z/2")
    spins = np.asarray(spins, dtype=np.int64)
    return s_table(cocycle, spins % 2, spins + 1)


def dim_exponents(cocycle: AbelianCocycle) -> np.ndarray:
    """Per grade index ``a``, the numerator ``x_a`` in ``[0, denom)`` of
    ``-(Omega(a, a) + Omega(a, -a) + F(a, -a, a))``: a grade-``a`` object of
    dimension ``d`` has categorical dimension ``d e^{2 pi i x_a / denom}``,
    the trace ``e_M R_{M,M*} (theta (x) 1) i_M`` of its identity.  For a valid
    cocycle ``x`` is zero (hexagon-2 at ``(a, a, -a)`` with ``Omega(a, 0) = 0``)."""
    a, neg = np.arange(cocycle.group.order), cocycle.group.neg_index_table
    w, f = cocycle.omega_num, cocycle.f_num
    return -(w[a, a] + w[a, neg] + f[a, neg, a]) % cocycle.denom
