"""Fusion coefficients for finite-group categories and the Z/2-graded
SU(2) fusion ring at the Grothendieck level (labels, grades, dimensions).

Finite-group coefficients are character sums ``N^c_ab = dim hom(Ma (x) Mb, Mc)``,
read from the category's one character-sum table; the SU(2) ring uses the
Clebsch-Gordan rule with grade ``n mod 2``, no infinite-dimensional matrices
anywhere.  ``s_table`` reads both S tables exactly from the cocycle's ``Omega``
numerators and the dimensions, with no float trace and no normalization factor,
and ``dim_exponents`` reads the categorical dimensions of both the same way.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cocycle import AbelianCocycle
from .errors import ConsistencyError, StructuralError
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

    def check_invariants(self, unit_label: str) -> None:
        """Commutativity, unit row, and the dimension rule
        ``sum_c N^c_ab d_c = d_a d_b`` (a violation signals an incomplete catalog)."""
        n = len(self.labels)
        coeff = self.coefficients
        if not np.array_equal(coeff, coeff.transpose(1, 0, 2)):
            raise ConsistencyError("fusion coefficients are not symmetric in (a, b)")
        u = self.labels.index(unit_label)
        if not np.array_equal(coeff[u], np.eye(n, dtype=np.int64)):
            raise ConsistencyError("unit row is not the identity delta")
        d = np.asarray(self.dims, dtype=np.int64)
        lhs = coeff @ d
        rhs = d[:, None] * d[None, :]
        if not np.array_equal(lhs, rhs):
            a, b = map(int, np.argwhere(lhs != rhs)[0])
            raise ConsistencyError(
                f"dimension rule fails at ({self.labels[a]}, {self.labels[b]}): "
                f"{int(lhs[a, b])} != {int(rhs[a, b])}; is the catalog complete?"
            )

    def check_associativity(self) -> int:
        """Exhaustive ``sum_e N^e_ab N^d_ec == sum_f N^d_af N^f_bc``; returns tuples checked.

        Checked one ``a`` slab at a time, ``k^3`` entries each, as float64
        matmuls: ``N[a] @ N.reshape(k, k*k)`` holds the left side at ``(b, c, d)``
        and ``N.reshape(k*k, k) @ N[a]`` the right.  This is exact: every partial
        sum is a small nonnegative integer (at most ``d_a d_b d_c`` once the
        dimension rule holds, as ``fusion_table`` checks first), far below 2^53,
        so no order of summation rounds.  The first mismatch of the first
        failing slab, in C order, is the first failing ``(a, b, c, d)``.
        """
        k = len(self.labels)
        n = self.coefficients.astype(np.float64)
        for a in range(k):
            lhs = (n[a] @ n.reshape(k, k * k)).reshape(k, k, k)
            rhs = (n.reshape(k * k, k) @ n[a]).reshape(k, k, k)
            if not np.array_equal(lhs, rhs):
                b, c, d = map(int, np.argwhere(lhs != rhs)[0])
                raise ConsistencyError(
                    f"fusion associativity fails at {(self.labels[a], self.labels[b], self.labels[c], self.labels[d])}"
                )
        return k**4

    def to_dict(self) -> dict:
        """``{a: {b: {c: N^c_ab}}}`` over every label pair, each cell holding
        its nonzero coefficients, filled in C order from the nonzero cells."""
        labels, coeff = self.labels, self.coefficients
        out = {la: {lb: {} for lb in labels} for la in labels}
        for (a, b, c), n in zip(np.argwhere(coeff).tolist(), coeff[coeff != 0].tolist()):
            out[labels[a]][labels[b]][labels[c]] = n
        return out


def fusion_table(cat: TwistedCategory) -> FusionTable:
    """All ``N^c_ab`` by character sums, with the invariants verified."""
    if not cat.complete:
        raise StructuralError("fusion tables require a complete irrep catalog")
    members = cat.catalog
    table = FusionTable(
        tuple(m.label for m in members), tuple(m.dim for m in members), cat.hom_dims
    )
    trivial = np.isclose(np.array([m.character for m in members]), 1.0).all(axis=1)
    unit_candidates = [m.label for m, t in zip(members, trivial) if m.dim == 1 and t]
    if not unit_candidates:
        raise StructuralError("catalog has no trivial representation to act as unit")
    table.check_invariants(unit_candidates[0])
    table.check_associativity()
    return table


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
