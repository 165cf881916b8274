"""The Z/2-graded SU(2) fusion ring at the Grothendieck level, and the exact
S tables and categorical dimensions of both modes.

The SU(2) ring uses the Clebsch-Gordan rule: ``su2_ring`` gives its ``V(n)``
their labels, grade ``n mod 2`` and dimension ``n + 1``, and ``su2_fusion``
writes its fusion rules with the same labels; no infinite-dimensional
matrices anywhere.  A finite-group category's fusion coefficients are its own
``hom_dims``, which ``cli`` emits as they are.  ``s_table`` reads both modes'
S tables exactly from the cocycle's ``Omega`` numerators and the dimensions,
with no float trace and no normalization factor, and ``dim_exponents`` reads
the categorical dimensions of both the same way.
"""

from __future__ import annotations

import numpy as np

from .cocycle import AbelianCocycle
from .errors import StructuralError

MAX_SPIN = 64  # the largest spin of an su2 S-matrix or fusion table


def su2_tensor(m: int, n: int) -> tuple[int, ...]:
    """Clebsch-Gordan: the spins ``k`` of ``V(m) (x) V(n) = V(|m-n|) +
    V(|m-n|+2) + ... + V(m+n)``, ascending; ``V(k)`` has dimension ``k + 1``
    and grade ``k mod 2``."""
    if m < 0 or n < 0:
        raise StructuralError("spins must be nonnegative")
    return tuple(range(abs(m - n), m + n + 1, 2))


_label = "V({})".format  # the label of V(n), the SU(2) irrep of spin n/2


def su2_fusion(pairs) -> dict[str, list[str]]:
    """Per spin pair ``(m, n)``, ``V(m)xV(n)`` -> the labels of its
    ``su2_tensor`` spins, ascending."""
    return {f"{_label(m)}x{_label(n)}": list(map(_label, su2_tensor(m, n))) for m, n in pairs}


def s_table(cocycle: AbelianCocycle, grades, dims) -> tuple[np.ndarray, np.ndarray]:
    """Exact unnormalized S entries ``mag e^{2 pi i num / denom}`` of objects with
    grade indices ``grades`` and dimensions ``dims``: ``num`` is ``-b(a_i, a_j)``
    in ``[0, denom)``, ``b`` the polarization of ``q(a) = Omega(a, a)``, and ``mag``
    is ``d_i d_j``.  For a valid cocycle this is the categorical trace of the
    double braiding on ``Mi (x) Mj``."""
    num = -cocycle.b_num[np.ix_(grades, grades)] % cocycle.denom
    return num, np.outer(dims, dims).astype(np.int64)


def su2_ring(max_spin: int, cocycle: AbelianCocycle) -> tuple[list[str], np.ndarray, np.ndarray]:
    """The ``V(n)``, ``n`` from 0 to ``max_spin``, over a cocycle on Z/2: their
    labels, grade indices ``n mod 2`` and dimensions ``n + 1``."""
    if not 0 <= max_spin <= MAX_SPIN:
        raise StructuralError(f"max_spin must be between 0 and {MAX_SPIN}")
    if cocycle.group.factors != (2,):
        raise StructuralError("the graded SU(2) ring needs a cocycle on Z/2")
    spins = np.arange(max_spin + 1)
    return list(map(_label, range(max_spin + 1))), spins % 2, spins + 1


def dim_exponents(cocycle: AbelianCocycle) -> np.ndarray:
    """Per grade index ``a``, the numerator ``x_a`` in ``[0, denom)`` of
    ``-(Omega(a, a) + Omega(a, -a) + F(a, -a, a))``: a grade-``a`` object of
    dimension ``d`` has categorical dimension ``d e^{2 pi i x_a / denom}``,
    the trace ``e_M R_{M,M*} (theta (x) 1) i_M`` of its identity.  For a valid
    cocycle ``x`` is zero (hexagon-2 at ``(a, a, -a)`` with ``Omega(a, 0) = 0``)."""
    a, neg = np.arange(cocycle.group.order), cocycle.group.neg_index_table
    w, f = cocycle.omega_num, cocycle.f_num
    return -(w[a, a] + w[a, neg] + f[a, neg, a]) % cocycle.denom
