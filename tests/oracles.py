"""Reference values that tests compare the library against, each written
from its definition rather than from the code under test."""

from fractions import Fraction
from itertools import count

import numpy as np

from twistcat.grouprep import MatrixRep


def add(group, a, b):
    """``a + b`` in ``Z/n_1 x ... x Z/n_k``: both summands checked as reduced
    elements, then residues added componentwise mod each ``n_i``."""
    group.check(a), group.check(b)
    return tuple((x + y) % n for x, y, n in zip(a, b, group.factors))


def exponent(group) -> int:
    """The least ``m >= 1`` with ``m a = 0`` for every element ``a``."""
    elements = list(group.elements())
    return next(
        m for m in count(1)
        if all(m * x % n == 0 for a in elements for x, n in zip(a, group.factors))
    )


def tensor_rep(m1, m2):
    """The tensor product representation ``g -> rho1(g) kron rho2(g)``, with
    composite index ``(i, j) -> i * d2 + j``."""
    return MatrixRep(m1.group, np.array([np.kron(a, b) for a, b in zip(m1.matrices, m2.matrices)]))


def q(cocycle, a) -> Fraction:
    """The quadratic form ``q(a) = Omega(a, a)``, as an exponent in [0, 1)."""
    i = cocycle.group.index(a)
    return Fraction(int(cocycle.omega_num[i, i]), cocycle.denom)


def b(cocycle, a1, a2) -> Fraction:
    """The polarization ``b(a1, a2) = q(a1 + a2) - q(a1) - q(a2)``, in [0, 1)."""
    return (q(cocycle, add(cocycle.group, a1, a2)) - q(cocycle, a1) - q(cocycle, a2)) % 1


def pairing(group, chi, alpha) -> Fraction:
    """Exponent of the dual character ``chi`` at ``alpha``: ``sum_i chi_i alpha_i / n_i`` mod 1."""
    return sum(Fraction(t * x, n) for t, x, n in zip(chi, alpha, group.factors)) % 1


def s_trace(cat, m, n) -> complex:
    """The categorical trace of the double braiding on ``M (x) N``: a float S entry."""
    return cat.cat_trace((m, n), cat.braiding(n, m) @ cat.braiding(m, n))
