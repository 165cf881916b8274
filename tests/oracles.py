"""Reference values that tests compare the library against, each written
from its definition rather than from the code under test."""

from fractions import Fraction


def q(cocycle, a) -> Fraction:
    """The quadratic form ``q(a) = Omega(a, a)``, as an exponent in [0, 1)."""
    i = cocycle.group.index(a)
    return Fraction(int(cocycle.omega_num[i, i]), cocycle.denom)


def b(cocycle, a1, a2) -> Fraction:
    """The polarization ``b(a1, a2) = q(a1 + a2) - q(a1) - q(a2)``, in [0, 1)."""
    return (q(cocycle, cocycle.group.add(a1, a2)) - q(cocycle, a1) - q(cocycle, a2)) % 1


def pairing(group, chi, alpha) -> Fraction:
    """Exponent of the dual character ``chi`` at ``alpha``: ``sum_i chi_i alpha_i / n_i`` mod 1."""
    return sum(Fraction(t * x, n) for t, x, n in zip(chi, alpha, group.factors)) % 1


def s_trace(cat, m, n) -> complex:
    """The categorical trace of the double braiding on ``M (x) N``: a float S entry."""
    return cat.cat_trace((m, n), cat.braiding(n, m) @ cat.braiding(m, n))
