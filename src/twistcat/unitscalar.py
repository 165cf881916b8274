"""Exact arithmetic in the group of roots of unity.

A unit scalar is stored as its reduced rational exponent ``r`` with
``0 <= r < 1``, standing for ``e^{2*pi*i*r}``.  Products of cocycle values
are sums of exponents mod 1, so equality checks on them are exact and never
depend on a floating-point tolerance.  Conversion to a ``complex`` happens
only at the edge, when matrices are built.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from fractions import Fraction

#: Exact values at the four axis points, which ``to_complex`` returns with no rounding.
_AXIS_VALUES = {
    Fraction(0): 1 + 0j,
    Fraction(1, 4): 1j,
    Fraction(1, 2): -1 + 0j,
    Fraction(3, 4): -1j,
}


@dataclass(frozen=True)
class UnitScalar:
    """The root of unity ``e^{2*pi*i*exponent}``; exponent reduced, in [0, 1)."""

    exponent: Fraction

    def __post_init__(self):
        object.__setattr__(self, "exponent", Fraction(self.exponent) % 1)

    @classmethod
    def from_exponent(cls, numerator: int, denominator: int = 1) -> UnitScalar:
        return cls(Fraction(numerator, denominator))

    def to_complex(self) -> complex:
        """Floating-point value ``e^{2*pi*i*exponent}``, accurate to machine precision."""
        value = _AXIS_VALUES.get(self.exponent)
        if value is None:
            value = cmath.exp(2j * cmath.pi * float(self.exponent))
        return value

    def __str__(self) -> str:
        return str(self.exponent)

    def __repr__(self) -> str:
        return f"UnitScalar({self.exponent!r})"
