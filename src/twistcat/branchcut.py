"""Branch-cut bookkeeping for the monodromy scalars of graded compositions.

The fixed branch of logarithm is ``log z = log|z| + i arg z`` with
``0 <= arg z < 2 pi`` (cut along the positive real axis).  The integer
``p(z1, z2)`` measures the failure of additivity of this branch across

    log(z1 - z2) = log z1 + log(1 - z2/z1) + 2 pi i p,

where the last log is principal (series branch, valid since ``|z2/z1| < 1``
puts ``1 - z2/z1`` in the right half plane).  Path winding is normalized so
that the clockwise unit loop has winding +1, which makes the transport
scalar ``(Omega(a1,a2) Omega(a2,a1))^{-p}`` of that loop equal the composite
of the two braidings, the loop identity that fixes the sign convention.
Both integers are exact sign tests on the float coordinates, with no tolerance.
``_branch`` decides every branch integer, and ``branch_integers`` is the one
path to both integers of the nested region; the numerators read ``b_num``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .abgroup import GroupElt
from .cocycle import AbelianCocycle
from .errors import DomainError, StructuralError
from .unitscalar import UnitScalar

_BELOW_TWO_PI = math.nextafter(2 * math.pi, 0.0)


def cut_arg(z: complex) -> float:
    """Argument of ``z`` in ``[0, 2 pi)``; ``z`` is below the cut exactly when
    ``Im z < 0``, so an imaginary part ``-0.0`` lies on the cut."""
    if z == 0:
        raise DomainError("argument of 0 is undefined")
    if z.imag >= 0:
        return math.atan2(abs(z.imag), z.real)  # abs: atan2(-0.0, x < 0) is -pi
    # just below the cut, the angle + 2 pi can round up to 2 pi; keep it on this side
    return min(math.atan2(z.imag, z.real) + 2 * math.pi, _BELOW_TWO_PI)


def plog(z: complex) -> complex:
    """``log|z| + i arg z`` with ``arg z`` in ``[0, 2 pi)``."""
    if z == 0:
        raise DomainError("log of 0 is undefined")
    return complex(math.log(abs(z)), cut_arg(z))


def _cross_sign(a: complex, b: complex) -> int:
    """Exact sign of ``Re a Im b - Im a Re b``, or of ``Im(b/a)``, for finite a, b."""
    x, y = a.real * b.imag, a.imag * b.real
    if x != y:
        # rounding is monotone, so unequal rounded products order as the exact ones
        return 1 if x > y else -1
    if (a.real == 0 or b.imag == 0) and (a.imag == 0 or b.real == 0):
        return 0
    exact = Fraction(a.real) * Fraction(b.imag) - Fraction(a.imag) * Fraction(b.real)
    return (exact > 0) - (exact < 0)


def _moduli(*points: complex) -> list[float]:
    """``|z|`` of each finite point, all at half scale when one passes the
    float range, so they compare without overflow.  Halving can take a
    subnormal modulus to 0: test a point for 0 on the point itself."""
    moduli = [math.hypot(z.real, z.imag) for z in points]
    if math.inf in moduli:
        moduli = [math.hypot(0.5 * z.real, 0.5 * z.imag) for z in points]
    return moduli


def _branch(z1: complex, z2: complex, first_below: bool, diff_below: bool) -> int:
    """The branch integer of a pair with the cross sign of ``(z1, z2)``: ``1`` if it is
    positive, the difference is below the cut and the first point is not, ``-1`` in the
    mirrored case, else ``0``."""
    if diff_below and not first_below:
        return int(_cross_sign(z1, z2) > 0)
    if first_below and not diff_below:
        return -int(_cross_sign(z1, z2) < 0)
    return 0


def branch_integers(z1: complex, z2: complex) -> tuple[int, int]:
    """``(p(z1, z2), p(z2, z2 - z1))`` on the region ``|z1| > |z2| > |z1 - z2| > 0``.

    Neither the region test nor the second integer rounds ``z1 - z2``: when
    that difference passes the float range the moduli are compared at half
    scale, and ``p(z2, z2 - z1)`` is decided on ``z1`` and ``z2`` alone.  Its
    cross sign ``Im(conj(z2) (z2 - z1))`` equals that of ``(z1, z2)``, its
    second point is not below the cut exactly when ``z2`` is not, and the
    difference of its points, ``z1``, is below exactly when ``Im z1 < 0``.
    """
    diff = z1 - z2
    if math.isinf(diff.real) or math.isinf(diff.imag):
        # each point then has a coordinate above 1e292 in magnitude, so
        # halving a subnormal one cannot move a modulus
        m1, m2, m12 = _moduli(0.5 * z1, 0.5 * z2, 0.5 * z1 - 0.5 * z2)
    else:
        m1, m2, m12 = _moduli(z1, z2, diff)
    if not m1 > m2 > m12:
        raise DomainError(f"region |z1| > |z2| > |z1 - z2| > 0 violated at z1 = {z1}, z2 = {z2}")
    p12 = _branch(z1, z2, z1.imag < 0, z1.imag < z2.imag)
    return p12, _branch(z1, z2, z2.imag < 0, z1.imag < 0)


def assoc_scalar(
    cocycle: AbelianCocycle,
    z1: complex,
    z2: complex,
    a1: GroupElt,
    a2: GroupElt,
    a3: GroupElt,
) -> UnitScalar:
    """The scalar relating the iterate of two graded compositions to their
    product on the region ``|z1| > |z2| > |z1 - z2| > 0``:

        (Omega(a1,a2) Omega(a2,a1))^{-p(z1,z2)}
      * (Omega(a1,a3) Omega(a3,a1))^{+p(z2,z2-z1)}
      * F(a1,a2,a3)^{-1}

    Exact: the two integer exponents weight the bilinear-form lifts.
    """
    p12, p2 = branch_integers(z1, z2)
    g = cocycle.group
    num = assoc_numerator(cocycle, p12, p2, g.index(a1), g.index(a2), g.index(a3))
    return UnitScalar(Fraction(int(num), cocycle.denom))


def assoc_numerator(cocycle: AbelianCocycle, p12: int, p2: int, i1, i2, i3):
    """Exponent numerator over ``cocycle.denom`` of the ``assoc_scalar`` formula

        -p12 * b(a1, a2) + p2 * b(a1, a3) - F(a1, a2, a3)

    at enumeration indices ``(i1, i2, i3)``, reduced to ``[0, denom)``.  The
    indices may be integers or broadcastable index arrays.
    """
    b = cocycle.b_num
    return (-p12 * b[i1, i2] + p2 * b[i1, i3] - cocycle.f_num[i1, i2, i3]) % cocycle.denom


@dataclass(frozen=True)
class PathPolyline:
    """A polyline in the punctured plane; no waypoint or segment touches 0."""

    waypoints: tuple[complex, ...]

    def __post_init__(self):
        pts = tuple(complex(w) for w in self.waypoints)
        if not pts:
            raise StructuralError("a path needs at least one waypoint")
        if any(w == 0 for w in pts):
            raise StructuralError("waypoints must avoid the origin")
        for a, b in zip(pts, pts[1:]):
            if _segment_hits_origin(a, b):
                raise StructuralError(f"segment {a} -> {b} passes through the origin")
        object.__setattr__(self, "waypoints", pts)


def _segment_hits_origin(a: complex, b: complex) -> bool:
    """Whether the segment from ``a`` to ``b`` passes through 0, decided
    exactly on the float coordinates: ``a`` and ``b`` are collinear with 0
    and not on one ray from it."""
    # the dot product of a and b is the cross product of a and i b
    return _cross_sign(a, b) == 0 and _cross_sign(a, complex(-b.imag, b.real)) <= 0


def winding(path: PathPolyline) -> int:
    """Branch-correction integer of the path, relative to the positive-real cut:
    the branch of log at the start that continues along the path to the fixed
    branch at the end is ``plog(start) + 2 pi i winding``.  Counted exactly,
    with no tolerance, as the segments that go from on or above the real axis
    to below it (``Im < 0``) across its positive half, minus those that go
    back; such a segment turns clockwise about 0 going down, counterclockwise
    going up.  So the clockwise unit loop has winding +1.
    """
    total = 0
    for a, b in zip(path.waypoints, path.waypoints[1:]):
        if b.imag < 0 <= a.imag and _cross_sign(a, b) < 0:
            total += 1
        elif a.imag < 0 <= b.imag and _cross_sign(a, b) > 0:
            total -= 1
    return total


def transport_scalar(
    cocycle: AbelianCocycle, path: PathPolyline, a1: GroupElt, a2: GroupElt
) -> UnitScalar:
    """Parallel-transport scalar ``(Omega(a1,a2) Omega(a2,a1))^{-p}`` for the
    path's branch-correction integer ``p``, as exact exponent arithmetic."""
    g = cocycle.group
    num = transport_numerator(cocycle, winding(path), g.index(a1), g.index(a2))
    return UnitScalar(Fraction(int(num), cocycle.denom))


def transport_numerator(cocycle: AbelianCocycle, p: int, i1, i2):
    """Exponent numerator over ``cocycle.denom`` of ``-p * b(a1, a2)``, the
    transport formula for winding ``p``, at enumeration indices ``(i1, i2)``,
    reduced to ``[0, denom)``.  The indices may be integers or broadcastable
    index arrays."""
    # the winding is unbounded, so p * b can pass int64: multiply exactly
    b = np.asarray(cocycle.b_num[i1, i2]).astype(object)
    return np.asarray((-p * b) % cocycle.denom, dtype=np.int64)


def clockwise_unit_loop() -> PathPolyline:
    """A square polyline realization of the clockwise unit loop based at 1."""
    return PathPolyline((1, -1j, -1, 1j, 1))
