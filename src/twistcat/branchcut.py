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
Every sign is decided exactly, with no tolerance, on the float coordinates
scaled by one power of two to Python ints (``_integers``): no overflow, no tie.
``_branch`` decides every branch integer, and ``branch_integers`` is the one
path to both integers of the nested region, for one pair or for arrays of
pairs, each pair scaled by its own power of two; the numerators read
``b_num``.  Paths and their segments are decided one at a time, on Python
ints: for so few points numpy's per-call cost exceeds the work.
"""

from __future__ import annotations

import cmath
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


def _integers(a, b, c, d) -> tuple:
    """The four finite coordinates times one power of two, as exact ints: each
    is ``n / 2^k``, so the largest ``2^k`` clears every denominator.

    Python floats take ``as_integer_ratio``, which raises on inf and nan.  If
    any argument is an array, the four broadcast to one shape of pairs and
    come back as object arrays of Python ints, each pair scaled by its own
    power of two: a pair with an inf or nan coordinate becomes four zeros.
    ``frexp`` splits each float into ``m * 2^e`` with ``2^53 m`` an exact
    int64, and each pair is shifted left by ``e`` less its smallest ``e``.
    """
    if not any(isinstance(v, np.ndarray) for v in (a, b, c, d)):
        (a, p), (b, q) = a.as_integer_ratio(), b.as_integer_ratio()
        (c, r), (d, s) = c.as_integer_ratio(), d.as_integer_ratio()
        t = max(p, q, r, s)
        return a * (t // p), b * (t // q), c * (t // r), d * (t // s)
    coords = np.array(np.broadcast_arrays(a, b, c, d), dtype=np.float64)
    coords[:, ~np.isfinite(coords).all(axis=0)] = 0.0
    m, e = np.frexp(coords)
    ints = np.ldexp(m, 53).astype(np.int64).astype(object)
    return tuple(ints << (e - e.min(axis=0)).astype(object))


def _cross_sign(a: complex, b: complex) -> int:
    """Exact sign of ``Re a Im b - Im a Re b``, or of ``Im(b/a)``, for finite a, b."""
    ax, ay, bx, by = _integers(a.real, a.imag, b.real, b.imag)
    cross = ax * by - ay * bx
    return (cross > 0) - (cross < 0)


def _branch(cross, first_below, diff_below):
    """The branch integer of a pair with cross sign ``cross``: ``1`` if it is positive,
    the difference is below the cut and the first point is not, ``-1`` in the
    mirrored case, else ``0``.  Ints and bools give an int; arrays of them, an
    int array."""
    up = (diff_below > first_below) & (cross > 0)
    down = (first_below > diff_below) & (cross < 0)
    return 1 * up - 1 * down  # 1 * makes a bool array an int array, as Python bools are ints


def branch_integers(z1, z2) -> tuple:
    """``(p(z1, z2), p(z2, z2 - z1))`` on the region ``|z1| > |z2| > |z1 - z2| > 0``.

    Decided on the coordinates of ``z1`` and ``z2`` as exact ints, so ``z1 - z2``
    is never rounded; an inf or nan coordinate is outside the region.  The
    cross sign of ``p(z2, z2 - z1)``, ``Im(conj(z2) (z2 - z1))``, equals that of
    ``(z1, z2)``; its second point is not below the cut exactly when ``z2`` is
    not, and the difference of its points, ``z1``, is below exactly when
    ``Im z1 < 0``.

    Numbers give two ints.  Arrays of pairs (``z1`` and ``z2`` broadcast
    together) give two int64 arrays, decided pair by pair on the same exact
    ints; if any pair is outside the region, the first one is named.
    """
    try:
        x1, y1, x2, y2 = _integers(z1.real, z1.imag, z2.real, z2.imag)
    except (OverflowError, ValueError):  # inf or nan has no integer ratio; 0 fails the region
        x1 = y1 = x2 = y2 = 0
    dx, dy = x1 - x2, y1 - y2
    r1, r2, rd = x1 * x1 + y1 * y1, x2 * x2 + y2 * y2, dx * dx + dy * dy
    inside = (r1 > r2) & (r2 > rd) & (rd > 0)
    if inside is not True and not np.all(inside):  # a Python bool skips numpy
        if np.ndim(inside):
            first = np.unravel_index(np.argmin(inside), inside.shape)
            z1, z2 = (np.broadcast_to(z, inside.shape)[first] for z in (z1, z2))
        raise DomainError(f"region |z1| > |z2| > |z1 - z2| > 0 violated at z1 = {z1}, z2 = {z2}")
    cross = x1 * y2 - y1 * x2
    return _branch(cross, y1 < 0, dy < 0), _branch(cross, y2 < 0, y1 < 0)


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
        if not all(cmath.isfinite(w) for w in pts):
            raise StructuralError("waypoints must be finite")
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
    ax, ay, bx, by = _integers(a.real, a.imag, b.real, b.imag)
    return ax * by == ay * bx and ax * bx + ay * by <= 0


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
