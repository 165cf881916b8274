import cmath
import math
import random
import re
from fractions import Fraction
from functools import partial
from itertools import product

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from twistcat.abgroup import FinAbGroup
from twistcat.branchcut import (
    _BELOW_TWO_PI,
    PathPolyline,
    assoc_numerator,
    assoc_scalar,
    branch_integers,
    clockwise_unit_loop,
    cut_arg,
    plog,
    transport_numerator,
    transport_scalar,
    winding,
)
from twistcat.cocycle import AbelianCocycle, build_cyclic
from twistcat.errors import DomainError, StructuralError
from twistcat.unitscalar import UnitScalar

import oracles


@pytest.fixture(scope="module")
def lattice():
    return build_cyclic(2, 3)


@pytest.fixture(scope="module")
def super_cocycle():
    return build_cyclic(2, 2)


def test_plog_examples():
    assert plog(1) == 0
    assert abs(plog(-1) - 1j * math.pi) <= 1e-15
    assert abs(plog(-1j) - 1.5j * math.pi) <= 1e-15
    # just below the positive real axis the argument is close to 2 pi
    assert plog(1 - 1e-9j).imag > 6.28


def test_cut_arg_stays_below_two_pi():
    # phase(z) + 2 pi rounds up to exactly 2 pi this close below the cut
    value = cut_arg(1 - 1e-17j)
    assert math.pi < value < 2 * math.pi


@pytest.mark.parametrize(
    "z, want",
    [
        (3 - 5e-324j, _BELOW_TWO_PI),
        (complex(-1, -0.0), math.pi),
        (complex(3, -0.0), 0.0),
    ],
    ids=["subnormal-below", "negative-zero-on-negative-axis", "negative-zero-on-positive-axis"],
)
def test_cut_arg_at_the_cut(z, want):
    # Im z < 0 is below the cut; -0.0 is on it, like +0.0
    assert cut_arg(z) == want


def test_cut_arg_subnormal_imaginary_part():
    # cmath.phase raised OverflowError here, its result underflowing
    assert 0 <= cut_arg(3 + 5e-324j) < 2 * math.pi
    assert plog(3 + 5e-324j).imag == cut_arg(3 + 5e-324j)


def test_plog_zero_rejected():
    with pytest.raises(DomainError):
        plog(0)


# branch_integers(z1, z2) = (p(z1, z2), p(z2, z2 - z1)) on |z1| > |z2| > |z1 - z2| > 0


def test_p_int_examples():
    assert branch_integers(3, 2) == (0, 0)
    assert branch_integers(1, 0.9 + 0.1j) == (1, 0)
    assert branch_integers(1 - 0.1j, 0.9 + 0.05j) == (0, 1)


def test_p_int_region_errors():
    for z1, z2 in [
        (1, 2),
        (1, 0),
        (3, 1),
        (complex(math.inf, 0), 1.0),
        (complex(math.nan, 0), 1.0),
        (2.0, complex(1, math.inf)),
    ]:
        with pytest.raises(DomainError, match=r"region \|z1\| > \|z2\| > \|z1 - z2\| > 0"):
            branch_integers(z1, z2)


def test_region_is_exact_where_rounded_moduli_tie():
    # |z2| and |z1 - z2| round to one float, but |z2|^2 - |z1 - z2|^2 is
    # about 3.2e-17 in exact arithmetic on the float coordinates
    z1 = 0.6348972536069077 + 0.8618282925955817j
    z2 = z1 * (0.5 + 0.8618282925955817j)
    assert math.hypot(z2.real, z2.imag) == math.hypot((z1 - z2).real, (z1 - z2).imag)
    assert _in_region(z1, z2)
    assert branch_integers(z1, z2) == (_p_int_reference(z1, z2), _p_int_reference(z2, z2 - z1))
    with pytest.raises(DomainError, match="region"):
        branch_integers(z1, z1 - z2)  # the same tie, the other way round
    # here the rounded z1 - z2 has the smaller modulus, the exact one the larger:
    # |z2|^2 - |z1 - z2|^2 is about -1.2e-13
    z1 = 61.75 + 2.728813641457071j
    z2 = z1 * (0.5 + 0.5j)
    assert abs(z2) > abs(z1 - z2) and not _in_region(z1, z2)
    with pytest.raises(DomainError, match="region"):
        branch_integers(z1, z2)


@given(st.floats(min_value=0.02, max_value=100.0), st.floats(min_value=0.501, max_value=0.999))
def test_p_int_positive_reals(r1, frac):
    assert branch_integers(r1, frac * r1) == (0, 0)


def test_p_int_stability():
    points = [(3.0, 2.0), (1 + 0.01j, 0.9 + 0.02j), (2j, 1.5j), (-3 + 1j, -2.5 + 1j)]
    for z1, z2 in points:
        p = branch_integers(z1, z2)
        for da, db in [(1e-10, -1e-10), (-1e-10, 1e-10), (1e-10j, 1e-10j)]:
            assert branch_integers(z1 + da, z2 + db) == p


def _p_int_reference(z1, z2):
    """p by rounding the float logarithms, where the sides are clear."""
    # (z1 - z2) / z1 is 1 - z2 / z1, without the cancellation that rounds
    # 1 - z2 / z1 to 0 when z2 / z1 rounds to 1
    w = plog(z1 - z2) - plog(z1) - cmath.log((z1 - z2) / z1)
    return round(w.imag / (2 * math.pi))


def _winding_reference(points):
    """Winding by summing float phases, where no segment nears 0.  ``atan2``
    takes a subnormal part as it is, where ``cmath.phase(2-5e-324j)`` raises
    ``OverflowError``."""
    total = sum(math.atan2(q.imag, q.real) for q in (b / a for a, b in zip(points, points[1:])))
    return round((cut_arg(points[-1]) - cut_arg(points[0]) - total) / (2 * math.pi))


def _off_the_axis(z):
    return abs(z.imag) > 1e-6 * abs(z)


def _in_region(z1, z2):
    """``|z1| > |z2| > |z1 - z2| > 0`` in exact arithmetic on the float
    coordinates, the region ``branch_integers`` decides."""
    x1, y1, x2, y2 = (Fraction(v) for v in (z1.real, z1.imag, z2.real, z2.imag))
    return x1 * x1 + y1 * y1 > x2 * x2 + y2 * y2 > (x1 - x2) ** 2 + (y1 - y2) ** 2 > 0


def _branch_reference(z1, z2):
    """Both branch integers from their sign rule, in exact arithmetic on the
    float coordinates: ``p(u, v)`` is ``1`` when ``Im(v/u) > 0``, ``u`` is not
    below the cut and ``u - v`` is, ``-1`` in the mirrored case, else ``0``."""
    def p(ux, uy, vx, vy):
        cross = ux * vy - uy * vx
        first, diff = uy < 0, uy - vy < 0
        return int(cross > 0 and diff and not first) - int(cross < 0 and first and not diff)

    x1, y1, x2, y2 = (Fraction(v) for v in (z1.real, z1.imag, z2.real, z2.imag))
    return p(x1, y1, x2, y2), p(x2, y2, x2 - x1, y2 - y1)


def _winding_segment_reference(a, b):
    """The winding of the segment ``a -> b`` in exact arithmetic on the float
    coordinates, or ``None`` when it passes through 0."""
    ax, ay, bx, by = (Fraction(v) for v in (a.real, a.imag, b.real, b.imag))
    cross = ax * by - ay * bx
    if cross == 0 and ax * bx + ay * by <= 0:
        return None
    return int(by < 0 <= ay and cross < 0) - int(ay < 0 <= by and cross > 0)


_POINTS = st.builds(
    complex, st.floats(-100, 100, allow_nan=False), st.floats(-100, 100, allow_nan=False)
)


@settings(max_examples=200)
@given(_POINTS, st.builds(complex, st.floats(0.5, 1), st.floats(-0.87, 0.87)))
@example(11 + 13j, 0.9999999999999999)  # z2 / z1 rounds to 1
def test_p_int_matches_log_reference(z1, u):
    z2 = z1 * u  # |u| < 1 and |1 - u| < |u| put (z1, z2) in the nested region
    assume(_in_region(z1, z2))
    assume(all(_off_the_axis(z) for z in (z1, z2, z1 - z2)))
    want = (_p_int_reference(z1, z2), _p_int_reference(z2, z2 - z1))
    assert branch_integers(z1, z2) == want


@settings(max_examples=200)
@given(st.lists(_POINTS, min_size=1, max_size=6))
@example(points=[1j, 5e-324 + 2j])  # the quotient 2-5e-324j has a subnormal phase
def test_winding_matches_phase_reference(points):
    assume(all(_off_the_axis(z) for z in points))
    # a segment near 0 has a phase near +-pi, where the float reference is unreliable
    assume(all(
        abs((b / a).imag) > 1e-6 * abs(b / a) or (b / a).real > 0
        for a, b in zip(points, points[1:])
    ))
    assert winding(PathPolyline(tuple(points))) == _winding_reference(points)


@pytest.mark.parametrize(
    "z1, z2, want",
    [
        (2, 1.1 + 1e-300j, 1),  # z1 on the positive axis, z1 - z2 just below it
        (2, 1.1 - 1e-300j, 0),
        (complex(3, -0.0), 2 + 0.5j, 1),  # -0.0 is on the axis, not below it
        (2 + 1j, 1 + 1j, 0),  # z1 - z2 exactly on the positive axis
        (2 - 1j, 1 - 1j, -1),
        (3 + 0.5j, complex(2, 0.5), 0),
        (7 - 5e-324j, 4 - 5e-324j, -1),  # subnormal cross products
        (7 + 5e-324j, 4 + 5e-324j, 0),
    ],
)
def test_p_int_on_the_cut(z1, z2, want):
    assert branch_integers(z1, z2)[0] == want


@pytest.mark.parametrize(
    "z1, z2, want",
    [
        (2, 1.1 - 1e-300j, -1),  # z2 just below the cut, z1 on it
        (2, 1.1 + 1e-300j, 0),
        (complex(3, -0.0), 2 - 0.5j, -1),  # -0.0 is on the axis, not below it
        (3 - 5e-324j, 2 + 0.5j, 1),  # z1 just below the cut, z2 above it
        (3 - 5e-324j, 2 - 0.5j, 0),
    ],
)
def test_second_p_int_on_the_cut(z1, z2, want):
    # p(z2, z2 - z1) turns on whether z2 and z1 = z2 - (z2 - z1) are below the cut
    assert branch_integers(z1, z2)[1] == want


@pytest.mark.parametrize(
    "points, want",
    [
        ((complex(1, -0.0), -1j), 1),  # -0.0 starts on the axis, like +0.0
        ((1 - 1j, complex(1, -0.0)), -1),
        ((-1 - 1j, complex(-1, -0.0)), 0),  # up across the negative axis
        ((3 + 1e-300j, 3 - 5e-324j), 1),
        ((1e308 + 1e308j, -1e308 + 1e308j), 0),  # cross products overflow
        ((1e308 + 1e308j, 1e308 - 1e308j), 1),
    ],
)
def test_winding_on_the_cut(points, want):
    assert winding(PathPolyline(points)) == want


def test_winding_examples():
    assert winding(PathPolyline((3, 2))) == 0
    assert winding(clockwise_unit_loop()) == 1
    counterclockwise = PathPolyline((1, 1j, -1, -1j, 1))
    assert winding(counterclockwise) == -1
    assert winding(PathPolyline((1, 1j, -1))) == 0


def _join(first, second):  # along first, then along second from where first ends
    return PathPolyline(first.waypoints + second.waypoints[1:])


def test_winding_two_loops():
    loop = clockwise_unit_loop()
    assert winding(_join(loop, loop)) == 2


def test_path_through_origin_rejected():
    with pytest.raises(StructuralError):
        PathPolyline((1, -1))
    with pytest.raises(StructuralError):
        PathPolyline((1, 0, 1j))


def test_non_finite_waypoints_rejected():
    # both paths had winding 1 before the check
    for points in [(complex(math.inf, 1), 1 - 1j), (1 + 1j, complex(math.nan, -1))]:
        with pytest.raises(StructuralError, match="waypoints must be finite"):
            PathPolyline(points)


def test_diagonal_path_through_origin_rejected():
    # a rounded projection onto this segment misses the origin by about 1e-16
    with pytest.raises(StructuralError, match="origin"):
        PathPolyline((1 + 1j, -1 - 1j))


def test_tiny_segment_across_the_cut():
    # the squared length of this segment underflows to 0
    path = PathPolyline((1 + 1e-300j, 1 - 1e-300j))
    assert winding(path) == 1
    # here the float cross product underflows too; the exact test decides
    assert winding(PathPolyline((1e-200 + 1e-200j, 1e-200 - 1e-200j))) == 1
    with pytest.raises(StructuralError, match="origin"):
        PathPolyline((1e-200 + 1e-200j, -1e-200 - 1e-200j))


def test_concatenation_additivity():
    first = PathPolyline((1, 1j, -1))
    second = PathPolyline((-1, -1j, 1))
    assert winding(_join(first, second)) == winding(first) + winding(second) == -1
    assert winding(_join(second, first)) == winding(second) + winding(first)


def test_transport_scalar_examples(lattice, super_cocycle):
    loop = clockwise_unit_loop()
    # trivial path
    assert transport_scalar(lattice, PathPolyline((3, 2)), (1,), (1,)).exponent == 0
    # lattice: (Omega(1,1) Omega(1,1))^{-1} = ((-i)(-i))^{-1} = -1
    assert transport_scalar(lattice, loop, (1,), (1,)).to_complex() == -1
    # super: ((-1)(-1))^{-1} = 1
    assert transport_scalar(super_cocycle, loop, (1,), (1,)).exponent == 0


def test_transport_multiplies_under_concatenation(lattice):
    loop = clockwise_unit_loop()
    single = transport_scalar(lattice, loop, (1,), (1,))
    double = transport_scalar(lattice, _join(loop, loop), (1,), (1,))
    assert double == UnitScalar(2 * single.exponent)


def test_loop_identity_all_grades(lattice, super_cocycle):
    loop = clockwise_unit_loop()
    for cocycle in (lattice, super_cocycle):
        g = cocycle.group
        for a1 in g.elements():
            for a2 in g.elements():
                transport = transport_scalar(cocycle, loop, a1, a2)
                composed = -oracles.omega(cocycle, a1, a2) - oracles.omega(cocycle, a2, a1)
                assert transport == UnitScalar(composed)


def test_assoc_scalar_positive_reals(lattice):
    value = assoc_scalar(lattice, 3, 2, (1,), (1,), (1,))
    assert value == UnitScalar(-oracles.f(lattice, (1,), (1,), (1,)))
    assert value.to_complex() == -1
    trivial = build_cyclic(2, 0)
    assert assoc_scalar(trivial, 3, 2, (1,), (1,), (1,)).exponent == 0


def test_assoc_scalar_region_errors(lattice):
    with pytest.raises(DomainError, match="region"):
        assoc_scalar(lattice, 1, 3, (1,), (1,), (1,))
    with pytest.raises(DomainError, match="region"):
        assoc_scalar(lattice, 3, 1, (1,), (1,), (1,))  # |z2| < |z1 - z2|


def test_assoc_scalar_nontrivial_branch(lattice):
    # z1 just above the cut, z1 - z2 just below it: p(z1,z2) = 1, p(z2,z2-z1) = 0
    z1 = 1 + 0.01j
    z2 = z1 - 0.1 * cmath.exp(-0.1j)
    assert abs(z1) > abs(z2) > abs(z1 - z2) > 0
    assert branch_integers(z1, z2) == (1, 0)
    value = assoc_scalar(lattice, z1, z2, (1,), (1,), (1,))
    # e^{-2 pi i b(1,1)} * F(1,1,1)^{-1} = (-1)(-1) = 1
    assert value.exponent == 0


def test_branch_integers_match_p_int_of_the_float_difference():
    # on ordinary points, rounding z2 - z1 decides nothing: the same integers
    rng = np.random.default_rng(0)
    seen = set()
    for _ in range(2000):
        z1 = complex(*rng.uniform(-10, 10, 2))
        u = complex(rng.uniform(0.5, 1), rng.uniform(-0.9, 0.9))  # z2 / z1
        z2 = z1 * u
        if not abs(z1) > abs(z2) > abs(z1 - z2) > 0:
            continue
        if not all(_off_the_axis(z) for z in (z1, z2, z1 - z2)):
            continue
        want = (_p_int_reference(z1, z2), _p_int_reference(z2, z2 - z1))
        assert branch_integers(z1, z2) == want
        seen.add(want)
    assert {(0, 0), (1, 0), (-1, 0), (0, 1), (0, -1)} <= seen


def test_branch_integers_do_not_round_the_difference():
    # Im(z2 - z1) rounds to Im z2, which hides that z1 = z2 - (z2 - z1) is
    # below the cut; the exact p(z2, z2 - z1) is 1
    z1, z2 = 2 - 1e-300j, 1.5 + 1j
    assert (z2 - z1).imag == z2.imag
    assert branch_integers(z1, z2) == (0, 1)
    # the difference passes the float range; the region holds at half scale
    z1, z2 = 0.9e308 + 1.795e308j, -1.08e308 + 1.67e308j
    assert math.isinf((z1 - z2).real)
    assert branch_integers(z1, z2) == (0, 0)
    with pytest.raises(DomainError, match="region"):
        branch_integers(z2, z1)


def test_random_real_sweep_matches_f_inverse(lattice):
    rng = np.random.default_rng(0)
    grades = list(lattice.group.elements())
    for _ in range(500):
        r1 = float(rng.uniform(0.1, 10.0))
        r2 = float(rng.uniform(0.5 * r1, r1))
        assert branch_integers(r1, r2) == (0, 0)
        for a1 in grades:
            for a2 in grades:
                for a3 in grades:
                    want = UnitScalar(-oracles.f(lattice, a1, a2, a3))
                    assert assoc_scalar(lattice, r1, r2, a1, a2, a3) == want


@pytest.mark.parametrize("p12, p2", [(0, 0), (1, 0), (0, -1), (-1, 1)])
def test_assoc_numerator_broadcast_matches_exponent_formula(p12, p2):
    cocycle = build_cyclic(4, 1)
    g = cocycle.group
    idx = np.arange(g.order)
    table = assoc_numerator(
        cocycle, p12, p2, idx[:, None, None], idx[None, :, None], idx[None, None, :]
    )
    for a1, a2, a3 in product(g.elements(), repeat=3):
        b = partial(oracles.b, cocycle)
        want = UnitScalar(-p12 * b(a1, a2) + p2 * b(a1, a3) - oracles.f(cocycle, a1, a2, a3))
        got = table[g.index(a1), g.index(a2), g.index(a3)]
        assert UnitScalar(Fraction(int(got), cocycle.denom)) == want


@pytest.mark.parametrize("p", [0, 1, -2])
def test_transport_numerator_broadcast_matches_exponent_formula(p):
    cocycle = build_cyclic(4, 1)
    g = cocycle.group
    idx = np.arange(g.order)
    table = transport_numerator(cocycle, p, idx[:, None], idx[None, :])
    for a1, a2 in product(g.elements(), repeat=2):
        got = table[g.index(a1), g.index(a2)]
        want = UnitScalar(-p * oracles.b(cocycle, a1, a2))
        assert UnitScalar(Fraction(int(got), cocycle.denom)) == want


@pytest.mark.parametrize("p", [1, 9, -(10**6)])
def test_transport_numerator_exact_for_large_windings(p):
    # Omega(1, 2) = 1/q and Omega(2, 1) = -1/q: the numerators sum to q, so
    # p * b passed int64 at p = 9 and the transport came out 1488, not 0
    g, q = FinAbGroup((3,)), 2**60 - 93
    w = np.zeros((3, 3), dtype=np.int64)
    w[1, 2], w[2, 1] = 1, q - 1
    cocycle = AbelianCocycle(g, np.zeros((3, 3, 3), dtype=np.int64), w, q)
    idx = np.arange(3)
    table = transport_numerator(cocycle, p, idx[:, None], idx[None, :])
    assert table.dtype == np.int64
    exact = [[(-p * (int(w[i, j]) + int(w[j, i]))) % q for j in range(3)] for i in range(3)]
    assert table.tolist() == exact
    assert int(transport_numerator(cocycle, p, 1, 2)) == 0


_TINY = (0.0, -0.0, 5e-324, -5e-324, 1e-300, -1e-300)


def _nudged(x, rng):
    """``x`` moved by up to 3 ``nextafter`` steps either way."""
    steps = rng.randint(-3, 3)
    for _ in range(abs(steps)):
        x = math.nextafter(x, math.copysign(math.inf, steps))
    return x


def _boundary_pairs(rng, count):
    """Seeded pairs within a few ulps of the region's two boundaries and of the
    cut, at scales from 1e-300 to 1e300."""
    for i in range(count):
        scale = 10.0 ** rng.uniform(-300, 300)
        if i % 3 == 2:  # both points within 1e-300 of the real axis
            z1 = complex(rng.choice((-scale, scale)), rng.choice(_TINY))
            u = rng.choice((0.5, 1.0, rng.uniform(0.5, 1.0)))
            z2 = complex(z1.real * u, rng.choice(_TINY))
        else:
            z1 = scale * cmath.exp(1j * rng.uniform(0, 2 * math.pi))
            if i % 3 == 0:
                z2 = z1 * complex(0.5, rng.uniform(-0.87, 0.87))  # |z2| ~ |z1 - z2|
            else:
                z2 = z1 * cmath.exp(1j * rng.uniform(-1.04, 1.04))  # |z1| ~ |z2|
        yield tuple(complex(_nudged(z.real, rng), _nudged(z.imag, rng)) for z in (z1, z2))


def test_integer_decision_matches_exact_reference_at_the_boundaries():
    rng = random.Random(0)
    seen_p, seen_w, outside, inside = set(), set(), [], []
    for z1, z2 in _boundary_pairs(rng, 3000):
        if _in_region(z1, z2):
            want = _branch_reference(z1, z2)
            assert branch_integers(z1, z2) == want, (z1, z2)
            seen_p.add(want)
            inside.append((z1, z2, want))
        else:
            with pytest.raises(DomainError, match="region"):
                branch_integers(z1, z2)
            outside.append((z1, z2))
        want = _winding_segment_reference(z1, z2)
        if want is None:
            with pytest.raises(StructuralError, match="origin"):
                PathPolyline((z1, z2))
        else:
            assert winding(PathPolyline((z1, z2))) == want, (z1, z2)
            seen_w.add(want)
    assert seen_p == {(0, 0), (1, 0), (-1, 0), (0, 1), (0, -1)}
    assert seen_w == {-1, 0, 1}
    assert 0 < len(outside) < 3000
    # the in-region pairs again, decided in one array call
    z1s, z2s, wants = (np.array(column) for column in zip(*inside))
    p12, p2 = branch_integers(z1s, z2s)
    assert np.array_equal(np.stack([p12, p2], axis=1), wants)
    # one pair outside the region, or one inf or nan coordinate, fails the
    # array; with only that coordinate read as 0, the last two would be inside
    k = len(inside) // 2
    for z1, z2 in [outside[0], (complex(5.0, math.inf), 4 + 0j), (complex(math.nan, 5.0), 4j)]:
        with pytest.raises(DomainError, match=re.escape(f"violated at z1 = {z1}, z2 = {z2}")):
            branch_integers(np.insert(z1s, k, z1), np.insert(z2s, k, z2))
