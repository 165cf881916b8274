"""Abelian 3-cocycles (F, Omega) on a finite abelian group.

Tables are stored as integer exponent numerators over one common
denominator, so every axiom check below is exact integer arithmetic mod
that denominator; no tolerances anywhere.  ``pentagon_slabs`` and
``hexagon_residues`` are the only kernels of the pentagon and hexagon
formulas.  ``validate_cocycle`` decides the pentagon on all of ``A^4`` from
the slabs at the generators of ``A`` (``_pentagon_holds`` says why that is
exact), and, once the pentagon holds, both hexagons on all of ``A^3`` from
their rows at the generators (``_hexagon_rows_vanish``).  Only a
failing axiom is scanned in full, to name its first witness.  A ``modcat``
category exists only over a cocycle whose report passes, so its coherence
suite reads no pentagon or hexagon residue.
``F`` is stored once, in the narrowest integer dtype that holds
``5 * denom`` (``_narrow_dtype``), and the kernels read it as it is.  The
pentagon builds one ``|A|^3`` slab per first argument, and the hexagons sum
transposed views of ``F`` in place.  On a cyclic group the kernels read
every argument that is a sum, such as ``a3+a4``, as a shift: a strided
window over one row of ``F``, or over ``Omega``, doubled
(``_sum_windows``), or two slices of ``F``.  On other groups such an
argument is a row gather through ``add_index_table``.
``Omega`` and ``b`` are only ``|A|^2`` and stay int64.  A reader that does
arithmetic on ``f_num`` keeps it within ``5 * denom`` or widens it first.
A cocycle's ``report`` is ``validate_cocycle`` of it, computed once, on
first read: the cyclic and table builders and every category read it,
as every downstream formula assumes the axioms.
Every exponent expression here, in ``modcat``'s residues and in
``branchcut.assoc_numerator`` has magnitude below ``5 * denom``, so
``denom`` is capped at ``MAX_DENOM`` to keep int64 arithmetic exact.

``b_num`` holds ``b(a1, a2) = Omega(a1, a2) + Omega(a2, a1)``, the polarization
of ``q(a) = Omega(a, a)``, once: ``fusionring.s_table``, ``modcat``'s
balancing and double braiding, ``branchcut``'s numerators and ``verify``'s loop
identity read it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm, prod
from typing import Iterable, Iterator

import numpy as np

from .abgroup import FinAbGroup
from .errors import CocycleError, StructuralError

MAX_TABLE_ORDER = 256  # every table, residue array and pentagon slab is O(|A|^3)
# factors of 1 count too: FinAbGroup.add_index_table's ravel_multi_index raises
# a bare ValueError at 64 factors; no group of order at most MAX_TABLE_ORDER
# needs more than 8 factors above 1
MAX_TABLE_FACTORS = 8
MAX_DENOM = 2**60  # 5 * MAX_DENOM < 2**63: exponent sums cannot overflow int64


@dataclass(frozen=True)
class AxiomCheck:
    """Outcome of one exhaustively checked axiom."""

    axiom: str
    passed: bool
    checked: int
    witness: tuple | None = None
    max_error: float = 0.0
    detail: str = ""

    def describe(self) -> str:
        status = "pass" if self.passed else "FAIL"
        msg = f"{status:4s}  {self.axiom}: {self.checked} tuples checked"
        if self.witness is not None:
            msg += f", first failing witness {self.witness}"
        if self.detail:
            msg += f" ({self.detail})"
        return msg


@dataclass(frozen=True)
class CoherenceReport:
    """Bundle of axiom checks; passes iff every axiom has zero failures."""

    checks: tuple[AxiomCheck, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> tuple[AxiomCheck, ...]:
        return tuple(c for c in self.checks if not c.passed)

    def describe(self) -> str:
        return "\n".join(c.describe() for c in self.checks)


@dataclass(frozen=True, eq=False)
class AbelianCocycle:
    """Total tables ``F: A^3 -> roots of unity`` and ``Omega: A^2 -> roots of unity``.

    ``f_num[i, j, k]`` is the exponent numerator of ``F`` at the elements with
    enumeration indices ``(i, j, k)``; likewise ``omega_num`` for ``Omega``
    and ``b_num`` for the braiding form ``b``.  All numerators are reduced
    mod ``denom``, and every table is read-only.  ``f_num`` has the dtype
    ``_narrow_dtype(denom)`` that the kernels read, ``omega_num`` and
    ``b_num`` are int64.  A table given as a C-contiguous array of its
    dtype with entries in ``[0, denom)`` is kept as it is, not copied, and
    made read-only.  ``report`` is the cocycle's ``validate_cocycle``
    report, computed on first read.
    """

    group: FinAbGroup
    f_num: np.ndarray
    omega_num: np.ndarray
    denom: int
    name: str = field(default="", compare=False)
    #: numerators of b(a1, a2) = Omega(a1, a2) + Omega(a2, a1)
    b_num: np.ndarray = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        _check_denom(self.denom)
        m, denom = self.group.order, self.denom
        f, w = np.asarray(self.f_num), np.asarray(self.omega_num)
        if f.shape != (m, m, m) or w.shape != (m, m):
            raise StructuralError(
                f"table shapes {f.shape}, {w.shape} do not match group order {m}"
            )
        f, w = _reduced(f, denom, _narrow_dtype(denom)), _reduced(w, denom, np.int64)
        for name, table in (("f_num", f), ("omega_num", w), ("b_num", (w + w.T) % denom)):
            table.setflags(write=False)
            object.__setattr__(self, name, table)

    @cached_property
    def report(self) -> CoherenceReport:
        return validate_cocycle(self)

    # -- constructors ---------------------------------------------------------

    @classmethod
    def trivial(cls, group: FinAbGroup, *, name: str = "trivial") -> AbelianCocycle:
        _check_table_order(group)
        m = group.order
        f = np.zeros((m, m, m), _narrow_dtype(1))
        return cls(group, f, np.zeros((m, m), np.int64), 1, name=name)


def _reduced(table: np.ndarray, denom: int, dtype: type) -> np.ndarray:
    """``table`` mod ``denom`` as a C-contiguous array of ``dtype``.  Only a
    table that is not integer or has an entry outside ``[0, denom)`` takes
    the int64 ``%`` pass; one that already has the dtype and layout is
    returned as it is."""
    if table.dtype.kind not in "iu" or table.min() < 0 or table.max() >= denom:
        table = np.asarray(table, dtype=np.int64) % denom
    return np.ascontiguousarray(table, dtype=dtype)


def _check_table_order(group: FinAbGroup) -> None:
    if group.order > MAX_TABLE_ORDER:
        raise StructuralError(
            f"group order {group.order} exceeds the table-cocycle cap {MAX_TABLE_ORDER}"
        )
    if group.rank > MAX_TABLE_FACTORS:
        raise StructuralError(
            f"{group.rank} invariant factors exceed the table-cocycle cap {MAX_TABLE_FACTORS}"
        )


def _check_denom(denom: int) -> None:
    if denom > MAX_DENOM:
        raise StructuralError(f"cocycle denominator {denom} exceeds the cap MAX_DENOM = 2**60")


def _from_exponents(group: FinAbGroup, f: tuple[np.ndarray, np.ndarray],
                    omega: tuple[np.ndarray, np.ndarray], exponents: list[Fraction],
                    name: str) -> AbelianCocycle:
    """Build and validate a cocycle from sparse tables, each a pair of int
    arrays ``(flat indices, exponent ids)`` with no flat index repeated: a
    flat index is row-major into the table, its digits in base ``|A|`` the
    arguments' enumeration indices, and an id indexes ``exponents``; an
    omitted cell means exponent 0.  ``group`` is within the table caps, as
    the spec reader checks with ``_check_table_order`` before it reads the
    tables.  Raises ``StructuralError`` if the common denominator of the
    exponents used exceeds ``MAX_DENOM``, before allocating, and
    ``CocycleError`` (carrying the report) if any axiom fails."""
    mask = np.zeros(len(exponents), bool)
    mask[f[1]] = mask[omega[1]] = True
    used = mask.tolist()
    denom = lcm(1, *{x.denominator for x, u in zip(exponents, used) if u})
    _check_denom(denom)
    numerators = np.array([x.numerator % x.denominator * (denom // x.denominator) if u
                           else 0 for x, u in zip(exponents, used)], np.int64)
    m = group.order
    f_num = np.zeros((m, m, m), dtype=_narrow_dtype(denom))
    omega_num = np.zeros((m, m), dtype=np.int64)
    for table, (flat, ids) in ((f_num, f), (omega_num, omega)):
        table.reshape(-1)[flat] = numerators[ids]

    cocycle = AbelianCocycle(group, f_num, omega_num, denom, name=name)
    report = cocycle.report
    if not report.passed:
        first = report.failures()[0]
        raise CocycleError(
            f"cocycle tables violate the {first.axiom} axiom at {first.witness}", report=report
        )
    return cocycle


def build_cyclic(n: int, s: int) -> AbelianCocycle:
    """Standard Eilenberg-MacLane cocycle on ``Z/n`` with twist parameter ``s``.

    With ``d = n * gcd(n, 2)`` the tables are, for representatives in [0, n):

        F(a, b, c) = exponent  s * a * (b + c - ((b + c) mod n)) / d
        Omega(a, b) = exponent  s * a * b / d

    so the quadratic form is ``q(a) = s * a^2 / d``.  The denominator ``d``
    is the exponent of the group of quadratic forms on ``Z/n``; any larger
    denominator would break bilinearity of the polarization form, hence the
    hexagon axioms.  Every integer ``s`` therefore yields a valid cocycle,
    with ``s`` and ``s + d`` giving the same tables.

    ``build_cyclic(2, 2)`` is the fermionic sign cocycle, ``build_cyclic(2, 3)``
    the one attached to the rank-one weight/root lattice pair.
    """
    if n < 1:
        raise StructuralError(f"cyclic order must be >= 1, got {n}")
    if n > MAX_TABLE_ORDER:
        raise StructuralError(f"cyclic order {n} exceeds the table cap {MAX_TABLE_ORDER}")
    group = FinAbGroup((n,))
    d = n * gcd(n, 2)
    t = s % d  # same tables, and fits int64 whatever s is
    a = np.arange(n, dtype=np.int64)
    # F(a, b, c) = r[a] if b + c >= n else 0: the one |A|^3 allocation, in
    # the dtype the cocycle keeps
    r = (t * n * a % d).astype(_narrow_dtype(d))
    cocycle = AbelianCocycle(
        group, r[:, None, None] * (a[:, None] + a[None, :] >= n), t * a[:, None] * a[None, :] % d,
        d, name=f"cyclic(n={n}, s={s})",
    )
    if not cocycle.report.passed:  # would be an implementation bug, not bad input
        raise AssertionError(
            f"build_cyclic({n}, {s}) produced an invalid cocycle:\n{cocycle.report.describe()}"
        )
    return cocycle


# -- validation ----------------------------------------------------------------


def _first_witness(mask: np.ndarray, group: FinAbGroup, offset0: int = 0) -> tuple:
    flat = int(np.flatnonzero(mask.reshape(-1))[0])
    idx = np.unravel_index(flat, mask.shape)
    idx = (idx[0] + offset0,) + tuple(int(i) for i in idx[1:])
    return tuple(group.element_at(int(i)) for i in idx)


def _narrow_dtype(denom: int) -> type:
    """The narrowest integer dtype that holds ``5 * denom``: the dtype of
    every stored ``f_num`` and of the kernels' residues.

    Table entries lie in ``[0, denom)`` and every partial sum of an axiom
    below lies in ``(-4 * denom, 3 * denom)``.  A reader whose arithmetic on
    ``f_num`` can leave ``(-5 * denom, 5 * denom)`` widens it first."""
    return np.int16 if 5 * denom < 2**15 else np.int32 if 5 * denom < 2**31 else np.int64


def _reduce(d: np.ndarray, q: np.ndarray, L: int) -> None:
    """``d`` mod ``L`` in place, as ``d - L * (d // L)`` through the buffer ``q``:
    numpy's floor_divide has a fast path for a scalar divisor, remainder has not."""
    np.floor_divide(d, L, out=q)
    q *= L
    d -= q


def _sum_windows(V: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For a C-contiguous ``(n, n)`` table ``V`` on ``Z/n``, the views
    ``[x, y, z] -> V[x + y, z]`` and ``[x, y, z] -> V[x, y + z]``, sums mod
    ``n``: strided windows over ``V`` doubled along axis 0 and along axis 1,
    where a sum below ``2 n`` needs no mod.  ``sliding_window_view`` makes
    the same views at a cost that shows at small ``n``."""
    n, s = len(V), V.itemsize
    return (np.ndarray((n, n, n), V.dtype, np.concatenate((V, V)), strides=(n * s, n * s, s)),
            np.ndarray((n, n, n), V.dtype, np.concatenate((V, V), axis=1),
                       strides=(2 * n * s, s, s)))


def pentagon_slabs(c: AbelianCocycle, rows: Iterable[int]) -> Iterator[np.ndarray]:
    """The pentagon residue mod ``denom`` in the narrow dtype: for each ``a1``
    in ``rows``, in order, the slab ``d[a2, a3, a4]``.  Every slab is the same
    buffer, overwritten by the next.

    On a cyclic group (one invariant factor) every sum of arguments is a
    shift mod ``n``: ``F(a1, a2+a3, a4)`` and ``F(a1, a2, a3+a4)`` are the
    ``_sum_windows`` of the row ``F[a1]``, and ``F(a1+a2, a3, a4)`` is two
    slices of ``F``.  Other groups gather the sums through
    ``add_index_table``.  Both paths add the same terms in the same order,
    so their slabs are equal."""
    L, F = c.denom, c.f_num
    d, q = np.empty_like(F), np.empty_like(F)
    cyclic, n = c.group.rank == 1, len(F)
    # F(a1,a2,a3) F(a1,a2+a3,a4) F(a2,a3,a4) = F(a1+a2,a3,a4) F(a1,a2,a3+a4).
    # np.take with mode="raise" writes through a temporary copy of out; the
    # indices are in range, so mode="clip" changes no value.
    for i in rows:
        G = F[i]
        if cyclic:
            G0, G1 = _sum_windows(G)
            # a copy of G0 runs as n contiguous blocks of n^2 cells; G1 and the
            # broadcast G do not merge axes, so adding G0 to either is slower
            np.copyto(d, G0)  # F(i, a2+a3, a4)
            d += G[:, :, None]  # F(i, a2, a3)
            d += F  # F(a2, a3, a4)
            d -= G1  # F(i, a2, a3+a4)
            d[:n - i] -= F[i:]  # F(i+a2, a3, a4) for a2 < n - i
            d[n - i:] -= F[:i]  # and for the a2 where i + a2 wraps
        else:
            S = c.group.add_index_table
            np.take(G, S, axis=0, out=d, mode="clip")  # F(i, a2+a3, a4)
            d += G[:, :, None]  # F(i, a2, a3)
            d += F  # F(a2, a3, a4)
            d -= np.take(G, S, axis=1, out=q, mode="clip")  # F(i, a2, a3+a4)
            d -= np.take(F, S[i], axis=0, out=q, mode="clip")  # F(i+a2, a3, a4)
        _reduce(d, q, L)
        yield d


def _generator_rows(group: FinAbGroup) -> list[int]:
    """Enumeration indices of the generators of ``group``, the unit vectors
    of its invariant factors above 1; ``[0]`` for the trivial group.  The
    pentagon and hexagon decisions read the residues' rows there."""
    f = group.factors
    return [prod(f[j + 1:]) for j, n in enumerate(f) if n > 1] or [0]


def _pentagon_holds(c: AbelianCocycle) -> bool:
    """Whether the pentagon holds on all of ``A^4``, decided from the slabs
    ``a1 = e`` at the generators ``e`` of ``A``: ``rank * |A|^3`` residues.

    The residue ``G = dF`` is a coboundary, so ``dG = 0`` exactly mod
    ``denom`` whatever ``F`` is: a coboundary's coboundary vanishes.
    At ``(e, x, a3, a4, a5)`` that reads
    ``G(e+x, a3, a4, a5) = G(x, a3, a4, a5) + G(e, x+a3, a4, a5)
    - G(e, x, a3+a4, a5) + G(e, x, a3, a4+a5) - G(e, x, a3, a4)``, and at
    ``x = 0`` it gives ``G(0, a3, a4, a5) = G(e, 0, a3+a4, a5)
    - G(e, 0, a3, a4+a5) + G(e, 0, a3, a4)``.  So zero generator slabs make
    the slab at 0 zero, and the slab at ``x + e`` zero with the slab at
    ``x``: ``G`` vanishes everywhere.  The generators are the unit vectors of
    the invariant factors above 1; the trivial group reads its one slab."""
    return not any(np.count_nonzero(d) for d in pentagon_slabs(c, _generator_rows(c.group)))


def _check_pentagon(c: AbelianCocycle) -> AxiomCheck:
    g, m = c.group, c.group.order
    if _pentagon_holds(c):
        return AxiomCheck("pentagon", True, m**4)
    # then some slab fails; they come in a1 order, so the first failing cell
    # of the first failing slab is the lexicographic first
    i, d = next((i, d) for i, d in enumerate(pentagon_slabs(c, range(m))) if np.count_nonzero(d))
    return AxiomCheck("pentagon", False, m**4, _first_witness(d[None], g, offset0=i))


def _hexagon_rows(c: AbelianCocycle, rows) -> np.ndarray:
    """Both hexagon residues mod ``denom`` in the dtype of ``f_num``:
    ``h[0]``, hexagon-1, laid out ``[a1, a2, a3]``, and ``h[1]``, hexagon-2,
    laid out ``[a2, a3, a1]``, each at the first-axis indices ``rows`` (an
    index list, or ``slice(None)`` for all of ``A^3``)."""
    L, F, W = c.denom, c.f_num, c.omega_num.astype(c.f_num.dtype)
    # F(a,b,c), F(c,a,b) and F(a,c,b) at the rows of a
    Fr, Fc, Ft = F[rows], F.transpose(1, 2, 0)[rows], F.transpose(0, 2, 1)[rows]
    h = np.empty((2, len(Fr)) + F.shape[1:], F.dtype)
    h1, h2 = h
    # Each hexagon is summed in place, reading F and Omega through transposed
    # and broadcast views (copies of the rows when rows is a list).  The
    # layout of each sum puts the pair of arguments that Omega reads as a sum
    # on its two outer axes, so that term is a window on a cyclic group, as
    # in the pentagon, and a row gather on any other.
    if c.group.rank == 1:
        W0, W1 = _sum_windows(W)
        h1[...] = W0[rows]  # Omega(a1+a2, a3)
        h2[...] = W1.transpose(1, 2, 0)[rows]  # Omega(a1, a2+a3)
    else:
        S = c.group.add_index_table[rows]
        np.take(W, S, axis=0, out=h1, mode="clip")  # Omega(a1+a2, a3)
        np.take(W.T, S, axis=0, out=h2, mode="clip")  # Omega(a1, a2+a3)

    # F(a1,a2,a3) Omega(a1+a2,a3) F(a3,a1,a2) = Omega(a2,a3) F(a1,a3,a2) Omega(a1,a3)
    h1 += Fr
    h1 += Fc  # F(a3, a1, a2)
    h1 -= W[None, :, :]  # Omega(a2, a3)
    h1 -= Ft  # F(a1, a3, a2)
    h1 -= W[rows][:, None, :]  # Omega(a1, a3)

    # F(a1,a2,a3)^-1 Omega(a1,a2+a3) F(a2,a3,a1)^-1 = Omega(a1,a2) F(a2,a1,a3)^-1 Omega(a1,a3)
    h2 -= Fc  # F(a1, a2, a3)
    h2 -= Fr  # F(a2, a3, a1)
    h2 -= W.T[rows][:, None, :]  # Omega(a1, a2)
    h2 += Ft  # F(a2, a1, a3)
    h2 -= W.T[None, :, :]  # Omega(a1, a3)

    _reduce(h, np.empty_like(h), L)
    return h


def hexagon_residues(c: AbelianCocycle) -> tuple[np.ndarray, np.ndarray]:
    """Both hexagon residues mod ``denom`` over all of ``A^3``, in the dtype
    of ``f_num``, each indexed ``[a1, a2, a3]``."""
    h1, h2 = _hexagon_rows(c, slice(None))
    return h1, h2.transpose(2, 0, 1)


def _hexagon_rows_vanish(c: AbelianCocycle) -> bool:
    """Whether both hexagon residues vanish on the rows at the generators
    (``_generator_rows``): ``a1`` a generator for hexagon-1, ``a2`` a
    generator for hexagon-2, ``rank * |A|^2`` cells each.  Once the pentagon
    holds, that decides both hexagons on all of ``A^3``.

    Write ``G`` for the pentagon residue of ``pentagon_slabs``,
    ``G(x,y,z,u) = F(x,y,z) + F(x,y+z,u) + F(y,z,u) - F(x+y,z,u) - F(x,y,z+u)``.
    For any integer tables ``F`` and ``Omega``, normalized or not, the
    coboundary of ``eta = h1(., ., c)`` is exactly
    ``d eta(a, b, b') = G(a,b,b',c) - G(a,b,c,b') + G(a,c,b,b') - G(c,a,b,b')``,
    and that of ``h2(c, ., .)`` is its negative (abelian cohomology in the
    sense of Eilenberg and MacLane).  So where the pentagon holds, every such
    ``eta`` is a 2-cocycle mod ``denom``: ``d eta = 0`` at ``(e, 0, y)``
    gives ``eta(0, y) = eta(e, 0)``, and at ``(e, x, y)`` it gives
    ``eta(e+x, y) = eta(x, y) + eta(e, x+y) - eta(e, x)``.  Zero rows at the
    generators ``e`` then make the row at 0 zero, and the row at ``x + e``
    zero with the row at ``x``: every row vanishes.  The trivial group has no
    generator and reads its one row, where ``d eta = 0`` at ``(0, 0, 0)``
    says nothing."""
    return not np.count_nonzero(_hexagon_rows(c, _generator_rows(c.group)))


def _check_hexagons(c: AbelianCocycle, pentagon_holds: bool) -> list[AxiomCheck]:
    """Both hexagons on all of ``A^3``: passed from their rows at the
    generators when ``pentagon_holds`` says the pentagon holds, else, or when
    a row fails, scanned in full for the first witness of each."""
    g, m = c.group, c.group.order
    if pentagon_holds and _hexagon_rows_vanish(c):
        return [AxiomCheck("hexagon-1", True, m**3), AxiomCheck("hexagon-2", True, m**3)]
    h1, h2 = hexagon_residues(c)
    w1 = _first_witness(h1, g) if np.count_nonzero(h1) else None
    w2 = _first_witness(h2, g) if np.count_nonzero(h2) else None
    return [
        AxiomCheck("hexagon-1", w1 is None, m**3, w1),
        AxiomCheck("hexagon-2", w2 is None, m**3, w2),
    ]


def _check_normalization(c: AbelianCocycle) -> AxiomCheck:
    g, m = c.group, c.group.order
    # entries are reduced and the identity is element 0 of the enumeration
    F, W = c.f_num, c.omega_num
    witness = None
    if np.count_nonzero(F[:, :, 0]) or np.count_nonzero(F[:, 0]) or np.count_nonzero(F[0]):
        witness = _first_witness((F[:, :, :1] != 0) | (F[:, :1, :] != 0) | (F[:1] != 0), g)
    elif np.count_nonzero(W[:, 0]):
        witness = (g.element_at(int(np.flatnonzero(W[:, 0])[0])), g.zero)
    elif np.count_nonzero(W[0]):
        witness = (g.zero, g.element_at(int(np.flatnonzero(W[0])[0])))
    return AxiomCheck("normalization", witness is None, m**3, witness,
                      detail="F on identity slices and Omega(.,0), Omega(0,.)")


def validate_cocycle(c: AbelianCocycle) -> CoherenceReport:
    """Check pentagon (A^4), both hexagons (A^3) and normalization everywhere.

    All comparisons are exact equalities of exponents; failures are reported
    with the lexicographically first witness tuple, never raised.  The
    pentagon holds on all of ``A^4`` exactly when it holds on the
    ``rank * |A|^3`` tuples whose first argument is a generator
    (``_pentagon_holds``).  Once it holds, each hexagon holds on all of
    ``A^3`` exactly when it holds on the ``rank * |A|^2`` tuples whose first
    (hexagon-1) or second (hexagon-2) argument is a generator
    (``_hexagon_rows_vanish``).  Only a failing axiom, or hexagons under a
    failing pentagon, are scanned in full for their first witness;
    ``checked`` counts all ``|A|^4`` or ``|A|^3`` tuples either way.
    """
    pentagon = _check_pentagon(c)
    hexagons = _check_hexagons(c, pentagon.passed)
    return CoherenceReport((pentagon, *hexagons, _check_normalization(c)))
