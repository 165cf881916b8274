"""Abelian 3-cocycles (F, Omega) on a finite abelian group.

Tables are stored as integer exponent numerators over one common
denominator, so every axiom check below is exact integer arithmetic mod
that denominator; no tolerances anywhere.  ``pentagon_slabs`` and
``hexagon_residues`` are the only kernels of the pentagon and hexagon
formulas: ``validate_cocycle`` scans their residues over all of ``A^4`` and
``A^3``, and ``modcat``'s coherence suite reads them at a catalog's grades.
They run in the narrowest integer dtype that holds ``5 * denom``; the
pentagon reads ``F(a1, a2, a3+a4)`` through a strided window over a
wrap-padded copy of ``F``, one ``|A|^3`` slab per first argument, and the
hexagons sum transposed views of ``F`` in place.  Validation is eager at
construction because every downstream formula assumes the axioms, and each
builder keeps its report on the cocycle so that nothing validates twice.
Every exponent expression here, in ``modcat``'s balancing check and in
``branchcut.assoc_numerator`` has magnitude below ``5 * denom``, so
``denom`` is capped at ``MAX_DENOM`` to keep int64 arithmetic exact.

``b_num`` holds ``b(a1, a2) = Omega(a1, a2) + Omega(a2, a1)``, the polarization
of ``q(a) = Omega(a, a)``, once: ``fusionring.s_table``, ``modcat``'s
balancing and double braiding, ``branchcut``'s numerators and ``verify``'s loop
identity read it.  Spec tables reach ``_from_exponents`` keyed by index tuples.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Iterator, Mapping

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .abgroup import FinAbGroup, GroupElt
from .errors import CocycleError, StructuralError
from .unitscalar import UnitScalar

MAX_TABLE_ORDER = 256  # exhaustive pentagon checking is O(|A|^4)
# the kernels give each invariant factor its own array axes, and numpy allows
# 64; no group of order at most MAX_TABLE_ORDER needs more than 8 factors above 1
MAX_TABLE_FACTORS = 8
MAX_DENOM = 2**60  # 5 * MAX_DENOM < 2**63: exponent sums cannot overflow int64
_NORMALIZATION_DETAIL = "F on identity slices and Omega(.,0), Omega(0,.)"


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
    mod ``denom``, and every table is read-only.
    """

    group: FinAbGroup
    f_num: np.ndarray
    omega_num: np.ndarray
    denom: int
    name: str = field(default="", compare=False)
    #: the builder's validation report, so that no later reader validates again
    report: CoherenceReport | None = field(default=None, init=False, compare=False, repr=False)
    #: numerators of b(a1, a2) = Omega(a1, a2) + Omega(a2, a1)
    b_num: np.ndarray = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        _check_denom(self.denom)
        m = self.group.order
        f = np.ascontiguousarray(np.asarray(self.f_num, dtype=np.int64) % self.denom)
        w = np.ascontiguousarray(np.asarray(self.omega_num, dtype=np.int64) % self.denom)
        if f.shape != (m, m, m) or w.shape != (m, m):
            raise StructuralError(
                f"table shapes {f.shape}, {w.shape} do not match group order {m}"
            )
        for name, table in (("f_num", f), ("omega_num", w), ("b_num", (w + w.T) % self.denom)):
            table.setflags(write=False)
            object.__setattr__(self, name, table)

    # -- scalar accessors ---------------------------------------------------

    def f(self, a1: GroupElt, a2: GroupElt, a3: GroupElt) -> UnitScalar:
        g = self.group
        return UnitScalar(
            Fraction(int(self.f_num[g.index(a1), g.index(a2), g.index(a3)]), self.denom)
        )

    def omega(self, a1: GroupElt, a2: GroupElt) -> UnitScalar:
        g = self.group
        return UnitScalar(Fraction(int(self.omega_num[g.index(a1), g.index(a2)]), self.denom))

    # -- constructors ---------------------------------------------------------

    @classmethod
    def trivial(cls, group: FinAbGroup, *, name: str = "trivial") -> AbelianCocycle:
        _check_table_order(group)
        m = group.order
        cocycle = cls(group, np.zeros((m, m, m), np.int64), np.zeros((m, m), np.int64), 1, name=name)
        # every axiom holds on all-zero tables: the report validate_cocycle
        # would give, without running the kernels
        report = CoherenceReport((
            AxiomCheck("pentagon", True, m**4),
            AxiomCheck("hexagon-1", True, m**3),
            AxiomCheck("hexagon-2", True, m**3),
            AxiomCheck("normalization", True, m**3, detail=_NORMALIZATION_DETAIL),
        ))
        return _keep_report(cocycle, report)


def _keep_report(cocycle: AbelianCocycle, report: CoherenceReport) -> AbelianCocycle:
    object.__setattr__(cocycle, "report", report)
    return cocycle


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


def _from_exponents(group: FinAbGroup, f_entries: Mapping, omega_entries: Mapping,
                    name: str) -> AbelianCocycle:
    """Build and validate a cocycle from sparse maps of ``Fraction`` exponents
    keyed by tuples of enumeration indices; an omitted key means exponent 0.  Raises
    ``StructuralError`` if the common denominator exceeds ``MAX_DENOM``,
    before allocating, and ``CocycleError`` (carrying the report) if any axiom
    fails."""
    _check_table_order(group)
    # Values repeat across a table: each distinct one is reduced mod 1 once,
    # and each entry keeps the position of its exponent in `exponents`.  The
    # memo is keyed by identity, because a parsed spec holds one Fraction per
    # distinct exponent and hashing a Fraction costs about as much as reducing
    # it; the memo holds each value, so no other value can take its id.
    memo: dict[int, tuple] = {}
    exponents: list[Fraction] = []

    def positions(entries: Mapping) -> np.ndarray:
        out = []
        for value in entries.values():
            hit = memo.get(id(value))
            if hit is None:
                hit = memo[id(value)] = (len(exponents), value)
                exponents.append(value % 1)
            out.append(hit[0])
        return np.array(out, dtype=np.intp)

    f_pos, w_pos = positions(f_entries), positions(omega_entries)
    denom = lcm(1, *{x.denominator for x in exponents})
    _check_denom(denom)
    numerators = np.array([x.numerator * (denom // x.denominator) for x in exponents], np.int64)
    m = group.order
    f_num, omega_num = np.zeros((m, m, m), dtype=np.int64), np.zeros((m, m), dtype=np.int64)
    for table, entries, pos in ((f_num, f_entries, f_pos), (omega_num, omega_entries, w_pos)):
        keys = np.array(list(entries), dtype=np.intp).reshape(-1, table.ndim)
        table[tuple(keys.T)] = numerators[pos]

    cocycle = AbelianCocycle(group, f_num, omega_num, denom, name=name)
    report = validate_cocycle(cocycle)
    if not report.passed:
        first = report.failures()[0]
        raise CocycleError(
            f"cocycle tables violate the {first.axiom} axiom at {first.witness}", report=report
        )
    return _keep_report(cocycle, report)


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
    # F(a, b, c) = r[a] if b + c >= n else 0: the one |A|^3 allocation
    r = t * n * a % d
    cocycle = AbelianCocycle(
        group, r[:, None, None] * (a[:, None] + a[None, :] >= n), t * a[:, None] * a[None, :] % d,
        d, name=f"cyclic(n={n}, s={s})",
    )
    report = validate_cocycle(cocycle)
    if not report.passed:  # would be an implementation bug, not bad input
        raise AssertionError(
            f"build_cyclic({n}, {s}) produced an invalid cocycle:\n{report.describe()}"
        )
    return _keep_report(cocycle, report)


# -- validation ----------------------------------------------------------------


def _first_witness(mask: np.ndarray, group: FinAbGroup, offset0: int = 0) -> tuple:
    flat = int(np.flatnonzero(mask.reshape(-1))[0])
    idx = np.unravel_index(flat, mask.shape)
    idx = (idx[0] + offset0,) + tuple(int(i) for i in idx[1:])
    return tuple(group.element_at(int(i)) for i in idx)


def _narrow_dtype(denom: int) -> type:
    """The narrowest integer dtype that holds ``5 * denom``.

    Table entries lie in ``[0, denom)`` and every partial sum of an axiom
    below lies in ``(-4 * denom, 3 * denom)``."""
    return np.int16 if 5 * denom < 2**15 else np.int32 if 5 * denom < 2**31 else np.int64


def _reduce(d: np.ndarray, q: np.ndarray, L: int) -> None:
    """``d`` mod ``L`` in place, as ``d - L * (d // L)`` through the buffer ``q``:
    numpy's floor_divide has a fast path for a scalar divisor, remainder has not."""
    np.floor_divide(d, L, out=q)
    q *= L
    d -= q


def _sum_window(F: np.ndarray, factors: tuple[int, ...]) -> np.ndarray:
    """Read-only view ``V`` with ``V[i, j, b, c] = F[i, j, b + c]``.

    ``b`` and ``c`` are each spelled as one axis per invariant factor.  Each
    factor axis of ``F``'s last argument is wrap-padded by ``n - 1``, so that
    the digit ``b_k + c_k`` of the sum sits at ``b_k + c_k`` without a ``mod``;
    ``b_k`` and ``c_k`` then step along the same padded axis."""
    m = F.shape[0]
    P = F.reshape((m, m) + factors)
    for axis, n in enumerate(factors, start=2):
        if n > 1:
            head = (slice(None),) * axis + (slice(n - 1),)
            P = np.concatenate([P, P[head]], axis=axis)
    return as_strided(P, (m, m) + factors + factors, P.strides + P.strides[2:], writeable=False)


def pentagon_slabs(c: AbelianCocycle, rows: Iterable[int]) -> Iterator[np.ndarray]:
    """The pentagon residue mod ``denom`` in the narrow dtype: for each ``a1``
    in ``rows``, in order, the slab ``d[a2, a3, a4]``.  Every slab is the same
    buffer, overwritten by the next."""
    g, L = c.group, c.denom
    F, S = c.f_num.astype(_narrow_dtype(L)), g.add_index_table
    V = _sum_window(F, g.factors)
    d, q = np.empty_like(F), np.empty_like(F)
    d_digits = d.reshape(V.shape[1:])  # d with a3 and a4 split into digits
    # F(a1,a2,a3) F(a1,a2+a3,a4) F(a2,a3,a4) = F(a1+a2,a3,a4) F(a1,a2,a3+a4).
    # Every term is a row gather, a broadcast or the window V.  np.take with
    # mode="raise" writes through a temporary copy of out; the indices are in
    # range, so mode="clip" changes no value.
    for i in rows:
        G = F[i]
        np.take(G, S, axis=0, out=d, mode="clip")  # F(i, a2+a3, a4)
        d += G[:, :, None]  # F(i, a2, a3)
        d += F  # F(a2, a3, a4)
        d_digits -= V[i]  # F(i, a2, a3+a4)
        d -= np.take(F, S[i], axis=0, out=q, mode="clip")  # F(i+a2, a3, a4)
        _reduce(d, q, L)
        yield d


def _check_pentagon(c: AbelianCocycle) -> AxiomCheck:
    g, m = c.group, c.group.order
    # slabs come in a1 order: the first failing cell is the lexicographic first
    for i, d in enumerate(pentagon_slabs(c, range(m))):
        if np.count_nonzero(d):
            return AxiomCheck("pentagon", False, m**4, _first_witness(d[None], g, offset0=i))
    return AxiomCheck("pentagon", True, m**4)


def hexagon_residues(c: AbelianCocycle) -> tuple[np.ndarray, np.ndarray]:
    """Both hexagon residues mod ``denom`` over all of ``A^3``, in the narrow
    dtype, each indexed ``[a1, a2, a3]``."""
    m, L, S = c.group.order, c.denom, c.group.add_index_table
    dtype = _narrow_dtype(L)
    F, W = c.f_num.astype(dtype), c.omega_num.astype(dtype)
    h = np.empty((2, m, m, m), dtype)
    h1, h2 = h
    # Each hexagon is summed in place over all of A^3, reading F and Omega
    # through transposed and broadcast views.  The layout of each sum puts the
    # pair of arguments that Omega reads as a sum on its two outer axes, so
    # that term is a row gather.

    # F(a1,a2,a3) Omega(a1+a2,a3) F(a3,a1,a2) = Omega(a2,a3) F(a1,a3,a2) Omega(a1,a3),
    # h1 laid out [a1, a2, a3]
    np.take(W, S, axis=0, out=h1, mode="clip")  # Omega(a1+a2, a3)
    h1 += F
    h1 += F.transpose(1, 2, 0)  # F(a3, a1, a2)
    h1 -= W[None, :, :]  # Omega(a2, a3)
    h1 -= F.transpose(0, 2, 1)  # F(a1, a3, a2)
    h1 -= W[:, None, :]  # Omega(a1, a3)

    # F(a1,a2,a3)^-1 Omega(a1,a2+a3) F(a2,a3,a1)^-1 = Omega(a1,a2) F(a2,a1,a3)^-1 Omega(a1,a3),
    # h2 laid out [a2, a3, a1]
    np.take(W.T, S, axis=0, out=h2, mode="clip")  # Omega(a1, a2+a3)
    h2 -= F.transpose(1, 2, 0)  # F(a1, a2, a3)
    h2 -= F  # F(a2, a3, a1)
    h2 -= W.T[:, None, :]  # Omega(a1, a2)
    h2 += F.transpose(0, 2, 1)  # F(a2, a1, a3)
    h2 -= W.T[None, :, :]  # Omega(a1, a3)

    _reduce(h, np.empty_like(h), L)
    return h1, h2.transpose(2, 0, 1)


def _check_hexagons(c: AbelianCocycle) -> list[AxiomCheck]:
    g, m = c.group, c.group.order
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
    return AxiomCheck("normalization", witness is None, m**3, witness, detail=_NORMALIZATION_DETAIL)


def validate_cocycle(c: AbelianCocycle) -> CoherenceReport:
    """Exhaustively check pentagon (A^4), both hexagons (A^3) and normalization.

    All comparisons are exact equalities of exponents; failures are reported
    with the lexicographically first witness tuple, never raised.
    """
    checks = [_check_pentagon(c)]
    checks.extend(_check_hexagons(c))
    checks.append(_check_normalization(c))
    return CoherenceReport(tuple(checks))
