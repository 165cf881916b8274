"""Abelian 3-cocycles (F, Omega) on a finite abelian group.

Tables are stored as integer exponent numerators over one common
denominator, so every axiom check below is exact integer arithmetic mod
that denominator; no tolerances anywhere.  The pentagon is checked over
all of ``A^4`` and both hexagons over ``A^3``; validation is eager at
construction because every downstream formula assumes the axioms.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product
from math import gcd, lcm
from typing import Mapping

import numpy as np

from .abgroup import FinAbGroup, GroupElt
from .errors import CocycleError, StructuralError
from .unitscalar import UnitScalar

MAX_TABLE_ORDER = 256  # exhaustive pentagon checking is O(|A|^4)

# chunk the leading axis of the A^4 sweep so memory stays bounded
_CHUNK_CELLS = 1 << 22


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

    def to_dict(self) -> dict:
        def witness_json(w):
            if w is None:
                return None
            return [list(x) if isinstance(x, tuple) else x for x in w]

        return {
            "passed": self.passed,
            "checks": [
                {
                    "axiom": c.axiom,
                    "passed": c.passed,
                    "checked": c.checked,
                    "witness": witness_json(c.witness),
                    "max_error": c.max_error,
                    "detail": c.detail,
                }
                for c in self.checks
            ],
        }


@dataclass(frozen=True, eq=False)
class AbelianCocycle:
    """Total tables ``F: A^3 -> roots of unity`` and ``Omega: A^2 -> roots of unity``.

    ``f_num[i, j, k]`` is the exponent numerator of ``F`` at the elements with
    enumeration indices ``(i, j, k)``; likewise ``omega_num`` for ``Omega``.
    All numerators are reduced mod ``denom``.
    """

    group: FinAbGroup
    f_num: np.ndarray
    omega_num: np.ndarray
    denom: int
    name: str = field(default="", compare=False)

    def __post_init__(self):
        m = self.group.order
        f = np.ascontiguousarray(np.asarray(self.f_num, dtype=np.int64) % self.denom)
        w = np.ascontiguousarray(np.asarray(self.omega_num, dtype=np.int64) % self.denom)
        if f.shape != (m, m, m) or w.shape != (m, m):
            raise StructuralError(
                f"table shapes {f.shape}, {w.shape} do not match group order {m}"
            )
        f.setflags(write=False)
        w.setflags(write=False)
        object.__setattr__(self, "f_num", f)
        object.__setattr__(self, "omega_num", w)

    # -- scalar accessors ---------------------------------------------------

    def f(self, a1: GroupElt, a2: GroupElt, a3: GroupElt) -> UnitScalar:
        g = self.group
        return UnitScalar(
            Fraction(int(self.f_num[g.index(a1), g.index(a2), g.index(a3)]), self.denom)
        )

    def omega(self, a1: GroupElt, a2: GroupElt) -> UnitScalar:
        g = self.group
        return UnitScalar(Fraction(int(self.omega_num[g.index(a1), g.index(a2)]), self.denom))

    def q(self, a: GroupElt) -> Fraction:
        """Exponent of ``Omega(a, a)``, in [0, 1): the quadratic form."""
        i = self.group.index(a)
        return Fraction(int(self.omega_num[i, i]), self.denom) % 1

    def b(self, a1: GroupElt, a2: GroupElt) -> Fraction:
        """Exponent of ``Omega(a1, a2) * Omega(a2, a1)``, in [0, 1).

        The returned representative is also the fixed lift of the bilinear
        form from Q/Z to Q used by the monodromy formulas.
        """
        g = self.group
        i, j = g.index(a1), g.index(a2)
        return Fraction(int(self.omega_num[i, j]) + int(self.omega_num[j, i]), self.denom) % 1

    def comm_factor(self, a1: GroupElt, a2: GroupElt, a3: GroupElt) -> UnitScalar:
        """``F(a1,a2,a3) * Omega(a1,a2) * F(a2,a1,a3)^{-1}``.

        The commutation factor weighting the reversed product of two graded
        operators against a third grade.
        """
        g = self.group
        i, j, k = g.index(a1), g.index(a2), g.index(a3)
        num = int(self.f_num[i, j, k]) + int(self.omega_num[i, j]) - int(self.f_num[j, i, k])
        return UnitScalar(Fraction(num, self.denom))

    # -- constructors ---------------------------------------------------------

    @classmethod
    def from_tables(
        cls,
        group: FinAbGroup,
        f_entries: Mapping[tuple[GroupElt, GroupElt, GroupElt], UnitScalar | Fraction | str | int],
        omega_entries: Mapping[tuple[GroupElt, GroupElt], UnitScalar | Fraction | str | int],
        *,
        name: str = "",
    ) -> AbelianCocycle:
        """Build a cocycle from total tables of exponents; validates eagerly.

        Every element tuple must have an entry: a ``UnitScalar``, or anything
        ``Fraction`` accepts, read mod 1.  Raises ``StructuralError`` naming
        the first missing key in lexicographic order, and ``CocycleError``
        (carrying the report) if any axiom fails.  Spec files give sparse
        tables and reach the same array builder without the totality check.
        """
        _check_table_order(group)
        elts = list(group.elements())
        for label, entries, arity in (("F", f_entries, 3), ("Omega", omega_entries, 2)):
            missing = next((key for key in product(elts, repeat=arity) if key not in entries), None)
            if missing is not None:
                raise StructuralError(f"missing {label} entry at {missing}")
        return _from_exponents(group, f_entries, omega_entries, name)

    @classmethod
    def trivial(cls, group: FinAbGroup, *, name: str = "trivial") -> AbelianCocycle:
        _check_table_order(group)
        m = group.order
        return cls(group, np.zeros((m, m, m), np.int64), np.zeros((m, m), np.int64), 1, name=name)


def _check_table_order(group: FinAbGroup) -> None:
    if group.order > MAX_TABLE_ORDER:
        raise StructuralError(
            f"group order {group.order} exceeds the table-cocycle cap {MAX_TABLE_ORDER}"
        )


def _from_exponents(group: FinAbGroup, f_entries: Mapping, omega_entries: Mapping,
                    name: str) -> AbelianCocycle:
    """Build and validate a cocycle from sparse exponent maps keyed by element
    tuples; an omitted key means exponent 0.  Raises ``CocycleError``
    (carrying the report) if any axiom fails."""
    _check_table_order(group)

    def exponents(entries: Mapping) -> dict:
        return {
            key: value.exponent if isinstance(value, UnitScalar) else Fraction(value) % 1
            for key, value in entries.items()
        }

    f_exp, w_exp = exponents(f_entries), exponents(omega_entries)
    denom = lcm(1, *(x.denominator for x in f_exp.values()),
                *(x.denominator for x in w_exp.values()))
    m = group.order
    f_num, omega_num = np.zeros((m, m, m), dtype=np.int64), np.zeros((m, m), dtype=np.int64)
    for table, exps in ((f_num, f_exp), (omega_num, w_exp)):
        for key, x in exps.items():
            table[tuple(group.index(a) for a in key)] = x.numerator * (denom // x.denominator)

    cocycle = AbelianCocycle(group, f_num, omega_num, denom, name=name)
    report = validate_cocycle(cocycle)
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
    a = np.arange(n, dtype=np.int64)
    carry_term = a[:, None] + a[None, :]
    carry_term = carry_term - carry_term % n  # n * carry(b, c), values in {0, n}
    f_num = (s * a[:, None, None] * carry_term[None, :, :]) % d
    omega_num = (s * a[:, None] * a[None, :]) % d
    cocycle = AbelianCocycle(group, f_num, omega_num, d, name=f"cyclic(n={n}, s={s})")
    report = validate_cocycle(cocycle)
    if not report.passed:  # would be an implementation bug, not bad input
        raise AssertionError(
            f"build_cyclic({n}, {s}) produced an invalid cocycle:\n{report.describe()}"
        )
    return cocycle


# -- validation ----------------------------------------------------------------


def _first_witness(mask: np.ndarray, group: FinAbGroup, offset0: int = 0) -> tuple:
    flat = int(np.flatnonzero(mask.reshape(-1))[0])
    idx = np.unravel_index(flat, mask.shape)
    idx = (idx[0] + offset0,) + tuple(int(i) for i in idx[1:])
    return tuple(group.element_at(int(i)) for i in idx)


def _check_pentagon(c: AbelianCocycle) -> AxiomCheck:
    g, m, L = c.group, c.group.order, c.denom
    F, S = c.f_num, g.add_index_table
    chunk = max(1, _CHUNK_CELLS // max(1, m**3))
    witness = None
    for i0 in range(0, m, chunk):
        i1 = np.arange(i0, min(i0 + chunk, m))
        a1 = i1[:, None, None, None]
        a2 = np.arange(m)[None, :, None, None]
        a3 = np.arange(m)[None, None, :, None]
        a4 = np.arange(m)[None, None, None, :]
        lhs = F[a1, a2, a3] + F[a1, S[a2, a3], a4] + np.broadcast_to(F[None, :, :, :], (len(i1), m, m, m))
        rhs = F[a1, a2, S[a3, a4]] + F[S[a1, a2], a3, a4]
        bad = (lhs - rhs) % L != 0
        if bad.any():
            witness = _first_witness(bad, g, offset0=i0)
            break
    return AxiomCheck("pentagon", witness is None, m**4, witness)


def _check_hexagons(c: AbelianCocycle) -> list[AxiomCheck]:
    g, m, L = c.group, c.group.order, c.denom
    F, W, S = c.f_num, c.omega_num, g.add_index_table
    a3_row = np.arange(m)[None, None, :]
    # all arrays below are indexed [a1, a2, a3]
    f_312 = np.einsum("kij->ijk", F)  # F(a3, a1, a2)
    f_132 = np.einsum("ikj->ijk", F)  # F(a1, a3, a2)
    f_231 = np.einsum("jki->ijk", F)  # F(a2, a3, a1)
    f_213 = np.einsum("jik->ijk", F)  # F(a2, a1, a3)
    w_12 = W[:, :, None]
    w_13 = W[:, None, :]
    w_23 = W[None, :, :]
    w_sum12_3 = W[S[:, :, None], a3_row]  # Omega(a1+a2, a3)
    w_1_sum23 = W[np.arange(m)[:, None, None], S[None, :, :]]  # Omega(a1, a2+a3)

    # F(a1,a2,a3) Omega(a1+a2,a3) F(a3,a1,a2) = Omega(a2,a3) F(a1,a3,a2) Omega(a1,a3)
    bad1 = (F + w_sum12_3 + f_312 - w_23 - f_132 - w_13) % L != 0
    w1 = _first_witness(bad1, g) if bad1.any() else None

    # F(a1,a2,a3)^-1 Omega(a1,a2+a3) F(a2,a3,a1)^-1 = Omega(a1,a2) F(a2,a1,a3)^-1 Omega(a1,a3)
    bad2 = (-F + w_1_sum23 - f_231 - w_12 + f_213 - w_13) % L != 0
    w2 = _first_witness(bad2, g) if bad2.any() else None

    return [
        AxiomCheck("hexagon-1", w1 is None, m**3, w1),
        AxiomCheck("hexagon-2", w2 is None, m**3, w2),
    ]


def _check_normalization(c: AbelianCocycle) -> AxiomCheck:
    g, m = c.group, c.group.order
    F, W = c.f_num, c.omega_num
    zero = g.index(g.zero)
    bad = (
        (F[:, :, zero] % c.denom != 0)[:, :, None]
        | (F[:, zero, :] % c.denom != 0)[:, None, :]
        | (F[zero, :, :] % c.denom != 0)[None, :, :]
    )
    witness = _first_witness(bad, g) if bad.any() else None
    omega_ok = (W[:, zero] % c.denom == 0).all() and (W[zero, :] % c.denom == 0).all()
    if witness is None and not omega_ok:
        if (W[:, zero] % c.denom).any():
            i = int(np.flatnonzero(W[:, zero] % c.denom)[0])
            witness = (g.element_at(i), g.zero)
        else:
            i = int(np.flatnonzero(W[zero, :] % c.denom)[0])
            witness = (g.zero, g.element_at(i))
    return AxiomCheck(
        "normalization", witness is None and omega_ok, m**3,
        witness, detail="F on identity slices and Omega(.,0), Omega(0,.)",
    )


def validate_cocycle(c: AbelianCocycle) -> CoherenceReport:
    """Exhaustively check pentagon (A^4), both hexagons (A^3) and normalization.

    All comparisons are exact equalities of exponents; failures are reported
    with the lexicographically first witness tuple, never raised.
    """
    checks = [_check_pentagon(c)]
    checks.extend(_check_hexagons(c))
    checks.append(_check_normalization(c))
    return CoherenceReport(tuple(checks))
