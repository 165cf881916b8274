"""The braided ribbon category of graded representations twisted by a cocycle.

Tensor words are flattened to a single row-major index space, so rebracketing
is the identity and associators are pure scalars times the identity matrix.
Structure morphisms:

    associator   F(a1, a2, a3)^{-1} * I
    braiding     Omega(a1, a2)^{-1} * flip
    evaluation   F(a, -a, a)^{-1} * <., .>        (on M* (x) M)
    coevaluation sum_i e_i (x) e_i'               (into M (x) M*)
    twist        Omega(a, a)^{-1}

Associators and braidings are unit scalars times identities and flips, so
the coherence suite checks pentagon, triangle, both hexagons and balancing
as exact identities between cocycle exponents, in integer arithmetic mod the
cocycle denominator, once per tuple of distinct catalog grades.  The snake
identities, the double braiding (the matrix ``s_entry`` traces) and
naturality against sampled intertwiners stay matrix equations checked within
a tolerance; twist-duality is exact.  ``checked`` counts catalog tuples, and
witnesses are the first failing tuple in ``product`` order.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

from .abgroup import GroupElt
from .cocycle import AbelianCocycle, AxiomCheck, CoherenceReport, validate_cocycle
from .errors import CocycleError, StructuralError
from .grouprep import (
    CentralEmbedding,
    FiniteGroup,
    GradedIrrep,
    MatrixRep,
    dual_rep,
    grade_of,
    hom_dim,
    intertwiner_basis,
    validate_irrep,
)
from .unitscalar import UnitScalar

# chunk the first slot of an exponent check so memory stays bounded
_CHUNK_CELLS = 1 << 22


@dataclass(frozen=True, eq=False)
class StructureMorphism:
    """A structure map as an explicit matrix between flattened tensor words."""

    matrix: np.ndarray
    source: tuple[str, ...]
    target: tuple[str, ...]


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.kron`` of two matrices without its n-dimensional set-up: the same
    elementwise products in the same layout, so the same values bit for bit."""
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(
        a.shape[0] * b.shape[0], a.shape[1] * b.shape[1]
    )


def flip_matrix(d1: int, d2: int) -> np.ndarray:
    """Permutation matrix sending coordinate (i, j) of V1 (x) V2 to (j, i)."""
    cols = np.arange(d1 * d2)
    rows = (cols % d2) * d1 + cols // d2
    out = np.zeros((d1 * d2, d1 * d2))
    out[rows, cols] = 1.0
    return out


class TwistedCategory:
    """A finite group with a complete graded irrep catalog and a cocycle.

    Validates everything eagerly: the cocycle axioms, irreducibility and the
    homomorphism property of every catalog member, centrality of the grading
    embedding, the declared grades, and (for complete catalogs) the
    sum-of-squares identity ``sum dim^2 = |G|``.
    """

    def __init__(
        self,
        group: FiniteGroup,
        cocycle: AbelianCocycle,
        embedding: CentralEmbedding,
        irreps: dict[str, MatrixRep],
        *,
        complete: bool = True,
        matrix_tol: float = 1e-9,
        validate: bool = True,
    ):
        if embedding.grading != cocycle.group:
            raise StructuralError("embedding and cocycle must share the grading group")
        embedding.validate(group)
        if validate:
            cocycle_report = validate_cocycle(cocycle)
            if not cocycle_report.passed:
                first = cocycle_report.failures()[0]
                raise CocycleError(
                    f"cocycle violates the {first.axiom} axiom at {first.witness}",
                    report=cocycle_report,
                )
        self.group = group
        self.cocycle = cocycle
        self.embedding = embedding
        self.grading = cocycle.group
        self.matrix_tol = matrix_tol
        # complex F^-1 and Omega^-1 by grades, filled on first use: every
        # structure map reads one, and each costs Fraction arithmetic and a
        # cos/sin to compute
        self._f_inv: dict[tuple[GroupElt, GroupElt, GroupElt], complex] = {}
        self._omega_inv: dict[tuple[GroupElt, GroupElt], complex] = {}

        catalog = []
        for label, rep in irreps.items():
            if rep.group is not group:
                raise StructuralError(f"irrep {label!r} lives on a different group")
            character = validate_irrep(rep, matrix_tol=matrix_tol)
            grade = grade_of(rep, embedding, matrix_tol=matrix_tol)
            catalog.append(GradedIrrep(label, rep, grade, character))
        self.catalog: tuple[GradedIrrep, ...] = tuple(catalog)
        self.complete = complete
        if complete:
            total = sum(m.dim**2 for m in self.catalog)
            if total != group.order:
                raise StructuralError(
                    f"catalog declared complete but sum of dim^2 = {total} != |G| = {group.order}"
                )

        unit_rep = MatrixRep(group, np.ones((group.order, 1, 1), dtype=np.complex128))
        self.unit = GradedIrrep(
            "1", unit_rep, self.grading.zero, np.ones(group.num_classes, dtype=np.complex128)
        )

    def __getitem__(self, label: str) -> GradedIrrep:
        for m in self.catalog:
            if m.label == label:
                return m
        raise KeyError(label)

    def dual_object(self, m: GradedIrrep) -> GradedIrrep:
        """The contragredient of a catalog member: grade negates, character conjugates."""
        return GradedIrrep(
            m.label + "*", dual_rep(m.rep), self.grading.neg(m.grade), np.conj(m.character)
        )

    # -- word helpers ---------------------------------------------------------

    @staticmethod
    def _as_word(obj) -> tuple[GradedIrrep, ...]:
        if isinstance(obj, GradedIrrep):
            return (obj,)
        return tuple(obj)

    def word_dim(self, obj) -> int:
        return int(np.prod([m.dim for m in self._as_word(obj)], initial=1))

    def word_grade(self, obj) -> GroupElt:
        grade = self.grading.zero
        for m in self._as_word(obj):
            grade = self.grading.add(grade, m.grade)
        return grade

    def word_labels(self, obj) -> tuple[str, ...]:
        return tuple(m.label for m in self._as_word(obj))

    # -- structure morphisms ----------------------------------------------------

    def f_scalar(self, a1: GroupElt, a2: GroupElt, a3: GroupElt) -> UnitScalar:
        return self.cocycle.f(a1, a2, a3)

    def omega_scalar(self, a1: GroupElt, a2: GroupElt) -> UnitScalar:
        return self.cocycle.omega(a1, a2)

    def associator(self, m1, m2, m3) -> StructureMorphism:
        """``F(a1,a2,a3)^{-1}`` times the identity on the flattened triple space."""
        key = tuple(self.word_grade(m) for m in (m1, m2, m3))
        scalar = self._f_inv.get(key)
        if scalar is None:
            scalar = self._f_inv[key] = self.f_scalar(*key).inverse().to_complex()
        d = self.word_dim(m1) * self.word_dim(m2) * self.word_dim(m3)
        labels = self.word_labels(m1) + self.word_labels(m2) + self.word_labels(m3)
        return StructureMorphism(scalar * np.eye(d), labels, labels)

    def braiding(self, m1, m2) -> StructureMorphism:
        """``Omega(a1,a2)^{-1}`` times the flip onto the reversed word."""
        key = (self.word_grade(m1), self.word_grade(m2))
        scalar = self._omega_inv.get(key)
        if scalar is None:
            scalar = self._omega_inv[key] = self.omega_scalar(*key).inverse().to_complex()
        return StructureMorphism(
            scalar * flip_matrix(self.word_dim(m1), self.word_dim(m2)),
            self.word_labels(m1) + self.word_labels(m2),
            self.word_labels(m2) + self.word_labels(m1),
        )

    def twist(self, m) -> UnitScalar:
        """The ribbon scalar ``Omega(a, a)^{-1}`` on a grade-a object."""
        a = self.word_grade(m)
        return self.omega_scalar(a, a).inverse()

    def evaluation(self, m) -> StructureMorphism:
        """Row vector on M* (x) M: ``(f', v) -> F(a,-a,a)^{-1} f'(v)``."""
        a = self.word_grade(m)
        d = self.word_dim(m)
        scalar = self.f_scalar(a, self.grading.neg(a), a).inverse().to_complex()
        vec = scalar * np.eye(d).reshape(1, d * d)  # entry at (j, i) is delta_ji
        labels = self.word_labels(m)
        dual = tuple(lab + "*" for lab in labels)
        return StructureMorphism(vec, dual + labels, ())

    def coevaluation(self, m) -> StructureMorphism:
        """Column vector into M (x) M*: ``1 -> sum_i e_i (x) e_i'``."""
        d = self.word_dim(m)
        vec = np.eye(d).reshape(d * d, 1)
        labels = self.word_labels(m)
        dual = tuple(lab + "*" for lab in labels)
        return StructureMorphism(vec, (), labels + dual)

    # -- trace, dimension, S-matrix ---------------------------------------------

    def cat_trace(self, m, f: np.ndarray) -> complex:
        """Categorical trace: ``e_M . R_{M,M*} . ((theta f) (x) 1) . i_M``.

        The middle arrows act by reshaping instead of materializing the
        ``d^2 x d^2`` permutation matrix; the composite is the same linear map.
        """
        a = self.word_grade(m)
        d = self.word_dim(m)
        f = np.asarray(f, dtype=np.complex128)
        if f.shape != (d, d):
            raise StructuralError(f"endomorphism must be {d} x {d}, got {f.shape}")
        theta = self.twist(m).to_complex()
        braid = self.omega_scalar(a, self.grading.neg(a)).inverse().to_complex()
        evaluation = self.f_scalar(a, self.grading.neg(a), a).inverse().to_complex()
        # i_M is vec(I); ((theta f) (x) 1) vec(I) = vec(theta f); the braiding
        # transposes the matrix picture; evaluation contracts the diagonal.
        x = theta * f
        x = braid * x.T
        return complex(evaluation * np.trace(x))

    def cat_dim(self, m) -> complex:
        return self.cat_trace(m, np.eye(self.word_dim(m)))

    def double_braiding(self, m1, m2) -> np.ndarray:
        """``R_{M2,M1} . R_{M1,M2}`` as a matrix on the flattened pair."""
        return self.braiding(m2, m1).matrix @ self.braiding(m1, m2).matrix

    def s_entry(self, m1, m2) -> complex:
        """Categorical trace of the double braiding on M1 (x) M2."""
        return self.cat_trace((m1, m2), self.double_braiding(m1, m2))

    # -- coherence suite -----------------------------------------------------------

    def coherence_suite(self, *, tol: float | None = None, seed: int = 0) -> CoherenceReport:
        """The coherence checks over all catalog tuples.

        Pentagon, triangle, both hexagons and balancing compose only
        associators and braidings, which are unit scalars times identities and
        flips, so each is checked as an exact identity between cocycle
        exponents at the catalog's grades; ``tol`` does not apply to them and
        a failure reports its deviation ``|e^{2 pi i delta} - 1|``.  The
        snakes, double-braiding and naturality are matrix equations checked
        within ``tol`` (naturality within at least ``1e-8``); twist-duality is
        exact.  ``checked`` counts catalog tuples."""
        tol = self.matrix_tol if tol is None else tol
        F, W = self.cocycle.f_num, self.cocycle.omega_num
        S = self.grading.add_index_table
        e = self.grading.index(self.unit.grade)

        # Each numerator is the exponent of lhs / rhs over cocycle.denom, with
        # A = F^-1 for every associator and R = Omega^-1 for every braiding.
        def pentagon(a, b, c, d):
            # A_{ab,c,d} A_{a,b,cd} == (A_{a,b,c} (x) 1) A_{a,bc,d} (1 (x) A_{b,c,d})
            return F[a, b, c] + F[a, S[b, c], d] + F[b, c, d] - F[S[a, b], c, d] - F[a, b, S[c, d]]

        def triangle(a, b):
            # A_{a,1,b} == 1
            return -F[a, e, b]

        def hexagon1(x, y, z):
            # A_{y,z,x}^-1 R_{x,yz} A_{x,y,z}^-1 == (1 (x) R_{x,z}) A_{y,x,z}^-1 (R_{x,y} (x) 1)
            return F[y, z, x] - W[x, S[y, z]] + F[x, y, z] + W[x, z] - F[y, x, z] + W[x, y]

        def hexagon2(x, y, z):
            # A_{z,x,y} R_{xy,z} A_{x,y,z} == (R_{x,z} (x) 1) A_{x,z,y} (1 (x) R_{y,z})
            return -F[z, x, y] - W[S[x, y], z] - F[x, y, z] + W[x, z] + F[x, z, y] + W[y, z]

        def balancing(a, b):
            # theta_{ab} == R_{b,a} R_{a,b} (theta_a (x) theta_b), theta_a = Omega(a,a)^-1
            return -W[S[a, b], S[a, b]] + W[b, a] + W[a, b] + W[a, a] + W[b, b]

        check = self._exponent_check
        checks = [
            check("pentagon(matrices)", 4, pentagon),
            check("triangle", 2, triangle),
            check("hexagon-1(matrices)", 3, hexagon1),
            check("hexagon-2(matrices)", 3, hexagon2),
            self._check_snakes(tol),
            # the detail is part of verify reports, which stay byte-identical
            check("balancing", 2, balancing, detail="checked as matrices and as exact exponents"),
            self._check_twist_dual(),
            self._check_double_braiding(tol),
            self._check_naturality(tol=max(tol, 1e-8), seed=seed),
        ]
        return CoherenceReport(tuple(checks))

    def _exponent_check(self, axiom: str, arity: int, numerator, detail: str = "") -> AxiomCheck:
        """A unit-scalar identity over all catalog tuples of ``arity``, exactly.

        ``numerator(*slots)`` gets one broadcastable array of grade indices
        per slot and returns the exponent numerator of lhs / rhs.  It runs on
        the distinct catalog grades in order of first appearance, chunked on
        the first slot, so its first nonzero cell in C order, read as the
        first catalog member of each grade, is the first failing catalog tuple
        in ``product`` order.
        """
        first: dict[GroupElt, str] = {}
        for m in self.catalog:
            first.setdefault(m.grade, m.label)
        labels = list(first.values())
        grades = np.array([self.grading.index(a) for a in first], dtype=np.int64)
        k, denom = len(grades), self.cocycle.denom
        chunk = max(1, _CHUNK_CELLS // max(1, k ** (arity - 1)))
        witness, defects = None, set()
        for i0 in range(0, k, chunk):
            delta = numerator(*np.ix_(grades[i0 : i0 + chunk], *[grades] * (arity - 1))) % denom
            bad = np.flatnonzero(delta)
            if bad.size == 0:
                continue
            if witness is None:
                first_bad = np.unravel_index(bad[0], delta.shape)
                witness = (labels[i0 + first_bad[0]],) + tuple(labels[i] for i in first_bad[1:])
            defects.update(np.unique(delta.reshape(-1)[bad]).tolist())
        max_err = max(
            (abs(UnitScalar.from_exponent(d, denom).to_complex() - 1) for d in defects),
            default=0.0,
        )
        return AxiomCheck(
            axiom, witness is None, len(self.catalog) ** arity, witness, max_err, detail=detail
        )

    def _check_snakes(self, tol: float) -> AxiomCheck:
        checked, witness, max_err = 0, None, 0.0
        for m in self.catalog:
            checked += 1
            a = m.grade
            neg = self.grading.neg(a)
            d = m.dim
            ev = self.evaluation(m).matrix  # 1 x d^2, on M* (x) M
            coev = self.coevaluation(m).matrix  # d^2 x 1, into M (x) M*
            # snake on M:  (1_M (x) e_M) A_{M,M*,M}^{-1} (i_M (x) 1_M) == 1_M
            mid_inv = self.f_scalar(a, neg, a).to_complex()  # A^{-1} scalar
            snake_m = mid_inv * (_kron(np.eye(d), ev) @ _kron(coev, np.eye(d)))
            err = float(np.abs(snake_m - np.eye(d)).max())
            # snake on M*:  (e_M (x) 1_M*) A_{M*,M,M*} (1_M* (x) i_M) == 1_M*
            mid = self.f_scalar(neg, a, neg).inverse().to_complex()
            snake_dual = mid * (_kron(ev, np.eye(d)) @ _kron(np.eye(d), coev))
            err = max(err, float(np.abs(snake_dual - np.eye(d)).max()))
            max_err = max(max_err, err)
            if err > tol and witness is None:
                witness = (m.label,)
        return AxiomCheck("snake", witness is None, checked, witness, max_err)

    def _check_twist_dual(self) -> AxiomCheck:
        checked, witness = 0, None
        for m in self.catalog:
            checked += 1
            a, neg = m.grade, self.grading.neg(m.grade)
            if self.cocycle.q(a) != self.cocycle.q(neg) and witness is None:
                witness = (m.label,)
        unit_ok = self.twist(self.unit).is_one
        if not unit_ok and witness is None:
            witness = (self.unit.label,)
        return AxiomCheck(
            "twist-dual", witness is None, checked, witness,
            detail="theta_{M*} = theta_M exactly, and theta of the unit is 1",
        )

    def _check_double_braiding(self, tol: float) -> AxiomCheck:
        """R_{N,M} R_{M,N} == e^{-2 pi i b(a,b)} I, the matrix ``s_entry`` traces."""
        checked, witness, max_err = 0, None, 0.0
        for m, n in product(self.catalog, repeat=2):
            checked += 1
            scalar = UnitScalar(-self.cocycle.b(m.grade, n.grade)).to_complex()
            err = float(
                np.abs(self.double_braiding(m, n) - scalar * np.eye(m.dim * n.dim)).max()
            )
            max_err = max(max_err, err)
            if err > tol and witness is None:
                witness = (m.label, n.label)
        return AxiomCheck("double-braiding", witness is None, checked, witness, max_err)

    def _check_naturality(self, *, tol: float, seed: int) -> AxiomCheck:
        """Structure morphisms commute with sampled intertwiners."""
        rng = np.random.default_rng(seed)
        triples = []
        for m1, m2, m3 in product(self.catalog, repeat=3):
            if self.grading.add(m1.grade, m2.grade) != m3.grade:
                continue
            n = hom_dim(self.group, m1.character, m2.character, m3.character)
            if n > 0:
                triples.append((m1, m2, m3, n))
        checked, witness, max_err = 0, None, 0.0
        if triples:
            picks = rng.choice(len(triples), size=min(8, len(triples)), replace=False)
            for t in sorted(int(i) for i in picks):
                m1, m2, m3, n = triples[t]
                basis = intertwiner_basis(m1.rep, m2.rep, m3.rep, expected=n)
                f = basis[0]  # m3.dim x (m1.dim * m2.dim)
                for y in self.catalog:
                    checked += 1
                    # braiding naturality in the first slot:
                    # R_{M3,Y} (f (x) 1_Y) == (1_Y (x) f) R_{M1M2,Y}
                    lhs = self.braiding((m3,), (y,)).matrix @ _kron(f, np.eye(y.dim))
                    rhs = _kron(np.eye(y.dim), f) @ self.braiding((m1, m2), (y,)).matrix
                    err = float(np.abs(lhs - rhs).max())
                    # associator naturality in the first slot
                    lhs2 = self.associator((m3,), (y,), (y,)).matrix @ _kron(
                        f, np.eye(y.dim * y.dim)
                    )
                    rhs2 = (
                        _kron(f, np.eye(y.dim * y.dim))
                        @ self.associator((m1, m2), (y,), (y,)).matrix
                    )
                    err = max(err, float(np.abs(lhs2 - rhs2).max()))
                    max_err = max(max_err, err)
                    if err > tol and witness is None:
                        witness = (m1.label, m2.label, m3.label, y.label)
        return AxiomCheck(
            "naturality(spot-checks)", witness is None, checked, witness, max_err,
            detail=f"seed={seed}",
        )
