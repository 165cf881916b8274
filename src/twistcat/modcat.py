"""The braided ribbon category of graded representations twisted by a cocycle.

Tensor words are flattened to a single row-major index space, so rebracketing
is the identity and associators are pure scalars times the identity matrix.
Structure morphisms:

    associator   F(a1, a2, a3)^{-1} * I
    braiding     Omega(a1, a2)^{-1} * flip
    evaluation   F(a, -a, a)^{-1} * <., .>        (on M* (x) M)
    coevaluation sum_i e_i (x) e_i'               (into M (x) M*)
    twist        Omega(a, a)^{-1}

The coherence suite checks pentagon, triangle, both hexagons, the snake
identities, balancing and twist-duality as honest matrix equations, and
doubles every scalar identity as exact exponent arithmetic.  Associators and
braidings read only the grade and dimension of each object, so pentagon,
triangle, hexagons, balancing and double-braiding are evaluated once per
distinct ``(grade, dim)`` signature of a catalog tuple; ``checked`` still
counts catalog tuples, and witnesses are the first failing tuple in
``product`` order.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from math import prod

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

MAX_WORD_DIM = 4096


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

    # The matrices of associators and braidings read only the grade and the
    # dimension of each word; the coherence sweeps call these directly.

    def _assoc_matrix(self, a1: GroupElt, a2: GroupElt, a3: GroupElt, d: int) -> np.ndarray:
        key = (a1, a2, a3)
        scalar = self._f_inv.get(key)
        if scalar is None:
            scalar = self._f_inv[key] = self.f_scalar(a1, a2, a3).inverse().to_complex()
        return scalar * np.eye(d)

    def _braid_matrix(self, a1: GroupElt, d1: int, a2: GroupElt, d2: int) -> np.ndarray:
        key = (a1, a2)
        scalar = self._omega_inv.get(key)
        if scalar is None:
            scalar = self._omega_inv[key] = self.omega_scalar(a1, a2).inverse().to_complex()
        return scalar * flip_matrix(d1, d2)

    def _twist_scalar(self, a: GroupElt) -> UnitScalar:
        return self.omega_scalar(a, a).inverse()

    def associator(self, m1, m2, m3) -> StructureMorphism:
        """``F(a1,a2,a3)^{-1}`` times the identity on the flattened triple space."""
        a = tuple(self.word_grade(m) for m in (m1, m2, m3))
        d = self.word_dim(m1) * self.word_dim(m2) * self.word_dim(m3)
        labels = self.word_labels(m1) + self.word_labels(m2) + self.word_labels(m3)
        return StructureMorphism(self._assoc_matrix(*a, d), labels, labels)

    def braiding(self, m1, m2) -> StructureMorphism:
        """``Omega(a1,a2)^{-1}`` times the flip onto the reversed word."""
        a1, a2 = self.word_grade(m1), self.word_grade(m2)
        d1, d2 = self.word_dim(m1), self.word_dim(m2)
        return StructureMorphism(
            self._braid_matrix(a1, d1, a2, d2),
            self.word_labels(m1) + self.word_labels(m2),
            self.word_labels(m2) + self.word_labels(m1),
        )

    def twist(self, m) -> UnitScalar:
        """The ribbon scalar ``Omega(a, a)^{-1}`` on a grade-a object."""
        return self._twist_scalar(self.word_grade(m))

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

    def coherence_suite(
        self, *, tol: float | None = None, seed: int = 0, max_word_dim: int = MAX_WORD_DIM
    ) -> CoherenceReport:
        """Matrix-level coherence checks over all catalog tuples up to the
        dimension cap, with exact exponent checks wherever both sides are
        unit scalars.

        Each identity built from associators and braidings is evaluated once
        per distinct ``(grade, dim)`` signature; ``checked`` still counts the
        catalog tuples it covers."""
        tol = self.matrix_tol if tol is None else tol
        checks = [
            self._check_pentagon_matrices(tol, max_word_dim),
            self._check_triangle(tol),
            *self._check_hexagon_matrices(tol, max_word_dim),
            self._check_snakes(tol),
            self._check_balancing(tol),
            self._check_twist_dual(),
            self._check_double_braiding(tol),
            self._check_naturality(tol=max(tol, 1e-8), seed=seed),
        ]
        return CoherenceReport(tuple(checks))

    def _sweep(
        self,
        axiom: str,
        arity: int,
        evaluate,
        tol: float,
        *,
        max_word_dim: int | None = None,
        detail: str = "",
    ) -> AxiomCheck:
        """One identity over all catalog tuples of ``arity`` in ``product`` order.

        ``evaluate(*sigs)`` gets the ``(grade, dim)`` signature of each slot,
        which is all that associators and braidings read, and returns
        ``(max deviation, exact parts hold)``.  It runs once per distinct
        signature tuple; ``checked`` still counts catalog tuples and the
        witness is the first failing tuple.  Tuples whose word dimension
        exceeds ``max_word_dim`` are skipped.
        """
        checked, witness, max_err, results = 0, None, 0.0, {}
        signature = {m: (m.grade, m.dim) for m in self.catalog}
        for objs in product(self.catalog, repeat=arity):
            key = tuple(signature[m] for m in objs)
            if key not in results:
                capped = max_word_dim is not None and prod(d for _, d in key) > max_word_dim
                results[key] = None if capped else evaluate(*key)
            if results[key] is None:
                continue
            err, exact = results[key]
            checked += 1
            max_err = max(max_err, err)
            if (err > tol or not exact) and witness is None:
                witness = tuple(m.label for m in objs)
        return AxiomCheck(axiom, witness is None, checked, witness, max_err, detail=detail)

    def _check_pentagon_matrices(self, tol: float, max_word_dim: int) -> AxiomCheck:
        ax, add = self._assoc_matrix, self.grading.add

        def evaluate(s1, s2, s3, s4):
            (a1, d1), (a2, d2), (a3, d3), (a4, d4) = s1, s2, s3, s4
            d = d1 * d2 * d3 * d4
            lhs = ax(add(a1, a2), a3, a4, d) @ ax(a1, a2, add(a3, a4), d)
            rhs = (
                _kron(ax(a1, a2, a3, d1 * d2 * d3), np.eye(d4))
                @ ax(a1, add(a2, a3), a4, d)
                @ _kron(np.eye(d1), ax(a2, a3, a4, d2 * d3 * d4))
            )
            return float(np.abs(lhs - rhs).max()), True

        return self._sweep("pentagon(matrices)", 4, evaluate, tol, max_word_dim=max_word_dim)

    def _check_triangle(self, tol: float) -> AxiomCheck:
        def evaluate(s1, s2):
            (a1, d1), (a2, d2) = s1, s2
            mat = self._assoc_matrix(a1, self.unit.grade, a2, d1 * self.unit.dim * d2)
            return float(np.abs(mat - np.eye(d1 * d2)).max()), True

        return self._sweep("triangle", 2, evaluate, tol)

    def _check_hexagon_matrices(self, tol: float, max_word_dim: int) -> list[AxiomCheck]:
        ax, br, add, inv = self._assoc_matrix, self._braid_matrix, self.grading.add, np.linalg.inv

        def hexagon1(sx, sy, sz):
            # braid X past Y (x) Z:  A_{Y,Z,X}^{-1} R_{X,YZ} A_{X,Y,Z}^{-1}
            #                     == (1_Y (x) R_{X,Z}) A_{Y,X,Z}^{-1} (R_{X,Y} (x) 1_Z)
            (x, dx), (y, dy), (z, dz) = sx, sy, sz
            d = dx * dy * dz
            lhs = inv(ax(y, z, x, d)) @ br(x, dx, add(y, z), dy * dz) @ inv(ax(x, y, z, d))
            rhs = (
                _kron(np.eye(dy), br(x, dx, z, dz))
                @ inv(ax(y, x, z, d))
                @ _kron(br(x, dx, y, dy), np.eye(dz))
            )
            return float(np.abs(lhs - rhs).max()), True

        def hexagon2(sx, sy, sz):
            # braid X (x) Y past Z:  A_{Z,X,Y} R_{XY,Z} A_{X,Y,Z}
            #                     == (R_{X,Z} (x) 1_Y) A_{X,Z,Y} (1_X (x) R_{Y,Z})
            (x, dx), (y, dy), (z, dz) = sx, sy, sz
            d = dx * dy * dz
            lhs = ax(z, x, y, d) @ br(add(x, y), dx * dy, z, dz) @ ax(x, y, z, d)
            rhs = (
                _kron(br(x, dx, z, dz), np.eye(dy))
                @ ax(x, z, y, d)
                @ _kron(np.eye(dx), br(y, dy, z, dz))
            )
            return float(np.abs(lhs - rhs).max()), True

        return [
            self._sweep("hexagon-1(matrices)", 3, hexagon1, tol, max_word_dim=max_word_dim),
            self._sweep("hexagon-2(matrices)", 3, hexagon2, tol, max_word_dim=max_word_dim),
        ]

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

    def _check_balancing(self, tol: float) -> AxiomCheck:
        """theta_{MN} = R_{N,M} R_{M,N} (theta_M (x) theta_N), matrices and exponents."""

        br, theta = self._braid_matrix, self._twist_scalar

        def evaluate(s1, s2):
            (a1, d1), (a2, d2) = s1, s2
            theta12 = theta(self.grading.add(a1, a2))
            lhs_exp = theta12.exponent
            rhs_exp = (
                UnitScalar(-self.cocycle.b(a1, a2)).exponent
                + theta(a1).exponent
                + theta(a2).exponent
            ) % 1
            lhs = theta12.to_complex() * np.eye(d1 * d2)
            rhs = (
                (br(a2, d2, a1, d1) @ br(a1, d1, a2, d2))
                * theta(a1).to_complex()
                * theta(a2).to_complex()
            )
            return float(np.abs(lhs - rhs).max()), lhs_exp == rhs_exp

        return self._sweep(
            "balancing", 2, evaluate, tol, detail="checked as matrices and as exact exponents"
        )

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
        """R_{N,M} R_{M,N} == e^{-2 pi i b(a,b)} I, matrices and exponents."""

        br = self._braid_matrix

        def evaluate(s1, s2):
            (a1, d1), (a2, d2) = s1, s2
            scalar = UnitScalar(-self.cocycle.b(a1, a2))
            mat = br(a2, d2, a1, d1) @ br(a1, d1, a2, d2)
            err = float(np.abs(mat - scalar.to_complex() * np.eye(d1 * d2)).max())
            exact = (
                -self.omega_scalar(a1, a2).exponent - self.omega_scalar(a2, a1).exponent
            ) % 1 == scalar.exponent
            return err, exact

        return self._sweep("double-braiding", 2, evaluate, tol)

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
