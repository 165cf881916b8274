"""The braided ribbon category of graded representations twisted by a cocycle.

Tensor words are flattened to a single row-major index space, so rebracketing
is the identity and associators are pure scalars times the identity matrix.
Every structure map is fixed by its words' grades and dimensions alone, so a
word reduces to ``(grade index, dim)``: grade indices are summed through the
grading group's ``add_index_table`` and dims multiply as plain integers.
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

Scalars are read from ``f_num``/``omega_num`` by grade index and turned into
complex numbers through one memo per category, keyed by the exponent
numerator mod the cocycle denominator and filled by ``UnitScalar.to_complex``.
Identity and flip matrices are cached per category, read-only.  The
multiplicities ``dim hom(Ma (x) Mb, Mc)`` of all catalog triples come from one
character-sum table, which fusion tables and the naturality spot checks share.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import product

import numpy as np

from .abgroup import GroupElt
from .cocycle import AbelianCocycle, AxiomCheck, CoherenceReport, validate_cocycle
from .errors import CocycleError, StructuralError
from .grouprep import (
    MATRIX_TOL,
    CentralEmbedding,
    FiniteGroup,
    GradedIrrep,
    MatrixRep,
    dual_rep,
    grade_of,
    hom_dim_table,
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

    Validates everything eagerly: the cocycle axioms (through the report the
    cocycle's builder kept, if it kept one), irreducibility and the
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
        validate: bool = True,
    ):
        if embedding.grading != cocycle.group:
            raise StructuralError("embedding and cocycle must share the grading group")
        embedding.validate(group)
        if validate:
            cocycle_report = cocycle.report or validate_cocycle(cocycle)  # a builder's, if kept
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
        # grade indices: the zero grade has index 0, sums go through the add
        # table and negatives through the column of 0 in each row
        self._index = dict(zip(self.grading.elements(), range(self.grading.order)))
        add = self.grading.add_index_table
        self._add: list[list[int]] = add.tolist()
        self._neg: list[int] = np.argmin(add, axis=1).tolist()
        # e^{2 pi i num/denom} by num mod denom, filled on first use; every
        # structure scalar reads it.  Read-only identity and flip matrices.
        self._units: dict[int, complex] = {}
        self._eyes: dict[int, np.ndarray] = {}
        self._flips: dict[tuple[int, int], np.ndarray] = {}

        catalog = []
        for label, rep in irreps.items():
            if rep.group is not group:
                raise StructuralError(f"irrep {label!r} lives on a different group")
            character = validate_irrep(rep)
            grade = grade_of(rep, embedding)
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

    def _grade_index(self, a: GroupElt) -> int:
        try:
            return self._index[a]
        except (KeyError, TypeError):  # not a reduced tuple: index() checks it
            return self.grading.index(a)

    def _word(self, obj) -> tuple[int, int]:
        """A catalog member or a tensor word of them as ``(grade index, dim)``."""
        if isinstance(obj, GradedIrrep):
            return self._grade_index(obj.grade), obj.dim
        grade, dim, add = 0, 1, self._add
        for m in obj:
            grade = add[grade][self._grade_index(m.grade)]
            dim *= m.dim
        return grade, dim

    def word_dim(self, obj) -> int:
        return self._word(obj)[1]

    def word_grade(self, obj) -> GroupElt:
        return self.grading.element_at(self._word(obj)[0])

    def word_labels(self, obj) -> tuple[str, ...]:
        return tuple(m.label for m in self._as_word(obj))

    # -- scalars and matrices by grade index --------------------------------------

    def _unit(self, num) -> complex:
        """``e^{2 pi i num / denom}`` for an integer exponent numerator."""
        num = int(num) % self.cocycle.denom
        value = self._units.get(num)
        if value is None:
            value = self._units[num] = UnitScalar.from_exponent(
                num, self.cocycle.denom
            ).to_complex()
        return value

    def _f_inv(self, a1: int, a2: int, a3: int) -> complex:
        return self._unit(-self.cocycle.f_num[a1, a2, a3])

    def _omega_inv(self, a1: int, a2: int) -> complex:
        return self._unit(-self.cocycle.omega_num[a1, a2])

    def _eye(self, d: int) -> np.ndarray:
        eye = self._eyes.get(d)
        if eye is None:
            eye = self._eyes[d] = np.eye(d)
            eye.setflags(write=False)
        return eye

    def _flip(self, d1: int, d2: int) -> np.ndarray:
        flip = self._flips.get((d1, d2))
        if flip is None:
            flip = self._flips[d1, d2] = flip_matrix(d1, d2)
            flip.setflags(write=False)
        return flip

    def _braid_matrix(self, a1: int, d1: int, a2: int, d2: int) -> np.ndarray:
        return self._omega_inv(a1, a2) * self._flip(d1, d2)

    def _double_braiding(self, a1: int, d1: int, a2: int, d2: int) -> np.ndarray:
        return self._braid_matrix(a2, d2, a1, d1) @ self._braid_matrix(a1, d1, a2, d2)

    def _cat_trace(self, a: int, f: np.ndarray) -> complex:
        neg = self._neg[a]
        theta = self._omega_inv(a, a)
        braid = self._omega_inv(a, neg)
        evaluation = self._f_inv(a, neg, a)
        # i_M is vec(I); ((theta f) (x) 1) vec(I) = vec(theta f); the braiding
        # transposes the matrix picture; evaluation contracts the diagonal.
        x = theta * f
        x = braid * x.T
        return complex(evaluation * np.trace(x))

    # -- structure morphisms ----------------------------------------------------

    def f_scalar(self, a1: GroupElt, a2: GroupElt, a3: GroupElt) -> UnitScalar:
        return self.cocycle.f(a1, a2, a3)

    def omega_scalar(self, a1: GroupElt, a2: GroupElt) -> UnitScalar:
        return self.cocycle.omega(a1, a2)

    def associator(self, m1, m2, m3) -> StructureMorphism:
        """``F(a1,a2,a3)^{-1}`` times the identity on the flattened triple space."""
        (a1, d1), (a2, d2), (a3, d3) = self._word(m1), self._word(m2), self._word(m3)
        return StructureMorphism(self._f_inv(a1, a2, a3) * self._eye(d1 * d2 * d3))

    def braiding(self, m1, m2) -> StructureMorphism:
        """``Omega(a1,a2)^{-1}`` times the flip onto the reversed word."""
        return StructureMorphism(self._braid_matrix(*self._word(m1), *self._word(m2)))

    def twist(self, m) -> UnitScalar:
        """The ribbon scalar ``Omega(a, a)^{-1}`` on a grade-a object."""
        a = self._word(m)[0]
        return UnitScalar.from_exponent(-int(self.cocycle.omega_num[a, a]), self.cocycle.denom)

    def evaluation(self, m) -> StructureMorphism:
        """Row vector on M* (x) M: ``(f', v) -> F(a,-a,a)^{-1} f'(v)``."""
        a, d = self._word(m)
        # entry at (j, i) is delta_ji
        return StructureMorphism(self._f_inv(a, self._neg[a], a) * self._eye(d).reshape(1, d * d))

    def coevaluation(self, m) -> StructureMorphism:
        """Column vector into M (x) M*: ``1 -> sum_i e_i (x) e_i'``."""
        d = self._word(m)[1]
        return StructureMorphism(np.eye(d).reshape(d * d, 1))

    # -- trace, dimension, S-matrix ---------------------------------------------

    def cat_trace(self, m, f: np.ndarray) -> complex:
        """Categorical trace: ``e_M . R_{M,M*} . ((theta f) (x) 1) . i_M``.

        The middle arrows act by reshaping instead of materializing the
        ``d^2 x d^2`` permutation matrix; the composite is the same linear map.
        """
        a, d = self._word(m)
        f = np.asarray(f, dtype=np.complex128)
        if f.shape != (d, d):
            raise StructuralError(f"endomorphism must be {d} x {d}, got {f.shape}")
        return self._cat_trace(a, f)

    def cat_dim(self, m) -> complex:
        return self.cat_trace(m, self._eye(self.word_dim(m)))

    def double_braiding(self, m1, m2) -> np.ndarray:
        """``R_{M2,M1} . R_{M1,M2}`` as a matrix on the flattened pair."""
        return self._double_braiding(*self._word(m1), *self._word(m2))

    def s_entry(self, m1, m2) -> complex:
        """Categorical trace of the double braiding on M1 (x) M2."""
        (a1, d1), (a2, d2) = self._word(m1), self._word(m2)
        return self._cat_trace(self._add[a1][a2], self._double_braiding(a1, d1, a2, d2))

    @cached_property
    def hom_dims(self) -> np.ndarray:
        """``N[a, b, c] = dim hom(Ma (x) Mb, Mc)`` over catalog positions,
        read-only, from one character-sum table."""
        return hom_dim_table(self.group, [m.character for m in self.catalog])

    # -- coherence suite -----------------------------------------------------------

    def coherence_suite(self, *, tol: float = MATRIX_TOL, seed: int = 0) -> CoherenceReport:
        """The coherence checks over all catalog tuples.

        Pentagon, triangle, both hexagons and balancing compose only
        associators and braidings, which are unit scalars times identities and
        flips, so each is checked as an exact identity between cocycle
        exponents at the catalog's grades; ``tol`` does not apply to them and
        a failure reports its deviation ``|e^{2 pi i delta} - 1|``.  The
        snakes, double-braiding and naturality are matrix equations checked
        within ``tol`` (naturality within at least ``1e-8``); twist-duality is
        exact.  ``checked`` counts catalog tuples."""
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
        witness, max_err = None, 0.0
        for m in self.catalog:
            a, d = self._word(m)
            neg, eye = self._neg[a], self._eye(d)
            ev = self._f_inv(a, neg, a) * eye.reshape(1, d * d)  # e_M on M* (x) M
            coev = eye.reshape(d * d, 1)  # i_M into M (x) M*
            # snake on M:  (1_M (x) e_M) A_{M,M*,M}^{-1} (i_M (x) 1_M) == 1_M
            mid_inv = self._unit(self.cocycle.f_num[a, neg, a])  # A^{-1} scalar
            snake_m = mid_inv * (_kron(eye, ev) @ _kron(coev, eye))
            err = float(np.abs(snake_m - eye).max())
            # snake on M*:  (e_M (x) 1_M*) A_{M*,M,M*} (1_M* (x) i_M) == 1_M*
            snake_dual = self._f_inv(neg, a, neg) * (_kron(ev, eye) @ _kron(eye, coev))
            err = max(err, float(np.abs(snake_dual - eye).max()))
            max_err = max(max_err, err)
            if err > tol and witness is None:
                witness = (m.label,)
        return AxiomCheck("snake", witness is None, len(self.catalog), witness, max_err)

    def _check_twist_dual(self) -> AxiomCheck:
        W, witness = self.cocycle.omega_num, None
        for m in self.catalog:
            # q(a) = Omega(a, a); numerators are reduced mod denom, so compare them
            a = self._word(m)[0]
            neg = self._neg[a]
            if W[a, a] != W[neg, neg] and witness is None:
                witness = (m.label,)
        unit_ok = self.twist(self.unit).is_one
        if not unit_ok and witness is None:
            witness = (self.unit.label,)
        return AxiomCheck(
            "twist-dual", witness is None, len(self.catalog), witness,
            detail="theta_{M*} = theta_M exactly, and theta of the unit is 1",
        )

    def _check_double_braiding(self, tol: float) -> AxiomCheck:
        """R_{N,M} R_{M,N} == e^{-2 pi i b(a,b)} I, the matrix ``s_entry`` traces."""
        W, witness, max_err = self.cocycle.omega_num, None, 0.0
        words = [self._word(m) for m in self.catalog]
        for (m, (a1, d1)), (n, (a2, d2)) in product(zip(self.catalog, words), repeat=2):
            scalar = self._unit(-(W[a1, a2] + W[a2, a1]))
            braided = self._double_braiding(a1, d1, a2, d2)
            err = float(np.abs(braided - scalar * self._eye(d1 * d2)).max())
            max_err = max(max_err, err)
            if err > tol and witness is None:
                witness = (m.label, n.label)
        return AxiomCheck(
            "double-braiding", witness is None, len(words) ** 2, witness, max_err
        )

    def _check_naturality(self, *, tol: float, seed: int) -> AxiomCheck:
        """Structure morphisms commute with sampled intertwiners."""
        rng = np.random.default_rng(seed)
        words = [self._word(m) for m in self.catalog]
        grades = np.array([a for a, _ in words], dtype=np.int64)
        # catalog triples (m1, m2, m3) in product order with a1 + a2 = a3 and
        # a nonzero hom(M1 (x) M2, M3)
        sums = self.grading.add_index_table[np.ix_(grades, grades)]
        triples = np.argwhere((sums[:, :, None] == grades) & (self.hom_dims > 0))
        checked, witness, max_err = 0, None, 0.0
        if len(triples):
            picks = rng.choice(len(triples), size=min(8, len(triples)), replace=False)
            for t in sorted(int(i) for i in picks):
                i, j, l = (int(x) for x in triples[t])
                m1, m2, m3 = self.catalog[i], self.catalog[j], self.catalog[l]
                basis = intertwiner_basis(
                    m1.rep, m2.rep, m3.rep, expected=int(self.hom_dims[i, j, l])
                )
                f = basis[0]  # m3.dim x (m1.dim * m2.dim)
                (a1, d1), (a2, d2), (a3, d3) = words[i], words[j], words[l]
                a12, d12 = self._add[a1][a2], d1 * d2
                for y, (ay, dy) in zip(self.catalog, words):
                    checked += 1
                    eye_y = self._eye(dy)
                    # braiding naturality in the first slot:
                    # R_{M3,Y} (f (x) 1_Y) == (1_Y (x) f) R_{M1M2,Y}
                    lhs = self._braid_matrix(a3, d3, ay, dy) @ _kron(f, eye_y)
                    rhs = _kron(eye_y, f) @ self._braid_matrix(a12, d12, ay, dy)
                    err = float(np.abs(lhs - rhs).max())
                    # associator naturality in the first slot
                    f_yy = _kron(f, self._eye(dy * dy))
                    lhs2 = (self._f_inv(a3, ay, ay) * self._eye(d3 * dy * dy)) @ f_yy
                    rhs2 = f_yy @ (self._f_inv(a12, ay, ay) * self._eye(d12 * dy * dy))
                    err = max(err, float(np.abs(lhs2 - rhs2).max()))
                    max_err = max(max_err, err)
                    if err > tol and witness is None:
                        witness = (m1.label, m2.label, m3.label, y.label)
        return AxiomCheck(
            "naturality(spot-checks)", witness is None, checked, witness, max_err,
            detail=f"seed={seed}",
        )
