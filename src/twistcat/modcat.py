"""The braided ribbon category of graded representations twisted by a cocycle.

Tensor words are flattened to a single row-major index space, so rebracketing
is the identity and associators are pure scalars times the identity matrix.
Every structure map is fixed by its words' grades and dimensions alone, so a
word reduces to ``(grade index, dim)``: grade indices are summed through the
grading group's ``add_index_table`` and dims multiply as plain integers.
Structure maps, returned as plain matrices:

    associator   F(a1, a2, a3)^{-1} * I
    braiding     Omega(a1, a2)^{-1} * flip
    evaluation   F(a, -a, a)^{-1} * <., .>        (on M* (x) M)
    coevaluation sum_i e_i (x) e_i'               (into M (x) M*)
    twist        Omega(a, a)^{-1}

A category records its catalog once, at construction: each member's word,
and the distinct grades and words in order of first appearance with the
labels of their first members.  Every coherence identity depends on a
catalog tuple only through those keys, so the suite evaluates each identity
once per tuple of distinct keys and one driver, ``_verdict``, reads the
array of results back as a verdict over catalog tuples: ``checked`` counts
catalog tuples and the witness is the first failing tuple in ``product``
order.  Associators and braidings are unit scalars times identities and
flips, so pentagon, triangle, both hexagons, balancing and twist-duality are
exact identities between cocycle exponents, residues mod the cocycle
denominator at the catalog's grades; pentagon, triangle and hexagons are the
cocycle axioms there, read from ``cocycle``'s kernels and its normalization
slice.  The snake identities, the double braiding (whose ``cat_trace`` is
an S entry) and naturality against sampled intertwiners stay matrix
equations checked within a tolerance, per distinct word (per word pair for
the double braiding, per sampled triple and word for naturality); the S
table is read exactly from the cocycle by ``fusionring.s_table``, not traced.

Scalars are read from ``f_num``/``omega_num`` by grade index and turned into
complex numbers through one memo per category, keyed by the exponent
numerator mod the cocycle denominator and filled by ``UnitScalar.to_complex``.
Identity and flip matrices are cached per category, read-only.  The
multiplicities ``dim hom(Ma (x) Mb, Mc)`` of all catalog triples come from one
character-sum table, which fusion tables and the naturality spot checks share.
"""

from __future__ import annotations

from functools import cached_property, partial
from itertools import product

import numpy as np

from .abgroup import GroupElt
from .cocycle import AbelianCocycle, AxiomCheck, CoherenceReport, validate_cocycle
from .cocycle import hexagon_residues, pentagon_slabs
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
        # each member's (grade index, dim) word; the distinct grades and
        # words in order of first appearance, each with its first member's label
        self.words: tuple[tuple[int, int], ...] = tuple(self._word(m) for m in self.catalog)
        self._grade_labels: dict[int, str] = {}
        self._word_labels: dict[tuple[int, int], str] = {}
        for m, word in zip(self.catalog, self.words):
            self._grade_labels.setdefault(word[0], m.label)
            self._word_labels.setdefault(word, m.label)
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

    def associator(self, m1, m2, m3) -> np.ndarray:
        """``F(a1,a2,a3)^{-1}`` times the identity on the flattened triple space."""
        (a1, d1), (a2, d2), (a3, d3) = self._word(m1), self._word(m2), self._word(m3)
        return self._f_inv(a1, a2, a3) * self._eye(d1 * d2 * d3)

    def braiding(self, m1, m2) -> np.ndarray:
        """``Omega(a1,a2)^{-1}`` times the flip onto the reversed word."""
        return self._braid_matrix(*self._word(m1), *self._word(m2))

    def twist(self, m) -> UnitScalar:
        """The ribbon scalar ``Omega(a, a)^{-1}`` on a grade-a object."""
        a = self._word(m)[0]
        return UnitScalar.from_exponent(-int(self.cocycle.omega_num[a, a]), self.cocycle.denom)

    def evaluation(self, m) -> np.ndarray:
        """Row vector on M* (x) M: ``(f', v) -> F(a,-a,a)^{-1} f'(v)``."""
        a, d = self._word(m)
        # entry at (j, i) is delta_ji
        return self._f_inv(a, self._neg[a], a) * self._eye(d).reshape(1, d * d)

    def coevaluation(self, m) -> np.ndarray:
        """Column vector into M (x) M*: ``1 -> sum_i e_i (x) e_i'``."""
        d = self._word(m)[1]
        return np.eye(d).reshape(d * d, 1)

    # -- trace and dimension -----------------------------------------------------

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

    @cached_property
    def hom_dims(self) -> np.ndarray:
        """``N[a, b, c] = dim hom(Ma (x) Mb, Mc)`` over catalog positions,
        read-only, from one character-sum table."""
        return hom_dim_table(self.group, [m.character for m in self.catalog])

    # -- coherence suite -----------------------------------------------------------

    def coherence_suite(self, *, tol: float = MATRIX_TOL, seed: int = 0) -> CoherenceReport:
        """The coherence checks over all catalog tuples, each evaluated once
        per tuple of distinct catalog grades or words and reported by
        ``_verdict``.

        Pentagon, triangle, both hexagons and balancing compose only
        associators and braidings, which are unit scalars times identities and
        flips, so each is checked as an exact identity between cocycle
        exponents at the catalog's grades: pentagon and hexagons read the
        cocycle's own residues, the triangle reads ``F(a, 0, b)``.  Twist
        duality is exact as well.  ``tol`` does not apply to them and a failure
        reports its deviation ``|e^{2 pi i delta} - 1|``.  The snakes,
        double-braiding and naturality are matrix equations that fail where
        ``not error <= tol`` (naturality within at least ``1e-8``), so a NaN
        error or tolerance fails them.  ``checked`` counts catalog tuples."""
        c = self.cocycle
        g = np.array(list(self._grade_labels), dtype=np.intp)
        grade_labels = list(self._grade_labels.values())
        words, word_labels = list(self._word_labels), list(self._word_labels.values())
        ix2, ix3 = np.ix_(g, g), np.ix_(g, g, g)
        # theta_{ab} == R_{b,a} R_{a,b} (theta_a (x) theta_b), theta_a = Omega(a,a)^-1
        q, ab = c.omega_num.diagonal(), self.grading.add_index_table[ix2]
        balancing = (c.b_num[ix2] + q[g][:, None] + q[g] - q[ab]) % c.denom
        # theta_{M*} == theta_M at each grade; the unit's cell is q(0), theta_1 == 1
        twist_dual = [(q[g] - q[np.asarray(self._neg, dtype=np.intp)[g]]) % c.denom, q[:1]]
        # the suite's hexagon-1 (A_{y,z,x}^-1 R_{x,yz} A_{x,y,z}^-1 == ...) is the
        # cocycle's hexagon-2 at (a1, a2, a3) = (x, y, z), and the other way round
        hexagon2, hexagon1 = hexagon_residues(c)
        exact = partial(self._verdict, labels=grade_labels)
        matrix = partial(self._verdict, labels=word_labels, tol=tol)
        rows, naturality = self._naturality_errors(words, seed)
        checks = [
            exact("pentagon(matrices)", 4, (d[ix3][None] for d in pentagon_slabs(c, g))),
            exact("triangle", 2, [c.f_num[:, 0, :][ix2]]),
            exact("hexagon-1(matrices)", 3, [hexagon1[ix3]]),
            exact("hexagon-2(matrices)", 3, [hexagon2[ix3]]),
            matrix("snake", 1, [np.array([self._snake_error(*w) for w in words])]),
            # the detail is part of verify reports, which stay byte-identical
            exact("balancing", 2, [balancing], detail="checked as matrices and as exact exponents"),
            self._verdict(
                "twist-dual", 1, twist_dual, [*grade_labels, self.unit.label],
                detail="theta_{M*} = theta_M exactly, and theta of the unit is 1",
            ),
            matrix("double-braiding", 2, [self._double_braiding_errors(words)]),
            matrix(
                "naturality(spot-checks)", 2, [naturality], tol=max(tol, 1e-8), rows=rows,
                detail=f"seed={seed}",
            ),
        ]
        return CoherenceReport(tuple(checks))

    def _verdict(
        self, axiom: str, arity: int, arrays, labels: list[str], *,
        tol: float | None = None, rows: list[tuple] | None = None, detail: str = "",
    ) -> AxiomCheck:
        """An identity over the catalog tuples of ``arity`` from its values
        over tuples of distinct keys (grades or words).

        ``arrays`` stacked along their first axis make one array with an axis
        per slot.  Along each axis the keys come in order of first appearance
        and ``labels`` names the first catalog member of each, except that the
        first axis runs over ``rows``, label tuples of sampled catalog tuples,
        when they are given.  So the first failing cell in C order names the
        first failing catalog tuple in ``product`` order.  With ``tol`` None a
        cell is a residue mod the cocycle denominator, failing where nonzero
        with error ``|e(r) - 1|``; otherwise it is a matrix error, failing
        where ``not err <= tol``.  ``checked`` counts catalog tuples."""
        witness, worst, defects, offset = None, 0.0, set(), 0
        for r in arrays:
            bad = r != 0 if tol is None else ~(r <= tol)
            if bad.any():
                if witness is None:
                    i, *rest = np.unravel_index(np.argmax(bad), r.shape)
                    head = (labels[offset + i],) if rows is None else rows[offset + i]
                    witness = (*head, *(labels[j] for j in rest))
                if tol is None:
                    defects.update(np.unique(r[bad]).tolist())
            if tol is not None and r.size:
                worst = float(np.maximum(worst, r.max()))
            offset += len(r)
        if defects:
            denom = self.cocycle.denom
            worst = max(abs(UnitScalar.from_exponent(d, denom).to_complex() - 1) for d in defects)
        k = len(self.catalog)
        checked = (k if rows is None else len(rows)) * k ** (arity - 1)
        return AxiomCheck(axiom, witness is None, checked, witness, worst, detail=detail)

    def _snake_error(self, a: int, d: int) -> float:
        """Deviation of both snake composites from the identity at signature ``(a, d)``."""
        neg, eye = self._neg[a], self._eye(d)
        ev = self._f_inv(a, neg, a) * eye.reshape(1, d * d)  # e_M on M* (x) M
        coev = eye.reshape(d * d, 1)  # i_M into M (x) M*
        # snake on M:  (1_M (x) e_M) A_{M,M*,M}^{-1} (i_M (x) 1_M) == 1_M
        mid_inv = self._unit(self.cocycle.f_num[a, neg, a])  # A^{-1} scalar
        snake_m = mid_inv * (_kron(eye, ev) @ _kron(coev, eye))
        err = float(np.abs(snake_m - eye).max())
        # snake on M*:  (e_M (x) 1_M*) A_{M*,M,M*} (1_M* (x) i_M) == 1_M*
        snake_dual = self._f_inv(neg, a, neg) * (_kron(ev, eye) @ _kron(eye, coev))
        return max(err, float(np.abs(snake_dual - eye).max()))

    def _double_braiding_errors(self, words: list[tuple[int, int]]) -> np.ndarray:
        """R_{N,M} R_{M,N} == e^{-2 pi i b(a,b)} I, whose ``cat_trace`` is an
        S entry, over pairs of ``words``."""
        b = self.cocycle.b_num
        errs = np.zeros((len(words), len(words)))
        for (i, (a1, d1)), (j, (a2, d2)) in product(enumerate(words), repeat=2):
            braided = self._double_braiding(a1, d1, a2, d2)
            errs[i, j] = np.abs(braided - self._unit(-b[a1, a2]) * self._eye(d1 * d2)).max()
        return errs

    def _naturality_errors(
        self, words: list[tuple[int, int]], seed: int
    ) -> tuple[list, np.ndarray]:
        """Structure morphisms against intertwiners of up to 8 seeded catalog
        triples: the triples' labels, and per triple the error at each of
        ``words`` as the object ``Y``."""
        rng = np.random.default_rng(seed)
        grades = np.array([a for a, _ in self.words], dtype=np.int64)
        # catalog triples (m1, m2, m3) in product order with a1 + a2 = a3 and
        # a nonzero hom(M1 (x) M2, M3)
        sums = self.grading.add_index_table[np.ix_(grades, grades)]
        triples = np.argwhere((sums[:, :, None] == grades) & (self.hom_dims > 0))
        picks = rng.choice(len(triples), size=min(8, len(triples)), replace=False)
        rows, errs = [], np.zeros((len(picks), len(words)))
        for row, t in enumerate(sorted(int(i) for i in picks)):
            i, j, l = (int(x) for x in triples[t])
            m1, m2, m3 = self.catalog[i], self.catalog[j], self.catalog[l]
            rows.append((m1.label, m2.label, m3.label))
            basis = intertwiner_basis(m1.rep, m2.rep, m3.rep, expected=int(self.hom_dims[i, j, l]))
            f = basis[0]  # m3.dim x (m1.dim * m2.dim)
            (a1, d1), (a2, d2), (a3, d3) = self.words[i], self.words[j], self.words[l]
            a12, d12 = self._add[a1][a2], d1 * d2
            for col, (ay, dy) in enumerate(words):
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
                errs[row, col] = max(err, float(np.abs(lhs2 - rhs2).max()))
        return rows, errs
