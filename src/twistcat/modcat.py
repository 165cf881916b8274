"""The braided ribbon category of graded representations twisted by a cocycle.

Tensor words are flattened to a single row-major index space, so rebracketing
is the identity and associators are pure scalars times the identity matrix.
Every structure map is fixed by its words' grades and dimensions alone, so a
word reduces to ``(grade index, dim)``: grade indices are summed through the
grading group's ``add_index_table`` and dims multiply as plain integers.
Each structure map is a unit scalar, read from ``f_num``/``omega_num`` by
grade index, times a 0/1 integer layout fixed by the dims:

    associator   F(a1, a2, a3)^{-1} * I
    braiding     Omega(a1, a2)^{-1} * flip
    evaluation   F(a, -a, a)^{-1} * vec(I)^T      (on M* (x) M)
    coevaluation vec(I)                           (into M (x) M*)
    twist        Omega(a, a)^{-1}

The public maps return the scalar's ``UnitScalar.to_complex()`` times the
layout.  Each layout (identity, flip, ``vec(I)``) has one builder, cached
read-only per category, which the coherence suite reads too.

A category records its catalog once, at construction: each member's word,
and the distinct grades and words in order of first appearance with the
labels of their first members.  Every coherence identity depends on a
catalog tuple only through those keys, so the suite evaluates each identity
once per tuple of distinct keys and one driver, ``_verdict``, reads the
array of results back as a verdict over catalog tuples: ``checked`` counts
catalog tuples and the witness is the first failing tuple in ``product``
order.  Each identity splits into two exact parts: the unit scalars on both
sides, a residue of cocycle exponents mod the denominator at the catalog's
grades, and the layouts, an identity between integer matrices.  Pentagon,
triangle, both hexagons, balancing and twist-duality have no layout part;
pentagon, triangle and hexagons are the cocycle axioms there, and the
triangle is read from the normalization slice.  A category exists only over
a cocycle whose report passes, and axioms proved on all of ``A`` hold at
the grades, so its pentagon and hexagons pass without reading a residue.
The snakes, the double braiding (whose categorical trace is an S entry) and
naturality against maps of sampled triples each have a layout part,
evaluated once per word dim, pair of word dims, or ``(d3, d1 d2, dy)``.
Naturality samples catalog triples ``(M1, M2, M3)`` with ``a1 + a2 = a3``,
so both sides of each identity carry one unit scalar and every map
``M1 (x) M2 -> M3`` is natural: its layouts are checked on one seeded
integer map per ``(d3, d1 d2)`` with distinct entries, held as float64 for
a BLAS kernel: each layout is a permutation matrix, so every product entry
is one entry of the map, exactly.  Every error is an exact integer or the
deviation of a nonzero residue, so no check reads a rounded float.
Nothing here takes a categorical trace: the S table and the categorical
dimensions are read exactly from the cocycle by ``fusionring.s_table`` and
``fusionring.dim_exponents``.

The multiplicities ``dim hom(Ma (x) Mb, Mc)`` of all catalog triples come
from one character-sum table, which fusion tables and the naturality spot
checks share; the spot checks cross-check each sampled triple's
multiplicity against the trace of its averaging projector.
"""

from __future__ import annotations

from functools import cached_property, partial
from itertools import product

import numpy as np

from .abgroup import GroupElt
from .cocycle import AbelianCocycle, AxiomCheck, CoherenceReport
from .errors import CocycleError, ConsistencyError, RepresentationError, StructuralError
from .grouprep import (
    INTEGER_TOL,
    CentralEmbedding,
    FiniteGroup,
    GradedIrrep,
    MatrixRep,
    grade_of,
    hom_dim_table,
    validate_irrep,
)
from .unitscalar import UnitScalar


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.kron`` of two matrices, without its n-dimensional set-up."""
    out = a[:, None, :, None] * b[None, :, None, :]
    return out.reshape(a.shape[0] * b.shape[0], a.shape[1] * b.shape[1])


def _deviation(lhs: np.ndarray, rhs: np.ndarray) -> int:
    """The largest entry of ``|lhs - rhs|`` for two integer matrices."""
    return int(np.abs(lhs - rhs).max(initial=0))


def flip_matrix(d1: int, d2: int) -> np.ndarray:
    """0/1 integer permutation matrix sending coordinate (i, j) of V1 (x) V2
    to (j, i)."""
    cols = np.arange(d1 * d2)
    rows = (cols % d2) * d1 + cols // d2
    out = np.zeros((d1 * d2, d1 * d2), dtype=np.int64)
    out[rows, cols] = 1
    return out


def _identity(d: int) -> np.ndarray:
    return np.eye(d, dtype=np.int64)


def _vec_identity(d: int) -> np.ndarray:
    """``vec(I)`` as a row, entry ``(j, i)`` equal to ``delta_ji``: the
    evaluation's layout; its transpose is the coevaluation's."""
    return _identity(d).reshape(1, d * d)


class TwistedCategory:
    """A finite group with a complete graded irrep catalog and a cocycle.

    Validates everything eagerly: the cocycle axioms (through the cocycle's
    ``report``, computed once per cocycle), centrality of the grading
    embedding, that every catalog member lives on ``group`` and has finite
    matrices, irreducibility and the homomorphism property of every member
    (one ``validate_irrep`` call over the catalog), the grades (one
    ``grade_of`` call), and (for complete catalogs) the sum-of-squares
    identity ``sum dim^2 = |G|``.  The checks run in that order, each over
    the whole catalog (the group and finiteness checks in one pass), and a
    failing check names its first failing member in catalog order.
    """

    def __init__(
        self,
        group: FiniteGroup,
        cocycle: AbelianCocycle,
        embedding: CentralEmbedding,
        irreps: dict[str, MatrixRep],
        *,
        complete: bool = True,
    ):
        if embedding.grading != cocycle.group:
            raise StructuralError("embedding and cocycle must share the grading group")
        embedding.validate(group)
        if not cocycle.report.passed:
            first = cocycle.report.failures()[0]
            raise CocycleError(
                f"cocycle violates the {first.axiom} axiom at {first.witness}",
                report=cocycle.report,
            )
        self.group = group
        self.cocycle = cocycle
        self.embedding = embedding
        self.grading = cocycle.group
        # grade indices: the zero grade has index 0 and sums go through the add table
        self._index = dict(zip(self.grading.elements(), range(self.grading.order)))
        self._add: list[list[int]] = self.grading.add_index_table.tolist()
        # read-only 0/1 layouts by builder and dims, built on first use
        self._layouts: dict[tuple, np.ndarray] = {}

        for label, rep in irreps.items():
            if rep.group is not group:
                raise StructuralError(f"irrep {label!r} lives on a different group")
            if not np.isfinite(rep.matrices).all():  # e.g. generated products that overflow
                raise RepresentationError(f"irrep {label!r} has non-finite matrix entries")
        reps = list(irreps.values())
        characters = validate_irrep(reps)
        grades = grade_of(reps, embedding)
        self.catalog: tuple[GradedIrrep, ...] = tuple(
            map(GradedIrrep, irreps, reps, grades, characters)
        )
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

    # -- scalars and layouts by grade index and dims ------------------------------

    def _scalar(self, num) -> UnitScalar:
        """``e^{2 pi i num / denom}`` for an integer exponent numerator."""
        return UnitScalar.from_exponent(int(num), self.cocycle.denom)

    def _ev_exponent(self, a):
        """``F(a, -a, a)``, whose inverse scales the evaluation, at a grade
        index or an array of them."""
        return self.cocycle.f_num[a, self.grading.neg_index_table[a], a]

    def _layout(self, build, *dims: int) -> np.ndarray:
        """``build(*dims)``, built once per category and read-only."""
        layout = self._layouts.get((build, *dims))
        if layout is None:
            layout = self._layouts[build, *dims] = build(*dims)
            layout.setflags(write=False)
        return layout

    def _eye(self, d: int) -> np.ndarray:
        return self._layout(_identity, d)

    def _flip(self, d1: int, d2: int) -> np.ndarray:
        return self._layout(flip_matrix, d1, d2)

    def _pairing(self, d: int) -> np.ndarray:
        return self._layout(_vec_identity, d)

    # -- structure morphisms ----------------------------------------------------

    def associator(self, m1, m2, m3) -> np.ndarray:
        """``F(a1,a2,a3)^{-1}`` times the identity on the flattened triple space."""
        (a1, d1), (a2, d2), (a3, d3) = self._word(m1), self._word(m2), self._word(m3)
        return self._scalar(-self.cocycle.f_num[a1, a2, a3]).to_complex() * self._eye(d1 * d2 * d3)

    def braiding(self, m1, m2) -> np.ndarray:
        """``Omega(a1,a2)^{-1}`` times the flip onto the reversed word."""
        (a1, d1), (a2, d2) = self._word(m1), self._word(m2)
        return self._scalar(-self.cocycle.omega_num[a1, a2]).to_complex() * self._flip(d1, d2)

    def twist(self, m) -> UnitScalar:
        """The ribbon scalar ``Omega(a, a)^{-1}`` on a grade-a object."""
        a = self._word(m)[0]
        return self._scalar(-self.cocycle.omega_num[a, a])

    def evaluation(self, m) -> np.ndarray:
        """Row vector on M* (x) M: ``(f', v) -> F(a,-a,a)^{-1} f'(v)``."""
        a, d = self._word(m)
        return self._scalar(-self._ev_exponent(a)).to_complex() * self._pairing(d)

    def coevaluation(self, m) -> np.ndarray:
        """Column vector into M (x) M*: ``1 -> sum_i e_i (x) e_i'``, as a real
        float array: its scalar is 1."""
        d = self._word(m)[1]
        return self._pairing(d).T.astype(np.float64)

    # -- multiplicities ---------------------------------------------------------

    @cached_property
    def hom_dims(self) -> np.ndarray:
        """``N[a, b, c] = dim hom(Ma (x) Mb, Mc)`` over catalog positions,
        read-only, from one character-sum table."""
        return hom_dim_table(self.group, [m.character for m in self.catalog])

    # -- coherence suite -----------------------------------------------------------

    def coherence_suite(self, *, seed: int = 0) -> CoherenceReport:
        """The coherence checks over all catalog tuples, each evaluated once
        per tuple of distinct catalog grades or words, or per dimension
        signature, and reported by ``_verdict``.

        Every structure map is a unit scalar times a 0/1 layout, so each
        identity splits into exact parts: a residue of cocycle exponents mod
        the denominator at the catalog's grades, and an identity between
        integer layouts.  Pentagon, triangle, both hexagons, balancing and
        twist duality have no layout part; the triangle reads ``F(a, 0, b)``,
        and pentagon and hexagons pass from the cocycle report that
        construction required to pass, without reading a residue.  The snake
        on ``M*`` has the residue ``F(a,-a,a) + F(-a,a,-a)`` (on ``M`` the
        scalars cancel), the double braiding ``Omega(a,b) + Omega(b,a) -
        b(a,b)``, and naturality none.  Their layouts are checked once per
        word dim, pair of word dims, and sampled triples' ``(d3, d1 d2)``
        with word dim.  A residue fails where nonzero, reporting
        ``|e^{2 pi i r} - 1|``, and a layout where its integer error is
        nonzero, reporting the largest error.  ``checked`` counts catalog
        tuples."""
        c, neg = self.cocycle, self.grading.neg_index_table
        g = np.array(list(self._grade_labels), dtype=np.intp)
        grade_labels = list(self._grade_labels.values())
        words, word_labels = list(self._word_labels), list(self._word_labels.values())
        ix2 = np.ix_(g, g)
        # theta_{ab} == R_{b,a} R_{a,b} (theta_a (x) theta_b), theta_a = Omega(a,a)^-1
        q, ab = c.omega_num.diagonal(), self.grading.add_index_table[ix2]
        balancing = (c.b_num[ix2] + q[g][:, None] + q[g] - q[ab]) % c.denom
        # theta_{M*} == theta_M at each grade; the unit's cell is q(0), theta_1 == 1
        twist_dual = [(q[g] - q[neg[g]]) % c.denom, q[:1]]
        # the distinct words' grade indices, and each one's dim among the distinct dims
        a = np.array([w for w, _ in words], dtype=np.intp)
        dims = list(dict.fromkeys(d for _, d in words))
        at = np.array([dims.index(d) for _, d in words], dtype=np.intp)
        # snake on M*: F(a,-a,a)^-1 from e_M, F(-a,a,-a)^-1 from A_{M*,M,M*}
        snake = (self._ev_exponent(a) + self._ev_exponent(neg[a])) % c.denom
        snake_layout = np.array([self._snake_layout(d) for d in dims], dtype=np.int64)
        # R_{N,M} R_{M,N} == e^{-2 pi i b(a,b)} I, whose categorical trace is an S entry
        w = c.omega_num[np.ix_(a, a)]
        double = (w + w.T - c.b_num[np.ix_(a, a)]) % c.denom
        double_layout = np.array(
            [self._double_layout(d1, d2) for d1, d2 in product(dims, repeat=2)], dtype=np.int64
        ).reshape(len(dims), len(dims))
        exact = partial(self._verdict, labels=grade_labels)
        by_word = partial(self._verdict, labels=word_labels)
        rows, naturality = self._naturality_layouts(seed)
        checks = [
            # residues that vanish on all of A vanish at the catalog's grades
            exact("pentagon(matrices)", 4, []),
            exact("triangle", 2, [c.f_num[:, 0, :][ix2]]),
            exact("hexagon-1(matrices)", 3, []),
            exact("hexagon-2(matrices)", 3, []),
            by_word("snake", 1, [snake], layout=snake_layout[at]),
            # the detail is part of verify reports, which stay byte-identical
            exact("balancing", 2, [balancing], detail="checked as matrices and as exact exponents"),
            self._verdict(
                "twist-dual", 1, twist_dual, [*grade_labels, self.unit.label],
                detail="theta_{M*} = theta_M exactly, and theta of the unit is 1",
            ),
            by_word("double-braiding", 2, [double], layout=double_layout[np.ix_(at, at)]),
            by_word(
                "naturality(spot-checks)", 2, [], layout=naturality, rows=rows,
                detail=f"seed={seed}",
            ),
        ]
        return CoherenceReport(tuple(checks))

    def _verdict(
        self, axiom: str, arity: int, residues, labels: list[str], *,
        layout: np.ndarray | None = None, rows: list[tuple] | None = None, detail: str = "",
    ) -> AxiomCheck:
        """An identity over the catalog tuples of ``arity`` from its values
        over tuples of distinct keys (grades or words).

        ``residues`` stacked along their first axis make one array of
        exponent residues mod the cocycle denominator, with an axis per
        slot; ``layout``, when given, is an array of integer layout errors
        over the same cells.  Along each axis the keys come in order of
        first appearance and ``labels`` names the first catalog member of
        each, except that the first axis runs over ``rows``, label tuples of
        sampled catalog tuples, when they are given.  So the first failing
        cell in C order names the first failing catalog tuple in ``product``
        order.  A cell fails where its residue or its layout error is
        nonzero; the error reported is the largest layout error or
        ``|e(r) - 1|`` of a nonzero residue ``r``.  ``checked`` counts
        catalog tuples."""
        bad, worst = np.zeros((), dtype=bool), 0.0
        if layout is not None:
            bad, worst = layout != 0, float(layout.max(initial=0))
        if residues:
            r = np.concatenate(residues)
            bad = bad | (r != 0)
            denom = self.cocycle.denom
            for d in np.unique(r[r != 0]).tolist():
                worst = max(worst, abs(UnitScalar.from_exponent(d, denom).to_complex() - 1))
        witness = None
        if bad.any():
            i, *rest = np.unravel_index(np.argmax(bad), bad.shape)
            head = (labels[i],) if rows is None else rows[i]
            witness = (*head, *(labels[j] for j in rest))
        k = len(self.catalog)
        checked = (k if rows is None else len(rows)) * k ** (arity - 1)
        return AxiomCheck(axiom, witness is None, checked, witness, worst, detail=detail)

    def _snake_layout(self, d: int) -> int:
        """Layout error of both snakes on a word of dim ``d``:
        ``(1_M (x) e_M)(i_M (x) 1_M)`` and ``(e_M (x) 1_M*)(1_M* (x) i_M)``
        against the identity."""
        eye, ev = self._eye(d), self._pairing(d)
        coev = ev.T
        return max(
            _deviation(_kron(eye, ev) @ _kron(coev, eye), eye),
            _deviation(_kron(ev, eye) @ _kron(eye, coev), eye),
        )

    def _double_layout(self, d1: int, d2: int) -> int:
        """Layout error of ``flip(d2, d1) flip(d1, d2)`` against the identity."""
        return _deviation(self._flip(d2, d1) @ self._flip(d1, d2), self._eye(d1 * d2))

    def _naturality_layouts(self, seed: int) -> tuple[list, np.ndarray]:
        """Structure morphisms against a map ``f`` of up to 8 seeded catalog
        triples ``(m1, m2, m3)``: the triples' labels, and per triple the
        layout error at each distinct word as the object ``Y``.

        Each sampled ``N^{m3}_{m1 m2}`` must be the rank of its triple's
        group-averaging projector, its trace
        ``(1/|G|) sum_g tr rho3(g) tr rho1(g^-1) tr rho2(g^-1)``, read from
        every element's matrices; otherwise ``ConsistencyError``.  Since
        ``a3 = a1 + a2``, both sides of each identity carry the same unit
        scalar and any ``d3 x d1 d2`` map is natural, so after the triples
        one seeded integer ``f``, a permutation of ``1..d3 d1 d2`` held as
        float64, is drawn per distinct ``(d3, d1 d2)``, in order of first
        appearance, and the layouts are compared once per ``(d3, d1 d2, dy)``."""
        rng = np.random.default_rng(seed)
        grades = np.array([g for g, _ in self.words], dtype=np.int64)
        # catalog triples (m1, m2, m3) in product order with a1 + a2 = a3 and
        # a nonzero hom(M1 (x) M2, M3)
        sums = self.grading.add_index_table[np.ix_(grades, grades)]
        triples = np.argwhere((sums[:, :, None] == grades) & (self.hom_dims > 0))
        picks = rng.choice(len(triples), size=min(8, len(triples)), replace=False)
        chosen = triples[sorted(picks.tolist())].tolist()
        traces = {x: np.trace(self.catalog[x].rep.matrices, axis1=1, axis2=2)
                  for x in {x for t in chosen for x in t}}
        inv = self.group.inverse
        for i, j, l in chosen:
            rank = (traces[l] * traces[i][inv] * traces[j][inv]).sum() / self.group.order
            n = int(self.hom_dims[i, j, l])
            if not abs(rank - n) <= INTEGER_TOL:
                raise ConsistencyError(
                    f"projector rank {round(rank.real)} does not match character dimension {n}"
                )
        members = [[self.catalog[x] for x in t] for t in chosen]
        shapes = [(m3.dim, m1.dim * m2.dim) for m1, m2, m3 in members]
        maps = {s: rng.permutation(s[0] * s[1]).reshape(s) + 1.0 for s in dict.fromkeys(shapes)}
        dims = [d for _, d in self._word_labels]
        errs = {}
        for ((d3, d12), f), dy in product(maps.items(), dict.fromkeys(dims)):
            eye_y, f_yy = self._eye(dy), _kron(f, self._eye(dy * dy))
            # braiding naturality in the first slot, R_{M3,Y} (f (x) 1_Y) ==
            # (1_Y (x) f) R_{M1M2,Y}, without the Omega(a3, ay)^-1 of both sides
            lhs, rhs = self._flip(d3, dy) @ _kron(f, eye_y), _kron(eye_y, f) @ self._flip(d12, dy)
            # associator naturality in the first slot, without F(a3, ay, ay)^-1
            lhs2, rhs2 = self._eye(d3 * dy * dy) @ f_yy, f_yy @ self._eye(d12 * dy * dy)
            errs[d3, d12, dy] = max(_deviation(lhs, rhs), _deviation(lhs2, rhs2))
        cells = [[errs[(*shape, dy)] for dy in dims] for shape in shapes]
        rows = [tuple(m.label for m in t) for t in members]
        return rows, np.array(cells, dtype=np.int64).reshape(len(rows), len(dims))
