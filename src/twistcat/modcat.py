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
cocycle axioms there, and the triangle is read from the normalization slice.
A category exists only over a cocycle whose report passes, and axioms
proved on all of ``A`` hold at the grades, so its pentagon and hexagons
pass without reading a residue.
The snake identities, the double braiding (whose categorical trace is an S
entry) and naturality against maps of sampled triples stay matrix equations
checked within a tolerance.  Nothing here takes a categorical trace: the S
table and the categorical dimensions are read exactly from the cocycle by
``fusionring.s_table`` and ``fusionring.dim_exponents``.

The matrix checks are evaluated once per dimension signature: the snakes as
one stack per word dim and the double braiding as one per pair of word
dims.  The suite sorts the distinct words by dim, so each dim's words are
one slice of a stack, and reads each stack's unit scalars from tables
filled once per suite at the catalog's grades.  A stack item multiplies,
``_kron``-s and ``matmul``-s the same operands in the same layout as a loop
over words and pairs would, and numpy runs every item of a stacked
``matmul`` through the kernel it runs on the matrix alone, so every error,
and with it every report, is bit for bit the one those loops give.
Naturality samples catalog triples ``(M1, M2, M3)`` with ``a1 + a2 = a3``,
so both sides of each identity carry one unit scalar and every map
``M1 (x) M2 -> M3`` is natural: it is evaluated once per ``(d3, d1 d2)`` of
the sample and word dim ``dy``, on one seeded map per ``(d3, d1 d2)``, with
the scalar dropped.

Scalars are read from ``f_num``/``omega_num`` by grade index and turned into
complex numbers through one memo per category, keyed by the exponent
numerator mod the cocycle denominator and filled by
``unitscalar.root_of_unity``; an array of numerators reads an array of
scalars through it.  Identity and flip matrices are cached per category,
read-only.  The multiplicities ``dim hom(Ma (x) Mb, Mc)`` of all catalog
triples come from one character-sum table, which fusion tables and the
naturality spot checks share; the spot checks cross-check each sampled
triple's multiplicity against the trace of its averaging projector.
"""

from __future__ import annotations

from functools import cached_property, partial
from itertools import groupby, product

import numpy as np

from .abgroup import GroupElt
from .cocycle import AbelianCocycle, AxiomCheck, CoherenceReport
from .errors import CocycleError, ConsistencyError, RepresentationError, StructuralError
from .grouprep import (
    INTEGER_TOL,
    MATRIX_TOL,
    CentralEmbedding,
    FiniteGroup,
    GradedIrrep,
    MatrixRep,
    grade_of,
    hom_dim_table,
    validate_irrep,
)
from .unitscalar import UnitScalar, root_of_unity


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.kron`` of the last two axes of ``a`` and ``b``, over their
    broadcast leading (stack) axes, without ``np.kron``'s n-dimensional
    set-up: per stack item the same elementwise products in the same layout
    as ``np.kron`` of the two matrices, so the same values bit for bit."""
    out = a[..., :, None, :, None] * b[..., None, :, None, :]
    return out.reshape(*out.shape[:-4], a.shape[-2] * b.shape[-2], a.shape[-1] * b.shape[-1])


def _spans(keys: list) -> list[tuple]:
    """``(key, slice)`` for each run of equal ``keys``."""
    spans, start = [], 0
    for key, run in groupby(keys):
        stop = start + len(list(run))
        spans.append((key, slice(start, stop)))
        start = stop
    return spans


def flip_matrix(d1: int, d2: int) -> np.ndarray:
    """Permutation matrix sending coordinate (i, j) of V1 (x) V2 to (j, i)."""
    cols = np.arange(d1 * d2)
    rows = (cols % d2) * d1 + cols // d2
    out = np.zeros((d1 * d2, d1 * d2))
    out[rows, cols] = 1.0
    return out


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
        # e^{2 pi i num/denom} by num mod denom, filled on first use; every
        # structure scalar reads it.  Read-only identity and flip matrices.
        self._units: dict[int, complex] = {}
        self._eyes: dict[int, np.ndarray] = {}
        self._flips: dict[tuple[int, int], np.ndarray] = {}

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

    # -- scalars and matrices by grade index --------------------------------------

    def _unit(self, num):
        """``e^{2 pi i num / denom}`` for an integer exponent numerator; for
        an integer array, a complex array of the same shape, each distinct
        numerator read through the memo."""
        units, denom = self._units, self.cocycle.denom
        if np.ndim(num):
            nums = np.asarray(num) % denom
            flat = nums.ravel().tolist()
            for k in set(flat).difference(units):
                self._unit(k)
            return np.array([units[k] for k in flat], dtype=np.complex128).reshape(nums.shape)
        num = int(num) % denom
        value = units.get(num)
        if value is None:
            value = units[num] = root_of_unity(num, denom)
        return value

    def _f_inv(self, a1, a2, a3):
        return self._unit(-self.cocycle.f_num[a1, a2, a3])

    def _omega_inv(self, a1, a2):
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
        neg = self.grading.neg_index_table[a]
        # entry at (j, i) is delta_ji
        return self._f_inv(a, neg, a) * self._eye(d).reshape(1, d * d)

    def coevaluation(self, m) -> np.ndarray:
        """Column vector into M (x) M*: ``1 -> sum_i e_i (x) e_i'``."""
        d = self._word(m)[1]
        return np.eye(d).reshape(d * d, 1)

    # -- multiplicities ---------------------------------------------------------

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
        exponents at the catalog's grades, and the triangle reads
        ``F(a, 0, b)``.  Pentagon and hexagons pass from the cocycle report
        that construction required to pass, without reading a residue.  Twist
        duality is exact as well.  ``tol`` does not apply to them and a failure
        reports its deviation ``|e^{2 pi i delta} - 1|``.  The snakes,
        double-braiding and naturality are matrix equations that fail where
        ``not error <= tol`` (naturality within at least ``1e-8``), so a NaN
        error or tolerance fails them.  Each is evaluated once per
        dimension signature (word dim, pair of word dims, or sampled
        triples' ``(d3, d1 d2)`` with word dim); the snakes and double
        braiding as stacked products whose items run the kernels a per-word
        or per-pair loop would, so their errors are that loop's bit for
        bit.  ``checked`` counts catalog tuples."""
        c = self.cocycle
        g = np.array(list(self._grade_labels), dtype=np.intp)
        grade_labels = list(self._grade_labels.values())
        words, word_labels = list(self._word_labels), list(self._word_labels.values())
        ix2 = np.ix_(g, g)
        # theta_{ab} == R_{b,a} R_{a,b} (theta_a (x) theta_b), theta_a = Omega(a,a)^-1
        q, ab = c.omega_num.diagonal(), self.grading.add_index_table[ix2]
        balancing = (c.b_num[ix2] + q[g][:, None] + q[g] - q[ab]) % c.denom
        # theta_{M*} == theta_M at each grade; the unit's cell is q(0), theta_1 == 1
        twist_dual = [(q[g] - q[self.grading.neg_index_table[g]]) % c.denom, q[:1]]
        # the matrix checks run on the distinct words in order of dim, so the
        # words of one dim are one slice of each stack; back is the
        # permutation to first-appearance order
        by_dim = sorted(range(len(words)), key=lambda w: words[w][1])
        a = np.array([words[w][0] for w in by_dim], dtype=np.intp)
        spans = _spans([words[w][1] for w in by_dim])
        back = sorted(range(len(words)), key=by_dim.__getitem__)
        exact = partial(self._verdict, labels=grade_labels)
        matrix = partial(self._verdict, labels=word_labels, tol=tol)
        rows, naturality = self._naturality_errors(seed)
        checks = [
            # residues that vanish on all of A vanish at the catalog's grades
            exact("pentagon(matrices)", 4, []),
            exact("triangle", 2, [c.f_num[:, 0, :][ix2]]),
            exact("hexagon-1(matrices)", 3, []),
            exact("hexagon-2(matrices)", 3, []),
            matrix("snake", 1, [self._snake_errors(spans, a)[back]]),
            # the detail is part of verify reports, which stay byte-identical
            exact("balancing", 2, [balancing], detail="checked as matrices and as exact exponents"),
            self._verdict(
                "twist-dual", 1, twist_dual, [*grade_labels, self.unit.label],
                detail="theta_{M*} = theta_M exactly, and theta of the unit is 1",
            ),
            matrix(
                "double-braiding", 2, [self._double_braiding_errors(spans, a)[np.ix_(back, back)]]
            ),
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

    def _snake_errors(self, spans: list, a: np.ndarray) -> np.ndarray:
        """Deviation of both snake composites from the identity, per word of
        grade index ``a``, one stack per span of words of one dim."""
        neg = self.grading.neg_index_table[a]
        ev_scalar = self._f_inv(a, neg, a)[:, None, None]
        mid_inv = self._unit(self.cocycle.f_num[a, neg, a])[:, None, None]  # A_{M,M*,M}^{-1}
        dual_scalar = self._f_inv(neg, a, neg)[:, None, None]
        errs = np.full(len(a), np.nan)  # every cell is written once
        for d, s in spans:
            eye = self._eye(d)
            ev = ev_scalar[s] * eye.reshape(1, d * d)  # e_M on M* (x) M
            coev = eye.reshape(d * d, 1)  # i_M into M (x) M*
            # snake on M:  (1_M (x) e_M) A_{M,M*,M}^{-1} (i_M (x) 1_M) == 1_M
            snake_m = mid_inv[s] * (_kron(eye, ev) @ _kron(coev, eye))
            # snake on M*:  (e_M (x) 1_M*) A_{M*,M,M*} (1_M* (x) i_M) == 1_M*
            snake_dual = dual_scalar[s] * (_kron(ev, eye) @ _kron(eye, coev))
            errs[s] = np.maximum(
                np.abs(snake_m - eye).max(axis=(1, 2)), np.abs(snake_dual - eye).max(axis=(1, 2))
            )
        return errs

    def _double_braiding_errors(self, spans: list, a: np.ndarray) -> np.ndarray:
        """R_{N,M} R_{M,N} == e^{-2 pi i b(a,b)} I, whose categorical trace is
        an S entry, over pairs of words of grade index ``a``, one stack per pair
        of spans."""
        braid = self._omega_inv(a[:, None], a)[..., None, None]  # [i, j]: Omega(a_i, a_j)^-1
        back = np.ascontiguousarray(braid.swapaxes(0, 1))  # [i, j]: Omega(a_j, a_i)^-1
        double = self._unit(-self.cocycle.b_num[a[:, None], a])[..., None, None]
        errs = np.full((len(a), len(a)), np.nan)  # every cell is written once
        for (d1, s1), (d2, s2) in product(spans, repeat=2):
            braided = (back[s1, s2] * self._flip(d2, d1)) @ (braid[s1, s2] * self._flip(d1, d2))
            errs[s1, s2] = np.abs(braided - double[s1, s2] * self._eye(d1 * d2)).max(axis=(2, 3))
        return errs

    def _naturality_errors(self, seed: int) -> tuple[list, np.ndarray]:
        """Structure morphisms against a map ``f`` of up to 8 seeded catalog
        triples ``(m1, m2, m3)``: the triples' labels, and per triple the
        error at each distinct word as the object ``Y``.

        Each sampled ``N^{m3}_{m1 m2}`` must be the rank of its triple's
        group-averaging projector, its trace
        ``(1/|G|) sum_g tr rho3(g) tr rho1(g^-1) tr rho2(g^-1)``, read from
        every element's matrices; otherwise ``ConsistencyError``.  Since
        ``a3 = a1 + a2``, both sides of each identity carry the same unit
        scalar and any ``d3 x d1 d2`` map is natural, so after the triples
        one seeded complex ``f`` is drawn per distinct ``(d3, d1 d2)``, in
        order of first appearance, and the identities are evaluated once
        per ``(d3, d1 d2, dy)``, scalars dropped."""
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
        normal = rng.standard_normal
        maps = {shape: normal(shape) + 1j * normal(shape) for shape in dict.fromkeys(shapes)}
        dims = [d for _, d in self._word_labels]
        errs = {}
        for ((d3, d12), f), dy in product(maps.items(), dict.fromkeys(dims)):
            eye_y = self._eye(dy)
            # braiding naturality in the first slot, R_{M3,Y} (f (x) 1_Y) ==
            # (1_Y (x) f) R_{M1M2,Y}, without the Omega(a3, ay)^-1 of both sides
            lhs = self._flip(d3, dy) @ _kron(f, eye_y)
            rhs = _kron(eye_y, f) @ self._flip(d12, dy)
            # associator naturality in the first slot, without F(a3, ay, ay)^-1
            f_yy = _kron(f, self._eye(dy * dy))
            lhs2 = self._eye(d3 * dy * dy) @ f_yy
            rhs2 = f_yy @ self._eye(d12 * dy * dy)
            errs[d3, d12, dy] = np.maximum(np.abs(lhs - rhs).max(), np.abs(lhs2 - rhs2).max())
        cells = [[errs[(*shape, dy)] for dy in dims] for shape in shapes]
        rows = [tuple(m.label for m in t) for t in members]
        return rows, np.array(cells, dtype=np.float64).reshape(len(rows), len(dims))
