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

The public maps return the scalar's ``unitscalar.root_of_unity`` value
times the layout.  Each layout (identity, flip, ``vec(I)``) has one integer
builder; ``_layout`` caches it as read-only float64 once per process, by
builder and dims, for every category and for the coherence suite.

A category records its catalog once, at construction: each member's label,
grade index and dim, as ``labels``, ``grades`` and ``dims``.  The suite gathers
each identity's residues at those grades, with an axis per slot indexing
catalog members, and one driver, ``_verdict``, reads the array as a verdict
over catalog tuples: ``checked`` counts catalog tuples and the witness is
the first failing tuple in ``product`` order.  Each identity splits into
two exact parts: the unit scalars on both sides, a residue of cocycle
exponents mod the denominator at the catalog's grades, and the layouts,
an identity between integer matrices.  Pentagon, triangle, both hexagons,
balancing and twist-duality have no layout part; pentagon, triangle and
hexagons are the cocycle axioms there, and the triangle is read from the
normalization slice.  A category exists only over a cocycle whose report
passes, and axioms proved on all of ``A`` hold at the grades, so its
pentagon and hexagons pass without reading a residue.
The snakes, the double braiding (whose categorical trace is an S entry) and
braiding naturality against maps of sampled triples each have a layout part,
evaluated once per distinct dim, pair of distinct dims, or ``(d3, d1 d2,
dy)``, and read back per member.
Naturality samples catalog triples ``(M1, M2, M3)`` with ``a1 + a2 = a3``,
so both sides of the identity carry one unit scalar and every map
``M1 (x) M2 -> M3`` is natural: its layouts are checked on one seeded
integer map per ``(d3, d1 d2)`` with distinct entries, held as float64 for
a BLAS kernel: each layout is a permutation matrix, so every product entry
is one entry of the map, exactly.  Associator naturality is not checked:
its layouts are identities on both sides of the map, so it holds exactly
when the identity layout is the identity.  Every error is an exact
integer or the deviation of a nonzero residue, so no check reads a rounded
float.
Nothing here takes a categorical trace: the S table and the categorical
dimensions are read exactly from the cocycle by ``fusionring.s_table`` and
``fusionring.dim_exponents``.

The irreps, their characters and the multiplicities ``dim hom(Ma (x) Mb,
Mc)`` of all catalog triples are facts of Rep G, which the cocycle and the
grading do not change.  A category reads them from its
``grouprep.RepCatalog``, which validates the irreps and builds the one
character-sum table, checked against the projector ranks, once per
catalog.  A builtin catalog is built once per process
(``catalogs.builtin_catalog``), so every category on it shares the table
that fusion tables and the naturality spot checks read.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product

import numpy as np

from .cocycle import AbelianCocycle, AxiomCheck, CoherenceReport
from .errors import CocycleError, StructuralError
from .grouprep import CentralEmbedding, GradedIrrep, MatrixRep, RepCatalog, grade_of
from .unitscalar import UnitScalar, root_of_unity


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.kron`` of two matrices, without its n-dimensional set-up."""
    out = a[:, None, :, None] * b[None, :, None, :]
    return out.reshape(a.shape[0] * b.shape[0], a.shape[1] * b.shape[1])


def _deviation(lhs: np.ndarray, rhs: np.ndarray) -> int:
    """The largest entry of ``|lhs - rhs|`` for two matrices of integer entries."""
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


LAYOUT_CACHE_SIZE = 128  # one verify reads at most 90: under the group cap, <= 5 distinct dims


@lru_cache(maxsize=LAYOUT_CACHE_SIZE)
def _layout(build, *dims: int) -> np.ndarray:
    """``build(*dims)`` as read-only float64, once per process by builder and
    dims: naturality's products then need no cast, and 0/1 entries are exact."""
    layout = build(*dims).astype(np.float64)
    layout.setflags(write=False)
    return layout


def _eye(d: int) -> np.ndarray:
    return _layout(_identity, d)


def _flip(d1: int, d2: int) -> np.ndarray:
    return _layout(flip_matrix, d1, d2)


def _pairing(d: int) -> np.ndarray:
    return _layout(_vec_identity, d)


def _snake_layout(d: int) -> int:
    """Layout error of both snakes on a word of dim ``d``:
    ``(1_M (x) e_M)(i_M (x) 1_M)`` and ``(e_M (x) 1_M*)(1_M* (x) i_M)``
    against the identity."""
    eye, ev = _eye(d), _pairing(d)
    coev = ev.T
    return max(
        _deviation(_kron(eye, ev) @ _kron(coev, eye), eye),
        _deviation(_kron(ev, eye) @ _kron(eye, coev), eye),
    )


def _double_layout(d1: int, d2: int) -> int:
    """Layout error of ``flip(d2, d1) flip(d1, d2)`` against the identity."""
    return _deviation(_flip(d2, d1) @ _flip(d1, d2), _eye(d1 * d2))


class TwistedCategory:
    """A catalog of Rep G graded by a central embedding and twisted by a
    cocycle.

    Validates everything eagerly: the cocycle axioms (through the cocycle's
    ``report``, computed once per cocycle), centrality of the grading
    embedding, the irreps and their inequivalence (the catalog's
    ``characters``, checked once per catalog), the grades (one ``grade_of``
    call), and (for complete catalogs) the sum-of-squares identity ``sum
    dim^2 = |G|``.  The checks run in that order, each over the whole
    catalog, and a failing check names its first failing member in catalog
    order.
    """

    def __init__(
        self,
        reps: RepCatalog,
        cocycle: AbelianCocycle,
        embedding: CentralEmbedding,
        *,
        complete: bool = True,
    ):
        group = reps.group
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
        self.rep_catalog = reps
        self.cocycle = cocycle
        self.embedding = embedding
        self.grading = cocycle.group

        characters = reps.characters
        irreps = reps.irreps
        grades = grade_of(list(irreps.values()), embedding)
        self.catalog: tuple[GradedIrrep, ...] = tuple(
            map(GradedIrrep, irreps, irreps.values(), grades, characters)
        )
        # each member's label, grade index and dim, read-only
        self.labels = tuple(irreps)
        self.grades = np.array([self.grading.index(g) for g in grades], dtype=np.intp)
        self.dims = np.array([m.dim for m in self.catalog], dtype=np.int64)
        for vector in (self.grades, self.dims):
            vector.setflags(write=False)
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

    def _word(self, obj) -> tuple[int, int]:
        """A catalog member or a tensor word of them as ``(grade index, dim)``."""
        index = self.grading.index
        if isinstance(obj, GradedIrrep):
            return index(obj.grade), obj.dim
        grade, dim, add = 0, 1, self.grading.add_index_table
        for m in obj:
            grade = int(add[grade, index(m.grade)])
            dim *= m.dim
        return grade, dim

    # -- scalars by grade index ---------------------------------------------------

    def _ev_exponent(self, a):
        """``F(a, -a, a)``, whose inverse scales the evaluation, at a grade
        index or an array of them."""
        return self.cocycle.f_num[a, self.grading.neg_index_table[a], a]

    # -- structure morphisms ----------------------------------------------------

    def associator(self, m1, m2, m3) -> np.ndarray:
        """``F(a1,a2,a3)^{-1}`` times the identity on the flattened triple space."""
        (a1, d1), (a2, d2), (a3, d3) = self._word(m1), self._word(m2), self._word(m3)
        f = int(self.cocycle.f_num[a1, a2, a3])
        return root_of_unity(-f, self.cocycle.denom) * _eye(d1 * d2 * d3)

    def braiding(self, m1, m2) -> np.ndarray:
        """``Omega(a1,a2)^{-1}`` times the flip onto the reversed word."""
        (a1, d1), (a2, d2) = self._word(m1), self._word(m2)
        w = int(self.cocycle.omega_num[a1, a2])
        return root_of_unity(-w, self.cocycle.denom) * _flip(d1, d2)

    def twist(self, m) -> UnitScalar:
        """The ribbon scalar ``Omega(a, a)^{-1}`` on a grade-a object."""
        a = self._word(m)[0]
        return UnitScalar.from_exponent(-int(self.cocycle.omega_num[a, a]), self.cocycle.denom)

    def evaluation(self, m) -> np.ndarray:
        """Row vector on M* (x) M: ``(f', v) -> F(a,-a,a)^{-1} f'(v)``."""
        a, d = self._word(m)
        return root_of_unity(-int(self._ev_exponent(a)), self.cocycle.denom) * _pairing(d)

    def coevaluation(self, m) -> np.ndarray:
        """Column vector into M (x) M*: ``1 -> sum_i e_i (x) e_i'``, as a real
        float array: its scalar is 1."""
        d = self._word(m)[1]
        return _pairing(d).T.astype(np.float64)

    # -- multiplicities ---------------------------------------------------------

    @property
    def hom_dims(self) -> np.ndarray:
        """``N[a, b, c] = dim hom(Ma (x) Mb, Mc)`` over catalog positions:
        the catalog's read-only table, cross-checked against the projector
        ranks when the catalog first computed it."""
        return self.rep_catalog.hom_dims

    # -- coherence suite -----------------------------------------------------------

    def coherence_suite(self, *, seed: int = 0) -> CoherenceReport:
        """The coherence checks over all catalog tuples, each a residue
        gathered at the members' grades and a layout error per member,
        reported by ``_verdict``.

        Every structure map is a unit scalar times a 0/1 layout, so each
        identity splits into exact parts: a residue of cocycle exponents mod
        the denominator at the catalog's grades, and an identity between
        integer layouts.  Pentagon, triangle, both hexagons, balancing and
        twist duality have no layout part; the triangle reads ``F(a, 0, b)``,
        and pentagon and hexagons pass from the cocycle report that
        construction required to pass, without reading a residue.  The snake
        on ``M*`` has the residue ``F(a,-a,a) + F(-a,a,-a)`` (on ``M`` the
        scalars cancel), the double braiding ``Omega(a,b) + Omega(b,a) -
        b(a,b)``, and naturality none.  Their layouts are built once per
        distinct dim, pair of distinct dims, and sampled triples' ``(d3, d1
        d2)`` with a distinct dim, and read back per member.  A residue fails
        where nonzero, reporting ``|e^{2 pi i r} - 1|``, and a layout where
        its integer error is nonzero, reporting the largest error.
        ``checked`` counts catalog tuples."""
        c, neg, a = self.cocycle, self.grading.neg_index_table, self.grades
        ix2 = np.ix_(a, a)
        # theta_{ab} == R_{b,a} R_{a,b} (theta_a (x) theta_b), theta_a = Omega(a,a)^-1
        q, ab = c.omega_num.diagonal(), self.grading.add_index_table[ix2]
        balancing = (c.b_num[ix2] + q[a][:, None] + q[a] - q[ab]) % c.denom
        # theta_{M*} == theta_M at each grade; the unit's cell is q(0), theta_1 == 1
        twist_dual = [(q[a] - q[neg[a]]) % c.denom, q[:1]]
        # each member's dim among the distinct dims
        dims, at = np.unique(self.dims, return_inverse=True)
        dims = dims.tolist()
        # snake on M*: F(a,-a,a)^-1 from e_M, F(-a,a,-a)^-1 from A_{M*,M,M*}
        snake = (self._ev_exponent(a) + self._ev_exponent(neg[a])) % c.denom
        snake_layout = np.array([_snake_layout(d) for d in dims], dtype=np.int64)
        # R_{N,M} R_{M,N} == e^{-2 pi i b(a,b)} I, whose categorical trace is an S entry
        w = c.omega_num[ix2]
        double = (w + w.T - c.b_num[ix2]) % c.denom
        double_layout = np.array(
            [_double_layout(d1, d2) for d1, d2 in product(dims, repeat=2)], dtype=np.int64
        ).reshape(len(dims), len(dims))
        rows, naturality = self._naturality_layouts(seed)
        checks = [
            # residues that vanish on all of A vanish at the catalog's grades
            self._verdict("pentagon(matrices)", 4, []),
            self._verdict("triangle", 2, [c.f_num[:, 0, :][ix2]]),
            self._verdict("hexagon-1(matrices)", 3, []),
            self._verdict("hexagon-2(matrices)", 3, []),
            self._verdict("snake", 1, [snake], layout=snake_layout[at]),
            self._verdict("balancing", 2, [balancing]),
            self._verdict("twist-dual", 1, twist_dual),
            self._verdict("double-braiding", 2, [double], layout=double_layout[np.ix_(at, at)]),
            self._verdict("naturality(spot-checks)", 2, [], layout=naturality, rows=rows),
        ]
        return CoherenceReport(tuple(checks))

    def _verdict(
        self, axiom: str, arity: int, residues, *,
        layout: np.ndarray | None = None, rows: list[tuple] | None = None,
    ) -> AxiomCheck:
        """An identity over the catalog tuples of ``arity`` from its values
        at every cell.

        ``residues`` stacked along their first axis make one array of
        exponent residues mod the cocycle denominator, with an axis per
        slot; ``layout``, when given, is an array of integer layout errors
        over the same cells.  Each axis indexes catalog members, and
        twist-dual's cell past the members is the unit; the first axis runs
        over ``rows``, label tuples of sampled catalog tuples, when they are
        given.  So the first failing cell in C order is the first failing
        catalog tuple in ``product`` order.  A cell fails where its residue
        or its layout error is nonzero; the error reported is the largest
        layout error or ``|e(r) - 1|`` of a nonzero residue ``r``.
        ``checked`` counts catalog tuples."""
        bad, worst = np.zeros((), dtype=bool), 0.0
        if layout is not None:
            bad, worst = layout != 0, float(layout.max(initial=0))
        if residues:
            r = np.concatenate(residues)
            bad = bad | (r != 0)
            for d in np.unique(r[r != 0]).tolist():
                worst = max(worst, abs(root_of_unity(d, self.cocycle.denom) - 1))
        witness = None
        if bad.any():
            labels = [*self.labels, self.unit.label]
            i, *rest = np.unravel_index(np.argmax(bad), bad.shape)
            head = (labels[i],) if rows is None else rows[i]
            witness = (*head, *(labels[j] for j in rest))
        k = len(self.catalog)
        checked = (k if rows is None else len(rows)) * k ** (arity - 1)
        return AxiomCheck(axiom, witness is None, checked, witness, worst)

    def _naturality_layouts(self, seed: int) -> tuple[list, np.ndarray]:
        """The braiding against a map ``f`` of up to 8 seeded catalog
        triples ``(m1, m2, m3)``: the triples' labels, and per triple the
        layout error at each catalog member as the object ``Y``.

        Since ``a3 = a1 + a2``, both sides of the identity carry the same unit
        scalar and any ``d3 x d1 d2`` map is natural, so after the triples
        one seeded integer ``f``, a permutation of ``1..d3 d1 d2`` held as
        float64, is drawn per distinct ``(d3, d1 d2)``, in order of first
        appearance, and the layouts are compared once per ``(d3, d1 d2, dy)``."""
        rng, grades = np.random.default_rng(seed), self.grades
        # catalog triples (m1, m2, m3) in product order with a1 + a2 = a3 and
        # a nonzero hom(M1 (x) M2, M3)
        sums = self.grading.add_index_table[np.ix_(grades, grades)]
        triples = np.argwhere((sums[:, :, None] == grades) & (self.hom_dims > 0))
        picks = rng.choice(len(triples), size=min(8, len(triples)), replace=False)
        chosen = triples[sorted(picks.tolist())].tolist()
        dims = self.dims.tolist()
        shapes = [(dims[m3], dims[m1] * dims[m2]) for m1, m2, m3 in chosen]
        maps = {s: rng.permutation(s[0] * s[1]).reshape(s) + 1.0 for s in dict.fromkeys(shapes)}
        errs = {}
        for ((d3, d12), f), dy in product(maps.items(), dict.fromkeys(dims)):
            # braiding naturality in the first slot, R_{M3,Y} (f (x) 1_Y) ==
            # (1_Y (x) f) R_{M1M2,Y}, without the Omega(a3, ay)^-1 of both sides
            eye_y = _eye(dy)
            lhs, rhs = _flip(d3, dy) @ _kron(f, eye_y), _kron(eye_y, f) @ _flip(d12, dy)
            errs[d3, d12, dy] = _deviation(lhs, rhs)
        cells = [[errs[(*shape, dy)] for dy in dims] for shape in shapes]
        rows = [tuple(self.labels[x] for x in t) for t in chosen]
        return rows, np.array(cells, dtype=np.int64).reshape(len(rows), len(dims))
