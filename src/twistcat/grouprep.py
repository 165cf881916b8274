"""Finite groups as multiplication tables, explicit matrix representations,
character sums, intertwiner bases, and grading by a central copy of the dual
grading group.

Numerical conventions, fixed module constants: matrix identities are enforced
to ``MATRIX_TOL = 1e-9``, character sums are rounded to integers with
residual at most ``INTEGER_TOL = 1e-6``, and intertwiners are checked to
``INTERTWINER_TOL = 1e-8``.  Every check is written ``not err <= tol``, so a
NaN deviation fails it.  A representation built from generator matrices
replays one breadth-first walk of the group per generator list.  Grades are
read from the generator images: each dual generator's residue comes from the
angle of one diagonal entry of its image, which must be that scalar times
the identity.  Composite tensor indices are always row-major,
``(i, j) -> i * d2 + j``, matching ``numpy.kron``.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

import numpy as np

from .abgroup import FinAbGroup, GroupElt
from .errors import ConsistencyError, GradingError, RepresentationError, StructuralError
from .unitscalar import UnitScalar

MATRIX_TOL = 1e-9
INTEGER_TOL = 1e-6
INTERTWINER_TOL = 1e-8
#: Largest finite group built, checked before any order-sized table exists.
#: An abelian group of this order has as many irreps, and the fusion
#: associativity check holds two ``k^4`` int64 arrays for ``k`` irreps.
MAX_GROUP_ORDER = 64


class FiniteGroup:
    """A finite group given by its multiplication table over indices 0..order-1."""

    def __init__(self, table, element_names=None):
        table = np.asarray(table, dtype=np.int64)
        if table.ndim != 2 or table.shape[0] != table.shape[1]:
            raise StructuralError(f"multiplication table must be square, got {table.shape}")
        n = table.shape[0]
        if n == 0 or table.min() < 0 or table.max() >= n:
            raise StructuralError("table entries must be element indices in range")
        self.table = table
        self.table.setflags(write=False)
        self.order = n
        self.element_names = (
            tuple(element_names) if element_names is not None else tuple(range(n))
        )
        if len(self.element_names) != n:
            raise StructuralError("element_names length does not match order")

        identities = [
            e
            for e in range(n)
            if np.array_equal(table[e], np.arange(n)) and np.array_equal(table[:, e], np.arange(n))
        ]
        if len(identities) != 1:
            raise StructuralError("table has no (or no unique) identity element")
        self.identity = identities[0]

        inv = np.full(n, -1, dtype=np.int64)
        for a in range(n):
            hits = np.flatnonzero(table[a] == self.identity)
            if len(hits) != 1 or table[hits[0], a] != self.identity:
                raise StructuralError(f"element {a} has no two-sided inverse")
            inv[a] = hits[0]
        self.inverse = inv
        self.inverse.setflags(write=False)

        for a in range(n):  # (ab)c == a(bc) for all b, c at once
            if not np.array_equal(table[table[a]], table[a][table]):
                raise StructuralError(f"table is not associative at element {a}")
        self._walks: dict[tuple[int, ...], tuple[tuple[int, int, int], ...]] = {}

    @classmethod
    def from_permutations(cls, generators) -> FiniteGroup:
        """Generate a permutation group by closure; elements sorted lexicographically."""
        gens = [tuple(int(x) for x in g) for g in generators]
        if not gens:
            raise StructuralError("at least one permutation generator is required")
        width = len(gens[0])
        if any(len(g) != width or sorted(g) != list(range(width)) for g in gens):
            raise StructuralError("generators must be permutations of 0..k-1 of equal length")
        identity = tuple(range(width))
        elements = {identity}
        frontier = [identity]
        while frontier:
            new = []
            for p in frontier:
                for g in gens:
                    q = tuple(p[g[i]] for i in range(width))
                    if q not in elements:
                        elements.add(q)
                        new.append(q)
            frontier = new
            if len(elements) > MAX_GROUP_ORDER:
                raise StructuralError(
                    f"permutation group has more than MAX_GROUP_ORDER = {MAX_GROUP_ORDER} elements"
                )
        ordered = sorted(elements)
        index = {p: i for i, p in enumerate(ordered)}
        n = len(ordered)
        table = np.empty((n, n), dtype=np.int64)
        for i, p in enumerate(ordered):
            for j, q in enumerate(ordered):
                table[i, j] = index[tuple(p[q[k]] for k in range(width))]
        return cls(table, element_names=ordered)

    def mul(self, a: int, b: int) -> int:
        return int(self.table[a, b])

    def generator_walk(self, generators: tuple[int, ...]) -> tuple[tuple[int, int, int], ...]:
        """Breadth-first walk from the identity by right multiplication with
        ``generators``: one ``(b, a, k)`` per element reached, with
        ``b = a * generators[k]``, in the order reached.  Taken once per
        generator tuple and kept, so every representation built on the same
        generators replays the same walk."""
        walk = self._walks.get(generators)
        if walk is None:
            columns = [self.table[:, g].tolist() for g in generators]
            seen = [False] * self.order
            seen[self.identity] = True
            reached, steps = [self.identity], []
            for a in reached:  # grows while it is read: a queue
                for k, column in enumerate(columns):
                    b = column[a]
                    if not seen[b]:
                        seen[b] = True
                        reached.append(b)
                        steps.append((b, a, k))
            walk = self._walks[generators] = tuple(steps)
        return walk

    def inv(self, a: int) -> int:
        return int(self.inverse[a])

    def element_order(self, a: int) -> int:
        k, x = 1, a
        while x != self.identity:
            x = self.mul(x, a)
            k += 1
        return k

    @cached_property
    def conjugacy_classes(self) -> tuple[tuple[int, ...], ...]:
        """Classes as sorted index tuples, ordered by smallest member."""
        seen = np.zeros(self.order, dtype=bool)
        classes = []
        for a in range(self.order):
            if seen[a]:
                continue
            orbit = {int(self.table[self.table[g, a], self.inverse[g]]) for g in range(self.order)}
            for x in orbit:
                seen[x] = True
            classes.append(tuple(sorted(orbit)))
        return tuple(classes)

    @cached_property
    def class_sizes(self) -> np.ndarray:
        sizes = np.array([len(c) for c in self.conjugacy_classes], dtype=np.int64)
        sizes.setflags(write=False)
        return sizes

    @cached_property
    def center(self) -> tuple[int, ...]:
        return tuple(
            a
            for a in range(self.order)
            if np.array_equal(self.table[a], self.table[:, a])
        )

    @property
    def num_classes(self) -> int:
        return len(self.conjugacy_classes)


@dataclass(frozen=True, eq=False)
class MatrixRep:
    """One complex d x d matrix per group element, indexed like the group."""

    group: FiniteGroup
    matrices: np.ndarray

    def __post_init__(self):
        mats = np.ascontiguousarray(np.asarray(self.matrices, dtype=np.complex128))
        if mats.ndim != 3 or mats.shape[0] != self.group.order or mats.shape[1] != mats.shape[2]:
            raise StructuralError(f"expected (order, d, d) matrices, got {mats.shape}")
        mats.setflags(write=False)
        object.__setattr__(self, "matrices", mats)

    @property
    def dim(self) -> int:
        return self.matrices.shape[1]

    def __call__(self, g: int) -> np.ndarray:
        return self.matrices[g]


def rep_from_generators(group: FiniteGroup, generator_indices, generator_matrices) -> MatrixRep:
    """Extend matrices on generators to the whole group by shortest-word
    products, replaying the group's walk for these generator indices."""
    gens = tuple(int(g) for g in generator_indices)
    gen_mats = [np.asarray(m, dtype=np.complex128) for m in generator_matrices]
    if len(gens) != len(gen_mats) or not gens:
        raise StructuralError("need one matrix per generator index")
    for g in gens:
        if not 0 <= g < group.order:
            raise StructuralError(f"generator index {g} is not an element index of the group")
    d = gen_mats[0].shape[0]
    if any(m.shape != (d, d) for m in gen_mats):
        raise StructuralError("generator matrices must share one square shape")
    walk = group.generator_walk(gens)
    if len(walk) + 1 != group.order:
        raise StructuralError("generator indices do not generate the group")
    mats = np.empty((group.order, d, d), dtype=np.complex128)
    mats[group.identity] = np.eye(d)
    for b, a, k in walk:
        np.matmul(mats[a], gen_mats[k], out=mats[b])
    return MatrixRep(group, mats)


def validate_irrep(rep: MatrixRep) -> np.ndarray:
    """Check the homomorphism property on all pairs and irreducibility.

    Returns the character as a per-conjugacy-class complex vector.  Unitarity
    is checked but only warned on.
    """
    group, mats = rep.group, rep.matrices
    if not np.array_equal(mats[group.identity], np.eye(rep.dim)):
        raise RepresentationError("identity element is not represented by the identity matrix")
    for a in range(group.order):
        prod = np.einsum("ij,njk->nik", mats[a], mats)
        err = np.abs(prod - mats[group.table[a]]).max()
        if not err <= MATRIX_TOL:
            raise RepresentationError(
                f"not a homomorphism: |rho(a)rho(b) - rho(ab)| = {err:.2e} at a={a}"
            )

    traces = np.einsum("nii->n", mats)
    chars = np.empty(group.num_classes, dtype=np.complex128)
    for c, members in enumerate(group.conjugacy_classes):
        vals = traces[list(members)]
        if not np.abs(vals - vals[0]).max() <= MATRIX_TOL:
            raise RepresentationError(f"character not constant on conjugacy class {c}")
        chars[c] = vals[0]

    norm = float(np.sum(group.class_sizes * np.abs(chars) ** 2).real) / group.order
    if not abs(norm - 1.0) <= MATRIX_TOL:
        raise RepresentationError(f"<chi, chi> = {norm:.6f}, representation is not irreducible")

    unit_err = max(
        float(np.abs(m @ m.conj().T - np.eye(rep.dim)).max()) for m in mats
    )
    if unit_err > 1e-6:
        warnings.warn(f"representation is not unitary (deviation {unit_err:.2e})")
    return chars


def hom_dim(group: FiniteGroup, chi1: np.ndarray, chi2: np.ndarray, chi3: np.ndarray) -> int:
    """``dim hom(M1 (x) M2, M3) = (1/|G|) sum_g chi1(g) chi2(g) conj(chi3(g))``."""
    chi1, chi2, chi3 = (np.asarray(c, dtype=np.complex128) for c in (chi1, chi2, chi3))
    if not chi1.shape == chi2.shape == chi3.shape == (group.num_classes,):
        raise StructuralError("characters must be per-class vectors on the same group")
    val = complex(np.sum(group.class_sizes * chi1 * chi2 * np.conj(chi3))) / group.order
    rounded = float(np.rint(val.real))  # a NaN stays NaN, where round() raises
    if not (abs(val.real - rounded) <= INTEGER_TOL and abs(val.imag) <= INTEGER_TOL) or rounded < 0:
        raise ConsistencyError(f"character sum {val} is not a nonnegative integer")
    return int(rounded)


def hom_dim_table(group: FiniteGroup, characters) -> np.ndarray:
    """``N[a, b, c] = dim hom(Ma (x) Mb, Mc)`` for all triples of a list of
    per-class characters, as one character sum; read-only int64.

    Applies ``hom_dim``'s check to every cell and raises its
    ``ConsistencyError`` for the first bad cell in C order.
    """
    shape = (len(characters), group.num_classes)
    chars = np.asarray(characters if shape[0] else np.zeros(shape), dtype=np.complex128)
    if chars.shape != shape:
        raise StructuralError("characters must be per-class vectors on the same group")
    vals = np.einsum("g,ag,bg,cg->abc", group.class_sizes, chars, chars, chars.conj())
    vals /= group.order
    rounded = np.round(vals.real)
    bad = ~((np.abs(vals.real - rounded) <= INTEGER_TOL) & (np.abs(vals.imag) <= INTEGER_TOL))
    bad |= rounded < 0
    if bad.any():
        val = complex(vals[tuple(np.argwhere(bad)[0])])
        raise ConsistencyError(f"character sum {val} is not a nonnegative integer")
    table = rounded.astype(np.int64)
    table.setflags(write=False)
    return table


def tensor_rep(m1: MatrixRep, m2: MatrixRep) -> MatrixRep:
    """Elementwise Kronecker product; composite index (i, j) -> i * d2 + j."""
    if m1.group is not m2.group:
        raise StructuralError("tensor factors must share one group")
    n, d1, d2 = m1.group.order, m1.dim, m2.dim
    mats = np.einsum("nij,nkl->nikjl", m1.matrices, m2.matrices).reshape(n, d1 * d2, d1 * d2)
    return MatrixRep(m1.group, mats)


def dual_rep(m: MatrixRep) -> MatrixRep:
    """Dual (contragredient) representation ``g -> rho(g^{-1})^T``."""
    mats = m.matrices[m.group.inverse].transpose(0, 2, 1)
    return MatrixRep(m.group, mats)


def intertwiner_basis(
    m1: MatrixRep,
    m2: MatrixRep,
    m3: MatrixRep,
    *,
    expected: int | None = None,
) -> list[np.ndarray]:
    """Basis of ``hom(M1 (x) M2, M3)`` via the group-averaging projector.

    The projector ``P(T) = (1/|G|) sum_g rho3(g) T (rho1 (x) rho2)(g^{-1})``
    acts on d3 x (d1 d2) matrices; its fixed space is the intertwiner space.
    The rank must equal the character-sum dimension exactly.
    """
    if not (m1.group is m2.group is m3.group):
        raise StructuralError("all three representations must share one group")
    group = m1.group
    prod = tensor_rep(m1, m2)
    d_in, d_out = prod.dim, m3.dim

    # row-major vec: vec(A T B) = (A kron B^T) vec(T), and B^T = dual(g) for
    # B = (rho1 (x) rho2)(g^{-1}); all |G| Kronecker factors in one product
    n, dim = group.order, d_out * d_in
    dual = dual_rep(prod).matrices
    kron = m3.matrices[:, :, None, :, None] * dual[:, None, :, None, :]
    proj = kron.reshape(n, dim, dim).sum(axis=0)
    proj /= n

    idem_err = float(np.abs(proj @ proj - proj).max())
    if not idem_err <= INTERTWINER_TOL:
        raise ConsistencyError(f"averaging projector not idempotent: {idem_err:.2e}")

    if expected is None:
        chi1 = validate_irrep(m1)
        chi2 = validate_irrep(m2)
        chi3 = validate_irrep(m3)
        expected = hom_dim(group, chi1, chi2, chi3)

    u, sing, _ = np.linalg.svd(proj)
    rank = int(np.sum(sing > 0.5))
    if rank != expected:
        raise ConsistencyError(
            f"projector rank {rank} does not match character dimension {expected}"
        )
    basis = []
    for i in range(rank):
        t = u[:, i].reshape(d_out, d_in)
        err = max(
            float(np.abs(m3.matrices[g] @ t - t @ prod.matrices[g]).max())
            for g in range(group.order)
        )
        if not err <= INTERTWINER_TOL:
            raise ConsistencyError(f"projector output is not an intertwiner: {err:.2e}")
        basis.append(t)
    return basis


@dataclass(frozen=True)
class CentralEmbedding:
    """Images in G of the dual generators of the grading group's dual.

    ``images[i]`` is the group-element index representing the i-th standard
    dual generator; each image must be central with order dividing the
    corresponding invariant factor, so the map extends to a homomorphism.
    """

    grading: FinAbGroup
    images: tuple[int, ...]

    def validate(self, group: FiniteGroup) -> None:
        if len(self.images) != self.grading.rank:
            raise StructuralError(
                f"{len(self.images)} embedding images for rank {self.grading.rank}"
            )
        center = set(group.center)
        for img, n in zip(self.images, self.grading.factors):
            if not 0 <= img < group.order:
                raise StructuralError(f"embedding image {img} is not an element index")
            if img not in center:
                raise StructuralError(f"embedding image {img} is not central")
            if n % group.element_order(img) != 0:
                raise StructuralError(
                    f"embedding image {img} has order {group.element_order(img)}, "
                    f"which does not divide the invariant factor {n}"
                )


def grade_of(rep: MatrixRep, embedding: CentralEmbedding) -> GroupElt:
    """The unique grade by which the central dual copy acts on an irreducible.

    The grade ``alpha`` has ``rho(iota(chi_i)) = e^{2 pi i alpha_i / n_i} * I``
    for the i-th dual generator ``chi_i``: its residue is read off the angle
    of one diagonal entry of that image, and the whole image is checked
    against that one scalar.
    """
    eye = np.eye(rep.dim)
    residues = []
    for img, n in zip(embedding.images, embedding.grading.factors):
        image = rep.matrices[img]
        turns = cmath.phase(image[0, 0]) * n / (2 * math.pi)
        residue = round(turns) % n if math.isfinite(turns) else 0
        scalar = UnitScalar(Fraction(residue, n)).to_complex()
        if not np.abs(image - scalar * eye).max() <= MATRIX_TOL:
            raise GradingError(
                "central embedding acts with 0 candidate grades; expected exactly 1"
            )
        residues.append(residue)
    return tuple(residues)


@dataclass(frozen=True, eq=False)
class GradedIrrep:
    """An irreducible matrix representation with its grade and character."""

    label: str
    rep: MatrixRep
    grade: GroupElt
    character: np.ndarray = field(repr=False)

    @property
    def dim(self) -> int:
        return self.rep.dim

    def __str__(self) -> str:
        return self.label
