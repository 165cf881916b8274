"""Finite groups as multiplication tables, explicit matrix representations,
character sums, and grading by a central copy of the dual grading group.

Every group fact is a gather over ``table``: the identity, the inverses,
associativity, the classes and the centre.  The multiplicities of a list of
characters, ``dim hom(Ma (x) Mb, Mc)``, are one table, ``hom_dim_table``.

A ``RepCatalog`` is a group with its irreps by label: the facts of Rep G,
which no grading or cocycle changes.  It checks its irreps and computes
their characters, then their multiplicities cross-checked against the ranks
of the averaging projectors, each once, when first read, and hands both out
read-only, so that one catalog serves every category built on it.

``validate_irrep`` and ``grade_of`` take sequences of reps and evaluate the
reps that share a group and a dimension as one stack.  Each returns one
result per rep and raises the first failing rep's error; every stack item
runs the kernels a one-item stack runs, so its result and its error do not
depend on the other items.

Numerical conventions, fixed module constants: matrix identities are enforced
to ``MATRIX_TOL = 1e-9`` and character sums are rounded to integers with
residual at most ``INTEGER_TOL = 1e-6``.  Every check is written
``not err <= tol``, so a NaN deviation fails it.  One call builds all of a
catalog's irreps from generator matrices along one breadth-first walk of
the group.  Grades are read from the generator images: each dual
generator's residue comes from the angle of one diagonal entry of its image,
which must be that scalar times the identity.  Composite tensor indices are
always row-major, ``(i, j) -> i * d2 + j``, matching ``numpy.kron``.
"""

from __future__ import annotations

import cmath
import math
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field
from functools import cached_property
from types import MappingProxyType

import numpy as np

from .abgroup import FinAbGroup, GroupElt
from .errors import ConsistencyError, GradingError, RepresentationError, StructuralError
from .unitscalar import root_of_unity

MATRIX_TOL = 1e-9
INTEGER_TOL = 1e-6
#: Largest finite group built, checked before any order-sized table exists.
#: It bounds ``validate_irrep``'s ``|G|^2 d^2`` homomorphism product, the
#: ``(k^2, |G|)`` product of projector traces in ``_projector_ranks``
#: for ``k`` irreps, and ``FiniteGroup``'s ``n^3`` gathers.
MAX_GROUP_ORDER = 64


class FiniteGroup:
    """A finite group given by its multiplication table over indices 0..order-1."""

    def __init__(self, table, element_names=None):
        table = np.asarray(table, dtype=np.int64)
        if table.ndim != 2 or table.shape[0] != table.shape[1]:
            raise StructuralError(f"multiplication table must be square, got {table.shape}")
        n = table.shape[0]
        if n > MAX_GROUP_ORDER:
            raise StructuralError(f"group order {n} exceeds MAX_GROUP_ORDER = {MAX_GROUP_ORDER}")
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

        elements = np.arange(n)
        identities = np.flatnonzero(
            (table == elements).all(axis=1) & (table.T == elements).all(axis=1)
        )
        if len(identities) != 1:
            raise StructuralError("table has no (or no unique) identity element")
        self.identity = e = int(identities[0])

        hits = table == e
        inv = np.argmax(hits, axis=1)
        bad = (hits.sum(axis=1) != 1) | (table[inv, elements] != e)
        if bad.any():
            raise StructuralError(f"element {int(np.argmax(bad))} has no two-sided inverse")
        self.inverse = inv
        self.inverse.setflags(write=False)

        # (ab)c == a(bc) for all a, b, c: two n^3 gathers, kept small by the dtype
        narrow = table.astype(np.min_scalar_type(n - 1))
        left, right = narrow[table], narrow[:, table]  # [a, b, c] is (ab)c and a(bc)
        if not np.array_equal(left, right):
            a = int(np.flatnonzero(left != right)[0]) // (n * n)
            raise StructuralError(f"table is not associative at element {a}")

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
        perms = np.array(ordered, dtype=np.int64).reshape(n, width)
        products = perms[:, perms].reshape(n * n, width).tolist()  # [i, j, k] is p_i(p_j(k))
        table = np.array([index[tuple(p)] for p in products]).reshape(n, n)
        return cls(table, element_names=ordered)

    def mul(self, a: int, b: int) -> int:
        return int(self.table[a, b])

    def element_order(self, a: int) -> int:
        k, x = 1, a
        while x != self.identity:
            x = self.mul(x, a)
            k += 1
        return k

    @cached_property
    def conjugacy_classes(self) -> tuple[tuple[int, ...], ...]:
        """Classes as sorted index tuples, ordered by smallest member."""
        # [g, a] is g a g^-1: column a is the class of a, keyed by its least member
        keys = self.table[self.table, self.inverse[:, None]].min(axis=0)
        return tuple(tuple(np.flatnonzero(keys == k).tolist()) for k in np.unique(keys).tolist())

    @cached_property
    def _class_index(self) -> np.ndarray:
        """Each element's index in ``conjugacy_classes``."""
        out = np.empty(self.order, dtype=np.int64)
        for c, members in enumerate(self.conjugacy_classes):
            out[list(members)] = c
        out.setflags(write=False)
        return out

    @cached_property
    def class_sizes(self) -> np.ndarray:
        sizes = np.array([len(c) for c in self.conjugacy_classes], dtype=np.int64)
        sizes.setflags(write=False)
        return sizes

    @cached_property
    def center(self) -> tuple[int, ...]:
        return tuple(np.flatnonzero((self.table == self.table.T).all(axis=1)).tolist())

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
        if mats.shape[1] == 0:
            raise StructuralError(f"a rep needs dimension d >= 1, got shape {mats.shape}")
        mats.setflags(write=False)
        object.__setattr__(self, "matrices", mats)

    @property
    def dim(self) -> int:
        return self.matrices.shape[1]

    def __call__(self, g: int) -> np.ndarray:
        return self.matrices[g]


def _walk(group: FiniteGroup, generators: tuple[int, ...]) -> list[tuple[int, int, int]]:
    """Breadth-first walk from the identity by right multiplication with
    ``generators``: one ``(b, a, k)`` per element reached, with
    ``b = a * generators[k]``, in the order reached."""
    columns = [group.table[:, g].tolist() for g in generators]
    seen = [False] * group.order
    seen[group.identity] = True
    reached, steps = [group.identity], []
    for a in reached:  # grows while it is read: a queue
        for k, column in enumerate(columns):
            b = column[a]
            if not seen[b]:
                seen[b] = True
                reached.append(b)
                steps.append((b, a, k))
    return steps


def rep_from_generators(
    group: FiniteGroup, generator_indices, irreps: Mapping[str, Sequence]
) -> dict[str, MatrixRep]:
    """Each label's matrices on the generators, one per generator index,
    extended to the whole group by shortest-word products along one walk of
    the group.  Each label in order is checked for one matrix per index,
    indices in range and one square shape, and the first also for indices
    that generate the group.  Products that overflow are kept as inf or nan,
    without a floating-point warning; a category refuses such a rep by label."""
    gens = tuple(int(g) for g in generator_indices)
    walk, reps = None, {}
    for label, generator_matrices in irreps.items():
        gen_mats = [np.asarray(m, dtype=np.complex128) for m in generator_matrices]
        if len(gens) != len(gen_mats) or not gens:
            raise StructuralError("need one matrix per generator index")
        for g in gens:
            if not 0 <= g < group.order:
                raise StructuralError(f"generator index {g} is not an element index of the group")
        d = gen_mats[0].shape[0] if gen_mats[0].ndim else None  # a scalar has no shape to share
        if any(m.shape != (d, d) for m in gen_mats):
            raise StructuralError("generator matrices must share one square shape")
        if walk is None:
            walk = _walk(group, gens)
            if len(walk) + 1 != group.order:
                raise StructuralError("generator indices do not generate the group")
        mats = np.empty((group.order, d, d), dtype=np.complex128)
        mats[group.identity] = np.eye(d)
        with np.errstate(over="ignore", invalid="ignore"):
            for b, a, k in walk:
                np.matmul(mats[a], gen_mats[k], out=mats[b])
        reps[label] = MatrixRep(group, mats)
    return reps


def _stacked(items: list, key, evaluate) -> list:
    """Each item's outcome, in item order, from one ``evaluate`` call per stack
    of the items that share a ``key``, taken in order of first appearance."""
    stacks: dict = {}
    for t, item in enumerate(items):
        stacks.setdefault(key(item), []).append(t)
    outcomes: list = [None] * len(items)
    for stack in stacks.values():
        for t, outcome in zip(stack, evaluate([items[t] for t in stack])):
            outcomes[t] = outcome
    return outcomes


def _raise_first(outcomes: list) -> list:
    """``outcomes``, unless one is an error: then the first error is raised."""
    for outcome in outcomes:
        if isinstance(outcome, Exception):
            raise outcome
    return outcomes


def validate_irrep(reps: Sequence[MatrixRep]) -> list[np.ndarray]:
    """Check each rep for the irrep dimension bound ``dim^2 <= |G|``, the
    identity, the homomorphism property on all pairs in one batched product,
    class constancy of the character, and irreducibility.

    Returns one character per rep, as a per-conjugacy-class complex vector.
    The reps that share a group and a dimension are one stack, and each
    check runs once per stack; each item runs the same elementwise,
    ``einsum`` and ``matmul`` kernels on the same operands as a one-item
    stack, so its character and errors do not depend on the other reps.  A
    failing rep raises its first error in the order above; of several, the
    first rep's.
    """
    reps = list(reps)
    return _raise_first(_stacked(reps, lambda r: (r.group, r.dim), _irrep_stack))


def _irrep_stack(reps: list[MatrixRep]) -> list:
    """Per rep of one ``(group, dim)`` stack, its character or the error it
    raises."""
    group, d = reps[0].group, reps[0].dim
    # the squared dimensions of a group's irreps sum to |G|; checked before
    # the |G|^2 d^2 products below exist
    if d * d > group.order:
        error = RepresentationError(
            f"dimension {d} is too large for an irrep: {d}^2 > |G| = {group.order}"
        )
        return [error] * len(reps)
    # at most |G| / d^2 reps per product, as many as a complete catalog has
    # of this dimension: no more memory than one rep of dimension sqrt|G|
    size = group.order // (d * d)
    if len(reps) > size:
        return [o for i in range(0, len(reps), size) for o in _irrep_stack(reps[i:i + size])]
    mats = np.array([r.matrices for r in reps])
    not_identity = ~(mats[:, group.identity] == np.eye(d)).all(axis=(1, 2))
    # a rep may hold entries whose products overflow, or infs: its
    # homomorphism error is then inf or nan and fails, and the values below
    # are never read, so no floating-point warnings for them
    with np.errstate(over="ignore", invalid="ignore"):
        # [t, a, b] is rho(a) rho(b) - rho(ab); report the lowest failing a
        errs = np.abs(mats[:, :, None] @ mats[:, None] - mats[:, group.table]).max(axis=(2, 3, 4))
        not_hom = ~(errs <= MATRIX_TOL)
        a = not_hom.argmax(axis=1)
        # the character is each class's trace at its first member; report
        # the lowest class where another member's trace differs
        traces = np.einsum("tnii->tn", mats)
        firsts = np.array([members[0] for members in group.conjugacy_classes])
        constant = np.abs(traces - traces[:, firsts[group._class_index]]) <= MATRIX_TOL
        c = np.where(constant, group.num_classes, group._class_index).min(axis=1)
        chars = np.ascontiguousarray(traces[:, firsts])  # one C-contiguous row per rep
        norm = (group.class_sizes * np.abs(chars) ** 2).sum(axis=1) / group.order

    # each rep's first failing check, in the order they run for one rep
    checks = [
        (not_identity, lambda i: "identity element is not represented by the identity matrix"),
        (
            not_hom.any(axis=1),
            lambda i: f"not a homomorphism: |rho(a)rho(b) - rho(ab)| = {errs[i, a[i]]:.2e} "
            f"at a={a[i]}",
        ),
        (c < group.num_classes, lambda i: f"character not constant on conjugacy class {c[i]}"),
        (
            ~(np.abs(norm - 1.0) <= MATRIX_TOL),
            lambda i: f"<chi, chi> = {norm[i]:.6f}, representation is not irreducible",
        ),
    ]
    failed = np.array([bad for bad, _ in checks])
    first_failures = zip(failed.any(axis=0).tolist(), failed.argmax(axis=0).tolist())
    return [
        RepresentationError(checks[k][1](i)) if failing else chars[i]
        for i, (failing, k) in enumerate(first_failures)
    ]


def hom_dim_table(group: FiniteGroup, characters) -> np.ndarray:
    """``N[a, b, c] = dim hom(Ma (x) Mb, Mc)`` for all triples of a list of
    per-class characters, as one character sum
    ``(1/|G|) sum_g chi_a(g) chi_b(g) conj(chi_c(g))``; read-only int64.

    The sum runs as one matmul of the ``(a, b)`` products, weighted by class
    size, against the conjugate characters.  Each cell must lie within
    ``INTEGER_TOL`` of a nonnegative integer in its real part and of 0 in
    its imaginary part; the first cell in C order that does not raises
    ``ConsistencyError``.
    """
    k, classes = shape = (len(characters), group.num_classes)
    chars = np.asarray(characters if k else np.zeros(shape), dtype=np.complex128)
    if chars.shape != shape:
        raise StructuralError("characters must be per-class vectors on the same group")
    vals = (chars[:, None] * chars * group.class_sizes).reshape(k * k, classes) @ chars.conj().T
    vals = vals.reshape(k, k, k) / group.order
    rounded = np.round(vals.real)
    bad = ~((np.abs(vals.real - rounded) <= INTEGER_TOL) & (np.abs(vals.imag) <= INTEGER_TOL))
    bad |= rounded < 0
    if bad.any():
        val = complex(vals[tuple(np.argwhere(bad)[0])])
        raise ConsistencyError(f"character sum {val} is not a nonnegative integer")
    table = rounded.astype(np.int64)
    table.setflags(write=False)
    return table


def _projector_ranks(group: FiniteGroup, reps: Sequence[MatrixRep]) -> np.ndarray:
    """``R[a, b, c] = (1/|G|) sum_g tr rho_c(g) tr rho_a(g^-1) tr rho_b(g^-1)``
    over positions in ``reps``: the trace, so the rank, of the
    group-averaging projector onto ``hom(Ma (x) Mb, Mc)``, read from every
    element's matrices as one ``(k^2, |G|) @ (|G|, k)`` product."""
    k, order = len(reps), group.order
    traces = np.array([np.trace(r.matrices, axis1=1, axis2=2) for r in reps])
    traces = traces.astype(np.complex128).reshape(k, order)
    inv = traces[:, group.inverse]
    return ((inv[:, None] * inv).reshape(k * k, order) @ traces.T).reshape(k, k, k) / order


@dataclass(frozen=True, eq=False)
class RepCatalog:
    """A group with its irreps by label, in a fixed order, held in a
    read-only mapping; its two facts are computed once, when first read.

    ``characters`` checks, in this order, that every irrep lives on
    ``group`` and has finite matrices (one pass), irreducibility and the
    homomorphism property of every irrep (one ``validate_irrep`` call), and
    that no two irreps are equivalent (their characters' Gram matrix, whose
    first off-diagonal cell in C order past ``INTEGER_TOL`` names both); a
    failing check names its first failing irrep in label order.  A check
    that fails raises each time it is read.
    """

    group: FiniteGroup
    irreps: Mapping[str, MatrixRep]

    def __post_init__(self):
        object.__setattr__(self, "irreps", MappingProxyType(dict(self.irreps)))

    @cached_property
    def characters(self) -> np.ndarray:
        """One per-class character per irrep, in label order, as the rows of
        a read-only ``(k, classes)`` array."""
        group = self.group
        for label, rep in self.irreps.items():
            if rep.group is not group:
                raise StructuralError(f"irrep {label!r} lives on a different group")
            if not np.isfinite(rep.matrices).all():  # e.g. generated products that overflow
                raise RepresentationError(f"irrep {label!r} has non-finite matrix entries")
        reps = list(self.irreps.values())
        chars = np.array(validate_irrep(reps), dtype=np.complex128)
        chars = chars.reshape(len(reps), group.num_classes)
        # inequivalent irreps have orthogonal characters; equivalent ones, inner product 1
        gram = (chars * group.class_sizes) @ chars.T.conj() / group.order
        same = np.abs(gram) > INTEGER_TOL
        np.fill_diagonal(same, False)
        if same.any():
            a, b = np.unravel_index(np.argmax(same), same.shape)
            labels = list(self.irreps)
            raise RepresentationError(f"irreps {labels[a]!r} and {labels[b]!r} are equivalent")
        chars.setflags(write=False)
        return chars

    @cached_property
    def hom_dims(self) -> np.ndarray:
        """``N[a, b, c] = dim hom(Ma (x) Mb, Mc)`` over label positions,
        read-only, from one character-sum table.

        Every cell must be the rank of its triple's group-averaging
        projector, read by ``_projector_ranks``, within ``INTEGER_TOL``;
        otherwise ``ConsistencyError`` at the first failing cell in C order."""
        table = hom_dim_table(self.group, self.characters)
        ranks = _projector_ranks(self.group, list(self.irreps.values()))
        bad = ~(np.abs(ranks - table) <= INTEGER_TOL)
        if bad.any():
            cell = np.unravel_index(np.argmax(bad), bad.shape)
            raise ConsistencyError(
                f"projector rank {round(ranks[cell].real)} does not match "
                f"character dimension {int(table[cell])}"
            )
        return table


@dataclass(frozen=True)
class CentralEmbedding:
    """Images in G of the dual generators of the grading group's dual.

    ``images[i]``, one per invariant factor, is the group-element index of the
    i-th standard dual generator; ``validate`` checks that each is central with
    order dividing its factor, so the map extends to a homomorphism.
    """

    grading: FinAbGroup
    images: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.images) != (rank := self.grading.rank):
            raise StructuralError(f"{len(self.images)} embedding images for rank {rank}")

    def validate(self, group: FiniteGroup) -> None:
        for img, n in zip(self.images, self.grading.factors):
            if not 0 <= img < group.order:
                raise StructuralError(f"embedding image {img} is not an element index")
            if img not in group.center:
                raise StructuralError(f"embedding image {img} is not central")
            if n % (order := group.element_order(img)) != 0:
                raise StructuralError(
                    f"embedding image {img} has order {order}, "
                    f"which does not divide the invariant factor {n}"
                )


def grade_of(reps: Sequence[MatrixRep], embedding: CentralEmbedding) -> list[GroupElt]:
    """The unique grade by which the central dual copy acts on each irreducible.

    The grade ``alpha`` has ``rho(iota(chi_i)) = e^{2 pi i alpha_i / n_i} * I``
    for the i-th dual generator ``chi_i``: its residue is read off the angle
    of one diagonal entry of that image, and the whole image is checked
    against that one scalar.  The reps that share a group and a dimension are
    one stack, whose images are read and checked at once; of several reps
    without a grade, the first one's error is raised.
    """
    reps = list(reps)
    grades = _stacked(reps, lambda r: (r.group, r.dim), lambda s: _grade_stack(s, embedding))
    return _raise_first(grades)


def _grade_stack(reps: list[MatrixRep], embedding: CentralEmbedding) -> list:
    """Per rep of one ``(group, dim)`` stack, its grade or the error it raises."""
    factors = embedding.grading.factors
    images = np.array([r.matrices for r in reps])[:, list(embedding.images)]
    grades = [
        tuple(_residue(z, n) for z, n in zip(corners, factors))
        for corners in images[:, :, 0, 0].tolist()
    ]
    scalars = np.array(
        [[root_of_unity(r, n) for r, n in zip(grade, factors)] for grade in grades],
        dtype=np.complex128,
    ).reshape(len(reps), len(factors), 1, 1)
    errs = np.abs(images - scalars * np.eye(reps[0].dim)).max(axis=(2, 3))
    return [
        grade if ok else GradingError(
            "central embedding acts with 0 candidate grades; expected exactly 1"
        )
        for grade, ok in zip(grades, (errs <= MATRIX_TOL).all(axis=1).tolist())
    ]


def _residue(z: complex, n: int) -> int:
    """The residue mod ``n`` nearest to ``n`` turns of the angle of ``z``."""
    turns = cmath.phase(z) * n / (2 * math.pi)
    return round(turns) % n if math.isfinite(turns) else 0


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
