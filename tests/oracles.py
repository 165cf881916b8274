"""Reference values that tests compare the library against, each written
from its definition rather than from the code under test, among them the
group facts read element by element;
``intertwiner_basis``, bases of intertwiner spaces from the group-averaging
projector; ``catalog_refusal`` and ``cli_outcome``, what a catalog of irreps
given on generators must be refused with, and how each command says so; and
``unchecked_category``, the one way for a test to put a category over tables
that fail the cocycle axioms."""

import cmath
import math
from collections import deque
from collections.abc import Sequence
from fractions import Fraction
from itertools import count, product

import numpy as np

from twistcat.cocycle import AbelianCocycle
from twistcat.errors import ConsistencyError, RepresentationError, StructuralError
from twistcat.grouprep import (
    INTEGER_TOL,
    MATRIX_TOL,
    GradedIrrep,
    MatrixRep,
    _raise_first,
    _stacked,
)
from twistcat.modcat import TwistedCategory
from twistcat.unitscalar import root_of_unity

INTERTWINER_TOL = 1e-8


def add(group, a, b):
    """``a + b`` in ``Z/n_1 x ... x Z/n_k``: both summands checked as reduced
    elements, then residues added componentwise mod each ``n_i``."""
    group.check(a), group.check(b)
    return tuple((x + y) % n for x, y, n in zip(a, b, group.factors))


def neg(group, a):
    """``-a`` in ``Z/n_1 x ... x Z/n_k``: ``a`` checked as a reduced element,
    then each residue negated mod its ``n_i``."""
    group.check(a)
    return tuple(-x % n for x, n in zip(a, group.factors))


def exponent(group) -> int:
    """The least ``m >= 1`` with ``m a = 0`` for every element ``a``."""
    elements = list(group.elements())
    return next(
        m for m in count(1)
        if all(m * x % n == 0 for a in elements for x, n in zip(a, group.factors))
    )


def tensor_rep(m1, m2):
    """The tensor product representation ``g -> rho1(g) kron rho2(g)``, with
    composite index ``(i, j) -> i * d2 + j``."""
    return MatrixRep(m1.group, np.array([np.kron(a, b) for a, b in zip(m1.matrices, m2.matrices)]))


def conjugacy_classes(group) -> tuple[tuple[int, ...], ...]:
    """The classes as sorted index tuples, ordered by smallest member: the
    orbit ``{g a g^-1}`` of each element ``a`` in no earlier orbit."""
    seen = np.zeros(group.order, dtype=bool)
    classes = []
    for a in range(group.order):
        if seen[a]:
            continue
        orbit = {int(group.table[group.table[g, a], group.inverse[g]]) for g in range(group.order)}
        seen[list(orbit)] = True
        classes.append(tuple(sorted(orbit)))
    return tuple(classes)


def center(group) -> tuple[int, ...]:
    """The elements whose row of the table equals their column, ascending."""
    return tuple(
        a for a in range(group.order) if np.array_equal(group.table[a], group.table[:, a])
    )


def element_order(group, a: int) -> int:
    """The least ``k >= 1`` with ``a^(k+1) = a``, by multiplying by ``a`` in
    the table."""
    k, x = 1, group.table[a, a]
    while x != a:
        k, x = k + 1, group.table[x, a]
    return k


def permutation_closure(generators) -> list[tuple[int, ...]]:
    """Every product of the permutations ``generators``, sorted
    lexicographically: breadth-first from the identity by composing
    ``p[g[k]]``, with no cap on the order."""
    gens = [tuple(g) for g in generators]
    identity = tuple(range(len(gens[0])))
    elements, frontier = {identity}, [identity]
    while frontier:
        products = {tuple(p[k] for k in g) for p in frontier for g in gens}
        frontier = list(products - elements)
        elements |= products
    return sorted(elements)


def permutation_table(elements) -> np.ndarray:
    """``[i, j]`` is the index in ``elements`` of ``p_i(p_j(k))``, the
    permutation ``k -> p[q[k]]`` for ``p, q = elements[i], elements[j]``,
    filled pair by pair."""
    index = {p: i for i, p in enumerate(elements)}
    table = np.empty((len(elements), len(elements)), dtype=np.int64)
    for i, p in enumerate(elements):
        for j, q in enumerate(elements):
            table[i, j] = index[tuple(p[q[k]] for k in range(len(p)))]
    return table


def cyclic_characters(n: int) -> dict[str, np.ndarray]:
    """Z/n's characters ``chi_k(g^a) = e^{2 pi i (k a mod n) / n}`` as
    ``(n, 1, 1)`` complex stacks by label, entry by entry from one list of
    roots, with ``chi_k(e)`` exactly 1."""
    roots = [cmath.exp(2j * cmath.pi * r / n) for r in range(n)]
    roots[0] = 1.0
    return {
        f"chi{k}": np.array([[[roots[k * a % n]]] for a in range(n)], dtype=np.complex128)
        for k in range(n)
    }


def hom_dim(group, chi1, chi2, chi3) -> int:
    """``dim hom(M1 (x) M2, M3) = (1/|G|) sum_g chi1(g) chi2(g) conj(chi3(g))``
    for one triple of per-class characters, raising ``ConsistencyError``
    unless the sum is a nonnegative integer within ``INTEGER_TOL``."""
    chi1, chi2, chi3 = (np.asarray(c, dtype=np.complex128) for c in (chi1, chi2, chi3))
    if not chi1.shape == chi2.shape == chi3.shape == (group.num_classes,):
        raise StructuralError("characters must be per-class vectors on the same group")
    val = complex(np.sum(group.class_sizes * chi1 * chi2 * np.conj(chi3))) / group.order
    rounded = float(np.rint(val.real))  # a NaN stays NaN, where round() raises
    if not (abs(val.real - rounded) <= INTEGER_TOL and abs(val.imag) <= INTEGER_TOL) or rounded < 0:
        raise ConsistencyError(f"character sum {val} is not a nonnegative integer")
    return int(rounded)


def validate_irrep(rep):
    """The character of one rep as a per-class vector, after its checks in
    order: ``dim^2 <= |G|``, the identity, the homomorphism property (naming
    the lowest failing ``a``), class constancy (naming the lowest failing
    class) and ``<chi, chi> = 1``, each raising ``RepresentationError``."""
    group, mats, d = rep.group, rep.matrices, rep.dim
    if d * d > group.order:
        raise RepresentationError(
            f"dimension {d} is too large for an irrep: {d}^2 > |G| = {group.order}"
        )
    if not np.array_equal(mats[group.identity], np.eye(d)):
        raise RepresentationError("identity element is not represented by the identity matrix")
    errs = np.abs(mats[:, None] @ mats[None] - mats[group.table]).max(axis=(1, 2, 3))
    bad = ~(errs <= MATRIX_TOL)
    if bad.any():
        a = int(np.argmax(bad))
        raise RepresentationError(
            f"not a homomorphism: |rho(a)rho(b) - rho(ab)| = {errs[a]:.2e} at a={a}"
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
    return chars


def generated_rep(group, generators, matrices) -> MatrixRep:
    """The matrices on ``generators`` extended along the breadth-first walk
    from the identity by right multiplication, generators taken in order:
    each element ``b = a g_k`` first reached from ``a`` gets
    ``rho(a) @ rho(g_k)``, one matmul of the same operands as any such walk."""
    mats = [np.asarray(m, dtype=np.complex128) for m in matrices]
    out = np.full((group.order, *mats[0].shape), np.nan, dtype=np.complex128)
    out[group.identity] = np.eye(len(mats[0]))
    queue, seen = deque([group.identity]), {group.identity}
    while queue:
        a = queue.popleft()
        for g, m in zip(generators, mats):
            b = int(group.table[a, g])
            if b not in seen:
                seen.add(b)
                queue.append(b)
                out[b] = out[a] @ m
    assert len(seen) == group.order, "the generators do not generate the group"
    return MatrixRep(group, out)


def character_gram(reps: Sequence[MatrixRep]) -> np.ndarray:
    """``<chi_a, chi_b> = (1/|G|) sum_g chi_a(g) conj(chi_b(g))`` over every
    pair, summed over the elements, not the classes, from each element's
    trace: 1 for equivalent irreps, 0 for inequivalent ones."""
    traces = np.array([np.trace(r.matrices, axis1=1, axis2=2) for r in reps])
    return traces @ traces.conj().T / traces.shape[1]


def catalog_refusal(irreps: dict, images, factors, complete: bool) -> tuple | None:
    """``(kind, message)`` that a category must refuse the catalog ``irreps``
    (label -> ``MatrixRep``, in label order) graded through ``images`` with,
    or ``None``: its checks in the order a category runs them, on a valid
    cocycle and one element index per grading factor.  The first image, in
    factor order, that is not in ``center`` or whose ``element_order`` does
    not divide its factor; then the first irrep in label order that fails
    ``validate_irrep``; then the first pair of distinct irreps, in C
    order of the Gram matrix, with ``|<chi_a, chi_b>| > INTEGER_TOL``; then
    the first irrep on which some image acts by no scalar ``n``-th root of
    unity; then, for a complete catalog, ``sum dim^2 != |G|``.  ``kind`` is
    ``"validation"`` or ``"structural"``."""
    labels, reps = list(irreps), list(irreps.values())
    group = reps[0].group
    for img, n in zip(images, factors):
        if img not in center(group):
            return "structural", f"embedding image {img} is not central"
        if n % (order := element_order(group, img)):
            message = f"embedding image {img} has order {order}, which does not divide"
            return "structural", f"{message} the invariant factor {n}"
    for rep in reps:
        try:
            validate_irrep(rep)
        except RepresentationError as exc:
            return "validation", str(exc)
    same = np.abs(character_gram(reps)) > INTEGER_TOL
    for a, b in product(range(len(reps)), repeat=2):
        if a != b and same[a, b]:
            return "validation", f"irreps {labels[a]!r} and {labels[b]!r} are equivalent"
    for rep in reps:
        scalars = [
            [cmath.exp(2j * cmath.pi * r / n) * np.eye(rep.dim) for r in range(n)] for n in factors
        ]
        if not all(
            any(np.abs(rep.matrices[img] - z).max() <= MATRIX_TOL for z in roots)
            for img, roots in zip(images, scalars)
        ):
            message = "central embedding acts with 0 candidate grades; expected exactly 1"
            return "validation", message
    total, order = sum(r.dim**2 for r in reps), group.order
    if complete and total != order:
        message = f"catalog declared complete but sum of dim^2 = {total} != |G| = {order}"
        return "structural", message
    return None


def cli_outcome(command: str, refusal: tuple | None, complete: bool) -> tuple:
    """``(exit code, stderr, failing verdict or None)`` of ``verify``,
    ``fusion`` or ``smatrix`` on a spec with a valid cocycle whose catalog
    ``catalog_refusal`` answers ``refusal``: ``verify`` fails
    ``irreps-valid`` with the message and exits 1; the others print it and
    exit 1 for a validation failure, 2 for a structural one.  An accepted
    incomplete catalog has no fusion table."""
    if refusal is None:
        if command == "fusion" and not complete:
            return 2, "error: fusion tables require a complete irrep catalog\n", None
        return 0, "", None
    kind, message = refusal
    if command == "verify":
        return 1, "", {"check": "irreps-valid", "status": "fail", "detail": message}
    if kind == "validation":
        return 1, f"validation failure: {message}\n", None
    return 2, f"error: {message}\n", None


def intertwiner_basis(
    m1: Sequence[MatrixRep], m2: Sequence[MatrixRep], m3: Sequence[MatrixRep], *,
    expected: Sequence[int],
) -> list:
    """One basis of ``hom(M1 (x) M2, M3)`` per triple ``(m1[t], m2[t], m3[t])``,
    via the group-averaging projector.

    The projector ``P(T) = (1/|G|) sum_g rho3(g) T (rho1 (x) rho2)(g^{-1})``
    acts on d3 x (d1 d2) matrices; its fixed space is the intertwiner space.
    Its rank must equal the triple's ``expected`` rank, the character-sum
    dimension, exactly; ``expected`` has one rank per triple.  The triples
    that share a group and a dimension signature ``(d1, d2, d3)`` are one
    stack, evaluated by one projector sum, one batched SVD and one batched
    intertwiner check.  Each item runs the same elementwise products, ``svd``
    and ``matmul`` kernels on the same operands as a one-item stack, so a
    triple's basis and errors do not depend on the other triples.  A failing
    triple raises its first error in the order the checks run for it; of
    several, the first triple's.
    """
    items = list(zip(m1, m2, m3, expected, strict=True))
    if not all(r1.group is r2.group is r3.group for r1, r2, r3, _ in items):
        raise StructuralError("all three representations must share one group")
    bases = _stacked(
        items, lambda t: (t[0].group, t[0].dim, t[1].dim, t[2].dim), _intertwiner_stack
    )
    return _raise_first(bases)


def _intertwiner_stack(items) -> list:
    """Per ``(rep1, rep2, rep3, expected rank)`` of one stack, its basis or
    the error it raises."""
    group = items[0][0].group
    n = group.order
    rho1, rho2, rho3 = (np.array([t[k].matrices for t in items]) for k in range(3))
    d_in, d_out = rho1.shape[-1] * rho2.shape[-1], rho3.shape[-1]
    dim = d_out * d_in
    outcomes: list = [None] * len(items)

    # (rho1 (x) rho2)(g), elementwise Kronecker products with composite index
    # (i, j) -> i * d2 + j
    prod = np.einsum("tnij,tnkl->tnikjl", rho1, rho2).reshape(len(items), n, d_in, d_in)
    # row-major vec: vec(A T B) = (A kron B^T) vec(T), and B^T = dual(g) for
    # B = (rho1 (x) rho2)(g^{-1}); all |G| Kronecker factors in one product
    dual = np.ascontiguousarray(prod[:, group.inverse].swapaxes(-1, -2))
    kron = rho3[:, :, :, None, :, None] * dual[:, :, None, :, None, :]
    proj = kron.reshape(len(items), n, dim, dim).sum(axis=1)
    proj /= n

    idem_err = np.abs(proj @ proj - proj).max(axis=(1, 2))
    for i in np.flatnonzero(~(idem_err <= INTERTWINER_TOL)).tolist():
        outcomes[i] = ConsistencyError(f"averaging projector not idempotent: {idem_err[i]:.2e}")
        proj[i] = 0  # its SVD is not read; zeros keep the stacked SVD finite

    u, sing, _ = np.linalg.svd(proj)
    ranks = np.sum(sing > 0.5, axis=1)
    # the first r columns of u as d_out x d_in views, strided as a single
    # triple's, each checked against every group element
    r = int(ranks.max())
    basis = u[:, :, :r].swapaxes(1, 2).reshape(len(items), r, d_out, d_in)
    t = basis[:, :, None]
    errs = np.abs(rho3[:, None] @ t - t @ prod[:, None]).max(axis=(2, 3, 4))
    bad = ~(errs <= INTERTWINER_TOL) & (np.arange(r) < ranks[:, None])
    failing = bad.any(axis=1).tolist()
    for i, (rank, (*_, expected)) in enumerate(zip(ranks.tolist(), items)):
        if outcomes[i] is not None:
            continue
        if rank != expected:
            outcomes[i] = ConsistencyError(
                f"projector rank {rank} does not match character dimension {expected}"
            )
        elif failing[i]:
            err = errs[i, np.argmax(bad[i])]
            outcomes[i] = ConsistencyError(f"projector output is not an intertwiner: {err:.2e}")
        else:
            outcomes[i] = list(basis[i, :rank])
    return outcomes


def fusion_dict(labels, coefficients) -> dict:
    """``{a: {b: {c: N^c_ab}}}`` over every label pair, each cell holding its
    nonzero coefficients as ints, read cell by cell."""
    return {
        la: {
            lb: {
                lc: int(coefficients[a, b, c])
                for c, lc in enumerate(labels)
                if coefficients[a, b, c]
            }
            for b, lb in enumerate(labels)
        }
        for a, la in enumerate(labels)
    }


def q(cocycle, a) -> Fraction:
    """The quadratic form ``q(a) = Omega(a, a)``, as an exponent in [0, 1)."""
    i = cocycle.group.index(a)
    return Fraction(int(cocycle.omega_num[i, i]), cocycle.denom)


def b(cocycle, a1, a2) -> Fraction:
    """The polarization ``b(a1, a2) = q(a1 + a2) - q(a1) - q(a2)``, in [0, 1)."""
    return (q(cocycle, add(cocycle.group, a1, a2)) - q(cocycle, a1) - q(cocycle, a2)) % 1


def pairing(group, chi, alpha) -> Fraction:
    """Exponent of the dual character ``chi`` at ``alpha``: ``sum_i chi_i alpha_i / n_i`` mod 1."""
    return sum(Fraction(t * x, n) for t, x, n in zip(chi, alpha, group.factors)) % 1


def f(cocycle, a1, a2, a3) -> Fraction:
    """``F(a1, a2, a3)`` as an exponent in [0, 1), read from its numerator."""
    g = cocycle.group
    return Fraction(int(cocycle.f_num[g.index(a1), g.index(a2), g.index(a3)]), cocycle.denom)


def omega(cocycle, a1, a2) -> Fraction:
    """``Omega(a1, a2)`` as an exponent in [0, 1), read from its numerator."""
    g = cocycle.group
    return Fraction(int(cocycle.omega_num[g.index(a1), g.index(a2)]), cocycle.denom)


def first_nonassociative(coeff, rows=None):
    """The first ``(a, b, c, d)`` in C order where ``sum_e N^e_ab N^d_ec`` and
    ``sum_f N^d_af N^f_bc`` differ, from both sides as whole int64 sums over
    the ``a`` in ``rows`` (all ``k`` by default, a ``k^4`` table); ``None``
    when the coefficients are associative there."""
    rows = np.arange(len(coeff)) if rows is None else np.asarray(rows)
    lhs = np.einsum("abe,ecd->abcd", coeff[rows], coeff)
    rhs = np.einsum("afd,bcf->abcd", coeff[rows], coeff)
    bad = np.argwhere(lhs != rhs)
    if not len(bad):
        return None
    a, b, c, d = map(int, bad[0])
    return int(rows[a]), b, c, d


def check_invariants(coefficients, dims, unit):
    """The ring identities of fusion coefficients ``N[a, b, c] = N^c_ab``, in
    order, each raising ``ConsistencyError`` at its first failing cell in C
    order: symmetry in ``(a, b)``, the row of the trivial character at index
    ``unit`` equal to the identity delta ``N^c_{1b} = [b = c]``, and the
    dimension rule ``sum_c N^c_ab d_c = d_a d_b``."""
    coeff = np.asarray(coefficients, dtype=np.int64)
    d = np.asarray(dims, dtype=np.int64)
    for bad, what in [
        (coeff != coeff.transpose(1, 0, 2), "fusion coefficients are not symmetric"),
        (coeff[unit] != np.eye(len(coeff), dtype=np.int64), "unit row is not the identity delta"),
        (coeff @ d != np.outer(d, d), "dimension rule fails"),
    ]:
        if bad.any():
            raise ConsistencyError(f"{what} at {tuple(map(int, np.argwhere(bad)[0]))}")


def coboundary(c, phi, q):
    """``c`` twisted by the coboundary of the 2-cochain ``g = phi / q``, any
    ``g``, normalized or not: ``F(a1, a2, a3) + g(a2, a3) - g(a1 + a2, a3)
    + g(a1, a2 + a3) - g(a1, a2)`` and ``Omega(a1, a2) + g(a1, a2) -
    g(a2, a1)``, as ``(f_num, omega_num, denom)`` over the lcm of ``c.denom``
    and ``q``, read element by element.  ``phi`` is indexed by the
    enumeration of ``c.group``."""
    group, big = c.group, math.lcm(c.denom, q)
    elements = list(group.elements())
    at = {x: i for i, x in enumerate(elements)}
    g = {(x, y): int(phi[at[x], at[y]]) * (big // q) for x in elements for y in elements}
    n, scale = len(elements), big // c.denom
    f_num = np.zeros((n, n, n), dtype=np.int64)
    omega_num = np.zeros((n, n), dtype=np.int64)
    for x, y, z in product(elements, repeat=3):
        f_num[at[x], at[y], at[z]] = (
            int(c.f_num[at[x], at[y], at[z]]) * scale + g[y, z]
            - g[add(group, x, y), z] + g[x, add(group, y, z)] - g[x, y]
        ) % big
    for x, y in product(elements, repeat=2):
        omega_num[at[x], at[y]] = (
            int(c.omega_num[at[x], at[y]]) * scale + g[x, y] - g[y, x]
        ) % big
    return f_num, omega_num, big


def dual_rep(m):
    """The contragredient representation ``g -> rho(g^-1)^T``."""
    group = m.group
    return MatrixRep(group, np.array([m.matrices[group.inverse[g]].T for g in range(group.order)]))


def dual(cat, m):
    """The contragredient of a catalog member: grade negated, character conjugated."""
    grade = neg(cat.grading, m.grade)
    return GradedIrrep(m.label + "*", dual_rep(m.rep), grade, np.conj(m.character))


def cat_trace(cat, m, f) -> complex:
    """The categorical trace ``e_M . R_{M,M*} . ((theta f) (x) 1) . i_M`` of an
    endomorphism ``f`` of a catalog member or tensor word ``M``, composed as
    dense matrices from the category's structure maps; ``M*`` is the reversed
    word of contragredients."""
    word = m if isinstance(m, tuple) else (m,)
    dual_word = tuple(dual(cat, x) for x in reversed(word))
    theta_f = cat.twist(word).to_complex() * np.asarray(f, dtype=np.complex128)
    middle = cat.braiding(word, dual_word) @ np.kron(theta_f, np.eye(len(theta_f)))
    return complex((cat.evaluation(word) @ middle @ cat.coevaluation(word))[0, 0])


def s_trace(cat, m, n) -> complex:
    """The categorical trace of the double braiding on ``M (x) N``: a float S entry."""
    return cat_trace(cat, (m, n), cat.braiding(n, m) @ cat.braiding(m, n))


def dim_sum(cat, x) -> complex:
    """``sum_M (dim M)(dim M*)`` over the catalog, where a grade-``a`` object
    of dimension ``d`` has categorical dimension ``d e^{2 pi i x[a] / denom}``
    and ``M*`` has grade ``-a`` and dimension ``d``."""
    g, denom = cat.grading, cat.cocycle.denom
    return sum(
        m.dim * root_of_unity(int(x[g.index(m.grade)]), denom)
        * m.dim * root_of_unity(int(x[g.index(neg(g, m.grade))]), denom)
        for m in cat.catalog
    )


def unchecked_category(reps, cocycle, embedding, **kw):
    """A category over ``cocycle`` whether or not it passes validation, for
    tests that read its structure maps and suite over faulty tables: built
    over the trivial cocycle on the same grading group, then given
    ``cocycle``.  Construction reads only the grading and the cocycle
    report, and every scalar is read from ``cat.cocycle`` at call time."""
    cat = TwistedCategory(reps, AbelianCocycle.trivial(cocycle.group), embedding, **kw)
    cat.cocycle = cocycle
    return cat
