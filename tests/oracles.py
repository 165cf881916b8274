"""Reference values that tests compare the library against, each written
from its definition rather than from the code under test, and
``unchecked_category``, the one way for a test to put a category over tables
that fail the cocycle axioms."""

import warnings
from fractions import Fraction
from itertools import count

import numpy as np

from twistcat.cocycle import AbelianCocycle
from twistcat.errors import ConsistencyError, RepresentationError, StructuralError
from twistcat.grouprep import INTEGER_TOL, MATRIX_TOL, GradedIrrep, MatrixRep
from twistcat.modcat import TwistedCategory
from twistcat.unitscalar import root_of_unity


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
    class) and ``<chi, chi> = 1``, each raising ``RepresentationError``;
    a non-unitary rep is warned on."""
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
    unit_err = float(np.abs(mats @ mats.conj().transpose(0, 2, 1) - np.eye(d)).max())
    if unit_err > 1e-6:
        warnings.warn(f"representation is not unitary (deviation {unit_err:.2e})")
    return chars


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


def first_nonassociative(coeff):
    """The first ``(a, b, c, d)`` in C order where ``sum_e N^e_ab N^d_ec`` and
    ``sum_f N^d_af N^f_bc`` differ, from both sides as whole ``k^4`` int64
    sums; ``None`` when the coefficients are associative."""
    lhs = np.einsum("abe,ecd->abcd", coeff, coeff)
    rhs = np.einsum("afd,bcf->abcd", coeff, coeff)
    bad = np.argwhere(lhs != rhs)
    return tuple(map(int, bad[0])) if len(bad) else None


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


def unchecked_category(group, cocycle, embedding, irreps, **kw):
    """A category over ``cocycle`` whether or not it passes validation, for
    tests that read its structure maps and suite over faulty tables: built
    over the trivial cocycle on the same grading group, then given
    ``cocycle``.  Construction reads only the grading and the cocycle
    report, and every scalar is read from ``cat.cocycle`` at call time."""
    cat = TwistedCategory(group, AbelianCocycle.trivial(cocycle.group), embedding, irreps, **kw)
    cat.cocycle = cocycle
    return cat
