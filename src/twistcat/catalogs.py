"""Built-in groups with complete irreducible catalogs: Z/n, S3, D4, Q8.

Each builder returns ``(FiniteGroup, {label: MatrixRep})`` with the full set
of irreducibles, in a fixed deterministic order.  Users supply anything else
through spec files (multiplication table or permutation generators, plus
per-generator irrep matrices).
"""

from __future__ import annotations

import cmath
import math
import re

import numpy as np

from .errors import StructuralError
from .grouprep import MAX_GROUP_ORDER, FiniteGroup, MatrixRep


def cyclic_group(n: int) -> tuple[FiniteGroup, dict[str, MatrixRep]]:
    """Z/n with its n one-dimensional characters ``g -> e^{2 pi i k/n}``."""
    if n < 1:
        raise StructuralError("cyclic order must be >= 1")
    if n > MAX_GROUP_ORDER:
        raise StructuralError(f"cyclic order {n} exceeds MAX_GROUP_ORDER = {MAX_GROUP_ORDER}")
    idx = np.arange(n)
    table = (idx[:, None] + idx[None, :]) % n
    group = FiniteGroup(table, element_names=[f"g^{a}" for a in range(n)])
    reps = {}
    for k in range(n):
        mats = np.array(
            [[[cmath.exp(2j * cmath.pi * (k * a % n) / n)]] for a in range(n)]
        )
        mats[0] = 1.0  # exact identity
        reps[f"chi{k}"] = MatrixRep(group, mats)
    return group, reps


def _two_gen_group(order_r: int, r_mat, s_mat, twist: int, names):
    """Group with elements r^a s^b, s^2 central relation via ``twist``:
    (a1,b1)(a2,b2) = (a1 + (-1)^{b1} a2 + twist*b1*b2, b1 + b2).

    twist = 0 gives the dihedral relation s^2 = 1; twist = order_r // 2 gives
    the quaternion relation s^2 = r^{order_r/2}.
    """
    n = 2 * order_r

    def mul(x, y):
        a1, b1 = x
        a2, b2 = y
        sign = -1 if b1 else 1
        return ((a1 + sign * a2 + twist * b1 * b2) % order_r, (b1 + b2) % 2)

    elements = [(a, b) for b in range(2) for a in range(order_r)]
    index = {e: i for i, e in enumerate(elements)}
    table = np.empty((n, n), dtype=np.int64)
    for i, x in enumerate(elements):
        for j, y in enumerate(elements):
            table[i, j] = index[mul(x, y)]
    group = FiniteGroup(table, element_names=[names(a, b) for a, b in elements])

    two_dim = np.empty((n, 2, 2), dtype=np.complex128)
    r_mat = np.asarray(r_mat, dtype=np.complex128)
    s_mat = np.asarray(s_mat, dtype=np.complex128)
    for i, (a, b) in enumerate(elements):
        two_dim[i] = np.linalg.matrix_power(r_mat, a) @ np.linalg.matrix_power(s_mat, b)
    two_dim[index[(0, 0)]] = np.eye(2)

    return group, elements, index, two_dim


def dihedral4_group() -> tuple[FiniteGroup, dict[str, MatrixRep]]:
    """D4 of order 8: four one-dimensional irreps and one two-dimensional."""
    rot = [[0, -1], [1, 0]]
    refl = [[1, 0], [0, -1]]
    group, elements, _, two_dim = _two_gen_group(
        4, rot, refl, twist=0, names=lambda a, b: f"r^{a}" + ("s" if b else "")
    )
    reps = {}
    for u, v, label in [(1, 1, "trivial"), (1, -1, "sign-s"), (-1, 1, "sign-r"), (-1, -1, "sign-rs")]:
        mats = np.array([[[complex(u**a * v**b)]] for a, b in elements])
        reps[label] = MatrixRep(group, mats)
    reps["standard"] = MatrixRep(group, two_dim)
    return group, reps


def quaternion_group() -> tuple[FiniteGroup, dict[str, MatrixRep]]:
    """Q8: elements i^a j^b; four one-dimensional irreps and the spin irrep."""
    i_mat = [[1j, 0], [0, -1j]]
    j_mat = [[0, -1], [1, 0]]

    def name(a, b):
        base = {0: "1", 1: "i", 2: "-1", 3: "-i"}[a]
        return base if b == 0 else ("j" if a == 0 else f"{base}*j")

    group, elements, _, two_dim = _two_gen_group(4, i_mat, j_mat, twist=2, names=name)
    reps = {}
    for u, v, label in [(1, 1, "trivial"), (1, -1, "sign-j"), (-1, 1, "sign-i"), (-1, -1, "sign-k")]:
        mats = np.array([[[complex(u**a * v**b)]] for a, b in elements])
        reps[label] = MatrixRep(group, mats)
    reps["spin"] = MatrixRep(group, two_dim)
    return group, reps


def symmetric3_group() -> tuple[FiniteGroup, dict[str, MatrixRep]]:
    """S3 as permutations of three letters: trivial, sign, and standard irreps."""
    group = FiniteGroup.from_permutations([(1, 2, 0), (1, 0, 2)])
    perms = group.element_names

    def parity(p) -> int:
        inversions = sum(1 for i in range(3) for j in range(i + 1, 3) if p[i] > p[j])
        return (-1) ** inversions

    trivial = MatrixRep(group, np.ones((6, 1, 1), dtype=np.complex128))
    sign = MatrixRep(group, np.array([[[complex(parity(p))]] for p in perms]))

    c, s = math.cos(2 * math.pi / 3), math.sin(2 * math.pi / 3)
    rot = np.array([[c, -s], [s, c]])
    refl = np.array([[1.0, 0.0], [0.0, -1.0]])
    # decompose each permutation as rot^a refl^b over the geometric action
    rep_of = {}
    for a in range(3):
        for b in range(2):
            base = (1, 2, 0)
            p = (0, 1, 2)
            for _ in range(a):
                p = tuple(p[base[i]] for i in range(3))
            if b:
                swap = (1, 0, 2)
                p = tuple(p[swap[i]] for i in range(3))
            rep_of[p] = np.linalg.matrix_power(rot, a) @ np.linalg.matrix_power(refl, b)
    std = np.stack([rep_of[p] for p in perms]).astype(np.complex128)
    std[list(perms).index((0, 1, 2))] = np.eye(2)
    standard = MatrixRep(group, std)
    return group, {"trivial": trivial, "sign": sign, "standard": standard}


_BUILTIN_BUILDERS = {
    "s3": symmetric3_group,
    "d4": dihedral4_group,
    "q8": quaternion_group,
}


def builtin_catalog(name: str) -> tuple[FiniteGroup, dict[str, MatrixRep]]:
    """Look up a builtin by name; ``zN`` (for example ``z4``) is the cyclic family."""
    key = name.lower()
    if key in _BUILTIN_BUILDERS:
        return _BUILTIN_BUILDERS[key]()
    # ASCII digits only, and few enough that int() is cheap; the order cap
    # is checked by cyclic_group
    if re.fullmatch(r"z[0-9]{1,6}", key):
        return cyclic_group(int(key[1:]))
    raise StructuralError(f"unknown builtin group {name!r}; use zN, s3, d4 or q8")
