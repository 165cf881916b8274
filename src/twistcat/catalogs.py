"""Built-in groups with complete irreducible catalogs: Z/n, S3, D4, Q8.

Each builder returns ``(FiniteGroup, {label: MatrixRep})`` with the full set
of irreducibles, in a fixed deterministic order.  Z/n's characters are closed
forms.  The S3, D4 and Q8 irreps are given as generator matrices, one matrix
per generator as in spec files, and extended to the whole group by
``rep_from_generators``, which replays one walk of the group for all of them.
Users supply anything else through spec files (multiplication table or
permutation generators, plus per-generator irrep matrices).

A builtin catalog is a constant of its name: ``builtin_catalog`` builds it
as one read-only ``RepCatalog`` per builder and argument, once per process,
so its irreps are validated and its multiplicities computed once however
many specs grade and twist it.  Nothing is built at import.
"""

from __future__ import annotations

import cmath
import functools
import math
import re

import numpy as np

from .errors import StructuralError
from .grouprep import MAX_GROUP_ORDER, FiniteGroup, MatrixRep, RepCatalog, rep_from_generators


def cyclic_group(n: int) -> tuple[FiniteGroup, dict[str, MatrixRep]]:
    """Z/n with its n one-dimensional characters ``g -> e^{2 pi i k/n}``."""
    if n < 1:
        raise StructuralError("cyclic order must be >= 1")
    if n > MAX_GROUP_ORDER:
        raise StructuralError(f"cyclic order {n} exceeds MAX_GROUP_ORDER = {MAX_GROUP_ORDER}")
    idx = np.arange(n)
    table = (idx[:, None] + idx[None, :]) % n
    group = FiniteGroup(table, element_names=[f"g^{a}" for a in range(n)])
    roots = np.array([cmath.exp(2j * cmath.pi * r / n) for r in range(n)])
    roots[0] = 1.0  # exact identity
    chars = roots[idx[:, None] * idx % n].reshape(n, n, 1, 1)  # [k, a] is chi_k(g^a)
    return group, {f"chi{k}": MatrixRep(group, chars[k]) for k in range(n)}


def _generated(group: FiniteGroup, generators, irreps: dict) -> dict[str, MatrixRep]:
    """``{label: (one matrix per generator)}`` extended to the whole group."""
    return {label: rep_from_generators(group, generators, mats) for label, mats in irreps.items()}


def _two_gen_group(order_r: int, twist: int, names) -> FiniteGroup:
    """Group with elements r^a s^b at index ``a + order_r * b``, so r is
    element 1 and s is element ``order_r``, and s^2 central relation via
    ``twist``: (a1,b1)(a2,b2) = (a1 + (-1)^{b1} a2 + twist*b1*b2, b1 + b2).

    twist = 0 gives the dihedral relation s^2 = 1; twist = order_r // 2 gives
    the quaternion relation s^2 = r^{order_r/2}.
    """
    b, a = np.divmod(np.arange(2 * order_r), order_r)
    a_prod = a[:, None] + (1 - 2 * b[:, None]) * a[None, :] + twist * b[:, None] * b[None, :]
    table = a_prod % order_r + order_r * ((b[:, None] + b[None, :]) % 2)
    return FiniteGroup(table, element_names=[names(x, y) for x, y in zip(a, b)])


def dihedral4_group() -> tuple[FiniteGroup, dict[str, MatrixRep]]:
    """D4 of order 8: four one-dimensional irreps and one two-dimensional,
    given on the rotation r and the reflection s."""
    group = _two_gen_group(4, 0, names=lambda a, b: f"r^{a}" + ("s" if b else ""))
    return group, _generated(group, (1, 4), {
        "trivial": ([[1]], [[1]]),
        "sign-s": ([[1]], [[-1]]),
        "sign-r": ([[-1]], [[1]]),
        "sign-rs": ([[-1]], [[-1]]),
        "standard": ([[0, -1], [1, 0]], [[1, 0], [0, -1]]),
    })


def quaternion_group() -> tuple[FiniteGroup, dict[str, MatrixRep]]:
    """Q8: elements i^a j^b; four one-dimensional irreps and the spin irrep,
    given on i and j."""

    def name(a, b):
        base = {0: "1", 1: "i", 2: "-1", 3: "-i"}[a]
        return base if b == 0 else ("j" if a == 0 else f"{base}*j")

    group = _two_gen_group(4, 2, names=name)
    return group, _generated(group, (1, 4), {
        "trivial": ([[1]], [[1]]),
        "sign-j": ([[1]], [[-1]]),
        "sign-i": ([[-1]], [[1]]),
        "sign-k": ([[-1]], [[-1]]),
        "spin": ([[1j, 0], [0, -1j]], [[0, -1], [1, 0]]),
    })


def symmetric3_group() -> tuple[FiniteGroup, dict[str, MatrixRep]]:
    """S3 as permutations of three letters: trivial, sign, and standard irreps,
    given on the 3-cycle (1, 2, 0) and the transposition (1, 0, 2); the
    standard irrep is their geometric action on the plane."""
    cycle, swap = (1, 2, 0), (1, 0, 2)
    group = FiniteGroup.from_permutations([cycle, swap])
    c, s = math.cos(2 * math.pi / 3), math.sin(2 * math.pi / 3)
    return group, _generated(group, [group.element_names.index(p) for p in (cycle, swap)], {
        "trivial": ([[1]], [[1]]),
        "sign": ([[1]], [[-1]]),
        "standard": ([[c, -s], [s, c]], [[1, 0], [0, -1]]),
    })


_BUILTIN_BUILDERS = {
    "s3": symmetric3_group,
    "d4": dihedral4_group,
    "q8": quaternion_group,
}


def builtin_builder(name: str) -> tuple:
    """The builder of the builtin named ``name`` and its argument, if any:
    ``zN`` (for example ``z4``, ``1 <= N <= MAX_GROUP_ORDER``) is
    ``(cyclic_group, N)``, and ``s3``, ``d4`` and ``q8`` are their builders
    alone.  Raises ``StructuralError`` for any other name."""
    key = name.lower()
    # ASCII digits only, and few enough that int() is cheap
    if re.fullmatch(r"z[0-9]{1,6}", key) and 1 <= int(key[1:]) <= MAX_GROUP_ORDER:
        return cyclic_group, int(key[1:])
    if key not in _BUILTIN_BUILDERS:
        raise StructuralError(
            f"unknown builtin group {name[:40]!r}; use zN with 1 <= N <= {MAX_GROUP_ORDER},"
            " s3, d4 or q8"
        )
    return (_BUILTIN_BUILDERS[key],)


def builtin_catalog(name: str) -> RepCatalog:
    """The builtin named ``name`` (see ``builtin_builder``), shared by every
    caller in the process: ``z4`` and ``Z04`` name one catalog."""
    return _shared_catalog(*builtin_builder(name))


@functools.cache  # keyed by builder and argument: at most 67 builtins
def _shared_catalog(build, *args) -> RepCatalog:
    return RepCatalog(*build(*args))
