#!/usr/bin/env python3
"""Print the graded SU(2) S-matrix and the braiding/twist data of the
rank-one lattice cocycle, next to the unmodified symmetric category.

The negative entries in the twisted S-matrix are what distinguish the two
ribbon structures on the same fusion ring.
"""

import argparse

import numpy as np

from twistcat.cocycle import build_cyclic
from twistcat.fusionring import s_table, su2_ring, su2_tensor
from twistcat.unitscalar import UnitScalar


def inverse_omega(cocycle, m, n):
    return UnitScalar.from_exponent(-int(cocycle.omega_num[m, n]), cocycle.denom).to_complex()


def print_smatrix(title, max_spin, cocycle):
    print(title)
    num, mag = s_table(cocycle, *su2_ring(max_spin)[1:])
    matrix = np.where(num == 0, mag, -mag)  # a Z/2 cocycle's S entries are +-d_i d_j
    width = max(len(str(int(x))) for row in matrix for x in row)
    for row in matrix:
        print("  " + " ".join(f"{int(x):{width}d}" for x in row))
    print()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-spin", type=int, default=6)
    parser.add_argument("--twist-param", type=int, default=3, help="s of the Z/2 cocycle")
    args = parser.parse_args()

    lattice = build_cyclic(2, args.twist_param)
    trivial = build_cyclic(2, 0)

    spins = f"spins 0..{args.max_spin}:"
    print_smatrix(f"twisted S-matrix (s = {args.twist_param}), {spins}", args.max_spin, lattice)
    print_smatrix(f"unmodified S-matrix, {spins}", args.max_spin, trivial)

    print("braiding scalar on V(m) (x) V(n) (value of Omega(m mod 2, n mod 2)^-1):")
    for m in range(2):
        for n in range(2):
            print(f"  parities ({m},{n}): {inverse_omega(lattice, m, n)}")
    print()
    print("twist on parity-a objects (Omega(a,a)^-1):")
    for a in range(2):
        print(f"  parity {a}: {inverse_omega(lattice, a, a)}")
    print()
    print("sample fusion rules:")
    pairs = [(1, 1), (2, 3), (4, 4)]
    labels = su2_ring(max(m + n for m, n in pairs))[0]
    for m, n in pairs:
        spins = ", ".join(labels[k] for k in su2_tensor(m, n))
        print(f"  {labels[m]} (x) {labels[n]} = {spins}")


if __name__ == "__main__":
    main()
