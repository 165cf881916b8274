#!/usr/bin/env python3
"""Sweep the cyclic-cocycle family and report validation counts and timing.

For each n up to --max-n, builds the twisted cocycle on Z/n for every
0 <= s < n^2.  Construction runs the exhaustive pentagon/hexagon/normalization
checks in exact integer arithmetic and raises on any violation.  Also prints,
per n, how many distinct quadratic forms the family realizes.
"""

import argparse
import time

from twistcat.cocycle import build_cyclic


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-n", type=int, default=12)
    args = parser.parse_args()

    grand_total = 0
    start = time.monotonic()
    for n in range(1, args.max_n + 1):
        t0 = time.monotonic()
        forms = set()
        for s in range(n * n):
            cocycle = build_cyclic(n, s)
            forms.add(int(cocycle.omega_num[1 % n, 1 % n]))  # q(1), over one denominator
            grand_total += 1
        dt = time.monotonic() - t0
        print(
            f"n = {n:2d}: {n * n:4d} parameter values, {len(forms):3d} distinct "
            f"quadratic forms, pentagon tuples {n ** 4:6d} each, {dt:6.2f}s"
        )
    print(f"total: {grand_total} cocycles validated in {time.monotonic() - start:.2f}s")


if __name__ == "__main__":
    main()
