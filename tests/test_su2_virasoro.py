"""The graded SU(2) ring against the Virasoro ``c = 1`` weights.

Under the ``su2-lattice`` cocycle (cyclic, ``s = 3``, on Z/2), ``V(n)``
stands for the Virasoro module ``L(1, h_n)`` of conformal weight
``h_n = n^2/4``.  So each twist ``e^{-2 pi i q(n mod 2)}`` is
``e^{2 pi i h_n}``, and each unnormalized S entry is
``sum_k N^k_mn (k + 1) e^{2 pi i (h_k - h_m - h_n)}``, ``N`` the
Clebsch-Gordan rule written here, not read from ``fusionring.su2_tensor``.
Every phase is ``i^((k^2 - m^2 - n^2) mod 4)``, so the S entries are
compared exactly, as Gaussian integers, at every spin pair up to
``MAX_SPIN``."""

import json
from fractions import Fraction
from itertools import product

from twistcat import cli, fusionring
from twistcat.fusionring import MAX_SPIN
from twistcat.specio import su2_spec

S = 3  # the su2-lattice cocycle's twist parameter


def _gaussian(magnitude: int, quarter_turns: int) -> tuple[int, int]:
    """``magnitude i^quarter_turns`` as its (real, imaginary) integer parts."""
    return [(magnitude, 0), (0, magnitude), (-magnitude, 0), (0, -magnitude)][quarter_turns % 4]


def _emitted(entry) -> tuple[int, int] | None:
    """A report's S entry as a Gaussian integer; None off the quarter turns."""
    if isinstance(entry, int):
        return entry, 0
    turns = 4 * Fraction(entry["exponent"])
    return _gaussian(entry["magnitude"], int(turns)) if turns.denominator == 1 else None


def test_s_entries_are_the_virasoro_sums(tmp_path, capsys):
    out = tmp_path / "smatrix.json"
    argv = ["smatrix", "--su2", "--max-spin", str(MAX_SPIN), "--cocycle-param", str(S)]
    assert cli.main([*argv, "--out", str(out)]) == cli.EXIT_OK
    entries = json.loads(out.read_text(encoding="utf-8"))["tables"]["smatrix"]["entries"]
    assert len(entries) == MAX_SPIN + 1
    mismatches = []
    for m, n in product(range(MAX_SPIN + 1), repeat=2):
        # N^k_mn = 1 for k from |m - n| to m + n in steps of 2, and 0 otherwise
        terms = [_gaussian(k + 1, k * k - m * m - n * n) for k in range(abs(m - n), m + n + 1, 2)]
        if _emitted(entries[m][n]) != tuple(map(sum, zip(*terms))):
            mismatches.append((m, n))
    assert mismatches == []


def test_twists_are_the_virasoro_weights():
    cocycle = su2_spec(MAX_SPIN, S).build_cocycle()
    q, grades = cocycle.omega_num.diagonal(), fusionring.su2_ring(MAX_SPIN)[1]
    for n, a in enumerate(grades.tolist()):
        # e^{-2 pi i q(a)} == e^{2 pi i h_n}: the two exponents differ by an integer
        assert (Fraction(-int(q[a]), cocycle.denom) - Fraction(n * n, 4)).denominator == 1, n
