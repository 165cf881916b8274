"""The graded SU(2) ring against Q8, one of its finite shadows.

Q8 = {+-1, +-i, +-j, +-k} sits in SU(2) through its spin irrep and shares
SU(2)'s centre {+-1}, so restricting ``V(n)`` to Q8 must keep its grade
``n mod 2``, turn Clebsch-Gordan into Q8's fusion rules, and keep the signs
of the S table.  The bundled ``su2-lattice`` and ``q8-z2`` carry the same
cocycle (cyclic, ``s = 3``, on Z/2), so their S signs must agree at the
constituents.  Everything is read from the CLI's JSON reports and the Q8
oracle below: the restriction of ``V(n)`` takes its character
``U_n(tr rho_spin(g) / 2)`` (Chebyshev, second kind) against Q8's character
table."""

import json
from itertools import product

import numpy as np

from twistcat import cli

MAX_SPIN = 8  # the V(n) restricted; their products reach spin 2 * MAX_SPIN

# Q8 as i^a j^b, a < 4 and b < 2, in its spin irrep; -1 is i^2
_I, _J = np.array([[1j, 0], [0, -1j]]), np.array([[0, -1], [1, 0]], dtype=complex)
_SPIN = [np.linalg.matrix_power(_I, a) @ np.linalg.matrix_power(_J, b)
         for a, b in product(range(4), range(2))]
_MINUS_ONE = 4
# each one-dimensional irrep by its values on i and j, as the builtin q8 names them
_SIGNS = {"trivial": (1, 1), "sign-j": (1, -1), "sign-i": (-1, 1), "sign-k": (-1, -1)}
CHARACTERS = {
    **{label: np.array([vi ** a * vj ** b for a, b in product(range(4), range(2))], dtype=complex)
       for label, (vi, vj) in _SIGNS.items()},
    "spin": np.array([np.trace(g) for g in _SPIN]),
}


def _chebyshev_u(n: int, x: np.ndarray) -> np.ndarray:
    """``U_n(x)``: ``U_0 = 1``, ``U_1 = 2x``, ``U_{k+1} = 2x U_k - U_{k-1}``."""
    prev, cur = np.zeros_like(x), np.ones_like(x)
    for _ in range(n):
        prev, cur = cur, 2 * x * cur - prev
    return cur


def restriction(n: int) -> dict[str, int]:
    """The multiplicity of each Q8 irrep in ``V(n)`` restricted to Q8."""
    x = np.array([np.trace(g).real / 2 for g in _SPIN])
    character = _chebyshev_u(n, x)
    out = {}
    for label, chi in CHARACTERS.items():
        mult = (character * chi.conj()).sum() / len(_SPIN)
        assert abs(mult - round(mult.real)) < 1e-9, (n, label)
        out[label] = round(mult.real)
    return out


def _grade(label: str) -> int:
    """0 where -1 acts as the identity, 1 where it acts as -1."""
    chi = CHARACTERS[label]
    return 0 if chi[_MINUS_ONE] == chi[0] else 1


def _tables(command: str, spec: str, tmp_path) -> dict:
    out = tmp_path / f"{command}-{spec}.json"
    assert cli.main([command, "--spec", spec, "--out", str(out)]) == cli.EXIT_OK
    return json.loads(out.read_text(encoding="utf-8"))["tables"]


def test_restriction_keeps_the_dimension_and_the_grade():
    for n in range(MAX_SPIN + 1):
        res = restriction(n)
        assert all(m >= 0 for m in res.values()), n
        assert sum(m * CHARACTERS[label][0].real for label, m in res.items()) == n + 1, n
        assert {_grade(label) for label, m in res.items() if m} == {n % 2}, n


def test_clebsch_gordan_restricts_to_q8_fusion(tmp_path, capsys):
    su2 = _tables("fusion", "su2-lattice", tmp_path)["fusion"]
    q8 = _tables("fusion", "q8-z2", tmp_path)["fusion"]["coefficients"]
    res = {f"V({k})": restriction(k) for k in range(2 * MAX_SPIN + 1)}
    mismatches = []
    for m, n in product(range(MAX_SPIN + 1), repeat=2):
        summands = [res[label] for label in su2[f"V({m})xV({n})"]]
        restricted = {c: sum(r[c] for r in summands) for c in CHARACTERS}
        tensor = dict.fromkeys(CHARACTERS, 0)
        for a, b in product(CHARACTERS, repeat=2):
            for c, coeff in q8[a][b].items():
                tensor[c] += res[f"V({m})"][a] * res[f"V({n})"][b] * coeff
        if restricted != tensor:
            mismatches.append((m, n))
    assert mismatches == []


def test_s_signs_agree_at_the_constituents(tmp_path, capsys):
    su2 = _tables("smatrix", "su2-lattice", tmp_path)["smatrix"]
    q8 = _tables("smatrix", "q8-z2", tmp_path)["smatrix"]
    at = {label: i for i, label in enumerate(q8["labels"])}
    constituents = [[c for c, k in restriction(n).items() if k] for n in range(MAX_SPIN + 1)]
    for m, n in product(range(MAX_SPIN + 1), repeat=2):
        sign = np.sign(su2["entries"][m][n])
        for a, b in product(constituents[m], constituents[n]):
            assert np.sign(q8["entries"][at[a]][at[b]]) == sign, (m, n, a, b)
