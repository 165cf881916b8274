"""The example scripts under ``scripts/``, run in-process."""

import runpy
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def run_script(name, monkeypatch, capsys, *argv):
    monkeypatch.setattr(sys, "argv", [name, *argv])
    runpy.run_path(str(SCRIPTS / name), run_name="__main__")
    return capsys.readouterr().out.splitlines()


def test_cyclic_sweep(monkeypatch, capsys):
    lines = run_script("cyclic_sweep.py", monkeypatch, capsys, "--max-n", "4")
    # q(1) = s / (n * gcd(n, 2)) takes n * gcd(n, 2) values
    for n, forms, line in zip(range(1, 5), (1, 4, 3, 8), lines):
        assert line.startswith(
            f"n = {n:2d}: {n * n:4d} parameter values, {forms:3d} distinct quadratic forms, "
            f"pentagon tuples {n ** 4:6d} each"
        )
    assert len(lines) == 5
    assert lines[4].startswith("total: 30 cocycles validated in ")


@pytest.mark.parametrize(
    "title, sign",
    [("twisted S-matrix (s = 3), spins 0..3:", -1), ("unmodified S-matrix, spins 0..3:", 1)],
)
def test_su2_braiding_demo_smatrices(title, sign, monkeypatch, capsys):
    lines = run_script("su2_braiding_demo.py", monkeypatch, capsys, "--max-spin", "3")
    start = lines.index(title) + 1
    rows = [[int(x) for x in line.split()] for line in lines[start:start + 4]]
    # S_mn = (m+1)(n+1), negated for the twisted form when m and n are both odd
    assert rows == [
        [(m + 1) * (n + 1) * (sign if m % 2 and n % 2 else 1) for n in range(4)]
        for m in range(4)
    ]
    assert lines[start + 4] == ""


def test_su2_braiding_demo_scalars(monkeypatch, capsys):
    lines = run_script("su2_braiding_demo.py", monkeypatch, capsys, "--max-spin", "3")
    assert "  parities (1,1): 1j" in lines
    assert "  parity 1: 1j" in lines
    assert "  V(2) (x) V(3) = V(1), V(3), V(5)" in lines
