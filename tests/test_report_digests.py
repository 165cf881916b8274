"""A byte-identity net over the CLI's reports: the sha256 of each run's exit
code, stdout, stderr and ``--out`` bytes, for every bundled fixture, golden
spec and su2 spec of ``SU2_SPECS`` under ``verify``, ``fusion`` and
``smatrix`` at three seeds, and for ``smatrix --su2`` at three spin caps and
two twist parameters and once with the default parameter, against the
digests committed in ``golden/digests.json``.  The su2 specs are written
here, not under ``golden/specs/``, whose specs other tests build as
categories.

After a change that is meant to alter a report, rewrite the file with
``PYTHONPATH=src python tests/test_report_digests.py`` and say in the
change which runs moved."""

import contextlib
import hashlib
import io
import json
import tempfile
from pathlib import Path

from twistcat import cli
from twistcat.specio import BUNDLED_FIXTURES

GOLDEN_DIR = Path(__file__).parent / "golden"
DIGESTS = GOLDEN_DIR / "digests.json"
SPECS = {
    **{name: name for name in BUNDLED_FIXTURES},
    **{f"specs/{p.stem}": str(p) for p in sorted((GOLDEN_DIR / "specs").glob("*.json"))},
}
COMMANDS = ("verify", "fusion", "smatrix")
SEEDS = (0, 3, 5)
SU2_MAX_SPINS = (0, 13, 64)
SU2_COCYCLE_PARAMS = (0, 3)
SU2_SPECS = {  # name -> (max_spin, cocycle)
    "su2-spin0-s1": (0, {"builder": "cyclic", "n": 2, "s": 1}),
    "su2-spin64-s1": (64, {"builder": "cyclic", "n": 2, "s": 1}),
    "su2-spin3-trivial": (3, {"builder": "trivial"}),
}


def _digest(argv: list[str], out: Path) -> str:
    """The sha256 of one in-process run, written to ``out`` if it gets that far."""
    out.unlink(missing_ok=True)
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.main([*argv, "--out", str(out)])
    written = out.read_text(encoding="utf-8") if out.exists() else None
    run = json.dumps([code, stdout.getvalue(), stderr.getvalue(), written])
    return hashlib.sha256(run.encode("utf-8")).hexdigest()


def _write_su2_specs(directory: Path) -> dict[str, str]:
    """``SU2_SPECS`` written as spec files in ``directory``: name -> path."""
    paths = {}
    for name, (max_spin, cocycle) in SU2_SPECS.items():
        spec = {"schema_version": 1, "name": name, "mode": "su2", "grading_group": [2],
                "cocycle": cocycle, "max_spin": max_spin}
        path = paths[f"su2/{name}"] = str(directory / f"{name}.json")
        Path(path).write_text(json.dumps(spec, indent=2) + "\n", encoding="utf-8")
    return paths


def digests() -> dict[str, str]:
    """Every run's digest, keyed ``"<spec> <command> seed=<seed>"``, or
    ``"su2 smatrix max-spin=<n> cocycle-param=<s>"``, with ``default`` for
    no ``--cocycle-param``."""
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "report.json"
        specs = {**SPECS, **_write_su2_specs(Path(tmp))}
        runs = {
            f"{name} {command} seed={seed}": [command, "--spec", spec, "--seed", str(seed)]
            for name, spec in specs.items() for command in COMMANDS for seed in SEEDS
        }
        runs.update(
            (f"su2 smatrix max-spin={n} cocycle-param={s}",
             ["smatrix", "--su2", "--max-spin", str(n), "--cocycle-param", str(s)])
            for n in SU2_MAX_SPINS for s in SU2_COCYCLE_PARAMS
        )
        runs["su2 smatrix max-spin=5 cocycle-param=default"] = [
            "smatrix", "--su2", "--max-spin", "5",
        ]
        return {run: _digest(argv, out) for run, argv in runs.items()}


def test_reports_match_their_digests():
    want = json.loads(DIGESTS.read_text(encoding="utf-8"))
    got = digests()
    assert sorted(got) == sorted(want)
    assert [run for run in sorted(got) if got[run] != want[run]] == []


if __name__ == "__main__":
    DIGESTS.write_text(json.dumps(digests(), indent=2, sort_keys=True) + "\n", encoding="utf-8")
