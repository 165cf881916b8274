"""A byte-identity net over the CLI's reports: the sha256 of each run's exit
code, stdout, stderr and ``--out`` bytes, for every bundled fixture and
golden spec under ``verify``, ``fusion`` and ``smatrix`` at three seeds, and
for ``smatrix --su2`` at three spin caps and two twist parameters, against
the digests committed in ``golden/digests.json``.

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


def _digest(argv: list[str], out: Path) -> str:
    """The sha256 of one in-process run, written to ``out`` if it gets that far."""
    out.unlink(missing_ok=True)
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.main([*argv, "--out", str(out)])
    written = out.read_text(encoding="utf-8") if out.exists() else None
    run = json.dumps([code, stdout.getvalue(), stderr.getvalue(), written])
    return hashlib.sha256(run.encode("utf-8")).hexdigest()


def digests() -> dict[str, str]:
    """Every run's digest, keyed ``"<spec> <command> seed=<seed>"``, or
    ``"su2 smatrix max-spin=<n> cocycle-param=<s>"``."""
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "report.json"
        runs = {
            f"{name} {command} seed={seed}": [command, "--spec", spec, "--seed", str(seed)]
            for name, spec in SPECS.items() for command in COMMANDS for seed in SEEDS
        }
        runs.update(
            (f"su2 smatrix max-spin={n} cocycle-param={s}",
             ["smatrix", "--su2", "--max-spin", str(n), "--cocycle-param", str(s)])
            for n in SU2_MAX_SPINS for s in SU2_COCYCLE_PARAMS
        )
        return {run: _digest(argv, out) for run, argv in runs.items()}


def test_reports_match_their_digests():
    want = json.loads(DIGESTS.read_text(encoding="utf-8"))
    got = digests()
    assert sorted(got) == sorted(want)
    assert [run for run in sorted(got) if got[run] != want[run]] == []


if __name__ == "__main__":
    DIGESTS.write_text(json.dumps(digests(), indent=2, sort_keys=True) + "\n", encoding="utf-8")
