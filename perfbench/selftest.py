#!/usr/bin/env python3
"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

1. The checker counts an op as failed when its expected value is tampered
   with, for each kind of check, and passes the untampered op.
2. Every workload, run briefly with ``--trace 0`` and ``--trace 1``, emits
   exactly the end-to-end and per-layer metrics named in BENCHMARK.json,
   with their units, and passes its output checks.

Exits 0 when every assertion holds.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import workloads  # noqa: E402
from worker import Runner  # noqa: E402


def _first(ops, predicate):
    return next(op for op in ops if predicate(op))


def _tamper_cases(workdir: Path):
    """(label, op, tamper function) for one op of each check kind."""
    fixtures = ROOT / "src" / "twistcat" / "fixtures"
    exhaustive = workloads.generate("cocycle-exhaustive", 3, workdir / "a", fixtures, 1)
    queries = workloads.generate("cli-queries", 3, workdir / "b", fixtures, 1)
    catalog = workloads.generate("catalog-verify", 3, workdir / "c", fixtures, 1)

    def flip_smatrix(e):
        e["smatrix"]["entries"][1][1] *= -1

    def shift_winding(e):
        e["table"]["winding"] += 1

    def shift_assoc(e):
        e["table"]["assoc_exponent"] = "1/7" if e["table"]["assoc_exponent"] != "1/7" else "0"

    def shift_f(e):
        e["f"][0][3] = str(Fraction(e["f"][0][3]) + Fraction(1, 97))

    def expect_valid(e):
        e.clear()
        e.update(type="cocycle", factors=[1], f=[], omega=[])

    def expect_pass(e):
        e.clear()
        e.update(type="report", exit=0, spec="z2-lattice-on-z4-broken", seed=0, require=[])

    def swap_fusion(e):
        e["fusion"]["dims"] = e["fusion"]["dims"][::-1]

    def wrong_rule(e):
        e["fusion"]["cyclic"] = len(e["fusion"]["labels"]) - 1

    return [
        ("su2 S-matrix entry", _first(queries, lambda o: "--su2" in o["argv"]), flip_smatrix),
        ("path winding", _first(queries, lambda o: "--grades" in o["argv"]
                                and o["expect"]["type"] == "monodromy"
                                and "winding" in o["expect"]["table"]), shift_winding),
        ("point scalar", _first(queries, lambda o: o["expect"]["type"] == "monodromy"
                                and "assoc_exponent" in o["expect"]["table"]), shift_assoc),
        ("broken fixture exit", _first(queries, lambda o: o["expect"]["type"] == "exit"),
         expect_pass),
        ("cocycle table entry", _first(exhaustive, lambda o: o["expect"]["type"] == "cocycle"),
         shift_f),
        ("perturbed table", _first(exhaustive, lambda o: o["expect"]["type"] == "cocycle_error"),
         expect_valid),
        ("catalog S-matrix", catalog[0], flip_smatrix),
        ("catalog fusion dims",
         _first(catalog, lambda o: len(set(o["expect"]["fusion"]["dims"])) > 1), swap_fusion),
        ("Z/k fusion rule", _first(catalog, lambda o: o["expect"]["fusion"]["cyclic"]), wrong_rule),
    ]


def test_checker_counts_tampered_ops() -> None:
    scratch = ROOT / ".perfbench_work"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="selftest-", dir=scratch))
    try:
        for sub in "abc":
            (workdir / sub).mkdir()
        cases = _tamper_cases(workdir)
        runner = Runner(ROOT, [op for _, op, _ in cases])
        for label, op, tamper in cases:
            outcome = runner.call(op)
            reason = checks.check(op, outcome)
            assert reason is None, f"{label}: untampered op failed: {reason}"
            bad = copy.deepcopy(op)
            tamper(bad["expect"])
            assert checks.check(bad, outcome) is not None, f"{label}: tampered op passed"
            print(f"ok  tampered {label} counted as failed")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def test_every_metric_is_emitted() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    for workload in spec["workloads"]:
        for trace in (0, 1):
            out = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload["name"],
                 "--seed", "11", "--seconds", "1", "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=180,
            )
            assert out.returncode == 0, f"{workload['name']} trace {trace}: {out.stderr}"
            result = json.loads(out.stdout.strip().splitlines()[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert result["correct"] and result["failed"] == 0, result
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            missing, extra = set(wanted[trace]) - set(got), set(got) - set(wanted[trace])
            label = f"{workload['name']} trace {trace}"
            assert got == wanted[trace], f"{label}: missing {sorted(missing)} extra {sorted(extra)}"
            print(f"ok  {workload['name']} --trace {trace} emits all {len(got)} metrics")


def main() -> int:
    test_checker_counts_tampered_ops()
    test_every_metric_is_emitted()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
