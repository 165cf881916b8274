#!/usr/bin/env python3
"""The twistcat benchmark: one seeded workload per run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the package is imported from its
``src/``; nothing needs building).  The run generates the workload's spec
files from the seed into a scratch directory inside the checkout, times the
set-up of fresh interpreters, then runs the ops in a fresh worker
interpreter (worker.py) with BLAS threads pinned to 1, checks every op's
output, and prints as its last stdout line

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics for ``--trace 0`` and the per-layer metrics for
``--trace 1``.  The line before it is a JSON record of the machine, versions,
seed, op count and tail percentile.  Metric definitions are in README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import calibrate  # noqa: E402
import workloads  # noqa: E402

SETUP_PROBES = 5
RUN_DEADLINE_S = 170  # a run must end within 180 s
TAIL_BEYOND = 10  # op_tail_ms: the highest percentile with this many samples beyond it
BLAS_PINNING = {
    name: "1"
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                 "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
}
# One cycle's summed op latency at the reference speed, at this revision.
# A run does round(S / cycle) whole cycles, at least one, so it measures
# about S seconds here, and every run of the same length holds the same op
# mix.
NOMINAL_CYCLE_S = {
    "cocycle-exhaustive": 3.1,
    "catalog-verify": 13.9,
    "monodromy-verify": 3.85,
    "cli-queries": 1.6,
}


def child_env() -> dict:
    env = dict(os.environ)
    env.update(BLAS_PINNING)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def time_setup(ops_path: Path, env: dict) -> tuple[list[float], list[float]]:
    """Seconds from starting a fresh interpreter to twistcat imported and the
    op list loaded, once per probe: scaled to the reference speed by the
    calibration loop the probe times right after, and raw."""
    scaled, raw = [], []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py"), "--root", str(ROOT),
             "--ops", str(ops_path), "--probe"],
            stdout=subprocess.PIPE, env=env, text=True,
        )
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            loop = proc.stdout.readline()
            proc.stdout.close()
            code = proc.wait(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if code != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up probe failed with exit code {code}")
        scaled.append(elapsed * calibrate.REFERENCE_S / float(loop))
        raw.append(elapsed)
    return scaled, raw


def tail(latencies_ms: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond) of the highest percentile that
    has TAIL_BEYOND samples beyond it; the maximum when there are too few."""
    ordered = sorted(latencies_ms)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0, 0
    return ordered[n - 1 - TAIL_BEYOND], 100.0 * (n - TAIL_BEYOND) / n, TAIL_BEYOND


def git_commit() -> str | None:
    """HEAD of the checkout, read without running git; None outside a repo."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "twistcat" / "__init__.py").is_file():
        print(f"error: no twistcat sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    started = time.perf_counter()
    scratch = ROOT / ".perfbench_work"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=scratch))
    try:
        cycles = max(1, round(args.seconds / NOMINAL_CYCLE_S[args.workload]))
        ops = workloads.generate(args.workload, args.seed, workdir,
                                 ROOT / "src" / "twistcat" / "fixtures", cycles)
        count = len(ops)
        if args.trace:  # the traced pass repeats the ops, so each pass does half the cycles
            count = sum(1 for op in ops if op["cycle"] < max(1, cycles // 2))
        ops_path = workdir / "ops.json"
        ops_path.write_text(json.dumps(ops), encoding="utf-8")
        env = child_env()
        setup, raw_setup = time_setup(ops_path, env)

        result_path = workdir / "result.json"
        out_dir = ROOT / ".perfbench_out"
        out_dir.mkdir(exist_ok=True)
        spans_path = out_dir / f"spans-{args.workload}-{args.seed}.jsonl"
        cmd = [sys.executable, str(HERE / "worker.py"), "--root", str(ROOT),
               "--ops", str(ops_path), "--count", str(count),
               "--trace", str(args.trace), "--result", str(result_path)]
        if args.trace:
            cmd += ["--spans", str(spans_path)]
        budget = RUN_DEADLINE_S - (time.perf_counter() - started)
        proc = subprocess.run(cmd, env=env, timeout=budget, stdout=subprocess.DEVNULL)
        if proc.returncode != 0:
            print(f"error: worker exited with code {proc.returncode}", file=sys.stderr)
            return 1
        result = json.loads(result_path.read_text(encoding="utf-8"))
        record = {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "nproc": os.cpu_count(),
            "cpu_model": cpu_model(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "blas_pinning": BLAS_PINNING,
            "git_commit": git_commit(),
            "cycles": cycles,
            "ops": count,
            "failed_ratio": result["passed"].count(False) / len(result["passed"]),
            "failures": result["failures"],
            "setup_probes_s": setup,
        }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = len(result["passed"])
    failed = result["passed"].count(False)
    if args.trace:
        metrics = result["layer_metrics"]
        record["spans"] = str(spans_path.relative_to(ROOT))
    else:
        latencies_ms = [t * 1e3 for t in result["latencies_s"]]
        tail_ms, tail_pct, beyond = tail(latencies_ms)
        busy = result["busy_s"]
        tuples = sum(t for t, ok in zip(result["tuples"], result["passed"]) if ok)
        raw_ms = [t * 1e3 for t in result["raw_latencies_s"]]
        record["op_tail_percentile"] = tail_pct
        record["op_tail_samples_beyond"] = beyond
        record["raw"] = {
            "ops_per_s": (attempted - failed) / sum(result["raw_latencies_s"]),
            "op_p50_ms": statistics.median(raw_ms),
            "op_tail_ms": tail(raw_ms)[0],
            "setup_s": statistics.median(raw_setup),
        }
        metrics = {
            "setup_s": metric(statistics.median(setup), "s"),
            "ops_per_s": metric((attempted - failed) / busy, "ops/s"),
            "tuples_per_s": metric(tuples / busy, "tuples/s"),
            "op_p50_ms": metric(statistics.median(latencies_ms), "ms"),
            "op_tail_ms": metric(tail_ms, "ms"),
            "peak_rss_mb": metric(result["maxrss_kib"] / 1024, "MiB"),
        }
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
