"""Op runner for one benchmark run, started by run.py in a fresh interpreter.

    worker.py --root R --ops OPS --count N --trace 0|1 --result RES [--spans SPANS]
    worker.py --root R --ops OPS --probe

One client runs the first ``N`` ops one at a time, in a closed loop.  Each
op's latency covers only the call into twistcat; the output check runs
after it.  The calibration loop (calibrate.py) is timed before, during and
after each op, and the op's latency is scaled to the reference speed.  With
``--trace 1`` the ops run untraced, then again with spans installed
(tracer.py), so the two walls give the trace overhead.
``--probe`` imports twistcat, loads the op list, prints ``ready``, then the
calibration loop's time, and exits: run.py times it as the set-up cost.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import calibrate  # noqa: E402
import checks  # noqa: E402
from tracer import Tracer, layer_metrics  # noqa: E402


def import_twistcat(root: Path):
    src = root / "src"
    sys.path.insert(0, str(src))
    import twistcat
    from twistcat import cli, specio

    if not Path(twistcat.__file__).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"twistcat imported from {twistcat.__file__}, not from {src}")
    return cli, specio


class Runner:
    def __init__(self, root: Path, ops: list):
        self.cli, self.specio = import_twistcat(root)
        self.ops = ops
        self.latencies = []  # scaled to the reference speed
        self.raw_latencies = []
        self.failures = []
        self.passed = []

    def call(self, op: dict) -> dict:
        """Run one op; the returned outcome is what the checker compares."""
        if op["kind"] == "build_cocycle":
            try:
                return {"value": self.specio.load_spec(op["spec"]).build_cocycle()}
            except Exception as exc:  # the checker decides which exceptions are right
                return {"raised": type(exc).__name__}
        sink = io.StringIO()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                return {"exit": self.cli.main(op["argv"])}
        except SystemExit as exc:  # argparse rejects bad argv by exiting
            return {"exit": exc.code}
        except Exception as exc:
            return {"raised": type(exc).__name__}

    def run(self, count: int, tracer=None) -> float:
        """Run the first ``count`` ops; returns their summed scaled latency
        in seconds."""
        spans = []  # (start, end) of each op
        with calibrate.Sampler() as sampler:
            for op in self.ops[:count]:
                if op.get("out"):
                    Path(op["out"]).unlink(missing_ok=True)
                mark = tracer.begin(op["id"]) if tracer else 0
                sampler.sample()
                t0 = perf_counter()
                outcome = self.call(op)
                t1 = perf_counter()
                sampler.sample()
                spans.append((t0, t1))
                reason = checks.check(op, outcome)
                if tracer:
                    kind = op["argv"][0] if op["kind"] == "cli" else op["kind"]
                    tracer.end(op["id"], kind, mark, reason is None)
                self.passed.append(reason is None)
                if reason is not None and len(self.failures) < 20:
                    self.failures.append({"op": op["id"], "argv": op.get("argv"), "reason": reason})
        busy = 0.0
        for t0, t1 in spans:
            latency = sampler.scaled(t0, t1)
            busy += latency
            self.latencies.append(latency)
            self.raw_latencies.append(t1 - t0)
        return busy


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--root", required=True)
    parser.add_argument("--ops", required=True)
    parser.add_argument("--probe", action="store_true")
    parser.add_argument("--count", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--result")
    parser.add_argument("--spans")
    args = parser.parse_args()

    root = Path(args.root)
    if args.probe:
        import_twistcat(root)
        json.loads(Path(args.ops).read_text(encoding="utf-8"))
        print("ready", flush=True)
        # the speed this interpreter ran at, for scaling its set-up time
        print(statistics.median(calibrate.loop_seconds() for _ in range(5)), flush=True)
        return 0

    ops = json.loads(Path(args.ops).read_text(encoding="utf-8"))
    # one CPU for the whole run, so the calibration loop always times the
    # CPU the op runs on
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    runner = Runner(root, ops)
    runner.call(ops[0])  # warm-up: first-call lazy set-up in numpy and the package
    result = {}
    if args.trace:
        untraced = runner.run(args.count)
        tracer = Tracer()
        tracer.install()
        traced = runner.run(args.count, tracer=tracer)
        speed = traced / sum(runner.raw_latencies[args.count:])
        metrics = layer_metrics(tracer, args.count, traced, untraced, speed)
        result["layer_metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
        if args.spans:
            tracer.write_jsonl(args.spans)
    else:
        result["busy_s"] = runner.run(args.count)
        result["tuples"] = [op["tuples"] for op in ops[:args.count]]
    result.update(
        latencies_s=runner.latencies,
        raw_latencies_s=runner.raw_latencies,
        passed=runner.passed,
        failures=runner.failures,
        maxrss_kib=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    )
    Path(args.result).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
