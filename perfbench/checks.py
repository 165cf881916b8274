"""Output checks for benchmark ops.

``check(op, outcome)`` returns ``None`` when the op did what its ``expect``
block says and a one-line reason otherwise.  Expectations come from the
generator (workloads.py), which derives them from the parameters each spec
was built from; nothing here reads a golden file produced by the program.

``outcome`` is one of ``{"exit": code}`` for CLI ops, ``{"value": obj}``
for library calls that returned, and ``{"raised": "ExceptionName"}``.
The checker reads cocycle tables through their arrays, never through the
library's accessor methods, so a traced run counts only the program's calls.
"""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path


def check(op: dict, outcome: dict) -> str | None:
    expect = op["expect"]
    kind = expect["type"]
    if kind == "cocycle":
        return _check_cocycle(expect, outcome)
    if kind == "cocycle_error":
        if outcome.get("raised") != "CocycleError":
            return f"expected CocycleError, got {_describe(outcome)}"
        return None
    if "raised" in outcome:
        return f"raised {outcome['raised']}"
    if outcome.get("exit") != expect.get("exit", 0):
        return f"exit {outcome.get('exit')}, expected {expect.get('exit', 0)}"
    if kind == "exit":
        if expect.get("failing"):
            report = _read_report(op)
            if report is None:
                return "no report written"
            failing = [v["check"] for v in report["verdicts"] if v["status"] != "pass"]
            if expect["failing"] not in failing:
                return f"verdict {expect['failing']} did not fail"
        return None
    report = _read_report(op)
    if report is None:
        return "no report written"
    if kind == "monodromy":
        got = report.get("tables", {}).get("monodromy", {})
        for key, want in expect["table"].items():
            if got.get(key) != want:
                return f"monodromy {key} = {got.get(key)!r}, expected {want!r}"
        return _all_pass(report)
    return _check_report(expect, report)


def _describe(outcome: dict) -> str:
    if "raised" in outcome:
        return f"raised {outcome['raised']}"
    if "exit" in outcome:
        return f"exit {outcome['exit']}"
    return type(outcome.get("value")).__name__


def _read_report(op: dict):
    path = Path(op["out"])
    if not path.exists():
        return None
    return json.loads(path.read_text(encoding="utf-8"))


def _all_pass(report: dict) -> str | None:
    verdicts = report.get("verdicts", [])
    if not verdicts:
        return "report has no verdicts"
    failed = [v["check"] for v in verdicts if v["status"] != "pass"]
    return f"failing verdicts {failed}" if failed else None


def _check_cocycle(expect: dict, outcome: dict) -> str | None:
    if "value" not in outcome:
        return f"expected a cocycle, got {_describe(outcome)}"
    cocycle = outcome["value"]
    if list(cocycle.group.factors) != expect["factors"]:
        return f"grading {cocycle.group.factors}, expected {expect['factors']}"
    for *idx, want in expect["f"]:
        got = Fraction(int(cocycle.f_num[tuple(idx)]), cocycle.denom) % 1
        if got != Fraction(want):
            return f"F{tuple(idx)} = {got}, expected {want}"
    for *idx, want in expect["omega"]:
        got = Fraction(int(cocycle.omega_num[tuple(idx)]), cocycle.denom) % 1
        if got != Fraction(want):
            return f"Omega{tuple(idx)} = {got}, expected {want}"
    return None


def _check_report(expect: dict, report: dict) -> str | None:
    if report.get("spec") != expect["spec"] or report.get("seed") != expect["seed"]:
        return f"report is for {report.get('spec')!r} seed {report.get('seed')}"
    reason = _all_pass(report)
    if reason:
        return reason
    names = {v["check"] for v in report["verdicts"]}
    missing = [name for name in expect["require"] if name not in names]
    if missing:
        return f"verdicts {missing} missing"
    tables = report.get("tables", {})
    if expect.get("fusion"):
        reason = _check_fusion(expect["fusion"], tables.get("fusion"))
        if reason:
            return reason
    if expect.get("su2_fusion") is not None and tables.get("fusion") != expect["su2_fusion"]:
        return "SU(2) fusion table differs from Clebsch-Gordan"
    if expect.get("smatrix"):
        got = tables.get("smatrix")
        want = expect["smatrix"]
        if got is None:
            return "no S-matrix table"
        if want["labels"] is not None and got.get("labels") != want["labels"]:
            return f"S-matrix labels {got.get('labels')}"
        if got.get("entries") != want["entries"]:
            return "S-matrix entries differ from the double-braiding values"
    return None


def _check_fusion(want: dict, got) -> str | None:
    """Labels and dims as built; Z/n fusion is N^c_ab = [c = a+b]; every
    table obeys sum_c N^c_ab d_c = d_a d_b."""
    if got is None:
        return "no fusion table"
    labels, dims = want["labels"], want["dims"]
    if got.get("labels") != labels or got.get("dims") != dims:
        return f"fusion labels/dims {got.get('labels')} {got.get('dims')}"
    coeff = got["coefficients"]
    dim_of = dict(zip(labels, dims))
    n = want["cyclic"]
    for a, la in enumerate(labels):
        for b, lb in enumerate(labels):
            cell = coeff.get(la, {}).get(lb)
            if cell is None:
                return f"fusion cell ({la}, {lb}) missing"
            if n is not None and cell != {labels[(a + b) % n]: 1}:
                return f"N({la}, {lb}) = {cell}, expected {labels[(a + b) % n]}"
            if sum(count * dim_of[c] for c, count in cell.items()) != dim_of[la] * dim_of[lb]:
                return f"dimension rule fails at ({la}, {lb})"
    return None
