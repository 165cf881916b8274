"""Spans around the public functions of each twistcat layer, installed from
the benchmark's own files; the package itself is not modified.

Layers are the package modules below.  ``abgroup``, ``unitscalar``,
``catalogs`` and ``errors`` are leaf helpers: they are not wrapped, so their
time counts inside their callers' spans.  A wrapper goes on every public
module-level function at every place it is bound (``modcat.validate_cocycle``
is ``cocycle.validate_cocycle`` imported into modcat) and on the public
methods of every class a layer defines.  A span is named after the layer
that defines the function, e.g. ``cocycle.validate_cocycle`` or
``modcat.TwistedCategory.associator``, whoever calls it.

Spans of one op share the op's id.  They are aggregated in memory per call
path (op, parent path, name) with calls, total and self time and errors,
because the monodromy sweep alone makes millions of leaf calls, and written
as JSON lines when the run ends.  Self time is a span's duration minus the
time its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import json
import types
from time import perf_counter_ns

LAYERS = ("cocycle", "specio", "grouprep", "modcat", "fusionring", "branchcut", "cli")


def _catalog_tuples(args) -> int:
    k = len(args[0].catalog)
    return k**4 + 2 * k**3 + 3 * k**2 + 2 * k


def _cocycle_tuples(args) -> int:
    m = args[0].group.order
    return m**4 + 3 * m**3


# Work counted where it happens, from the call's own arguments.
WORK = {
    "cocycle.validate_cocycle": _cocycle_tuples,
    "modcat.TwistedCategory.coherence_suite": _catalog_tuples,
}


class Tracer:
    def __init__(self):
        self.stack = []  # open frames: [node id, start ns, child ns, layer]
        self.nodes = {}  # (op, parent node id, name) -> node id
        self.stats = []  # per node: [op, parent, name, calls, total ns, self ns, errors]
        self.errors = dict.fromkeys(LAYERS, 0)
        self.work = dict.fromkeys(WORK, 0)
        self.covered_ns = 0  # time in outermost spans of layers below cli
        self.ops = []  # (op id, kind, start ns, end ns, passed)
        self.op = -1
        self._below_cli = 0

    def wrap(self, fn, name: str, layer: str):
        nodes, stats, stack = self.nodes, self.stats, self.stack
        work = WORK.get(name)
        below_cli = layer != "cli"
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            key = (tracer.op, parent[0] if parent else -1, name)
            node = nodes.get(key)
            if node is None:
                node = nodes[key] = len(stats)
                stats.append([key[0], key[1], name, 0, 0, 0, 0])
            frame = [node, 0, 0, layer]
            stack.append(frame)
            if below_cli:
                tracer._below_cli += 1
            if work is not None:
                tracer.work[name] += work(args)
            frame[1] = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                # an exception leaves this layer when no span of the same
                # layer encloses the one it escapes from
                if parent is None or parent[3] != layer:
                    tracer.errors[layer] += 1
                    stats[node][6] += 1
                raise
            finally:
                duration = perf_counter_ns() - frame[1]
                stack.pop()
                row = stats[node]
                row[3] += 1
                row[4] += duration
                row[5] += duration - frame[2]
                if parent is not None:
                    parent[2] += duration
                if below_cli:
                    tracer._below_cli -= 1
                    if tracer._below_cli == 0:
                        tracer.covered_ns += duration

        return wrapper

    def install(self) -> None:
        """Wrap every public function and method of the layers, in place."""
        modules = {layer: importlib.import_module(f"twistcat.{layer}") for layer in LAYERS}
        wrapped = {}

        def wrap_once(fn):
            layer = fn.__module__.rsplit(".", 1)[-1]
            if layer not in modules:
                return None
            if fn not in wrapped:
                wrapped[fn] = self.wrap(fn, f"{layer}.{fn.__qualname__}", layer)
            return wrapped[fn]

        for module in modules.values():
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_"):
                    continue
                if isinstance(obj, types.FunctionType):
                    w = wrap_once(obj)
                    if w is not None:
                        setattr(module, attr, w)
                elif isinstance(obj, type) and obj.__module__ == module.__name__:
                    self._wrap_methods(obj, wrap_once)

    @staticmethod
    def _wrap_methods(cls, wrap_once) -> None:
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            if isinstance(raw, types.FunctionType):
                setattr(cls, attr, wrap_once(raw))
            elif isinstance(raw, (classmethod, staticmethod)):
                setattr(cls, attr, type(raw)(wrap_once(raw.__func__)))

    # -- per-op bookkeeping -----------------------------------------------------

    def begin(self, op_id: int) -> int:
        self.op = op_id
        return perf_counter_ns()

    def end(self, op_id: int, kind: str, start: int, passed: bool) -> None:
        self.ops.append((op_id, kind, start, perf_counter_ns(), passed))
        self.op = -1

    def totals(self) -> dict:
        """Per span name over all ops: calls, total and self nanoseconds."""
        out = {}
        for _, _, name, calls, total, self_ns, _ in self.stats:
            agg = out.setdefault(name, [0, 0, 0])
            agg[0] += calls
            agg[1] += total
            agg[2] += self_ns
        return out

    def write_jsonl(self, path) -> None:
        t0 = self.ops[0][2] if self.ops else 0
        with open(path, "w", encoding="utf-8") as fh:
            for op_id, kind, start, end, passed in self.ops:
                fh.write(json.dumps({
                    "type": "op", "op": op_id, "kind": kind, "start_s": (start - t0) / 1e9,
                    "end_s": (end - t0) / 1e9, "passed": passed,
                }) + "\n")
            for node, (op_id, parent, name, calls, total, self_ns, errors) in enumerate(self.stats):
                fh.write(json.dumps({
                    "type": "span", "op": op_id, "id": node, "parent": parent, "name": name,
                    "calls": calls, "total_s": total / 1e9, "self_s": self_ns / 1e9,
                    "errors": errors,
                }) + "\n")


def _calls(*names):
    return lambda t, ops: sum(t.get(n, (0, 0, 0))[0] for n in names) / ops


def _self_s(name):
    return lambda t, ops: t.get(name, (0, 0, 0))[2] / 1e9 / ops


# Per-layer metrics: name -> (unit, value from span totals and op count).
SPAN_METRICS = {
    "cocycle.validate_cocycle.calls": ("calls/op", _calls("cocycle.validate_cocycle")),
    "cocycle.validate_cocycle.self_s": ("s/op", _self_s("cocycle.validate_cocycle")),
    "cocycle.build_cyclic.self_s": ("s/op", _self_s("cocycle.build_cyclic")),
    "cocycle.from_tables.self_s": ("s/op", _self_s("cocycle.AbelianCocycle.from_tables")),
    "cocycle.scalar_lookups": ("calls/op", _calls(
        "cocycle.AbelianCocycle.f", "cocycle.AbelianCocycle.omega",
        "cocycle.AbelianCocycle.b", "cocycle.AbelianCocycle.q")),
    "specio.build_cocycle.self_s": ("s/op", _self_s("specio.CategorySpec.build_cocycle")),
    "specio.load_spec.self_s": ("s/op", _self_s("specio.load_spec")),
    "modcat.coherence_suite.self_s": ("s/op", _self_s("modcat.TwistedCategory.coherence_suite")),
    "modcat.associator.calls": ("calls/op", _calls("modcat.TwistedCategory.associator")),
    "modcat.braiding.calls": ("calls/op", _calls("modcat.TwistedCategory.braiding")),
    "modcat.s_entry.calls": ("calls/op", _calls("modcat.TwistedCategory.s_entry")),
    "modcat.s_entry.self_s": ("s/op", _self_s("modcat.TwistedCategory.s_entry")),
    "modcat.cat_trace.calls": ("calls/op", _calls("modcat.TwistedCategory.cat_trace")),
    "fusionring.fusion_table.self_s": ("s/op", _self_s("fusionring.fusion_table")),
    "fusionring.group_order_identity.self_s": ("s/op", _self_s("fusionring.group_order_identity")),
    "fusionring.su2_smatrix.self_s": ("s/op", _self_s("fusionring.su2_smatrix")),
    "grouprep.hom_dim.calls": ("calls/op", _calls("grouprep.hom_dim")),
    "grouprep.hom_dim.self_s": ("s/op", _self_s("grouprep.hom_dim")),
    "grouprep.validate_irrep.calls": ("calls/op", _calls("grouprep.validate_irrep")),
    "grouprep.validate_irrep.self_s": ("s/op", _self_s("grouprep.validate_irrep")),
    "grouprep.intertwiner_basis.calls": ("calls/op", _calls("grouprep.intertwiner_basis")),
    "grouprep.intertwiner_basis.self_s": ("s/op", _self_s("grouprep.intertwiner_basis")),
    "branchcut.assoc_scalar.calls": ("calls/op", _calls("branchcut.assoc_scalar")),
    "branchcut.assoc_scalar.self_s": ("s/op", _self_s("branchcut.assoc_scalar")),
    "branchcut.p_int.calls": ("calls/op", _calls("branchcut.p_int")),
    "branchcut.p_int.self_s": ("s/op", _self_s("branchcut.p_int")),
    "branchcut.winding.calls": ("calls/op", _calls("branchcut.winding")),
    "branchcut.winding.self_s": ("s/op", _self_s("branchcut.winding")),
    "branchcut.transport_scalar.calls": ("calls/op", _calls("branchcut.transport_scalar")),
    "cli.Report.to_json.self_s": ("s/op", _self_s("cli.Report.to_json")),
    "cli.main.self_s": ("s/op", _self_s("cli.main")),
}


def layer_metrics(
    tracer: Tracer, ops: int, traced_s: float, untraced_s: float, speed: float
) -> dict:
    """Every per-layer metric, as {name: (value, unit)}.  ``traced_s`` and
    ``untraced_s`` are the scaled op times of the two passes; ``speed``
    scales span times to the reference speed like the op latencies."""
    totals = {
        name: (calls, total * speed, self_ns * speed)
        for name, (calls, total, self_ns) in tracer.totals().items()
    }
    out = {name: (fn(totals, ops), unit) for name, (unit, fn) in SPAN_METRICS.items()}
    validate_ns = totals.get("cocycle.validate_cocycle", (0, 0, 0))[2]
    tuples = tracer.work["cocycle.validate_cocycle"]
    out["cocycle.ns_per_tuple"] = (validate_ns / tuples if tuples else 0.0, "ns")
    suite_ns = totals.get("modcat.TwistedCategory.coherence_suite", (0, 0, 0))[2]
    catalog = tracer.work["modcat.TwistedCategory.coherence_suite"]
    out["modcat.us_per_catalog_tuple"] = (suite_ns / 1e3 / catalog if catalog else 0.0, "us")
    for layer in LAYERS:
        out[f"{layer}.errors"] = (tracer.errors[layer] / ops, "errors/op")
    out["trace.coverage"] = (tracer.covered_ns * speed / 1e9 / traced_s, "ratio")
    out["trace.overhead_ratio"] = (traced_s / untraced_s - 1, "ratio")
    return out
