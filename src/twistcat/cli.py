"""Command-line interface: verification suites, fusion tables, exact S
tables and monodromy scalars, with deterministic machine-readable reports.

Each command adds its verdicts and tables to one report; ``main`` resolves
the spec, prints the report, writes ``--out`` and maps it to an exit code:
0 all checks pass, 1 validation failure, 2 parse/structural error, 3
internal numerical inconsistency.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product
from pathlib import Path

import numpy as np

from . import branchcut, fusionring
from .cocycle import AbelianCocycle
from .errors import (
    CocycleError,
    ConsistencyError,
    DomainError,
    GradingError,
    RepresentationError,
    StructuralError,
)
from .modcat import TwistedCategory
from .specio import CategorySpec, load_spec, parse_element, su2_spec

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_PARSE = 2
EXIT_INCONSISTENT = 3

REPORT_SCHEMA_VERSION = 1


@dataclass
class Report:
    """Suite verdicts plus emitted tables; renders identically for humans
    and machines, byte-identical across runs for a fixed spec and seed."""

    spec_name: str
    spec_digest: str
    seed: int
    verdicts: list[dict] = field(default_factory=list)
    tables: dict = field(default_factory=dict)

    def add(self, check: str, passed: bool, detail: str = "") -> None:
        self.verdicts.append(
            {"check": check, "status": "pass" if passed else "fail", "detail": detail}
        )

    @property
    def passed(self) -> bool:
        return all(v["status"] == "pass" for v in self.verdicts)

    def to_json(self) -> str:
        payload = {
            "schema_version": REPORT_SCHEMA_VERSION,
            "spec": self.spec_name,
            "spec_digest": self.spec_digest,
            "seed": self.seed,
            "verdicts": self.verdicts,
            "tables": self.tables,
        }
        # the payload is built here and holds no cycle
        return json.dumps(payload, sort_keys=True, indent=2, check_circular=False) + "\n"

    def render_human(self) -> str:
        lines = [f"spec {self.spec_name} (sha256 {self.spec_digest[:12]}, seed {self.seed})"]
        for v in self.verdicts:
            mark = "PASS" if v["status"] == "pass" else "FAIL"
            line = f"  {mark}  {v['check']}"
            if v["detail"]:
                line += f": {v['detail']}"
            lines.append(line)
        n_fail = sum(1 for v in self.verdicts if v["status"] == "fail")
        total = len(self.verdicts)
        lines.append(
            f"{total} checks, all passed" if n_fail == 0 else f"{total} checks, {n_fail} FAILED"
        )
        return "\n".join(lines)


def _fusion_table(cat: TwistedCategory) -> dict:
    """A complete catalog's ``hom_dims`` as JSON: ``coefficients`` is
    ``{a: {b: {c: N^c_ab}}}`` over every label pair, each cell holding its
    nonzero coefficients, filled in C order from the nonzero cells."""
    if not cat.complete:
        raise StructuralError("fusion tables require a complete irrep catalog")
    labels, coeff = list(cat.labels), cat.hom_dims
    out = {la: {lb: {} for lb in labels} for la in labels}
    for (a, b, c), n in zip(np.argwhere(coeff).tolist(), coeff[coeff != 0].tolist()):
        out[labels[a]][labels[b]][labels[c]] = n
    return {"labels": labels, "dims": cat.dims.tolist(), "coefficients": out}


def _smatrix_table(labels, grades, dims, cocycle: AbelianCocycle) -> tuple:
    """The exact ``fusionring.s_table`` of graded objects, the SU(2) ring's or
    a catalog's, as JSON, with its ``num`` and ``mag``.  An entry
    whose root of unity is +-1 is the plain integer ``+-d_i d_j``; any other is
    ``{"exponent": "p/q", "magnitude": d_i d_j}`` with ``p/q`` in [0, 1)."""
    num, mag = fusionring.s_table(cocycle, grades, dims)
    entries = np.where(num == 0, mag, -mag).tolist()
    phased = 2 * num % cocycle.denom != 0  # a root of unity other than +-1
    # one exponent string per distinct residue, not per cell
    exponents = {r: str(Fraction(r, cocycle.denom)) for r in np.unique(num[phased]).tolist()}
    cells = zip(np.argwhere(phased).tolist(), num[phased].tolist(), mag[phased].tolist())
    for (i, j), r, m in cells:
        entries[i][j] = {"exponent": exponents[r], "magnitude": m}
    return {"labels": list(labels), "entries": entries}, num, mag


def _graded_objects(spec: CategorySpec) -> tuple:
    """``(labels, grades, dims)`` of a spec's simple objects: the ``V(n)`` of
    the SU(2) ring on an su2 spec, the catalog of its category otherwise."""
    if spec.mode == "su2":
        spec.build_cocycle()  # both modes refuse an invalid cocycle here
        return fusionring.su2_ring(spec.max_spin)
    cat = spec.build_category()
    return cat.labels, cat.grades, cat.dims


def _verify_monodromy(cocycle: AbelianCocycle, report: Report, seed: int) -> None:
    rng = np.random.default_rng(seed)
    order, denom = cocycle.group.order, cocycle.denom
    idx = np.arange(order)
    # On positive reals p = 0, where the scalar reduces to F^-1 for every
    # cocycle: this check fails only if branch_integers leaves 0 there, or if the
    # p = 0 assoc_numerator formula differs from F^-1; it cannot detect a bad cocycle.
    n_pairs = 200
    # in one call, bit for bit the alternating draws of rng.uniform(0.1, 10.0)
    # for r1 and rng.uniform(0.5 * r1, r1) for r2
    u = rng.random(2 * n_pairs)
    r1s = 0.1 + (10.0 - 0.1) * u[0::2]
    r2s = 0.5 * r1s + (r1s - 0.5 * r1s) * u[1::2]
    p12, p2 = branchcut.branch_integers(r1s, r2s)
    nonzero_p = np.count_nonzero(p12 | p2)
    at_zero = branchcut.assoc_numerator(
        cocycle, 0, 0, idx[:, None, None], idx[None, :, None], idx[None, None, :]
    )
    report.add(
        "monodromy-positive-reals",
        nonzero_p == 0 and np.array_equal(at_zero, (-cocycle.f_num) % denom),
        f"{n_pairs} seeded admissible pairs: p = 0 and scalar = F^-1 exactly",
    )
    p = branchcut.winding(branchcut.clockwise_unit_loop())
    transport = branchcut.transport_numerator(cocycle, p, idx[:, None], idx[None, :])
    report.add(
        "monodromy-loop-identity",
        np.array_equal(transport, -cocycle.b_num % denom),
        "clockwise unit loop transport equals the composed braiding scalars "
        f"for all {order ** 2} grade pairs",
    )


def _verify_finite(spec: CategorySpec, cocycle: AbelianCocycle, report: Report, seed: int):
    """Add the category's verdicts and fusion table to ``report``; return its
    S table's JSON, or ``None`` when the category cannot be built."""
    counts = f"|A| = {cocycle.group.order}, pentagon tuples = {cocycle.group.order ** 4}"
    report.add("cocycle-axioms", True, counts)

    try:
        cat = spec.build_category()
    except (RepresentationError, GradingError, StructuralError) as exc:
        report.add("irreps-valid", False, str(exc))
        return None
    report.add(
        "irreps-valid",
        True,
        f"{len(cat.catalog)} irreps validated and graded; "
        f"sum of dim^2 = {sum(m.dim ** 2 for m in cat.catalog)}",
    )

    suite = cat.coherence_suite(seed=seed)
    for check in suite.checks:
        detail = f"{check.checked} tuples, max deviation {check.max_error:.2e}"
        if check.witness is not None:
            detail += f", witness {check.witness}"
        report.add(f"coherence:{check.axiom}", check.passed, detail)

    # a grade-a member of dimension d has categorical dimension d e^{2 pi i x_a / denom}
    x, denom, grades = fusionring.dim_exponents(cat.cocycle), cat.cocycle.denom, cat.grades
    # an incomplete catalog has no order identity and no fusion table to check
    if cat.complete:
        # sum (dim M)(dim M*) is sum d^2 e^{2 pi i (x_a + x_-a) / denom}, and
        # sum d^2 = |G| holds by construction: it is |G| iff every exponent is 0
        duals = cat.grading.neg_index_table[grades]
        ok, order = not ((x[grades] + x[duals]) % denom).any(), cat.group.order
        report.add(
            "group-order-identity", ok,
            f"sum (dim)(dim*) {'=' if ok else '!='} {order}, |G| = {order}",
        )
        report.tables["fusion"] = _fusion_table(cat)

    report.add(
        "categorical-dimensions", not x[grades].any(),
        "categorical trace of the identity equals the vector-space dimension",
    )

    return _smatrix_table(cat.labels, cat.grades, cat.dims, cocycle)[0]


def _verify_su2(spec: CategorySpec, cocycle: AbelianCocycle, report: Report, seed: int):
    """Add the SU(2) ring's verdicts and fusion table to ``report``; return its S table's JSON."""
    report.add("cocycle-axioms", True, f"|A| = {cocycle.group.order}")

    labels, grades, dims = _graded_objects(spec)  # the V(n), of dimension n + 1
    table, num, mag = _smatrix_table(labels, grades, dims, cocycle)
    sym = bool(np.array_equal(num, num.T) and np.array_equal(mag, mag.T))
    mags = bool(np.array_equal(mag, np.outer(dims, dims)))
    report.add("smatrix-symmetric", sym, f"spins up to {spec.max_spin}")
    report.add("smatrix-magnitude", mags, "|S_mn| = (m+1)(n+1) for all entries")

    spins = range(spec.max_spin + 1)
    fusion_ok = all(
        sum(k + 1 for k in fusionring.su2_tensor(m, n)) == (m + 1) * (n + 1)
        for m, n in product(spins, spins)
    )
    report.add("fusion-dimension-rule", fusion_ok, "Clebsch-Gordan dimensions add up")

    # the cocycle is on Z/2 (the spec reader checked it), so these are both grades
    report.add(
        "categorical-dimensions", not fusionring.dim_exponents(cocycle).any(),
        "dimension prefactor is exactly 1 on both grades",
    )
    pairs = ((m, n) for m in range(min(spec.max_spin, 6) + 1) for n in range(m + 1))
    report.tables["fusion"] = fusionring.su2_fusion(pairs)
    return table


def cmd_verify(spec: CategorySpec, report: Report, args) -> None:
    try:
        cocycle = spec.build_cocycle()
    except CocycleError as exc:
        report.add("cocycle-axioms", False, exc.report.describe())
    else:
        verify = _verify_su2 if spec.mode == "su2" else _verify_finite
        smatrix = verify(spec, cocycle, report, args.seed)
        if smatrix is not None:
            _verify_monodromy(cocycle, report, args.seed)
            report.tables["smatrix"] = smatrix


def cmd_fusion(spec: CategorySpec, report: Report, args) -> None:
    if spec.mode == "su2":
        # invalid cocycles are refused as smatrix refuses them; non-Z/2 gradings, by the reader
        labels = _graded_objects(spec)[0]
        report.tables["fusion"] = fusionring.su2_fusion(product(range(len(labels)), repeat=2))
        report.add("fusion-table", True, f"Clebsch-Gordan up to spin {spec.max_spin}")
    else:
        fusion = report.tables["fusion"] = _fusion_table(spec.build_category())
        report.add(
            "fusion-table", True,
            f"{len(fusion['labels'])}^3 character-sum coefficients, invariants verified",
        )


def cmd_smatrix(spec: CategorySpec, report: Report, args) -> None:
    report.tables["smatrix"] = _smatrix_table(*_graded_objects(spec), spec.build_cocycle())[0]
    if spec.mode == "su2":
        report.add("smatrix", True, f"exact integer entries up to spin {spec.max_spin}")
    else:
        report.add("smatrix", True, "exact entries d_i d_j e(-b(a_i, a_j)) from the cocycle")


def _parse_complex(text: str) -> complex:
    try:
        parts = [float(x) for x in text.split(",")]
    except ValueError:
        parts = []
    if len(parts) != 2 or not all(map(math.isfinite, parts)):
        raise StructuralError(f"expected a finite point 're,im', got {text!r}")
    return complex(*parts)


def _parse_grades(text: str, spec: CategorySpec, count: int):
    parts = text.split("|")
    if len(parts) != count:
        raise StructuralError(f"expected {count} grades joined by '|', got {text!r}")
    return tuple(parse_element(p, spec.grading, "each --grades entry") for p in parts)


def cmd_monodromy(spec: CategorySpec, report: Report, args) -> None:
    cocycle = spec.build_cocycle()
    try:
        if args.path is not None:
            waypoints = tuple(
                _parse_complex(p) for p in args.path.replace(";", " ").split()
            )
            path = branchcut.PathPolyline(waypoints)
            grades = _parse_grades(args.grades, spec, 2)
            p = branchcut.winding(path)
            scalar = branchcut.transport_scalar(cocycle, path, *grades)
            report.tables["monodromy"] = {
                "winding": p,
                "transport_exponent": str(scalar),
                "transport_value": repr(scalar.to_complex()),
            }
            report.add("monodromy", True, f"winding {p}, transport exponent {scalar}")
        else:
            z1, z2 = _parse_complex(args.z1), _parse_complex(args.z2)
            grades = _parse_grades(args.grades, spec, 3)
            # assoc_scalar checks the nested region before either p is taken
            scalar = branchcut.assoc_scalar(cocycle, z1, z2, *grades)
            p12, p2 = branchcut.branch_integers(z1, z2)
            report.tables["monodromy"] = {
                "p_z1_z2": p12,
                "p_z2_z2-z1": p2,
                "assoc_exponent": str(scalar),
                "assoc_value": repr(scalar.to_complex()),
            }
            report.add(
                "monodromy", True,
                f"p_z1_z2 = {p12}, p_z2_z2-z1 = {p2}, scalar exponent {scalar}",
            )
    except DomainError as exc:
        report.add("monodromy", False, str(exc))


def _command_spec(args) -> CategorySpec:
    """The command's spec: ``--spec``, or for ``smatrix`` ``--su2`` with ``--max-spin``.
    Every command-line refusal is made here, before the spec is read; an
    option counts as given when it is not ``None``, even when it is empty."""
    if args.seed < 0:
        raise StructuralError(f"--seed must be nonnegative, got {args.seed}")
    if args.command == "monodromy":
        if args.path is not None and (args.z1 is not None or args.z2 is not None):
            raise StructuralError("monodromy takes --z1/--z2 or --path, not both")
        if args.path is None and (args.z1 is None or args.z2 is None):
            raise StructuralError("monodromy needs --z1/--z2 or --path")
    if args.command == "smatrix":
        # either --spec, or --su2 with --max-spin; the SU(2) options need --su2
        if args.su2 == (args.spec is not None) or (args.su2 and args.max_spin is None):
            raise StructuralError("smatrix needs --spec or --su2 with --max-spin, not both")
        if not args.su2 and (args.max_spin is not None or args.cocycle_param is not None):
            raise StructuralError("smatrix takes --max-spin and --cocycle-param with --su2 only")
        if args.su2:
            return su2_spec(args.max_spin, 3 if args.cocycle_param is None else args.cocycle_param)
    return load_spec(args.spec)


def _add_common(parser: argparse.ArgumentParser, *, spec_required: bool = True) -> None:
    parser.add_argument(
        "--spec", required=spec_required, default=None,
        help="spec file path or bundled fixture name",
    )
    parser.add_argument("--out", default=None, help="write machine-readable JSON report here")
    parser.add_argument("--seed", type=int, default=0, help="seed for randomized spot checks")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="twistcat",
        description="cocycle-twisted categories of finite-group representations",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run all verification suites on a spec")
    _add_common(p_verify)

    p_fusion = sub.add_parser("fusion", help="emit the fusion table")
    _add_common(p_fusion)

    p_smatrix = sub.add_parser("smatrix", help="emit the S-matrix")
    _add_common(p_smatrix, spec_required=False)
    p_smatrix.add_argument(
        "--su2", action="store_true",
        help="symbolic graded SU(2) mode, with --max-spin and without --spec",
    )
    p_smatrix.add_argument("--max-spin", type=int, default=None)
    p_smatrix.add_argument(
        "--cocycle-param", type=int, default=None,
        help="twist parameter s of the Z/2 cocycle in --su2 mode (default 3)",
    )

    p_mono = sub.add_parser("monodromy", help="branch integers and transport scalars")
    _add_common(p_mono)
    # argparse reads a separate argument that starts with '-' as an option
    p_mono.add_argument(
        "--z1", default=None,
        help="first insertion point as 're,im'; write --z1=-3,0 for a negative real part",
    )
    p_mono.add_argument(
        "--z2", default=None,
        help="second insertion point as 're,im'; write --z2=-2,0 for a negative real part",
    )
    p_mono.add_argument(
        "--path", default=None,
        help="polyline waypoints 're,im' separated by spaces or ';', as one argument; "
        "write --path=-1,0;... when it starts with '-'",
    )
    p_mono.add_argument(
        "--grades", required=True,
        help="grades joined by '|' (three for --z1/--z2, two for --path)",
    )
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on the first ``main`` call and reused after it."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    # resolved per call rather than stored in the cached parser, so the
    # module's current command functions always run
    commands = {
        "verify": cmd_verify, "fusion": cmd_fusion, "smatrix": cmd_smatrix,
        "monodromy": cmd_monodromy,
    }
    try:
        spec = _command_spec(args)
        report = Report(spec.name, spec.digest, args.seed)
        commands[args.command](spec, report, args)
        print(report.render_human())
        if args.out:
            Path(args.out).write_text(report.to_json(), encoding="utf-8")
        return EXIT_OK if report.passed else EXIT_VALIDATION
    except (StructuralError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (CocycleError, RepresentationError, GradingError, DomainError) as exc:
        print(f"validation failure: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except ConsistencyError as exc:
        print(f"internal inconsistency: {exc}", file=sys.stderr)
        return EXIT_INCONSISTENT


if __name__ == "__main__":
    sys.exit(main())
