"""Loading category descriptions from JSON spec files.

A spec file is a UTF-8 JSON document with a versioned schema:

    {
      "schema_version": 1,
      "name": "z2-lattice-on-z4",
      "mode": "finite-group",                  // or "su2"
      "grading_group": [2],                    // invariant factors of A
      "cocycle": {"builder": "cyclic", "n": 2, "s": 3},
      // or: {"tables": {"f": {"1|1|1": "1/2"}, "omega": {"1|1": "3/4"}}}
      //     element keys are comma-joined residues, arguments joined by "|";
      //     omitted entries default to exponent 0 (value 1)
      "group": {"builtin": "z4"},
      // or: {"table": [[...]]} or {"permutation_generators": [[1,0,2], ...]}
      "irreps": "builtin",
      // or: {"generators": [g1, g2], "list": [{"label": ..., "matrices": [...]}]}
      //     matrix entries are "a+bi" decimals or "e(p/q)" for e^{2 pi i p/q}
      "central_embedding": [2],                // element index per grading factor
      "complete": true
    }

su2 mode replaces group/irreps/embedding with {"max_spin": N}, 0 <= N <= 64.

``load_spec`` alone reads the file, once: the SHA-256 of its bytes is the
spec's ``digest``, and those bytes, decoded as UTF-8, are the JSON it parses,
checking each field's type and shape once and naming a bad field's JSON path.
Integer fields are JSON integers, matrix entries are strings, a
``group.table`` has at most ``MAX_GROUP_ORDER`` rows.  Group axioms, irreps
and the embedding are checked when the category is built.
Cocycle table keys are stored as row-major flat indices into the table,
whose digits in base ``|A|`` are the elements' enumeration indices.  Tables
whose keys are all canonical (each element's reduced residues, as
``"1|0|2"`` or ``"1,0|0,1"``) and whose values are all exponent strings,
the form the builders and generators write, are read in bulk, with no
Python step per entry; any other table is walked entry by entry, which
reduces residues, lets a later key for the same element win, and names the
first bad entry of a malformed table.  Both give the same arrays.  A spec
file is at most ``MAX_SPEC_BYTES`` long, checked before it is read: a dense
``F`` table fits up to about ``|A| = 73``, and larger grading groups need
sparse tables or a builder.
"""

from __future__ import annotations

import cmath
import hashlib
import json
import re
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import islice, repeat
from pathlib import Path

import numpy as np

from .abgroup import FinAbGroup
from .catalogs import builtin_builder, builtin_catalog
from .cocycle import MAX_TABLE_ORDER, AbelianCocycle, _from_exponents, build_cyclic
from .errors import StructuralError
from .fusionring import MAX_SPIN
from .grouprep import MAX_GROUP_ORDER, CentralEmbedding, FiniteGroup, rep_from_generators
from .modcat import TwistedCategory
from .unitscalar import UnitScalar

SCHEMA_VERSION = 1
# a table spec just under the cap (every F entry on Z/79 as "0/1", 7.8 MiB)
# loads and builds in 0.6-0.8 s and peaks at 138 MiB on 2 vCPUs
MAX_SPEC_BYTES = 8 * 2**20
_CHUNK_KEYS = 2**13  # table keys split at once by the bulk reader
FIXTURE_DIR = Path(__file__).parent / "fixtures"
BUNDLED_FIXTURES = (
    "z2-lattice-on-z4",
    "super-on-z4",
    "s3-trivial-grading",
    "q8-z2",
    "su2-lattice",
    "z2-lattice-on-z4-broken",
)

_ENTRY_EXP = re.compile(r"^e\((?P<frac>-?\d+(/\d+)?)\)$")
_EXPONENT = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")  # a table exponent string
_KINDS = {dict: "an object", list: "a list", str: "a string", bool: "true or false"}


def parse_matrix_entry(text: str) -> complex:
    """Parse ``"a+bi"`` decimal entries or ``"e(p/q)"`` roots of unity; the
    value must be finite, so ``"nan"``, ``"inf"`` and ``"1e999"`` are refused."""
    text = text.strip().replace(" ", "")
    m = _ENTRY_EXP.match(text)
    try:
        if m:
            return UnitScalar(Fraction(m.group("frac"))).to_complex()
        value = complex(text.replace("i", "j"))
    except (ValueError, ZeroDivisionError) as exc:
        raise StructuralError(f"cannot parse matrix entry {text!r}") from exc
    if not cmath.isfinite(value):
        raise StructuralError(f"matrix entry {text!r} is not finite")
    return value


def parse_element(text: str, group: FinAbGroup, what: str) -> tuple[int, ...]:
    """The element of ``group`` written as residues joined by ``,``, e.g. ``"1,0"``."""
    try:
        residues = [int(r) for r in text.split(",")]
    except ValueError:
        residues = []
    if len(residues) != group.rank:
        raise StructuralError(f"{what} must be residues of {group} joined by ',', got {text!r}")
    return group.element(residues)


def _bad(path: str, expected: str, value) -> StructuralError:
    got = "nothing" if value is None else repr(value)
    return StructuralError(f"spec field {path!r} must be {expected}, got {got}")


def _typed(value, kind: type, path: str):
    if not isinstance(value, kind):
        raise _bad(path, _KINDS[kind], value)
    return value


def _parse_int(value, path: str, bound: range | None = None) -> int:
    """A JSON integer (no string, float or boolean), inside ``bound`` if given."""
    if type(value) is not int:
        raise _bad(path, "an integer", value)
    if bound is not None and value not in bound:
        raise _bad(path, f"an integer in [{bound.start}, {bound.stop})", value)
    return value


def _parse_ints(value, path: str, bound: range | None = None) -> tuple[int, ...]:
    items = _typed(value, list, path)
    return tuple(_parse_int(x, f"{path}[{i}]", bound) for i, x in enumerate(items))


def _parse_exponent(value, path: str) -> Fraction:
    """A JSON string ``"p/q"`` or ``"p"`` of ASCII digits with an optional
    sign, or a JSON integer.  Anything else, such as a boolean, a float or a
    string in decimal or exponent notation, is refused before ``Fraction``
    can expand it."""
    if type(value) is not int and not (isinstance(value, str) and _EXPONENT.fullmatch(value)):
        raise _bad(path, "a rational exponent", value)
    try:
        return Fraction(value)
    except (ValueError, ZeroDivisionError):
        raise _bad(path, "a rational exponent", value) from None


def _parse_tables(tables: dict, group: FinAbGroup) -> tuple:
    """``(f, omega, exponents)`` from ``cocycle.tables``: per table a pair of
    int arrays ``(flat indices, exponent ids)``, a key's parts being the
    arguments' elements, and the exponents that the ids of both tables index.

    Two readers give the same arrays.  ``_read_canonical`` reads well-formed
    tables, the form the builders' and generated specs write, in bulk; any
    other table, including every malformed one, goes to ``_walk_tables``,
    which names the first bad entry and lets a key that reduces to an
    earlier one override it."""
    return _read_canonical(tables, group) or _walk_tables(tables, group)


def _read_canonical(tables: dict, group: FinAbGroup) -> tuple | None:
    """The tables in bulk, with no Python step per entry, or ``None`` unless
    both are well-formed: every key of ``arity`` parts, each part an
    element's canonical string (reduced residues in decimal, joined by
    ``,``, as ``",".join(map(str, e))`` writes them), and every value an
    exponent string.  Distinct canonical keys name distinct cells,
    so no entry overrides another; each distinct exponent string is parsed
    once.  Keys are split ``_CHUNK_KEYS`` at a time, so the part strings of
    a spec at ``MAX_SPEC_BYTES`` do not raise the load's peak."""
    if group.order > MAX_TABLE_ORDER:  # the walk reads the parts; the build refuses
        return None
    m = group.order
    canonical = {",".join(map(str, e)): i for i, e in enumerate(group.elements())}
    ids: dict[str, int] = {}  # exponent string -> position in exponents
    exponents: list[Fraction] = []
    arrays = []
    for key, arity in (("f", 3), ("omega", 2)):
        entries = tables.get(key, {})
        if type(entries) is not dict or not set(map(type, entries.values())) <= {str}:
            return None
        for text in dict.fromkeys(entries.values()):
            if text not in ids:
                try:
                    exponents.append(_parse_exponent(text, key))
                except StructuralError:
                    return None
                ids[text] = len(exponents) - 1
        keys, flat = iter(entries), np.empty(len(entries), np.intp)
        for start in range(0, len(entries), _CHUNK_KEYS):
            chunk = list(islice(keys, _CHUNK_KEYS))
            if not set(map(str.count, chunk, repeat("|"))) <= {arity - 1}:
                return None
            try:
                parts = np.fromiter(map(canonical.__getitem__, "|".join(chunk).split("|")),
                                    np.intp, arity * len(chunk))
            except KeyError:
                return None
            flat[start:start + len(chunk)] = np.ravel_multi_index(
                parts.reshape(-1, arity).T, (m,) * arity)
        arrays.append((flat, np.fromiter(map(ids.__getitem__, entries.values()), np.intp,
                                         len(entries))))
    return (*arrays, exponents)


def _walk_tables(tables: dict, group: FinAbGroup) -> tuple:
    """``_parse_tables`` one entry at a time, in order, for any table: a key
    part is any residues that reduce to an element, a value a string or a
    JSON integer, and the first bad entry is named.

    Key parts and exponent strings repeat across the tables, so each distinct
    one is parsed once; a JSON integer is parsed at every entry, so ``true``
    is refused even after ``1``.  A key that reduces to an earlier one
    overrides it."""
    m = group.order
    indices: dict[str, int] = {}
    ids: dict = {}  # exponent -> position in exponents; only strings are looked up
    exponents: list[Fraction] = []
    arrays = []
    for key, arity in (("f", 3), ("omega", 2)):
        path, entries = f"cocycle.tables.{key}", {}
        for text, value in _typed(tables.get(key, {}), dict, path).items():
            where = f"{path}.{text}"
            parts = text.split("|")
            if len(parts) != arity:
                raise StructuralError(
                    f"spec field {where!r} must key {arity} elements joined by '|'"
                )
            flat = 0
            for part in parts:
                if part not in indices:
                    indices[part] = group.index(parse_element(part, group, f"spec field {where!r}"))
                flat = flat * m + indices[part]
            if not isinstance(value, str) or value not in ids:  # a string is parsed once
                exponents.append(_parse_exponent(value, where))
                ids[value] = len(exponents) - 1
            entries[flat] = ids[value]
        arrays.append((np.fromiter(entries, np.intp, len(entries)),
                       np.fromiter(entries.values(), np.intp, len(entries))))
    return (*arrays, exponents)


def _parse_cocycle(config, grading: FinAbGroup) -> tuple:
    """``("cyclic", n, s)``, ``("trivial",)`` or ``("tables", f, omega,
    exponents)``, the arguments of ``cocycle._from_exponents``."""
    config = _typed(config, dict, "cocycle")
    if "builder" in config:
        builder = config["builder"]
        if builder == "cyclic":
            n = _parse_int(config.get("n"), "cocycle.n")
            return "cyclic", n, _parse_int(config.get("s"), "cocycle.s")
        if builder == "trivial":
            return ("trivial",)
        raise _bad("cocycle.builder", "'cyclic' or 'trivial'", builder)
    if "tables" in config:
        tables = _typed(config["tables"], dict, "cocycle.tables")
        return ("tables", *_parse_tables(tables, grading))
    raise _bad("cocycle", "an object with 'builder' or 'tables'", config)


def _parse_group(config) -> tuple:
    """``("builtin", name)``, ``("table", rows)`` or ``("permutations", generators)``."""
    config = _typed(config, dict, "group")
    if "builtin" in config:
        name = _typed(config["builtin"], str, "group.builtin")
        try:
            builtin_builder(name)
        except StructuralError as exc:
            raise StructuralError(f"spec field 'group.builtin': {exc}") from None
        return "builtin", name
    if "table" in config:
        rows = _typed(config["table"], list, "group.table")
        if not 1 <= len(rows) <= MAX_GROUP_ORDER:  # the group order cap, before any allocation
            raise _bad("group.table", f"a list of 1 to {MAX_GROUP_ORDER} rows", len(rows))
        table = []
        for i, row in enumerate(rows):
            if not isinstance(row, list) or len(row) != len(rows):
                raise _bad(f"group.table[{i}]", f"a list of {len(rows)} element indices", row)
            table.append(_parse_ints(row, f"group.table[{i}]", range(len(rows))))
        return "table", np.array(table, dtype=np.int64)
    if "permutation_generators" in config:
        path = "group.permutation_generators"
        gens = _typed(config["permutation_generators"], list, path)
        return "permutations", tuple(_parse_ints(g, f"{path}[{i}]") for i, g in enumerate(gens))
    raise _bad("group", "an object with 'builtin', 'table' or 'permutation_generators'", config)


def _parse_matrix(value, path: str) -> np.ndarray:
    """A square matrix of ``parse_matrix_entry`` strings."""
    if not isinstance(value, list) or not value:
        raise _bad(path, "a non-empty list of rows", value)
    entries = []
    for i, row in enumerate(value):
        if not isinstance(row, list) or len(row) != len(value):
            raise _bad(f"{path}[{i}]", f"a list of {len(value)} entries", row)
        for j, text in enumerate(row):
            where = f"{path}[{i}][{j}]"
            text = _typed(text, str, where)
            try:
                entries.append(parse_matrix_entry(text))
            except StructuralError as exc:
                raise StructuralError(f"spec field {where!r}: {exc}") from None
    return np.array(entries, dtype=np.complex128).reshape(len(value), len(value))


def _parse_irreps(config) -> tuple | None:
    """``None`` for ``"builtin"``, else generator indices and ``{label: matrices}``."""
    if config == "builtin":
        return None
    if not isinstance(config, dict):
        raise _bad("irreps", "'builtin' or an object", config)
    generators = _parse_ints(config.get("generators"), "irreps.generators")
    reps = {}
    for i, item in enumerate(_typed(config.get("list"), list, "irreps.list")):
        path = f"irreps.list[{i}]"
        label = _typed(_typed(item, dict, path).get("label"), str, f"{path}.label")
        if label in reps:
            raise _bad(f"{path}.label", "a label not used before", label)
        mats = _typed(item.get("matrices"), list, f"{path}.matrices")
        reps[label] = [_parse_matrix(m, f"{path}.matrices[{j}]") for j, m in enumerate(mats)]
    return generators, reps


@dataclass
class CategorySpec:
    """The typed fields of a spec file; builds the objects they describe."""

    name: str
    mode: str
    digest: str | None  # sha256 of the spec file's bytes, the ones parsed
    grading: FinAbGroup
    cocycle_source: tuple  # what _parse_cocycle returns
    group_source: tuple = ()  # what _parse_group returns
    irrep_source: tuple | None = None  # what _parse_irreps returns
    embedding: tuple[int, ...] = ()
    complete: bool = True
    max_spin: int = 10
    _cocycle: AbelianCocycle | None = field(default=None, init=False, repr=False)

    def build_cocycle(self) -> AbelianCocycle:
        """Construct the cocycle, once per spec.  The cyclic and table builders
        validate it; a trivial one validates when its ``report`` is first read."""
        if self._cocycle is None:
            kind, *args = self.cocycle_source
            if kind == "cyclic":
                if self.grading.factors != (args[0],):
                    raise StructuralError("cyclic builder requires grading_group [n]")
                self._cocycle = build_cyclic(*args)
            elif kind == "trivial":
                self._cocycle = AbelianCocycle.trivial(self.grading, name=self.name)
            else:
                self._cocycle = _from_exponents(self.grading, *args, self.name)
        return self._cocycle

    def build_category(self) -> TwistedCategory:
        """Construct the full twisted category; finite-group mode only."""
        if self.mode != "finite-group":
            raise StructuralError(f"spec {self.name!r} has no finite-group category")
        cocycle = self.build_cocycle()
        kind, value = self.group_source
        if kind == "builtin":
            group, irreps = builtin_catalog(value)
        else:
            build = FiniteGroup if kind == "table" else FiniteGroup.from_permutations
            group, irreps = build(value), None
        if self.irrep_source is not None:
            gens, matrices = self.irrep_source
            irreps = {label: rep_from_generators(group, gens, m) for label, m in matrices.items()}
        elif irreps is None:
            raise StructuralError("'irreps': 'builtin' requires a builtin group")
        embedding = CentralEmbedding(self.grading, self.embedding)
        return TwistedCategory(group, cocycle, embedding, irreps, complete=self.complete)


def fixture_path(name: str) -> Path:
    path = FIXTURE_DIR / f"{name}.json"
    if not path.exists():
        raise StructuralError(f"no bundled fixture named {name!r}")
    return path


def resolve_spec_path(spec: str | Path) -> Path:
    """A filesystem path, or the name of a bundled fixture."""
    path = Path(spec)
    if path.exists():
        return path
    if isinstance(spec, str) and re.fullmatch(r"[\w-]+", spec):
        return fixture_path(spec)
    raise StructuralError(f"spec file {spec!r} does not exist")


def load_spec(spec: str | Path) -> CategorySpec:
    """Read a spec file, checking each field's type and shape once."""
    path = resolve_spec_path(spec)
    size = path.stat().st_size
    if size > MAX_SPEC_BYTES:
        raise StructuralError(
            f"spec file {path} is {size} bytes, over MAX_SPEC_BYTES = {MAX_SPEC_BYTES}"
        )
    data = path.read_bytes()
    try:
        raw = json.loads(data.decode("utf-8"))  # loads(data) would take UTF-16 and UTF-32 too
    except (ValueError, RecursionError) as exc:  # also bad UTF-8, huge or deep literals
        raise StructuralError(f"spec file {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise StructuralError("spec file must contain a JSON object")
    version = raw.get("schema_version")
    if type(version) is not int or version != SCHEMA_VERSION:
        raise _bad("schema_version", str(SCHEMA_VERSION), version)
    mode = raw.get("mode", "finite-group")
    if mode not in ("finite-group", "su2"):
        raise _bad("mode", "'finite-group' or 'su2'", mode)
    grading = FinAbGroup(_parse_ints(raw.get("grading_group"), "grading_group"))
    name = _typed(raw.get("name", path.stem), str, "name")
    cocycle = _parse_cocycle(raw.get("cocycle"), grading)
    spec = CategorySpec(name, mode, hashlib.sha256(data).hexdigest(), grading, cocycle)
    spec.max_spin = _parse_int(raw.get("max_spin", 10), "max_spin", range(0, MAX_SPIN + 1))
    if mode == "finite-group":
        spec.group_source = _parse_group(raw.get("group"))
        spec.irrep_source = _parse_irreps(raw.get("irreps"))
        spec.embedding = _parse_ints(raw.get("central_embedding"), "central_embedding")
        spec.complete = _typed(raw.get("complete", True), bool, "complete")
    return spec
