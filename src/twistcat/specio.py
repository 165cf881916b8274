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
``group.table`` has at most ``MAX_GROUP_ORDER`` rows.  It refuses every fault
the file alone decides: the table caps for every cocycle kind, a cyclic
builder off its grading, builtin irreps on a group not builtin, an embedding
count other than the grading rank.  It alone picks each constructor: a
``CategorySpec`` holds the zero-argument calls that build its cocycle and
catalog, and what needs the group (its axioms, the irreps, the embedding's
images) is checked when they run.
Cocycle table keys are stored as row-major flat indices into the table,
whose digits in base ``|A|`` are the elements' enumeration indices.  One
reader, ``_parse_tables``, reads every table in bulk, with no Python step
per entry: it reduces unreduced residues, lets a later key for the same
element win, and only for a chunk of entries that fails its checks walks
that chunk to name the first bad entry (``_first_bad_entry``).  A spec
file is at most ``MAX_SPEC_BYTES`` long, checked before it is read: a dense
``F`` table fits up to about ``|A| = 73``, and larger grading groups need
sparse tables or a builder.
"""

from __future__ import annotations

import cmath
import hashlib
import json
import re
from collections.abc import Callable
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from itertools import islice, repeat
from pathlib import Path

import numpy as np

from .abgroup import FinAbGroup
from .catalogs import builtin_builder, builtin_catalog
from .cocycle import AbelianCocycle, _check_table_order, _from_exponents, build_cyclic
from .errors import StructuralError
from .fusionring import MAX_SPIN
from .grouprep import (
    MAX_GROUP_ORDER,
    CentralEmbedding,
    FiniteGroup,
    RepCatalog,
    rep_from_generators,
)
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
_SIGN_SPACES = re.compile(r"(?<![eE]) *([+-]) *")  # spaces beside a sign, not an exponent's
_EXPONENT = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")  # a table exponent string
_RESIDUE = re.compile(r"[+-]?[0-9]+")  # one residue of an element
_KINDS = {dict: "an object", list: "a list", str: "a string", bool: "true or false"}


def parse_matrix_entry(text: str) -> complex:
    """Parse ``"a+bi"`` decimal entries or ``"e(p/q)"`` roots of unity; the
    value must be finite, so ``"nan"``, ``"inf"`` and ``"1e999"`` are refused.
    A space may stand at either end or beside a ``+`` or ``-`` sign, as in
    ``"1 + 2i"`` or ``"- 0.5"``; any other space, as in ``"1 2"`` or
    ``"1e 5"``, is refused, not read as two numbers glued together."""
    text = text.strip()
    if " " in text:
        joined = _SIGN_SPACES.sub(r"\1", text)
        if " " in joined:
            raise StructuralError(
                f"matrix entry {text!r} has a space other than at its ends or beside a part's sign"
            )
        text = joined
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
    """The element of ``group`` written as residues joined by ``,``, e.g.
    ``"1,0"``.  A residue is ASCII digits with an optional sign, as an
    exponent's numerator is: no space, underscore or other digit script."""
    residues = text.split(",")
    if len(residues) != group.rank or not all(map(_RESIDUE.fullmatch, residues)):
        raise StructuralError(f"{what} must be residues of {group} joined by ',', got {text!r}")
    return group.element([int(r) for r in residues])


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


class _Parts(dict):
    """Key part -> enumeration index of the element it names, or -1 for a
    part that names none.  Starts with every element's canonical string
    (reduced residues in decimal, as ``",".join(map(str, e))`` writes them);
    any other part is parsed once, through ``parse_element``, and sets
    ``aliased`` if it names an element, as its key may then share a cell
    with another key."""

    def __init__(self, group: FinAbGroup):
        super().__init__((",".join(map(str, e)), i) for i, e in enumerate(group.elements()))
        self.group, self.aliased = group, False

    def __missing__(self, part: str) -> int:
        try:
            index = self.group.index(parse_element(part, self.group, "a key part"))
        except StructuralError:
            index = -1
        self.aliased |= index >= 0
        self[part] = index
        return index


def _parse_tables(tables: dict, group: FinAbGroup) -> tuple:
    """``(f, omega, exponents)`` from ``cocycle.tables``: per table a pair of
    int arrays ``(flat indices, exponent ids)``, a key's parts being the
    arguments' elements, and the exponents that the ids of both tables index.

    Every table is read in bulk, ``_CHUNK_KEYS`` entries at a time, with no
    Python step per entry: a chunk's keys are counted for their arity, its
    values checked to be strings or JSON integers, each distinct value
    parsed once, and its keys joined, split and looked up in one ``_Parts``.
    A chunk that fails any of these goes to ``_first_bad_entry``, which
    names its first bad entry.  A part that is not canonical may name the
    cell of another key; then the later key wins."""
    m, parts = group.order, _Parts(group)
    ids: dict = {}  # exponent string or JSON integer -> position in exponents
    exponents: list[Fraction] = []
    arrays = []
    for key, arity in (("f", 3), ("omega", 2)):
        path = f"cocycle.tables.{key}"
        entries = _typed(tables.get(key, {}), dict, path)
        keys, values = iter(entries), iter(entries.values())
        flat, vid = np.empty(len(entries), np.intp), np.empty(len(entries), np.intp)
        for start in range(0, len(entries), _CHUNK_KEYS):
            ks, vs = list(islice(keys, _CHUNK_KEYS)), list(islice(values, _CHUNK_KEYS))
            if not (set(map(str.count, ks, repeat("|"))) <= {arity - 1}
                    and set(map(type, vs)) <= {str, int}):
                _first_bad_entry(path, arity, ks, vs, group)
            try:
                for value in dict.fromkeys(vs):
                    if value not in ids:
                        exponents.append(_parse_exponent(value, path))
                        ids[value] = len(exponents) - 1
                cells = np.fromiter(map(parts.__getitem__, "|".join(ks).split("|")), np.intp,
                                    arity * len(ks))
                # ravel_multi_index refuses the -1 of a part that names no element
                flat[start:start + len(ks)] = np.ravel_multi_index(
                    cells.reshape(-1, arity).T, (m,) * arity)
            except (StructuralError, ValueError):
                _first_bad_entry(path, arity, ks, vs, group)
            vid[start:start + len(ks)] = np.fromiter(map(ids.__getitem__, vs), np.intp, len(vs))
        if parts.aliased:  # keep each cell's last key: its first in reversed order
            _, last = np.unique(flat[::-1], return_index=True)
            flat, vid = flat[::-1][last], vid[::-1][last]
        arrays.append((flat, vid))
    return (*arrays, exponents)


def _first_bad_entry(path: str, arity: int, keys: list, values: list, group: FinAbGroup):
    """Raise the error of the first bad entry of a chunk of table ``path``
    that failed the bulk checks, checking each entry in order as the bulk
    pass does: its arity, then its parts, then its value.  Decodes nothing
    and never returns."""
    for text, value in zip(keys, values):
        where = f"{path}.{text}"
        if text.count("|") != arity - 1:
            raise StructuralError(f"spec field {where!r} must key {arity} elements joined by '|'")
        for part in text.split("|"):
            parse_element(part, group, f"spec field {where!r}")
        _parse_exponent(value, where)
    raise AssertionError(f"a chunk of {path} failed the bulk checks with no bad entry")


def _parse_cocycle(config, grading: FinAbGroup, name: str) -> Callable[[], AbelianCocycle]:
    """The call that builds the cocycle: ``build_cyclic(n, s)``, the trivial
    cocycle on ``grading``, or ``_from_exponents`` of the ``_parse_tables``."""
    _check_table_order(grading)  # for every kind, before the tables are read
    config = _typed(config, dict, "cocycle")
    if "builder" in config:
        builder = config["builder"]
        if builder == "cyclic":
            n = _parse_int(config.get("n"), "cocycle.n")
            if grading.factors != (n,):
                raise StructuralError("cyclic builder requires grading_group [n]")
            return partial(build_cyclic, n, _parse_int(config.get("s"), "cocycle.s"))
        if builder == "trivial":
            return partial(AbelianCocycle.trivial, grading, name=name)
        raise _bad("cocycle.builder", "'cyclic' or 'trivial'", builder)
    if "tables" in config:
        tables = _typed(config["tables"], dict, "cocycle.tables")
        return partial(_from_exponents, grading, *_parse_tables(tables, grading), name)
    raise _bad("cocycle", "an object with 'builder' or 'tables'", config)


def _parse_group(config) -> tuple:
    """The builtin's name (``None`` for a table or permutation group) and the call that
    builds the group: the shared builtin's, ``FiniteGroup`` or its ``from_permutations``."""
    config = _typed(config, dict, "group")
    if "builtin" in config:
        name = _typed(config["builtin"], str, "group.builtin")
        try:
            builtin_builder(name)
        except StructuralError as exc:
            raise StructuralError(f"spec field 'group.builtin': {exc}") from None
        return name, lambda: builtin_catalog(name).group
    if "table" in config:
        rows = _typed(config["table"], list, "group.table")
        if not 1 <= len(rows) <= MAX_GROUP_ORDER:  # the group order cap, before any allocation
            raise _bad("group.table", f"a list of 1 to {MAX_GROUP_ORDER} rows", len(rows))
        table = []
        for i, row in enumerate(rows):
            if not isinstance(row, list) or len(row) != len(rows):
                raise _bad(f"group.table[{i}]", f"a list of {len(rows)} element indices", row)
            table.append(_parse_ints(row, f"group.table[{i}]", range(len(rows))))
        return None, partial(FiniteGroup, np.array(table, dtype=np.int64))
    if "permutation_generators" in config:
        path = "group.permutation_generators"
        gens = _typed(config["permutation_generators"], list, path)
        gens = tuple(_parse_ints(g, f"{path}[{i}]") for i, g in enumerate(gens))
        return None, partial(FiniteGroup.from_permutations, gens)
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


def _own_catalog(build_group: Callable[[], FiniteGroup], generators, reps) -> RepCatalog:
    """A catalog of a spec's own irreps, never shared, on the group ``build_group()``."""
    group = build_group()
    return RepCatalog(group, rep_from_generators(group, generators, reps))


@dataclass
class CategorySpec:
    """The typed fields of a spec file.  The spec reader alone picks its sources,
    the zero-argument calls that ``build_cocycle`` and ``build_category`` make."""

    name: str
    mode: str
    digest: str | None  # sha256 of the spec file's bytes, the ones parsed
    grading: FinAbGroup
    cocycle_source: Callable[[], AbelianCocycle]  # builds the cocycle
    catalog_source: Callable[[], RepCatalog] | None = None  # builds the catalog; None in su2 mode
    embedding: CentralEmbedding | None = None
    complete: bool = True
    max_spin: int = 10
    _cocycle: AbelianCocycle | None = field(default=None, init=False, repr=False)

    def build_cocycle(self) -> AbelianCocycle:
        """Construct the cocycle once; ``AbelianCocycle.require_valid`` refuses bad tables."""
        if self._cocycle is None:
            self._cocycle = self.cocycle_source()
        return self._cocycle

    def build_category(self) -> TwistedCategory:
        """Construct the full twisted category; finite-group mode only."""
        if self.catalog_source is None:
            raise StructuralError(f"spec {self.name!r} has no finite-group category")
        cocycle = self.build_cocycle()
        return TwistedCategory(self.catalog_source(), cocycle, self.embedding,
                               complete=self.complete)


def su2_spec(max_spin: int, s: int) -> CategorySpec:
    """The su2 spec ``su2(s=...)``, with no file and digest ``-``, of the cyclic
    cocycle ``s`` on Z/2 up to ``max_spin``, checked as a spec file's is."""
    max_spin = _parse_int(max_spin, "max_spin", range(0, MAX_SPIN + 1))
    cocycle = partial(build_cyclic, 2, s)
    return CategorySpec(f"su2(s={s})", "su2", "-", FinAbGroup((2,)), cocycle, max_spin=max_spin)


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
    """Read a spec file, refusing once every fault that the file alone decides."""
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
    cocycle = _parse_cocycle(raw.get("cocycle"), grading, name)
    if mode == "su2" and grading.factors != (2,):  # the graded SU(2) ring lives on Z/2
        raise _bad("grading_group", "[2] in su2 mode", raw["grading_group"])
    fields = {"max_spin": _parse_int(raw.get("max_spin", 10), "max_spin", range(MAX_SPIN + 1))}
    if mode == "finite-group":
        (builtin, group), irreps = _parse_group(raw.get("group")), _parse_irreps(raw.get("irreps"))
        if irreps is None and builtin is None:
            raise StructuralError("'irreps': 'builtin' requires a builtin group")
        images = _parse_ints(raw.get("central_embedding"), "central_embedding")
        fields.update(catalog_source=partial(builtin_catalog, builtin) if irreps is None
                      else partial(_own_catalog, group, *irreps),
                      embedding=CentralEmbedding(grading, images),
                      complete=_typed(raw.get("complete", True), bool, "complete"))
    return CategorySpec(name, mode, hashlib.sha256(data).hexdigest(), grading, cocycle, **fields)
