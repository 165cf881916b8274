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

su2 mode replaces group/irreps/embedding with {"max_spin": N}.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import numpy as np

from .abgroup import FinAbGroup
from .catalogs import builtin_catalog
from .cocycle import AbelianCocycle, _from_exponents, build_cyclic
from .errors import StructuralError
from .grouprep import CentralEmbedding, FiniteGroup, MatrixRep, rep_from_generators
from .modcat import TwistedCategory

SCHEMA_VERSION = 1
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


def parse_matrix_entry(text: str) -> complex:
    """Parse ``"a+bi"`` decimal entries or ``"e(p/q)"`` roots of unity."""
    text = text.strip().replace(" ", "")
    m = _ENTRY_EXP.match(text)
    if m:
        from .unitscalar import UnitScalar

        return UnitScalar(Fraction(m.group("frac"))).to_complex()
    try:
        return complex(text.replace("i", "j"))
    except ValueError as exc:
        raise StructuralError(f"cannot parse matrix entry {text!r}") from exc


def _field(config, key: str, path: str):
    """``config[key]``, or a ``StructuralError`` naming the missing spec field."""
    if not isinstance(config, dict) or key not in config:
        raise StructuralError(f"spec field {path!r} is missing")
    return config[key]


def _as_int(value, path: str) -> int:
    try:
        return int(value)
    except (TypeError, ValueError):
        raise StructuralError(f"spec field {path!r} must be an integer, got {value!r}") from None


def _strict_int(value, path: str) -> int:
    """A JSON integer; unlike ``_as_int``, no string, float or boolean."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise StructuralError(f"spec field {path!r} must be an integer, got {value!r}")
    return value


def _as_exponent(value, path: str) -> Fraction:
    try:
        return Fraction(value)
    except (TypeError, ValueError, ZeroDivisionError):
        raise StructuralError(
            f"spec field {path!r} must be a rational exponent, got {value!r}"
        ) from None


def _object(value, path: str) -> dict:
    if not isinstance(value, dict):
        raise StructuralError(f"spec field {path!r} must be an object, got {value!r}")
    return value


def _list(value, path: str) -> list:
    if not isinstance(value, list):
        raise StructuralError(f"spec field {path!r} must be a list, got {value!r}")
    return value


def _int_list(value, path: str) -> tuple[int, ...]:
    if not isinstance(value, list):
        raise StructuralError(f"spec field {path!r} must be a list of integers, got {value!r}")
    return tuple(_as_int(n, f"{path}[{i}]") for i, n in enumerate(value))


def _parse_table(tables: dict, key: str, group: FinAbGroup, arity: int) -> dict:
    """Sparse ``{element tuple: exponent}`` map of one ``cocycle.tables`` entry.

    Key parts and exponent strings repeat across a table, so each distinct one
    is parsed once; a key that reduces to an earlier one overrides it."""
    path = f"cocycle.tables.{key}"
    elements: dict[str, tuple] = {}
    exponents: dict[str, Fraction] = {}
    entries = {}
    for text, value in _object(tables.get(key, {}), path).items():
        parts = text.split("|")
        if len(parts) != arity:
            raise StructuralError(f"table key {text!r} must have {arity} elements joined by '|'")
        where = f"{path}.{text}"
        for part in parts:
            if part not in elements:
                elements[part] = group.element([_as_int(r, where) for r in part.split(",")])
        if isinstance(value, str):
            if value not in exponents:
                exponents[value] = _as_exponent(value, where)
            exponent = exponents[value]
        else:  # a JSON number, or a value _as_exponent rejects
            exponent = _as_exponent(value, where)
        entries[tuple(elements[part] for part in parts)] = exponent
    return entries


def _cocycle_from_config(grading: FinAbGroup, config, name: str) -> AbelianCocycle:
    config = _object(config, "cocycle")
    if "builder" in config:
        builder = config["builder"]
        if builder == "cyclic":
            n = _strict_int(_field(config, "n", "cocycle.n"), "cocycle.n")
            s = _strict_int(_field(config, "s", "cocycle.s"), "cocycle.s")
            if grading.factors != (n,):
                raise StructuralError("cyclic builder requires grading_group [n]")
            return build_cyclic(n, s)
        if builder == "trivial":
            return AbelianCocycle.trivial(grading, name=name)
        raise StructuralError(f"unknown cocycle builder {builder!r}")
    if "tables" in config:
        tables = _object(config["tables"], "cocycle.tables")
        return _from_exponents(
            grading, _parse_table(tables, "f", grading, 3), _parse_table(tables, "omega", grading, 2),
            name,
        )
    raise StructuralError("cocycle config needs either 'builder' or 'tables'")


def _group_from_config(config: dict) -> tuple[FiniteGroup, dict[str, MatrixRep] | None]:
    if "builtin" in config:
        group, reps = builtin_catalog(config["builtin"])
        return group, reps
    if "table" in config:
        return FiniteGroup(np.asarray(config["table"], dtype=np.int64)), None
    if "permutation_generators" in config:
        return FiniteGroup.from_permutations(config["permutation_generators"]), None
    raise StructuralError("group config needs 'builtin', 'table' or 'permutation_generators'")


def _irreps_from_config(group: FiniteGroup, config, builtin_reps) -> dict[str, MatrixRep]:
    if config == "builtin":
        if builtin_reps is None:
            raise StructuralError("'irreps': 'builtin' requires a builtin group")
        return builtin_reps
    generators = [int(g) for g in config["generators"]]
    reps = {}
    for item in config["list"]:
        mats = [
            np.array([[parse_matrix_entry(x) for x in row] for row in mat])
            for mat in item["matrices"]
        ]
        reps[item["label"]] = rep_from_generators(group, generators, mats)
    return reps


@dataclass
class CategorySpec:
    """A parsed spec file plus the constructed objects it describes."""

    name: str
    mode: str
    path: Path | None
    raw: dict
    grading: FinAbGroup
    cocycle_config: dict
    embedding: tuple[int, ...] = ()
    complete: bool = True
    max_spin: int = 10
    _cocycle: AbelianCocycle | None = field(default=None, init=False, repr=False)

    def build_cocycle(self) -> AbelianCocycle:
        """Construct (and thereby validate) the cocycle; built once per spec."""
        if self._cocycle is None:
            self._cocycle = _cocycle_from_config(self.grading, self.cocycle_config, self.name)
        return self._cocycle

    def build_category(self) -> TwistedCategory:
        """Construct the full twisted category; finite-group mode only."""
        if self.mode != "finite-group":
            raise StructuralError(f"spec {self.name!r} has no finite-group category")
        cocycle = self.build_cocycle()
        group, builtin_reps = _group_from_config(self.raw["group"])
        irreps = _irreps_from_config(group, self.raw["irreps"], builtin_reps)
        embedding = CentralEmbedding(self.grading, self.embedding)
        # build_cocycle validated it; the trivial builder's zero tables need no check
        return TwistedCategory(
            group, cocycle, embedding, irreps,
            complete=self.complete, validate=False,
        )


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
    path = resolve_spec_path(spec)
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise StructuralError(f"spec file {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise StructuralError("spec file must contain a JSON object")
    version = raw.get("schema_version")
    if version != SCHEMA_VERSION:
        raise StructuralError(f"unsupported schema_version {version!r}")
    mode = raw.get("mode", "finite-group")
    if mode not in ("finite-group", "su2"):
        raise StructuralError(f"unknown mode {mode!r}")
    if "grading_group" not in raw:
        raise StructuralError("spec is missing 'grading_group'")
    grading = FinAbGroup(_int_list(raw["grading_group"], "grading_group"))
    if "cocycle" not in raw:
        raise StructuralError("spec is missing 'cocycle'")
    name = raw.get("name", path.stem)
    if not isinstance(name, str):
        raise StructuralError(f"spec field 'name' must be a string, got {name!r}")
    embedding, complete = (), True
    if mode == "finite-group":
        for key in ("group", "irreps", "central_embedding"):
            if key not in raw:
                raise StructuralError(f"finite-group spec is missing {key!r}")
        # build_category reports a StructuralError as a failed verdict, so
        # malformed group, irreps and embedding fields must be rejected here
        group = _object(raw["group"], "group")
        if "builtin" in group:
            if not isinstance(group["builtin"], str):
                raise StructuralError(
                    f"spec field 'group.builtin' must be a string, got {group['builtin']!r}"
                )
        elif "table" in group:
            for i, row in enumerate(_list(group["table"], "group.table")):
                _int_list(row, f"group.table[{i}]")
        irreps = raw["irreps"]
        if irreps != "builtin":
            _int_list(_field(irreps, "generators", "irreps.generators"), "irreps.generators")
            for i, item in enumerate(_list(_field(irreps, "list", "irreps.list"), "irreps.list")):
                for key in ("label", "matrices"):
                    _field(item, key, f"irreps.list[{i}].{key}")
                _list(item["matrices"], f"irreps.list[{i}].matrices")
        embedding = _int_list(raw["central_embedding"], "central_embedding")
        complete = raw.get("complete", True)
        if not isinstance(complete, bool):
            raise StructuralError(f"spec field 'complete' must be true or false, got {complete!r}")
    return CategorySpec(
        name=name,
        mode=mode,
        path=path,
        raw=raw,
        grading=grading,
        cocycle_config=raw["cocycle"],
        embedding=embedding,
        complete=complete,
        max_spin=_as_int(raw.get("max_spin", 10), "max_spin"),
    )
