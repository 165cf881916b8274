"""Broken specs written by the test, each refused where the definitions say.

Each draw starts from a valid spec: builtin ``s3``, ``d4`` or ``q8`` with its
irreps written as the spec's own generator matrices, or a direct product of
two builtins from ``test_valid_specs``.  It then applies one seeded, minimal
break to the irreps:
- ``scaled``: one generator matrix of one irrep times a root of unity other
  than 1;
- ``direct-sum``: one irrep replaced by its direct sum with another;
- ``twin``: one irrep listed a second time, conjugated by an invertible
  matrix, at a drawn place in the list;
- ``dropped``: one irrep dropped, with ``complete`` kept ``true`` or set to
  ``false``.

And two controls, which must still verify: ``conjugated``, one irrep
conjugated by an invertible matrix, and ``relabelled``, the group rewritten
as a table with its elements relabelled.

The draws on ``EMBEDDING_SEEDS`` break the embedding instead, on builtin
``d4`` or ``q8``, alone or times a factor of ``test_valid_specs``: both have
non-central elements and a central involution.
- ``not-central``: the image is a non-central element;
- ``order``: the image is a central element of order ``k > 1`` under a
  ``Z/(k+1)`` grading with a cyclic cocycle, so its order does not divide
  the invariant factor.

The answer of each draw, for ``verify``, ``fusion`` and ``smatrix``, comes
from ``oracles.catalog_refusal`` and ``oracles.cli_outcome``, on irreps that
``oracles.generated_rep`` extends from the generator matrices."""

import copy
import functools
import json
import random

import numpy as np
import pytest

import oracles
from test_valid_specs import (
    FACTORS, GENERATORS, INVOLUTIONS, _draw, _matrix, _product_spec, _run,
)
from twistcat.catalogs import builtin_catalog
from twistcat.grouprep import FiniteGroup

BUILTINS = ("s3", "d4", "q8")
BREAKS = ("scaled", "direct-sum", "twin", "dropped")
CONTROLS = ("conjugated", "relabelled")
KINDS = BREAKS + CONTROLS
SEEDS = range(108)
EMBEDDING_BREAKS = ("not-central", "order")
EMBEDDING_SEEDS = range(108, 120)


def _builtin_spec(name: str, rng: random.Random) -> dict:
    """Builtin ``name`` with its irreps as the spec's own, graded trivially,
    or by Z/2 through its central involution under a drawn cyclic cocycle."""
    catalog = builtin_catalog(name)
    gens = GENERATORS[name]
    grading, cocycle, image = [1], {"builder": "trivial"}, 0
    if INVOLUTIONS[name] and rng.random() < 0.5:
        grading, image = [2], INVOLUTIONS[name][0]
        cocycle = {"builder": "cyclic", "n": 2, "s": rng.randrange(4)}
    return {
        "schema_version": 1, "name": f"{name}-own", "mode": "finite-group",
        "grading_group": grading, "cocycle": cocycle, "group": {"builtin": name},
        "irreps": {"generators": list(gens), "list": [
            {"label": label, "matrices": [_matrix(rep(g)) for g in gens]}
            for label, rep in catalog.irreps.items()
        ]},
        "central_embedding": [image], "complete": True,
    }


def _table(spec: dict) -> np.ndarray:
    """The multiplication table a spec's group names, over the element
    indices its generators and embedding use."""
    group = spec["group"]
    if "builtin" in group:
        return np.array(builtin_catalog(group["builtin"]).group.table)
    if "table" in group:
        return np.array(group["table"])
    return _permutation_table(tuple(map(tuple, group["permutation_generators"])))


@functools.cache  # a product's table, once per factor pair
def _permutation_table(generators: tuple) -> np.ndarray:
    return oracles.permutation_table(oracles.permutation_closure(generators))


def _read(matrix) -> np.ndarray:
    """A written matrix read back: ``"a+bi"`` is Python's ``a+bj``."""
    return np.array([[complex(z.replace("i", "j")) for z in row] for row in matrix])


def _invertible(rng: random.Random, d: int) -> np.ndarray:
    """A drawn complex matrix near the identity, so well conditioned."""
    noise = [[complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(d)] for _ in range(d)]
    return np.eye(d) + 0.3 * np.array(noise)


def _conjugate(item: dict, p: np.ndarray) -> list:
    """An irrep's written matrices conjugated by ``p``, written again."""
    inv = np.linalg.inv(p)
    return [_matrix(p @ _read(m) @ inv) for m in item["matrices"]]


def _break(kind: str, spec: dict, rng: random.Random) -> dict:
    """``spec`` with the break or control ``kind`` applied, drawing from ``rng``."""
    spec = copy.deepcopy(spec)
    items = spec["irreps"]["list"]
    t = rng.randrange(len(items))
    item = items[t]
    if kind == "scaled":
        q = rng.randrange(2, 7)
        root = np.exp(2j * np.pi * rng.randrange(1, q) / q)
        k = rng.randrange(len(item["matrices"]))
        item["matrices"][k] = _matrix(root * _read(item["matrices"][k]))
    elif kind == "direct-sum":
        other = rng.choice(items)["matrices"]
        sums = []
        for a, b in zip(map(_read, item["matrices"]), map(_read, other)):
            block = np.zeros((len(a) + len(b),) * 2, dtype=complex)
            block[:len(a), :len(a)], block[len(a):, len(a):] = a, b
            sums.append(_matrix(block))
        item["matrices"] = sums
    elif kind == "twin":
        p = _invertible(rng, len(item["matrices"][0]))
        twin = {"label": item["label"] + "'", "matrices": _conjugate(item, p)}
        items.insert(rng.randrange(len(items) + 1), twin)
    elif kind == "dropped":
        del items[t]
        spec["complete"] = rng.random() < 0.5
    elif kind == "conjugated":
        item["matrices"] = _conjugate(item, _invertible(rng, len(item["matrices"][0])))
    else:  # relabelled: the group as a table, element x renamed to perm[x]
        table = _table(spec)
        perm = list(range(len(table)))
        rng.shuffle(perm)
        relabelled = np.empty_like(table)
        relabelled[np.ix_(perm, perm)] = np.array(perm)[table]
        spec["group"] = {"table": relabelled.tolist()}
        spec["irreps"]["generators"] = [perm[g] for g in spec["irreps"]["generators"]]
        spec["central_embedding"] = [perm[c] for c in spec["central_embedding"]]
    return spec


@functools.cache  # each draw once per session
def _spec(seed: int) -> tuple:
    """The kind, the broken spec and the oracle's refusal of one draw: each
    kind on every sixth seed, on a product for one draw in three, as a
    product's catalog costs several builtins' to check."""
    rng = random.Random(seed)
    if rng.random() < 1 / 3:
        spec = _product_spec(*_draw(rng.randrange(1000)))
    else:
        spec = _builtin_spec(rng.choice(BUILTINS), rng)
    kind = KINDS[seed % len(KINDS)]
    spec = _break(kind, spec, rng)
    return kind, spec, _answer(spec)


@functools.cache  # each draw once per session
def _embedding_spec(seed: int) -> tuple:
    """The kind, the spec and the oracle's refusal of one draw on
    ``EMBEDDING_SEEDS``: each kind on every other seed, on a product for one
    draw in three."""
    rng = random.Random(seed)
    kind = EMBEDDING_BREAKS[seed % len(EMBEDDING_BREAKS)]
    name = rng.choice(("d4", "q8"))
    if rng.random() < 1 / 3:
        spec = _product_spec((name, rng.choice(FACTORS)), None, 0)
    else:
        spec = _builtin_spec(name, rng)
    group = FiniteGroup(_table(spec))
    centre = oracles.center(group)
    if kind == "not-central":
        image = rng.choice([a for a in range(group.order) if a not in centre])
    else:
        image = rng.choice([c for c in centre if oracles.element_order(group, c) > 1])
        n = oracles.element_order(group, image) + 1
        spec["grading_group"] = [n]
        spec["cocycle"] = {"builder": "cyclic", "n": n, "s": rng.randrange(n)}
    spec["central_embedding"] = [image]
    return kind, spec, _answer(spec)


def _answer(spec: dict):
    """``oracles.catalog_refusal`` of a spec's irreps, built from its written matrices."""
    group = FiniteGroup(_table(spec))
    gens = spec["irreps"]["generators"]
    irreps = {
        item["label"]: oracles.generated_rep(group, gens, map(_read, item["matrices"]))
        for item in spec["irreps"]["list"]
    }
    factors = spec["grading_group"]
    return oracles.catalog_refusal(irreps, spec["central_embedding"], factors, spec["complete"])


def test_the_draws_cover_every_kind_on_both_bases_and_several_refusals():
    draws = [_spec(seed) for seed in SEEDS]
    assert {(kind, "builtin" in spec["group"]) for kind, spec, _ in draws} >= {
        (kind, builtin) for kind in BREAKS for builtin in (True, False)
    }
    answers = [refusal[1] for kind, _, refusal in draws if kind in BREAKS and refusal]
    words = ("homomorphism", "irreducible", "equivalent", "too large", "sum of dim^2")
    assert all(any(w in answer for answer in answers) for w in words)
    draws = [_embedding_spec(seed) for seed in EMBEDDING_SEEDS]
    assert {(kind, "builtin" in spec["group"]) for kind, spec, _ in draws} == {
        (kind, builtin) for kind in EMBEDDING_BREAKS for builtin in (True, False)
    }
    words = {"not-central": "is not central", "order": "which does not divide"}
    assert all(words[kind] in refusal[1] for kind, _, refusal in draws)


@pytest.mark.parametrize("seed", [*SEEDS, *EMBEDDING_SEEDS])
def test_a_broken_spec_is_refused_where_the_definitions_say(seed, capsys, tmp_path):
    kind, spec, refusal = (_spec if seed in SEEDS else _embedding_spec)(seed)
    if kind in CONTROLS:
        assert refusal is None, refusal
    shown = json.dumps({"seed": seed, "kind": kind, "refusal": refusal})
    for command in ("verify", "fusion", "smatrix"):
        code, err, report = _run(capsys, tmp_path, command, spec, seed)
        want_code, want_err, verdict = oracles.cli_outcome(command, refusal, spec["complete"])
        assert (code, err) == (want_code, want_err), (command, shown)
        if verdict is not None:
            assert [v["status"] for v in report["verdicts"][:-1]] == ["pass"], shown
            assert report["verdicts"][-1] == verdict, shown
