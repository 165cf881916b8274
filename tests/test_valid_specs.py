"""Valid specs written by the test, which every command must accept.

Each spec is a direct product ``G1 x G2`` of two builtin groups, given as a
permutation group on disjoint points: each factor acts on itself by left
multiplication, read from its table.  Its irreps are the products
``rho1 (x) rho2`` of the factors' builtin irreps, written as ``"a+bi"``
decimals on the generators ``(g, e)`` and ``(e, h)``.  It is graded trivially
or by Z/2 through a central involution of one factor.  Every pair of
factors has order at most ``MAX_GROUP_ORDER``.  ``verify``, ``fusion``
and ``smatrix`` must exit 0 with nothing on stderr, and the fusion table must
be the product of the factors' own tables."""

import json
import random

import numpy as np
import pytest

from twistcat import cli
from twistcat.catalogs import builtin_catalog
from twistcat.grouprep import MAX_GROUP_ORDER

FACTORS = ("z2", "z3", "z4", "s3", "d4", "q8")
# a generating set of each factor and its central involutions, as element indices
GENERATORS = {"z2": (1,), "z3": (1,), "z4": (1,), "s3": (3, 2), "d4": (1, 4), "q8": (1, 4)}
INVOLUTIONS = {"z2": (1,), "z3": (), "z4": (2,), "s3": (), "d4": (2,), "q8": (2,)}
SEEDS = range(40)


def _entry(z: complex) -> str:
    """``z`` as an ``"a+bi"`` decimal that reads back as the same float pair."""
    return f"{z.real!r}{'-' if z.imag < 0 else '+'}{abs(z.imag)!r}i"


def _matrix(m) -> list:
    return [[_entry(complex(z)) for z in row] for row in m]


def _draw(seed: int):
    """The factor names, the factor holding the grading involution (or
    ``None`` for the trivial grading) and the cocycle parameter of one draw."""
    rng = random.Random(seed)
    names = rng.choice(FACTORS), rng.choice(FACTORS)
    graded = [i for i, name in enumerate(names) if INVOLUTIONS[name]]
    side = rng.choice([None, *graded])
    return names, side, rng.randrange(4)


def _product_spec(names, side, s) -> dict:
    (g1, reps1), (g2, reps2) = (builtin_catalog(name) for name in names)
    n1, n2 = g1.order, g2.order
    assert n1 * n2 <= MAX_GROUP_ORDER

    def point_map(a, b):
        """``(a, b)`` acting on the ``n1 + n2`` points by left multiplication."""
        return tuple(int(x) for x in g1.table[a]) + tuple(n1 + int(y) for y in g2.table[b])

    elements = sorted(point_map(a, b) for a in range(n1) for b in range(n2))
    gens1 = [(g, g2.identity) for g in GENERATORS[names[0]]]
    gens2 = [(g1.identity, h) for h in GENERATORS[names[1]]]
    irreps = [
        {"label": f"{l1}.{l2}", "matrices": [_matrix(m) for m in [
            *(np.kron(r1(a), np.eye(r2.dim)) for a, _ in gens1),
            *(np.kron(np.eye(r1.dim), r2(b)) for _, b in gens2),
        ]]}
        for l1, r1 in reps1.items() for l2, r2 in reps2.items()
    ]
    if side is None:
        grading, cocycle, image = [1], {"builder": "trivial"}, (g1.identity, g2.identity)
    else:
        grading, cocycle = [2], {"builder": "cyclic", "n": 2, "s": s}
        c = INVOLUTIONS[names[side]][0]
        image = (c, g2.identity) if side == 0 else (g1.identity, c)
    return {
        "schema_version": 1, "name": f"{names[0]}x{names[1]}", "mode": "finite-group",
        "grading_group": grading, "cocycle": cocycle,
        "group": {"permutation_generators": [list(point_map(*g)) for g in gens1 + gens2]},
        "irreps": {
            "generators": [elements.index(point_map(*g)) for g in gens1 + gens2],
            "list": irreps,
        },
        "central_embedding": [elements.index(point_map(*image))], "complete": True,
    }


def _run(capsys, tmp_path, command, spec, seed):
    """The exit code, stderr and JSON report of one command on ``spec``."""
    path, out = tmp_path / "spec.json", tmp_path / f"{command}.json"
    path.write_text(json.dumps(spec), encoding="utf-8")
    code = cli.main([command, "--spec", str(path), "--seed", str(seed), "--out", str(out)])
    err = capsys.readouterr().err
    return code, err, json.loads(out.read_text()) if out.exists() else None


def _factor_fusion(capsys, tmp_path, name) -> dict:
    spec = {
        "schema_version": 1, "name": name, "mode": "finite-group", "grading_group": [1],
        "cocycle": {"builder": "trivial"}, "group": {"builtin": name}, "irreps": "builtin",
        "central_embedding": [0], "complete": True,
    }
    code, err, report = _run(capsys, tmp_path, "fusion", spec, 0)
    assert (code, err) == (cli.EXIT_OK, "")
    return report["tables"]["fusion"]["coefficients"]


def _product_fusion(left: dict, right: dict) -> dict:
    """``N^{c1.c2}_{a1.a2, b1.b2} = N^{c1}_{a1 b1} N^{c2}_{a2 b2}``, keyed by
    product label like the report."""
    return {
        f"{a1}.{a2}": {
            f"{b1}.{b2}": {
                f"{c1}.{c2}": n1 * n2
                for c1, n1 in left[a1][b1].items() for c2, n2 in right[a2][b2].items()
            }
            for b1 in left for b2 in right
        }
        for a1 in left for a2 in right
    }


def test_the_draws_cover_several_product_shapes():
    shapes = {_draw(seed)[0] for seed in SEEDS}
    assert len(shapes) >= 4
    assert {side is None for _, side, _ in map(_draw, SEEDS)} == {True, False}


@pytest.mark.parametrize("seed", SEEDS)
def test_direct_product_spec_passes_every_command(seed, capsys, tmp_path):
    names, side, s = _draw(seed)
    spec = _product_spec(names, side, s)
    shown = json.dumps(spec)
    for command in ("verify", "fusion", "smatrix"):
        code, err, report = _run(capsys, tmp_path, command, spec, seed)
        assert (code, err) == (cli.EXIT_OK, ""), (command, err, shown)
        if command == "fusion":
            left, right = (_factor_fusion(capsys, tmp_path, name) for name in names)
            fusion = report["tables"]["fusion"]["coefficients"]
            assert fusion == _product_fusion(left, right), shown
