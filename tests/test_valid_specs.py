"""Valid specs written by the test, which every command must accept.

Each spec is a direct product ``G1 x G2`` of two builtin groups, given as a
permutation group on disjoint points: each factor acts on itself by left
multiplication, read from its table.  Its irreps are the products
``rho1 (x) rho2`` of the factors' builtin irreps, written as ``"a+bi"``
decimals on the generators ``(g, e)`` and ``(e, h)``.  It is graded trivially
or by Z/2 through a central involution of one factor, or by ``Z/k1 x Z/k2``
through a central element of each factor, of orders ``k1`` and ``k2``, under
the sum of a cyclic cocycle on each factor of the grading, written as
tables.  Every pair of factors has order at most ``MAX_GROUP_ORDER``.
``verify``, ``fusion`` and ``smatrix`` must exit 0 with nothing on stderr,
and the fusion table must be the product of the factors' own tables; under
a two-factor grading, so must the S table, each factor's graded by its own
element under its own cyclic cocycle."""

import json
import random
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from twistcat import cli
from twistcat.catalogs import builtin_catalog
from twistcat.cocycle import build_cyclic
from twistcat.grouprep import MAX_GROUP_ORDER

FACTORS = ("z2", "z3", "z4", "s3", "d4", "q8")
# a generating set of each factor and its central involutions, as element indices
GENERATORS = {"z2": (1,), "z3": (1,), "z4": (1,), "s3": (3, 2), "d4": (1, 4), "q8": (1, 4)}
INVOLUTIONS = {"z2": (1,), "z3": (), "z4": (2,), "s3": (), "d4": (2,), "q8": (2,)}
SEEDS = range(40)
# the central elements of each factor other than the identity
CENTRAL = {"z2": (1,), "z3": (1, 2), "z4": (1, 2, 3), "d4": (2,), "q8": (2,)}
TWO_FACTOR_SEEDS = range(100, 140)


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


def _draw_two_factor(seed: int):
    """The factor names, a central element of each, their orders ``(k1,
    k2)``, and a cyclic cocycle parameter for each factor of the grading."""
    rng = random.Random(seed)
    names = rng.choice(sorted(CENTRAL)), rng.choice(sorted(CENTRAL))
    images = tuple(rng.choice(CENTRAL[name]) for name in names)
    orders = tuple(builtin_catalog(n).group.element_order(c) for n, c in zip(names, images))
    params = tuple(rng.randrange(k * (2 if k % 2 == 0 else 1)) for k in orders)
    return names, images, orders, params


def _sum_of_cyclic_tables(cocycles) -> dict:
    """The ``tables`` cocycle of ``Z/k1 x Z/k2`` that is the sum of a cyclic
    cocycle on each factor: its nonzero entries, keyed by residues."""
    (c1, c2), f, omega = cocycles, {}, {}
    for a1, a2, b1, b2 in product(range(c1.group.order), range(c2.group.order), repeat=2):
        key = f"{a1},{a2}|{b1},{b2}"
        w = Fraction(int(c1.omega_num[a1, b1]), c1.denom)
        w += Fraction(int(c2.omega_num[a2, b2]), c2.denom)
        if w:
            omega[key] = str(w)
        for x1, x2 in product(range(c1.group.order), range(c2.group.order)):
            v = Fraction(int(c1.f_num[a1, b1, x1]), c1.denom)
            v += Fraction(int(c2.f_num[a2, b2, x2]), c2.denom)
            if v:
                f[f"{key}|{x1},{x2}"] = str(v)
    return {"tables": {"f": f, "omega": omega}}


def _product_spec(names, side, s) -> dict:
    """The spec of one draw of ``_draw``."""
    if side is None:
        return _graded_product(names, [1], {"builder": "trivial"}, [(0, 0)])
    c = INVOLUTIONS[names[side]][0]
    return _graded_product(
        names, [2], {"builder": "cyclic", "n": 2, "s": s}, [(c, 0) if side == 0 else (0, c)]
    )


def _graded_product(names, grading, cocycle, images) -> dict:
    """``G1 x G2`` with the product irreps, graded by ``grading`` under
    ``cocycle`` through one image ``(a, b)`` per factor of the grading;
    each builtin's identity is its element 0."""
    (g1, reps1), (g2, reps2) = ((c.group, c.irreps) for c in map(builtin_catalog, names))
    n1, n2 = g1.order, g2.order
    assert n1 * n2 <= MAX_GROUP_ORDER and g1.identity == g2.identity == 0

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
    return {
        "schema_version": 1, "name": f"{names[0]}x{names[1]}", "mode": "finite-group",
        "grading_group": grading, "cocycle": cocycle,
        "group": {"permutation_generators": [list(point_map(*g)) for g in gens1 + gens2]},
        "irreps": {
            "generators": [elements.index(point_map(*g)) for g in gens1 + gens2],
            "list": irreps,
        },
        "central_embedding": [elements.index(point_map(*image)) for image in images],
        "complete": True,
    }


def _run(capsys, tmp_path, command, spec, seed):
    """The exit code, stderr and JSON report of one command on ``spec``."""
    path, out = tmp_path / "spec.json", tmp_path / f"{command}.json"
    path.write_text(json.dumps(spec), encoding="utf-8")
    code = cli.main([command, "--spec", str(path), "--seed", str(seed), "--out", str(out)])
    err = capsys.readouterr().err
    return code, err, json.loads(out.read_text()) if out.exists() else None


_FACTOR_TABLES = {}  # each factor table, once per test session


def _factor_table(capsys, tmp_path, name, command="fusion", image=0, s=None):
    """The fusion or S table of builtin ``name``, graded trivially, or by
    ``Z/k`` through ``image`` of order ``k`` under the cyclic cocycle ``s``."""
    key = name, command, image, s
    if key in _FACTOR_TABLES:
        return _FACTOR_TABLES[key]
    grading, cocycle = [1], {"builder": "trivial"}
    if s is not None:
        k = builtin_catalog(name).group.element_order(image)
        grading, cocycle = [k], {"builder": "cyclic", "n": k, "s": s}
    spec = {
        "schema_version": 1, "name": name, "mode": "finite-group", "grading_group": grading,
        "cocycle": cocycle, "group": {"builtin": name}, "irreps": "builtin",
        "central_embedding": [image], "complete": True,
    }
    code, err, report = _run(capsys, tmp_path, command, spec, 0)
    assert (code, err) == (cli.EXIT_OK, "")
    table = _FACTOR_TABLES[key] = report["tables"][command]
    return table


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
            left, right = (
                _factor_table(capsys, tmp_path, name)["coefficients"] for name in names
            )
            fusion = report["tables"]["fusion"]["coefficients"]
            assert fusion == _product_fusion(left, right), shown


def _s_entry(entry) -> tuple:
    """An S entry as its magnitude and the exponent of its phase, in [0, 1)."""
    if isinstance(entry, int):
        return abs(entry), Fraction(int(entry < 0), 2)
    return entry["magnitude"], Fraction(entry["exponent"])


def _product_s(left: dict, right: dict) -> dict:
    """``S[a1.a2, b1.b2] = S1[a1, b1] S2[a2, b2]`` as magnitude and exponent,
    keyed by product label like the report."""
    l1, l2 = left["labels"], right["labels"]
    return {
        (f"{a1}.{a2}", f"{b1}.{b2}"): (m1 * m2, (e1 + e2) % 1)
        for (i1, a1), (j1, b1) in product(enumerate(l1), repeat=2)
        for (i2, a2), (j2, b2) in product(enumerate(l2), repeat=2)
        for (m1, e1), (m2, e2) in [(
            _s_entry(left["entries"][i1][j1]), _s_entry(right["entries"][i2][j2])
        )]
    }


def test_the_two_factor_draws_cover_several_gradings():
    draws = list(map(_draw_two_factor, TWO_FACTOR_SEEDS))
    assert len({names for names, _, _, _ in draws}) >= 8
    orders = {orders for _, _, orders, _ in draws}
    assert {(2, 2), (4, 2)} <= orders and any(3 in k for k in orders)


@pytest.mark.parametrize("seed", TWO_FACTOR_SEEDS)
def test_two_factor_grading_passes_every_command(seed, capsys, tmp_path):
    names, images, orders, params = _draw_two_factor(seed)
    cocycle = _sum_of_cyclic_tables([build_cyclic(k, s) for k, s in zip(orders, params)])
    spec = _graded_product(names, list(orders), cocycle, [(images[0], 0), (0, images[1])])
    shown = json.dumps({"draw": [names, images, params]})
    tables = {}
    for command in ("verify", "fusion", "smatrix"):
        code, err, report = _run(capsys, tmp_path, command, spec, seed)
        assert (code, err) == (cli.EXIT_OK, ""), (command, err, shown)
        tables.update(report["tables"])
    left, right = (_factor_table(capsys, tmp_path, name)["coefficients"] for name in names)
    assert tables["fusion"]["coefficients"] == _product_fusion(left, right), shown
    left, right = (
        _factor_table(capsys, tmp_path, name, "smatrix", image, s)
        for name, image, s in zip(names, images, params)
    )
    got = tables["smatrix"]
    labels = got["labels"]
    assert {
        (a, b): _s_entry(got["entries"][i][j])
        for (i, a), (j, b) in product(enumerate(labels), repeat=2)
    } == _product_s(left, right), shown
