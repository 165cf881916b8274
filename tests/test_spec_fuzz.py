"""Property test of the spec boundary: mutated specs never raise out of
``cli.main`` under any command that reads a spec; every run ends in a
documented exit code."""

import contextlib
import copy
import io
import json
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from twistcat import cli
from twistcat.specio import BUNDLED_FIXTURES, fixture_path

SPEC_TEXTS = [fixture_path(name).read_text(encoding="utf-8") for name in BUNDLED_FIXTURES] + [
    path.read_text(encoding="utf-8")
    for path in sorted((Path(__file__).parent / "golden" / "specs").glob("*.json"))
]
# wrong types, huge and negative integers and non-finite floats; "z65" is the
# smallest builtin above the group order cap, so a missing cap stays cheap
VALUES = [
    None, True, 3.7, float("inf"), float("nan"), "x", "2", "z65", [], {}, [[]],
    -1, 0, 10**30, -(2**63),
]


def _paths(node, path=()):
    """The path of every value below ``node`` in a JSON tree."""
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        return
    for key, child in children:
        yield path + (key,)
        yield from _paths(child, path + (key,))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_mutated_spec_ends_in_documented_exit_code(data):
    command = data.draw(st.sampled_from(["verify", "fusion", "smatrix"]))
    spec = json.loads(data.draw(st.sampled_from(SPEC_TEXTS)))
    for _ in range(data.draw(st.integers(1, 2))):
        *parents, key = data.draw(st.sampled_from(list(_paths(spec))))
        node = spec
        for k in parents:
            node = node[k]
        if data.draw(st.booleans()):
            del node[key]
        else:
            node[key] = copy.deepcopy(data.draw(st.sampled_from(VALUES)))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "spec.json"
        path.write_text(json.dumps(spec), encoding="utf-8")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main([command, "--spec", str(path)])
    assert code in (cli.EXIT_OK, cli.EXIT_VALIDATION, cli.EXIT_PARSE, cli.EXIT_INCONSISTENT)
    assert err.getvalue().count("\n") == (code != cli.EXIT_OK and not out.getvalue())
