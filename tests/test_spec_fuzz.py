"""Property test of the spec boundary: mutated specs never raise out of
``cli.main`` under any command that reads a spec; every run ends in a
documented exit code."""

import contextlib
import copy
import io
import json
import tempfile
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from twistcat import cli
from twistcat.specio import BUNDLED_FIXTURES, fixture_path

SPEC_TEXTS = [fixture_path(name).read_text(encoding="utf-8") for name in BUNDLED_FIXTURES] + [
    path.read_text(encoding="utf-8")
    for path in sorted((Path(__file__).parent / "golden" / "specs").glob("*.json"))
]
# wrong types, huge and negative integers, non-finite floats and matrix
# entries whose products overflow; "z65" is the smallest builtin above the
# group order cap, so a missing cap stays cheap
VALUES = [
    None, True, 3.7, float("inf"), float("nan"), "x", "2", "z65", [], {}, [[]],
    -1, 0, 10**30, -(2**63), "1e200", "-1e300",
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


# the d5 table spec with rho1's generator r written diag(1e200, e(4/5)):
# rho1(r^2) overflows while the irreps are generated
D5 = next(i for i, text in enumerate(SPEC_TEXTS) if '"d5-table-z2-s3"' in text)
OVERFLOW = list(_paths(json.loads(SPEC_TEXTS[D5]))).index(
    ("irreps", "list", 2, "matrices", 0, 0, 0)
)


@settings(max_examples=200, deadline=None)
@given(
    command=st.sampled_from(["verify", "fusion", "smatrix"]),
    text=st.integers(0, len(SPEC_TEXTS) - 1),
    # per edit: the index of the path it changes, whether it deletes it, and
    # the value it writes otherwise
    edits=st.lists(
        st.tuples(st.integers(0, 10**6), st.booleans(), st.sampled_from(VALUES)),
        min_size=1, max_size=2,
    ),
)
@example(command="verify", text=D5, edits=[(OVERFLOW, False, "1e200")])
def test_mutated_spec_ends_in_documented_exit_code(command, text, edits):
    spec = json.loads(SPEC_TEXTS[text])
    for pick, delete, value in edits:
        paths = list(_paths(spec))
        *parents, key = paths[pick % len(paths)]
        node = spec
        for k in parents:
            node = node[k]
        if delete:
            del node[key]
        else:
            node[key] = copy.deepcopy(value)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "spec.json"
        path.write_text(json.dumps(spec), encoding="utf-8")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main([command, "--spec", str(path)])
    assert code in (cli.EXIT_OK, cli.EXIT_VALIDATION, cli.EXIT_PARSE, cli.EXIT_INCONSISTENT)
    assert err.getvalue().count("\n") == (code != cli.EXIT_OK and not out.getvalue())
