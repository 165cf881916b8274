"""The README's library sketch runs as written, and each value a comment
shows (the text before any ``: ``) is the ``repr`` of the expression it
annotates, so the sketch cannot drift from the library."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_sketch_values_match_their_comments():
    (block,) = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    namespace, compared = {}, 0
    for line in block.splitlines():
        code, _, comment = (part.strip() for part in line.partition("  #"))
        if not code:
            continue
        try:
            expression = compile(code, "README.md", "eval")
        except SyntaxError:  # a statement: its comment is prose
            exec(compile(code, "README.md", "exec"), namespace)
            continue
        value = eval(expression, namespace)
        if comment:
            assert repr(value) == comment.split(": ", 1)[0], line
            compared += 1
    assert compared == 5  # every value comment of the sketch was read
