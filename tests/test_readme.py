"""The README's library sketch runs as written, and each value a comment
shows (the text before any ``: ``) is the ``repr`` of the expression it
annotates, so the sketch cannot drift from the library; and the "Command line"
section names exactly the options the command-line parser takes."""

import re
from pathlib import Path

from twistcat.cli import build_parser

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


def test_command_line_section_names_exactly_the_cli_options():
    # a deleted option cannot stay in the docs, nor a new one go undocumented
    text = README.read_text(encoding="utf-8")
    section = re.search(r"^## Command line\n(.*?)^## ", text, re.S | re.M).group(1)
    documented = set(re.findall(r"--[a-z][a-z0-9-]*", section))
    (subparsers,) = (a for a in build_parser()._actions if a.choices)
    options = {
        option
        for parser in subparsers.choices.values()
        for action in parser._actions
        for option in action.option_strings
        if option.startswith("--") and option != "--help"
    }
    assert documented == options
