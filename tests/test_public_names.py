"""Every public function, class and method of the library is read in ``src/``
outside its own definition: code that only tests or scripts call is deleted,
not kept in step."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

ALLOWED = {  # public names kept without a reader in src/, each with its reason
    "plog": "the fixed branch of log that the branch integers are defined against",
    "associator": "a structure map the modcat docstring defines; the suite checks its exponents",
    "braiding": "a structure map the modcat docstring defines; an S entry traces two of them",
    "coevaluation": "a structure map the modcat docstring defines; the snakes inline it",
}


def test_every_public_name_has_a_reader_in_src():
    defs, uses = [], []  # (module, def node); (name read, ids of the defs around the read)

    def visit(node, inside, module):  # module is None where definitions are not recorded
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            if module and not node.name.startswith("_"):
                defs.append((module, node))
            inside = inside | {id(node)}
            module = module if isinstance(node, ast.ClassDef) else None  # methods, not closures
        elif isinstance(node, (ast.Name, ast.Attribute)):
            uses.append((node.id if isinstance(node, ast.Name) else node.attr, inside))
        for child in ast.iter_child_nodes(node):
            visit(child, inside, module)

    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in SRC.rglob("*.py")}
    for path, tree in trees.items():  # the trees stay alive, so no node id is reused
        library = path.parent.name == "twistcat" and path.name != "__init__.py"
        visit(tree, frozenset(), path.stem if library else None)
    unread = sorted(
        f"{module}.{node.name}" for module, node in defs
        if node.name not in ALLOWED
        and not any(name == node.name and id(node) not in inside for name, inside in uses)
    )
    assert unread == []
