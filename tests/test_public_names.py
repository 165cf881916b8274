"""Every public function, class and method of the library is read in ``src/``
outside its own definition: code that only tests or scripts call is deleted,
not kept in step.  A method is read only through an attribute access, and a
module-level name only through a load or an import, so a local variable,
parameter or assignment target of the same name is not a reader.  The
package ``__init__`` re-exports names and reads none.  No module reads a
private name of a sibling module, except the entries listed with their
reasons.  And every name a module imports is read in that module."""

import ast
from pathlib import Path

LIBRARY = Path(__file__).resolve().parent.parent / "src" / "twistcat"

ALLOWED = {  # public names kept without a reader in src/, each with its reason
    "plog": "the fixed branch of log that the branch integers are defined against",
    "associator": "a structure map the modcat docstring defines; the suite checks its "
    "exponents and its identity layout",
    "braiding": "a structure map the modcat docstring defines; the suite checks its exponent "
    "and its flip layout, and an S entry traces two of them",
    "coevaluation": "a structure map the modcat docstring defines; the snakes check its vec(I) "
    "layout",
    "evaluation": "a structure map the modcat docstring defines; the snakes check its exponent "
    "and its vec(I) layout, and the trace oracle composes it",
    "twist": "the ribbon structure map the modcat docstring defines; the suite checks its "
    "exponents",
}


def test_every_public_name_has_a_reader_in_src():
    # (module, def node, whether a method); (name read, whether as an
    # attribute, ids of the defs around the read)
    defs, reads = [], []

    def visit(node, inside, module, in_class):  # module is None inside functions
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            if module and not node.name.startswith("_"):
                defs.append((module, node, in_class))
            inside = inside | {id(node)}
            in_class = isinstance(node, ast.ClassDef)
            module = module if in_class else None  # methods, not closures
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            reads.append((node.attr, True, inside))
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            reads.append((node.id, False, inside))
        elif isinstance(node, ast.alias):
            reads.append((node.name, False, inside))
        for child in ast.iter_child_nodes(node):
            visit(child, inside, module, in_class)

    trees = {
        path: ast.parse(path.read_text(encoding="utf-8"))
        for path in LIBRARY.glob("*.py") if path.name != "__init__.py"
    }
    for path, tree in trees.items():  # the trees stay alive, so no node id is reused
        visit(tree, frozenset(), path.stem, False)
    unread = sorted(
        f"{module}.{node.name}" for module, node, method in defs
        if node.name not in ALLOWED
        and not any(
            name == node.name and (attribute or not method) and id(node) not in inside
            for name, attribute, inside in reads
        )
    )
    assert unread == []


PRIVATE_IMPORTS = {  # (module, sibling, name) kept, each with its reason
    ("specio", "cocycle", "_from_exponents"): "the table builder behind the spec's 'tables' "
    "cocycle, which is a spec format and not library API",
    ("specio", "cocycle", "_check_table_order"): "the table caps, which the spec reader "
    "checks before it enumerates the grading group to read the tables",
}


def test_no_module_imports_a_private_name_of_a_sibling():
    # a private name is its module's own: `from .sibling import _name`, or
    # `sibling._name` after `from . import sibling`, reaches past the
    # sibling's public surface
    found = set()
    for path in LIBRARY.glob("*.py"):
        tree, siblings = ast.parse(path.read_text(encoding="utf-8")), set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    if node.module is None:
                        siblings.add(alias.asname or alias.name)
                    elif alias.name.startswith("_"):
                        found.add((path.stem, node.module, alias.name))
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Attribute) and node.attr.startswith("_")
                and isinstance(node.value, ast.Name) and node.value.id in siblings
            ):
                found.add((path.stem, node.value.id, node.attr))
    assert found == set(PRIVATE_IMPORTS)


def test_every_imported_name_is_read_in_its_module():
    # no linter runs here, so an import left behind by an edit shows only in
    # this check; the package __init__ imports to re-export
    unread = []
    for path in LIBRARY.glob("*.py"):
        if path.name == "__init__.py":
            continue
        tree, imported = ast.parse(path.read_text(encoding="utf-8")), []
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                imported += [(a.asname or a.name).split(".")[0] for a in node.names]
        read = {
            node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        }
        unread += [f"{path.stem}.{name}" for name in imported if name not in read]
    assert unread == []
