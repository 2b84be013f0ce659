"""Every module-level private name of the package is used somewhere in it,
and every public one is exported or used elsewhere in it."""

import ast
from pathlib import Path

import descm

PACKAGE = Path(descm.__file__).resolve().parent


def module_trees():
    return {path.name: ast.parse(path.read_text(), str(path))
            for path in sorted(PACKAGE.glob("*.py"))}


def definitions(tree, imports=True):
    """(name, first line, last line) of each module-level name that is not a
    dunder, bound by a def, class or assignment, or by an import if
    ``imports``."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [name.id for target in targets for name in ast.walk(target)
                     if isinstance(name, ast.Name)]
        elif imports and isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [alias.asname or alias.name for alias in node.names]
        else:
            continue
        for name in names:
            if not name.startswith("__"):
                yield name, node.lineno, node.end_lineno


def private_definitions(tree):
    """(name, first line, last line) of each module-level private name, a
    leading underscore but not a dunder, bound by a def, class, assignment
    or import."""
    return ((name, first, last) for name, first, last in definitions(tree)
            if name.startswith("_"))


def public_definitions(tree):
    """(name, first line, last line) of each module-level public name bound
    by a def, class or assignment; an imported name is defined where it
    comes from."""
    return ((name, first, last) for name, first, last in definitions(tree, imports=False)
            if not name.startswith("_"))


def references(tree):
    """(name, line) of each read of a name or an attribute, and of each name
    imported from a module of the package."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr, node.lineno
        elif isinstance(node, ast.ImportFrom) and node.level:
            yield from ((alias.name, node.lineno) for alias in node.names)


def orphans(trees, defined, exported=()):
    """``module:line name`` of each name ``defined`` yields that is neither
    in ``exported`` nor read anywhere in ``trees`` but inside its own
    definition, such as a recursive call."""
    used = {(module, name, line) for module, tree in trees.items()
            for name, line in references(tree)}
    return [f"{module}:{first} {name}" for module, tree in trees.items()
            for name, first, last in defined(tree)
            if name not in exported
            and not any(ref == name and (where != module or not first <= line <= last)
                        for where, ref, line in used)]


def test_no_private_name_is_orphaned():
    assert orphans(module_trees(), private_definitions) == []


def test_every_public_name_is_exported_or_used():
    assert orphans(module_trees(), public_definitions, descm.__all__) == []


def test_the_guard_sees_an_orphan():
    tree = ast.parse("import math as _m\n_a = 1\n_b, _c = 2, _a\n"
                     "def _f(n):\n    return _f(n - 1)\n")
    defined = [name for name, _, _ in private_definitions(tree)]
    assert defined == ["_m", "_a", "_b", "_c", "_f"]
    read = {name for name, _ in references(tree)}
    assert {"_a", "_f"} <= read and not {"_m", "_b", "_c"} & read


def test_the_public_guard_sees_an_unused_name():
    trees = {"m.py": ast.parse("import math\nA = 1\nB = A\ndef f(n):\n    return f(n - 1)\n"
                               "def g():\n    pass\n")}
    assert [name for name, _, _ in public_definitions(trees["m.py"])] == ["A", "B", "f", "g"]
    assert orphans(trees, public_definitions, ("g",)) == ["m.py:3 B", "m.py:4 f"]


def test_only_the_two_shared_tables_are_rebound_globals():
    # README's process-wide table rule covers these two; mesh keeps none, as
    # each trace-min sweep owns its first-scan table
    bound = sorted((module, name) for module, tree in module_trees().items()
                   for node in ast.walk(tree) if isinstance(node, ast.Global)
                   for name in node.names)
    assert bound == [("assembly.py", "_numerators"), ("solver.py", "_labels")]
