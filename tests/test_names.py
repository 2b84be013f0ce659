"""Every module-level private name of the package is used somewhere in it."""

import ast
from pathlib import Path

import descm

PACKAGE = Path(descm.__file__).resolve().parent


def module_trees():
    return {path.name: ast.parse(path.read_text(), str(path))
            for path in sorted(PACKAGE.glob("*.py"))}


def private_definitions(tree):
    """(name, first line, last line) of each module-level private name, a
    leading underscore but not a dunder, bound by a def, class, assignment
    or import."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [name.id for target in targets for name in ast.walk(target)
                     if isinstance(name, ast.Name)]
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [alias.asname or alias.name for alias in node.names]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                yield name, node.lineno, node.end_lineno


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


def test_no_private_name_is_orphaned():
    trees = module_trees()
    used = {(module, name, line) for module, tree in trees.items()
            for name, line in references(tree)}
    orphans = []
    for module, tree in trees.items():
        for name, first, last in private_definitions(tree):
            # a use inside the definition itself, such as a recursive call, does not count
            if not any(ref == name and (where != module or not first <= line <= last)
                       for where, ref, line in used):
                orphans.append(f"{module}:{first} {name}")
    assert orphans == []


def test_the_guard_sees_an_orphan():
    tree = ast.parse("import math as _m\n_a = 1\n_b, _c = 2, _a\n"
                     "def _f(n):\n    return _f(n - 1)\n")
    defined = [name for name, _, _ in private_definitions(tree)]
    assert defined == ["_m", "_a", "_b", "_c", "_f"]
    read = {name for name, _ in references(tree)}
    assert {"_a", "_f"} <= read and not {"_m", "_b", "_c"} & read
