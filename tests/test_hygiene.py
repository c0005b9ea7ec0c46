"""Source hygiene checks that need no linter."""
import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).parent.parent / "src" / "dahakz").glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text())
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if getattr(node, "module", None) == "__future__":
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    exported = {elt.value for node in ast.walk(tree)
                if isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "__all__" for t in node.targets)
                for elt in node.value.elts}
    unused = sorted((line, name) for name, line in imported.items()
                    if name not in read | exported)
    assert not unused, "imported but never read: %s" % unused


def test_no_dead_private_functions():
    # every _name function or method is read somewhere in the package,
    # as a bare name or as an attribute; dunder methods are exempt
    trees = [ast.parse(path.read_text()) for path in SOURCES]
    defined = {(node.name, tree_path.name)
               for tree, tree_path in zip(trees, SOURCES)
               for node in ast.walk(tree)
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
               and node.name.startswith("_") and not node.name.startswith("__")}
    read = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    dead = sorted((path, name) for name, path in defined if name not in read)
    assert not dead, "private functions never read: %s" % dead


def test_no_unread_module_definitions():
    # every module-level function or class of the package is read somewhere
    # in src, tests or perfbench: as a bare name, an attribute or a
    # from-import; a name listed in __all__ only is not read
    root = Path(__file__).parent.parent
    readers = SOURCES + sorted((root / "tests").glob("*.py")) \
        + sorted((root / "perfbench").glob("*.py"))
    read = set()
    for path in readers:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
    dead = sorted((path.name, node.name) for path in SOURCES
                  for node in ast.parse(path.read_text()).body
                  if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                       ast.ClassDef))
                  and node.name not in read)
    assert not dead, "module-level definitions never read: %s" % dead
