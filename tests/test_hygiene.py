"""Source hygiene checks that need no linter."""
import ast
import importlib
import importlib.util
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


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_all_names_resolve(path):
    # a deletion that leaves its name in __all__ would otherwise fail only
    # at a star import
    module = importlib.import_module("dahakz." + path.stem)
    missing = [name for name in getattr(module, "__all__", ())
               if not hasattr(module, name)]
    assert not missing, "__all__ names not defined: %s" % missing


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


def _readers():
    root = Path(__file__).parent.parent
    return SOURCES + sorted((root / "tests").glob("*.py")) \
        + sorted((root / "perfbench").glob("*.py"))


def _read_anywhere():
    """Names read in src, tests or perfbench: as a bare name, an attribute
    or a from-import."""
    read = set()
    for path in _readers():
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
    return read


def _called_and_stored():
    """Attribute names called as x.name(...) in src, tests or perfbench, and
    the names the package stores as data: assigned as an attribute, or in a
    class body (a field or a class constant)."""
    called, stored = set(), set()
    for path in _readers():
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                called.add(node.func.attr)
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
                stored.add(node.attr)
            elif isinstance(node, ast.ClassDef):
                for item in node.body:
                    targets = item.targets if isinstance(item, ast.Assign) else \
                        [item.target] if isinstance(item, ast.AnnAssign) else []
                    stored.update(t.id for t in targets if isinstance(t, ast.Name))
    return called, stored


def test_no_unread_module_definitions():
    # every module-level function or class of the package is read somewhere
    # in src, tests or perfbench; a name listed in __all__ only is not read
    read = _read_anywhere()
    dead = sorted((path.name, node.name) for path in SOURCES
                  for node in ast.parse(path.read_text()).body
                  if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                       ast.ClassDef))
                  and node.name not in read)
    assert not dead, "module-level definitions never read: %s" % dead


def test_no_unread_public_methods():
    # every public method of a class of the package is read somewhere in
    # src, tests or perfbench, as an attribute; dunder methods are private.
    # A read of a data attribute of the same name (such as _CycField.degree)
    # does not count: a plain method whose name the package also stores as
    # data must be called, x.name(...); a property is read without a call,
    # so any read counts for it
    read = _read_anywhere()
    called, stored = _called_and_stored()

    def used(node):
        if node.name not in read:
            return False
        plain = not any(getattr(dec, "id", getattr(dec, "attr", None))
                        in ("property", "cached_property") for dec in node.decorator_list)
        return not (plain and node.name in stored) or node.name in called

    dead = sorted((path.name, cls.name, node.name) for path in SOURCES
                  for cls in ast.walk(ast.parse(path.read_text()))
                  if isinstance(cls, ast.ClassDef)
                  for node in cls.body
                  if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                  and not node.name.startswith("_") and not used(node))
    assert not dead, "public methods never read: %s" % dead


def test_no_general_purpose_matrix_exponential():
    # Y_j, base^{A_0} and y_alpha^-1 are closed forms on the exact weight
    # basis (ConnectionProblem.exp_a0); no expm, called or aliased, may
    # come back beside them
    found = sorted((path.name, node.lineno) for path in SOURCES
                   for node in ast.walk(ast.parse(path.read_text()))
                   if (isinstance(node, ast.Name) and node.id == "expm")
                   or (isinstance(node, ast.Attribute) and node.attr == "expm")
                   or (isinstance(node, ast.alias) and node.name == "expm"))
    assert not found, "expm in the package: %s" % found


def test_tracer_targets_resolve():
    # perfbench/layers.py wraps dahakz functions named by module and
    # attribute; a moved or renamed target would otherwise surface only
    # when a traced run installs the wrappers
    path = Path(__file__).parent.parent / "perfbench" / "layers.py"
    spec = importlib.util.spec_from_file_location("_perfbench_layers", path)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)

    def module(name):
        return importlib.import_module("dahakz." + name)

    for targets in layers.SPAN_LAYERS.values():
        for mod_name, fn_name in targets:
            assert callable(getattr(module(mod_name), fn_name, None)), \
                "%s.%s" % (mod_name, fn_name)
    for mod_name in layers.MODULE_LAYERS.values():
        module(mod_name)
    for fn_name in layers.PATH_KINDS:
        assert callable(getattr(module("kz"), fn_name, None)), "kz." + fn_name
    for mod_name, cls_name, meth in layers.COUNTED_METHODS.values():
        assert meth in vars(getattr(module(mod_name), cls_name)), \
            "%s.%s.%s" % (mod_name, cls_name, meth)


def test_element_products_reach_the_traced_functions(monkeypatch):
    # perfbench/layers.py times and counts hecke.products by rebinding
    # hecke.daha_mul and hecke.aha_mul; element * element must look them up
    # by name, or those counts would miss every product made with *
    from fractions import Fraction as Q

    from dahakz import hecke
    from dahakz.affine import HeckeParams, simple_reflection
    from dahakz.rootdata import type_a

    calls = []
    for name in ("daha_mul", "aha_mul"):
        def counting(a, b, orig=getattr(hecke, name), name=name):
            calls.append(name)
            return orig(a, b)
        monkeypatch.setattr(hecke, name, counting)
    datum = type_a(1)
    s = hecke.DahaElement.from_group(datum, HeckeParams.degenerate(Q(1, 2)),
                                     simple_reflection(datum, 0))
    t = hecke.AhaElement.from_t(datum, HeckeParams.from_exponent(Q(1, 2)),
                                datum.w_simple[0])
    s * s
    t * t
    assert calls == ["daha_mul", "aha_mul"]


# perfbench calls rings.x_monomial and rings.y_monomial with the datum as
# their first argument, so those two keep a parameter they do not read
UNREAD_PARAMETERS = {("rings.py", "x_monomial", "datum"),
                     ("rings.py", "y_monomial", "datum")}


def test_no_unused_parameters():
    # every parameter of every def is read in its body; self, cls and a
    # body that is a single raise are exempt
    unread = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if len(node.body) == 1 and isinstance(node.body[0], ast.Raise):
                continue
            args = node.args
            params = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs
                      + [a for a in (args.vararg, args.kwarg) if a]]
            read = {n.id for stmt in node.body for n in ast.walk(stmt)
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            unread += [(path.name, node.name, p) for p in params
                       if p not in read | {"self", "cls"}
                       and (path.name, node.name, p) not in UNREAD_PARAMETERS]
    assert not unread, "parameters never read: %s" % sorted(unread)


def test_no_id_calls():
    # tables derived from a datum live on it (RootDatum.memo); a module-level
    # memo keyed by id(...) would keep its keys' objects alive or read a
    # freed object's entry once the id is reused
    found = sorted((path.name, node.lineno) for path in SOURCES
                   for node in ast.walk(ast.parse(path.read_text()))
                   if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "id")
    assert not found, "id(...) called in the package: %s" % found
