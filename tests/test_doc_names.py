"""The docs name real code.

A backticked dotted path that starts with a module of the package, such
as `oracle._at_top` or `kernelineq.moves.Moves`, in README.md or in a
docstring of the package, must resolve attribute by attribute.  A bare
backticked private name in a module's source, comments included, such as
`_outer` in moves.py, must be defined in that module: a function, a
class, a method, or a name the module assigns or imports at its top
level.  A bare backticked private name in README.md must be defined
in some module of the package.  So a rename or a merge that leaves a
stale name in the docs fails here.
"""

import ast
import importlib
import os
import re

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "kernelineq")
MODULES = sorted(name[:-3] for name in os.listdir(PACKAGE)
                 if name.endswith(".py") and name != "__init__.py")
FILE_SUFFIXES = {"py", "json", "toml", "md"}  # `oracle.py` names a file

SPAN = re.compile(r"`([^`\n]+)`")
PATH = re.compile(r"[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+")
PRIVATE = re.compile(r"_\w+")


def _read(path):
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _tree(module):
    return ast.parse(_read(os.path.join(PACKAGE, module + ".py")))


def _docstrings(tree):
    nodes = [tree] + [n for n in ast.walk(tree) if isinstance(
        n, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))]
    return [doc for doc in map(ast.get_docstring, nodes) if doc]


def module_paths(text):
    """The backticked dotted paths in text that start with a package module."""
    paths = []
    for span in SPAN.findall(text):
        m = PATH.match(span)
        if m is None:
            continue
        parts = m.group().split(".")
        if parts[-1] in FILE_SUFFIXES:
            continue
        if parts[0] == "kernelineq" or parts[0] in MODULES:
            paths.append(m.group())
    return paths


def resolves(path):
    """Whether path names an attribute chain from a package module."""
    parts = path.split(".")
    if parts[0] != "kernelineq":
        parts.insert(0, "kernelineq")
    for i in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:i]))
        except ImportError:
            continue
        try:
            for name in parts[i:]:
                obj = getattr(obj, name)
        except AttributeError:
            return False
        return True
    return False


def defined_names(tree):
    """Functions, classes and methods at any depth, and the names a module
    binds at its top level: assigned or imported (bridge.py cites the
    oracle's `_norm`, which it imports)."""
    names = {n.name for n in ast.walk(tree) if isinstance(
        n, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom):
            names.update(a.asname or a.name for a in node.names)
        targets = (node.targets if isinstance(node, ast.Assign)
                   else [node.target] if isinstance(node, ast.AnnAssign) else [])
        names.update(t.id for t in targets if isinstance(t, ast.Name))
    return names


def private_names(source):
    """The bare backticked private names in a module's source."""
    return [span for span in SPAN.findall(source) if PRIVATE.fullmatch(span)]


def _documented_paths():
    readme = _read(os.path.join(ROOT, "README.md"))
    found = [("README.md", path) for path in module_paths(readme)]
    for module in MODULES + ["__init__"]:
        for doc in _docstrings(_tree(module)):
            found += [(module + ".py", path) for path in module_paths(doc)]
    return found


def test_module_paths_resolve():
    found = _documented_paths()
    assert len(found) >= 50  # the scan itself still finds the docs' paths
    assert [(where, path) for where, path in found if not resolves(path)] == []


@pytest.mark.parametrize("module", MODULES)
def test_private_names_are_defined_in_their_module(module):
    source = _read(os.path.join(PACKAGE, module + ".py"))
    stale = set(private_names(source)) - defined_names(ast.parse(source))
    assert not stale, f"{module}.py names {sorted(stale)}, which it does not define"


def test_readme_private_names_are_defined_in_the_package():
    defined = set().union(*(defined_names(_tree(m)) for m in MODULES + ["__init__"]))
    stale = set(private_names(_read(os.path.join(ROOT, "README.md")))) - defined
    assert not stale, f"README.md names {sorted(stale)}, which no module defines"


def test_the_scan_catches_stale_names():
    assert resolves("oracle._at_top") and resolves("kernelineq.moves.Moves.move")
    assert resolves("oracle.Ratios.moves")
    assert not resolves("oracle.Ratios.screen") and not resolves("kernelineq.screen.Moves")
    assert not resolves("bridge._integral_lhs") and not resolves("nosuchmodule.x")
    assert module_paths("`oracle.py`, `Kernel.finite`, `bridge._sup_lhs(g)`, x.y") == [
        "bridge._sup_lhs"]
    bridge = _tree("bridge")
    assert "_outer" in defined_names(_tree("moves"))
    assert "_TANH_SINH" in defined_names(bridge)
    assert {"_integral_lhs", "_sup_lhs"}.isdisjoint(defined_names(bridge))
    assert private_names("`_integral_lhs` and `_sup_lhs`; `numerics.mul_for`") == [
        "_integral_lhs", "_sup_lhs"]
