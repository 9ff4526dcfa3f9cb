"""Every module of the package and of the tests reads each name it
imports.  A name counts as read where the module loads it, lists it in
`__all__`, or names it inside a quoted annotation (such as "Form");
`from __future__` imports are directives, not names."""

import ast
import glob
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MODULES = sorted(glob.glob(os.path.join(ROOT, "src", "kernelineq", "*.py"))
                 + glob.glob(os.path.join(ROOT, "tests", "*.py")))


def imported(tree: ast.Module) -> dict:
    """The names the module's imports bind, each with its line."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    names[alias.asname or alias.name] = node.lineno
    return names


def annotations(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, ast.arg):
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def read(tree: ast.Module) -> set:
    """The names the module loads, lists in `__all__` or quotes in an
    annotation."""
    names = {node.id for node in ast.walk(tree)
             if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            names |= set(ast.literal_eval(node.value))
    for ann in filter(None, annotations(tree)):
        for node in ast.walk(ann):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                names |= read(ast.parse(node.value, mode="eval"))
    return names


@pytest.mark.parametrize("path", MODULES, ids=lambda p: os.path.relpath(p, ROOT))
def test_every_import_is_read(path):
    with open(path) as fh:
        tree = ast.parse(fh.read(), path)
    used = read(tree)
    unread = {name: line for name, line in imported(tree).items() if name not in used}
    assert not unread, f"imported and never read: {unread}"


def test_the_scan_sees_quoted_annotations_and_all():
    tree = ast.parse('from __future__ import annotations\n'
                     'from typing import TYPE_CHECKING\n'
                     'from .a import Form, Kept, Unread\n'
                     'import os.path\n'
                     '__all__ = ["Kept"]\n'
                     'if TYPE_CHECKING:\n'
                     '    pass\n'
                     'def f(x: "Form") -> "os.PathLike": ...\n')
    assert set(imported(tree)) - read(tree) == {"Unread"}
