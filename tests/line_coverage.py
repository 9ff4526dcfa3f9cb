"""Print every statement of `src/kernelineq` that the test suite never runs.

Run from the repository root, with any pytest arguments:

    python tests/line_coverage.py [pytest args]

It exits 1 where the tests fail or where a statement that `ALLOWED` does
not name is never run, else 0.  A scheduled CI job runs it on the whole
suite (`.github/workflows/line-coverage.yml`).

It runs `pytest.main` in this process under `sys.settrace` and
`threading.settrace`, tracing only the frames of the package's modules,
and takes each module's statements from `ast` (docstrings skipped).  A
simple statement counts as run where any of its lines ran; a compound one
where its header (decorators included) ran, or, for `try`, any statement
of its body.  Code that runs only in a subprocess (the CLI's `main`) is
not seen.  Tracing makes the suite about three to four times slower.
"""

import ast
import os
import sys
import threading
from collections import defaultdict

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "kernelineq")

# The statements no test runs, by file and text (their first line): the
# imports only a type checker reads, the CLI's entry point, which only the
# subprocess tests run, and the parser's guard on a kernel document that
# `kernel_spec` accepts and `Kernel` rejects, which no document reaches.
ALLOWED = {
    ("batch.py", "from .oracle import Form"),
    ("moves.py", "from .oracle import Form"),
    ("cli.py", "sys.exit(run_command(sys.argv[1:]))"),
    ("cli.py", "main()"),
    ("cli.py", 'raise InstanceError("kernel", str(e)) from e'),
}

executed = defaultdict(set)


def _trace(frame, event, arg):
    """The global tracer: a local tracer for the package's frames only."""
    path = frame.f_code.co_filename
    if not path.startswith(PACKAGE):
        return None
    lines = executed[path]
    lines.add(frame.f_lineno)

    def local(frame, event, arg):
        if event == "line":
            lines.add(frame.f_lineno)
        return local
    return local


def _is_docstring(node):
    return (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
            and isinstance(node.value.value, str))


def _statements(tree):
    """Every statement under tree but docstrings, with the lines that show
    it ran."""
    for node in ast.walk(tree):
        doc = None
        if isinstance(node, (ast.Module, ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)) and _is_docstring(node.body[0]):
            doc = node.body[0]
        for child in _children(node):
            if isinstance(child, ast.stmt) and child is not doc:
                yield child, _run_lines(child)


def _children(node):
    """The statements and handlers a node holds in its blocks."""
    for field in ("body", "orelse", "finalbody", "handlers"):
        block = getattr(node, field, None)
        if isinstance(block, list):
            yield from block


def _run_lines(node):
    if isinstance(node, ast.Try):
        return {line for stmt in node.body for line in _run_lines(stmt)}
    first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", ())])
    inner = list(_children(node))
    last = min(n.lineno for n in inner) - 1 if inner else node.end_lineno
    return set(range(first, max(first, last) + 1))


def main(args):
    sys.path.insert(0, os.path.join(ROOT, "src"))
    threading.settrace(_trace)
    sys.settrace(_trace)
    try:
        status = pytest.main(args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    missed, unexpected = [], 0
    for name in sorted(os.listdir(PACKAGE)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(PACKAGE, name)
        with open(path) as fh:
            source = fh.read()
        lines = source.splitlines()
        found = {node.lineno for node, run in _statements(ast.parse(source))
                 if not run & executed[path]}
        for n in sorted(found):
            text = lines[n - 1].strip()
            allowed = (name, text) in ALLOWED
            unexpected += not allowed
            missed.append(f"src/kernelineq/{name}:{n}: {text}"
                          + ("" if allowed else "  (not allowed)"))
    print(f"\n{len(missed)} statements never run, {unexpected} of them not allowed:",
          *missed, sep="\n")
    return 1 if status != 0 or unexpected else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:] or ["-q", "-p", "no:cacheprovider"]))
