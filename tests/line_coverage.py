"""Print every statement of `src/kernelineq` that the test suite never runs
and every `lambda` it never calls.

Run from the repository root, with any pytest arguments:

    python tests/line_coverage.py [pytest args]

It exits 1 where the tests fail or where a statement that `ALLOWED` does
not name is never run, or a `lambda` it does not name is never called,
else 0.  A CI job runs it on the whole suite
(`.github/workflows/line-coverage.yml`).

It runs `pytest.main` in this process under `sys.settrace` and
`threading.settrace`, tracing only the frames of the package's modules,
and takes each module's statements from `ast` (docstrings skipped).  A
simple statement counts as run where any of its lines ran; a compound one
where its header (decorators included) ran, or, for `try`, any statement
of its body.  A `lambda` counts as run only where it was called: its line
runs where the lambda is made, so the statement it sits in cannot show
that its body ran.  The tracer records the code object of every lambda
called, and a line with n lambdas needs n of them.  Code that runs only
in a subprocess (the CLI's `main`) is not seen.  Tracing makes the suite
about three to four times slower.
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
# imports only a type checker reads and the CLI's entry point, which only
# the subprocess tests run.
ALLOWED = {
    ("batch.py", "from .oracle import Form"),
    ("moves.py", "from .oracle import Form"),
    ("cli.py", "sys.exit(run_command(sys.argv[1:]))"),
    ("cli.py", "main()"),
}

executed = defaultdict(set)
called = defaultdict(set)  # per file, the code objects of the lambdas called


def _trace(frame, event, arg):
    """The global tracer: a local tracer for the package's frames only."""
    path = frame.f_code.co_filename
    if not path.startswith(PACKAGE):
        return None
    lines = executed[path]
    lines.add(frame.f_lineno)
    if frame.f_code.co_name == "<lambda>":
        called[path].add(frame.f_code)

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


def _uncalled(tree, path):
    """The first line of every lambda under tree that was never called."""
    lambdas = defaultdict(int)
    for node in ast.walk(tree):
        if isinstance(node, ast.Lambda):
            lambdas[node.lineno] += 1
    runs = defaultdict(int)
    for code in called[path]:
        runs[code.co_firstlineno] += 1
    return {n for n, count in lambdas.items() if runs[n] < count}


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
        lines, tree = source.splitlines(), ast.parse(source)
        found = {node.lineno for node, run in _statements(tree)
                 if not run & executed[path]}
        uncalled = _uncalled(tree, path)
        for n in sorted(found | uncalled):
            text = lines[n - 1].strip()
            allowed = (name, text) in ALLOWED
            unexpected += not allowed
            missed.append(f"src/kernelineq/{name}:{n}: {text}"
                          + ("  (a lambda never called)" if n in uncalled - found else "")
                          + ("" if allowed else "  (not allowed)"))
    print(f"\n{len(missed)} statements never run or lambdas never called, "
          f"{unexpected} of them not allowed:", *missed, sep="\n")
    return 1 if status != 0 or unexpected else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:] or ["-q", "-p", "no:cacheprovider"]))
