"""Outside `kernels.py`, no module of the package derives a kernel
triangle.  None calls `rows_of` or `transpose`, and none applies a
`pow_for(...)` power to a kernel's columns (`.columns`,
`.kernel.columns`): as `pow_for(r)(cols)`, as `map(pow_for(r), cols)`,
or through a name bound to `pow_for(r)` and applied to the columns or to
each column of a loop over them.  The modules read the kernel's views,
`Kernel.powered` and `Kernel.rows`, which it derives once per kernel and
exponent."""

import ast
import glob
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MODULES = sorted(path for path in glob.glob(os.path.join(ROOT, "src", "kernelineq", "*.py"))
                 if os.path.basename(path) != "kernels.py")
DERIVE = {"rows_of", "transpose"}


def name(node) -> str:
    """The name a Name or an Attribute reads, else ""."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return ""


def is_power(node, powers: set) -> bool:
    """A call pow_for(...), or a name bound to one."""
    if isinstance(node, ast.Call):
        return name(node.func) == "pow_for"
    return name(node) in powers


def is_columns(node) -> bool:
    return isinstance(node, ast.Attribute) and node.attr == "columns"


def bound_powers(tree: ast.Module) -> set:
    """The names (or attributes) assigned a pow_for(...) call, one by one
    or in a tuple assignment."""
    powers = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                pairs = [(target, node.value)]
                if isinstance(target, ast.Tuple) and isinstance(node.value, ast.Tuple):
                    pairs = zip(target.elts, node.value.elts)
                powers |= {name(t) for t, v in pairs if is_power(v, set())}
    return powers


def column_names(tree: ast.Module) -> set:
    """The names a loop or comprehension binds to each column of a
    kernel's columns: `for col in K.columns`, and the matching place of
    `zip(...)` or `enumerate(...)` over them."""
    names = set()

    def bind(target, it):
        if is_columns(it):
            names.add(name(target))
        elif (isinstance(it, ast.Call) and isinstance(target, ast.Tuple)
              and name(it.func) in ("zip", "enumerate")):
            args = it.args if name(it.func) == "zip" else [None] + it.args[:1]
            for t, arg in zip(target.elts, args):
                if arg is not None:
                    bind(t, arg)
    for node in ast.walk(tree):
        if isinstance(node, (ast.For, ast.comprehension)):
            bind(node.target, node.iter)
    names.discard("")
    return names


def derivations(tree: ast.Module) -> list:
    """The lines where the module derives a kernel triangle."""
    powers, cols = bound_powers(tree), column_names(tree)

    def column(node) -> bool:
        return is_columns(node) or name(node) in cols and isinstance(node, ast.Name)
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        if name(node.func) in DERIVE:
            found.append(node.lineno)
        elif is_power(node.func, powers) and any(map(column, node.args)):
            found.append(node.lineno)
        elif (name(node.func) == "map" and len(node.args) == 2
              and is_power(node.args[0], powers) and column(node.args[1])):
            found.append(node.lineno)
    return sorted(set(found))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: os.path.relpath(p, ROOT))
def test_only_the_kernel_derives_its_triangles(path):
    with open(path) as fh:
        tree = ast.parse(fh.read(), path)
    assert not derivations(tree), f"derives a kernel triangle on lines {derivations(tree)}"


@pytest.mark.parametrize("source", [
    "cols = list(map(pow_for(inst.p), kern.columns))",
    "lines = rows_of(cols)",
    "self.rows = kernels.rows_of(lines)",
    "cols = transpose(rows)",
    "cols = pow_for(r)(inst.kernel.columns)",
    "vd, power = sigma_terms(inst.v, inst.p), pow_for(pc)\n"
    "out = [ext_dot(power(col), vd) for col in inst.kernel.columns]",
    "heads_finite, power = finite(heads), pow_for(e)\n"
    "sups = [sup0(ce) for ce in map(power, inst.kernel.columns)]",
    "for i, (col, wi) in enumerate(zip(inst.kernel.columns, w)):\n"
    "    s = pow_q(col)\n"
    "pow_q = pow_for(q)",
])
def test_the_scan_sees_each_derivation(source):
    assert derivations(ast.parse(source))


@pytest.mark.parametrize("source", [
    "diag = pow_for(inst.p)([col[-1] for col in kern.columns])",
    "own = pows([col[-1] for col in inst.kernel.columns], q)",
    "cols, ok = inst.kernel.powered(q)",
    "rows = kern.rows(r)",
    "for col in inst.kernel.columns:\n    m = mul_for(col)",
])
def test_the_scan_passes_the_views_and_vectors(source):
    assert not derivations(ast.parse(source))
