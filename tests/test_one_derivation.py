"""Outside `kernels.py`, no module of the package derives a kernel
triangle or rescans its finiteness.  None calls `rows_of` or
`transpose`, and none applies a `pow_for(...)` power to a kernel's
columns (`.columns`, `.kernel.columns`): as `pow_for(r)(cols)`, as
`map(pow_for(r), cols)`, or through a name bound to `pow_for(r)` and
applied to the columns or to each column of a loop over them.  None
calls `finite(...)` or `mul_for(...)` on a triangle (`.columns`, a
`powered(...)` view's columns, a name bound to either, a parameter
annotated `List[List[float]]`) or on a column of a loop over one: the
view carries the triangle's finiteness.  The modules read the kernel's
views, `Kernel.powered` and `Kernel.rows`, which it derives once per
kernel and exponent.  Inside `kernels.py` U^r is derived in one place:
no function but `reversed_` builds a power kernel (`.power(`)."""

import ast
import glob
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
KERNELS = os.path.join(ROOT, "src", "kernelineq", "kernels.py")
MODULES = sorted(path for path in glob.glob(os.path.join(ROOT, "src", "kernelineq", "*.py"))
                 if path != KERNELS)
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


def column_names(tree: ast.Module, triangle=is_columns) -> set:
    """The names a loop or comprehension binds to each column of a
    kernel's columns (of a triangle, as `triangle` tells one):
    `for col in K.columns`, and the matching place of `zip(...)` or
    `enumerate(...)` over them."""
    names = set()

    def bind(target, it):
        if triangle(it):
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


def is_powered(node) -> bool:
    """A call K.powered(...): a view, the pair (columns, finite)."""
    return isinstance(node, ast.Call) and name(node.func) == "powered"


def first_is_triangle(value, is_triangle) -> bool:
    """Whether the first element of an assigned tuple value is a
    triangle: a view, a tuple that starts with one, or either branch of
    a conditional."""
    if isinstance(value, ast.IfExp):
        return (first_is_triangle(value.body, is_triangle)
                or first_is_triangle(value.orelse, is_triangle))
    if isinstance(value, ast.Tuple):
        return bool(value.elts) and is_triangle(value.elts[0])
    return is_powered(value)


def triangle_test(tree: ast.Module):
    """node -> whether it is a kernel triangle: `.columns`, a view's
    columns (`K.powered(r)[0]`, or [0] of a name bound to a view), a name
    bound to either (alone or first in a tuple), or a parameter annotated
    `List[List[float]]`."""
    views, names = set(), set()

    def is_triangle(node) -> bool:
        if isinstance(node, ast.Subscript):
            return is_powered(node.value) or (isinstance(node.value, ast.Name)
                                              and node.value.id in views)
        return is_columns(node) or isinstance(node, ast.Name) and node.id in names
    for node in ast.walk(tree):
        if (isinstance(node, ast.arg) and node.annotation is not None
                and ast.unparse(node.annotation) == "List[List[float]]"):
            names.add(node.arg)
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Tuple):
                    if first_is_triangle(node.value, is_triangle):
                        names.add(name(target.elts[0]))
                elif is_powered(node.value):
                    views.add(name(target))
                elif is_triangle(node.value):
                    names.add(name(target))
    return is_triangle


def rescans(tree: ast.Module) -> list:
    """The lines where `finite(...)` or `mul_for(...)` reads a kernel
    triangle or a column of a loop over one."""
    is_triangle = triangle_test(tree)
    cols = column_names(tree, is_triangle)

    def read(node) -> bool:
        if isinstance(node, ast.Starred):
            node = node.value
        return is_triangle(node) or isinstance(node, ast.Name) and node.id in cols
    return sorted({node.lineno for node in ast.walk(tree)
                   if isinstance(node, ast.Call) and name(node.func) in ("finite", "mul_for")
                   and any(map(read, node.args + [k.value for k in node.keywords]))})


def power_kernels(tree: ast.Module) -> list:
    """The functions other than `reversed_` that build a power kernel:
    `(...).power(...)`."""
    return sorted({fn.name for fn in ast.walk(tree)
                   if isinstance(fn, ast.FunctionDef) and fn.name != "reversed_"
                   for node in ast.walk(fn)
                   if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                   and node.func.attr == "power"})


@pytest.mark.parametrize("path", MODULES, ids=lambda p: os.path.relpath(p, ROOT))
def test_only_the_kernel_derives_its_triangles(path):
    with open(path) as fh:
        tree = ast.parse(fh.read(), path)
    assert not derivations(tree), f"derives a kernel triangle on lines {derivations(tree)}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: os.path.relpath(p, ROOT))
def test_finiteness_comes_from_the_views(path):
    with open(path) as fh:
        tree = ast.parse(fh.read(), path)
    assert not rescans(tree), f"rescans a kernel triangle on lines {rescans(tree)}"


def test_the_kernel_derives_u_to_the_r_in_one_place():
    with open(KERNELS) as fh:
        tree = ast.parse(fh.read(), KERNELS)
    assert not power_kernels(tree), f"power kernels built in {power_kernels(tree)}"


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


# Rescans the check must see: `bridge._sweep`, `constants._uq_tails` and
# `constants._tail_head_sum` written with scans of their own, a
# conditional read of the stored columns or a view, a name bound to a
# view, and a loop over the stored columns.
RESCANS = [
    "def _sweep(w: Sequence[float], cols: List[List[float]], e: float, h: float,\n"
    "           sup: bool) -> Callable[..., List[float]]:\n"
    "    cells = _cells(w, cols)\n"
    "    firsts = _firsts(cells, len(cols))\n"
    "    cols_finite = finite(*cols)\n",
    "sums = [0.0] * inst.length\n"
    "for i, (col, wi) in enumerate(zip(inst.kernel.powered(q)[0], inst.w.values)):\n"
    "    k = i + 1 - strict\n"
    "    sums[:k] = map(operator.add, sums[:k],\n"
    "                   map(mul_for(col), col, itertools.repeat(wi)))\n",
    "heads_finite = finite(heads)\n"
    "sups = [sup0(map(mul_for(ce, rest_finite=heads_finite), ce, heads))\n"
    "        for ce in inst.kernel.powered(e)[0]]\n",
    "cols, ok = (kern.columns, kern.finite) if r is None else kern.powered(r)\n"
    "m = mul_for(cols[0])\n"
    "for col in cols:\n    ok = finite(col)",
    "view = kern.powered(r)\nok = finite(*view[0])",
    "for col in inst.kernel.columns:\n    m = mul_for(col)",
]


@pytest.mark.parametrize("source", RESCANS)
def test_the_check_sees_each_rescan(source):
    assert rescans(ast.parse(source))


@pytest.mark.parametrize("source", [
    "cols, cols_finite = inst.kernel.powered(q)\n"
    "mul = operator.mul if cols_finite else ext_mul",
    "cols, cols_finite = inst.kernel.powered(e)\n"
    "mul = mul_for(heads, rest_finite=cols_finite)\n"
    "sups = [sup0(map(mul, col, heads)) for col in cols]",
    "diag = [col[-1] for col in kern.columns]\nok = finite(diag)",
    "def _sweep(w, cols: List[List[float]], cols_finite: bool):\n"
    "    mul = mul_for(heads, rest_finite=cols_finite)",
])
def test_the_check_passes_the_views_flags(source):
    assert not rescans(ast.parse(source))


def test_the_check_sees_a_second_derivation_of_u_to_the_r():
    # A power_regularity that builds a power kernel to scan it.
    source = ("class Kernel:\n"
              "    def power_regularity(self, r):\n"
              "        if r == 1.0:\n"
              "            return self.regularity_constant()\n"
              "        return self.power(r).regularity_constant()\n"
              "    def reversed_(self):\n"
              "        return Kernel(spec.base, self.start, self.length).reversed_()"
              ".power(spec.r)\n")
    assert power_kernels(ast.parse(source)) == ["power_regularity"]
