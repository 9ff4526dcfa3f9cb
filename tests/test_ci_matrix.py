"""The CI matrix runs exactly the Python minor versions pyproject.toml admits.

Resumed sums carry the oracle's batched evaluation and its ascent moves,
and they assume builtin sum adds floats left to right, which CPython 3.12
no longer does (see the kernelineq.numerics docstring).  The < 3.12 pin
must not be lifted without the new version in CI.  Both files are read
with a regular expression: tomllib is not in Python 3.10, which CI runs.
"""

import operator
import os
import re

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OPS = {">=": operator.ge, ">": operator.gt, "<=": operator.le, "<": operator.lt,
       "==": operator.eq, "!=": operator.ne}


def _read(*path):
    with open(os.path.join(ROOT, *path)) as fh:
        return fh.read()


def _admitted(spec):
    """The 3.x minor versions (up to 3.99) that every clause of spec admits."""
    clauses = []
    for clause in spec.split(","):
        m = re.fullmatch(r"\s*(>=|<=|==|!=|<|>)\s*3\.(\d+)\s*", clause)
        assert m, f"requires-python clause not understood: {clause!r}"
        clauses.append((OPS[m.group(1)], int(m.group(2))))
    return [f"3.{minor}" for minor in range(100)
            if all(op(minor, bound) for op, bound in clauses)]


def test_ci_matrix_is_every_admitted_python():
    spec = re.search(r'^requires-python\s*=\s*"([^"]*)"', _read("pyproject.toml"), re.M)
    assert spec, "pyproject.toml has no requires-python"
    matrix = re.search(r"python-version:\s*\[([^\]]*)\]",
                       _read(".github", "workflows", "tier1.yml"))
    assert matrix, "tier1.yml has no python-version matrix"
    ci = re.findall(r"""["']([^"']+)["']""", matrix.group(1))
    assert ci == _admitted(spec.group(1)), (
        f"CI runs {ci}, pyproject.toml admits {_admitted(spec.group(1))[:6]}...")


def test_admitted_reads_the_pin():
    assert _admitted(">=3.10,<3.12") == ["3.10", "3.11"]
    assert _admitted(">=3.10, <=3.12") == ["3.10", "3.11", "3.12"]
    assert len(_admitted(">=3.10")) == 90  # no upper bound: far more than CI runs
