"""Shared random-data builders for the test suite."""

import math
import random
import sys

from kernelineq import (ExponentPair, Instance, Kernel, WeightSeq, condition_A,
                        condition_D, constant_kernel, continuous_constant,
                        tabulated_kernel)
from kernelineq import kernels
from kernelineq.kernels import RowSequenceKernel, SupSequenceKernel

POSITIVE_CHOICES = (0.5, 1.0, 2.0, 3.0)


def monotone_tabulated(rng: random.Random, start: int, length: int) -> Kernel:
    """Tabulated kernel K(i,n) = sum_{j=i..n} u_j with u > 0.

    Nonincreasing in i, nondecreasing in n, regular with constant 1.
    """
    u = [rng.choice(POSITIVE_CHOICES) for _ in range(length)]
    rows = []
    for i in range(length):
        row, acc = [], 0.0
        for n in range(i, length):
            acc += u[n]
            row.append(acc)
        rows.append(row)
    return tabulated_kernel(rows, start, length)


def sup_kernel(rng: random.Random, start: int, length: int) -> Kernel:
    u = WeightSeq(start, tuple(rng.choice(POSITIVE_CHOICES)
                               for _ in range(length)))
    return Kernel(SupSequenceKernel(u), start, length)


def row_kernel(rng: random.Random, start: int, length: int) -> Kernel:
    u = WeightSeq(start, tuple(rng.choice(POSITIVE_CHOICES)
                               for _ in range(length)))
    return Kernel(RowSequenceKernel(u), start, length)


def random_kernel(rng: random.Random, start: int, length: int,
                  kinds=("constant", "sup", "tabulated")) -> Kernel:
    kind = rng.choice(kinds)
    if kind == "constant":
        return constant_kernel(rng.choice((1.0, 2.0)), start, length)
    if kind == "sup":
        return sup_kernel(rng, start, length)
    if kind == "row":
        return row_kernel(rng, start, length)
    return monotone_tabulated(rng, start, length)


def random_instance(rng: random.Random, p: float, q: float,
                    length=None, kinds=("constant", "sup", "tabulated"),
                    allow_zero_v: bool = False,
                    max_length: int = 5) -> Instance:
    if length is None:
        length = rng.randint(1, max_length)
    start = rng.randint(-3, 3)
    v = []
    for i in range(length):
        if allow_zero_v and rng.random() < 0.25:
            v.append(0.0)
        else:
            v.append(rng.choice(POSITIVE_CHOICES))
    w = [rng.choice((0.5, 1.0, 2.0)) for _ in range(length)]
    return Instance(ExponentPair(p, q), WeightSeq(start, tuple(v)),
                    WeightSeq(start, tuple(w)),
                    random_kernel(rng, start, length, kinds))


def close(x: float, y: float, rel: float = 1e-12) -> bool:
    if x == y:
        return True
    if math.isinf(x) or math.isinf(y):
        return False
    return abs(x - y) <= rel * max(1.0, abs(x), abs(y))


# Every closed-form constant by name: the A- and D-constants and the
# continuous constants of the step extension.
CONSTANTS = ([(f"A_{k}", condition_A, k) for k in range(1, 14)]
             + [(f"D_{k}", condition_D, k) for k in range(1, 7)]
             + [(f"calA_{k}", continuous_constant, f"calA_{k}")
                for k in (1, 2, 3, 4, 12, 13)])


def applicable_constants(inst: Instance) -> dict:
    """Every constant whose regime holds at the instance's (p, q)."""
    out = {}
    for name, fn, k in CONSTANTS:
        try:
            out[name] = fn(k, inst)
        except ValueError as exc:
            assert "only defined" in str(exc) or "needs" in str(exc), exc
    return out


def count_rows_of(monkeypatch) -> list:
    """Count the row derivations (`kernels.rows_of`) in every package
    module that imports it: the returned list gains one entry per call."""
    calls = []
    real = kernels.rows_of

    def counted(cols):
        calls.append(len(cols))
        return real(cols)
    for name, module in list(sys.modules.items()):
        if name.startswith("kernelineq") and getattr(module, "rows_of", None) is real:
            monkeypatch.setattr(module, "rows_of", counted)
    return calls
