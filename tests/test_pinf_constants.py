"""The p = inf constants are left-hand sides at a = 1/v.

A_3 and D_4 are GOP_DUAL's left-hand side at a = 1/v, A_6 and calA_3
are WEAK's, and calA_4 is the continuous GOP_DUAL left-hand side on unit
pieces at f = 1/v.  Each is compared by `repr` with its closed form,
written out here as an ext_mul/ext_pow loop in the order the closed form
adds, on seeded p = inf instances with zero and subnormal v entries and
a squared 1e200 kernel (whose entries overflow to inf).
"""

import math
import random

import pytest

from kernelineq import (INF, ExponentPair, Instance, TestSequence, WeightSeq,
                        best_constant, condition_A, condition_D,
                        continuous_constant, functional_lhs, tabulated_kernel)
from kernelineq.bridge import _int_pow_linear
from kernelineq.kernels import rows_of
from kernelineq.numerics import ext_mul, ext_pow

from conftest import random_instance

Q_VALUES = (0.5, 1.0, 2.0, 3.0, INF)
KINDS = ("constant", "sup", "row", "tabulated")
SUBNORMAL_V = (5e-324, 1.5e-323, 1e-310)


def _squared(q, v, w):
    """p = inf on two cells with U = [[1e200, 1e200], [1e200]] squared."""
    return Instance(ExponentPair(INF, q), WeightSeq(0, v), WeightSeq(0, w),
                    tabulated_kernel([[1e200, 1e200], [1e200]], 0, 2).power(2.0))


def _instances(q):
    """(instance, whether its kernel overflows) pairs for one q."""
    rng = random.Random(20261018 + Q_VALUES.index(q))
    out = [(random_instance(rng, INF, q, kinds=KINDS, allow_zero_v=k % 2 == 1,
                            max_length=6), False) for k in range(6)]
    inst = random_instance(rng, INF, q, kinds=KINDS, length=5)
    v = list(inst.v.values)
    for j in rng.sample(range(5), 2):
        v[j] = rng.choice(SUBNORMAL_V)
    v[rng.randrange(5)] = 0.0
    out.append((Instance(inst.exponents, WeightSeq(inst.start, tuple(v)), inst.w,
                         inst.kernel), False))
    out += [(_squared(q, (1.0, 1.0), (1.0, 1.0)), True),
            (_squared(q, (0.0, 2.0), (0.0, 1.0)), True),
            (_squared(q, (1e-310, 1.0), (1.0, 0.0)), True)]
    return out


def _vinv(inst):
    return [ext_pow(x, -1.0) for x in inst.v.values]


def _gop_dual_sum(inst):
    """(sum_n w_n (sum_{i <= n} U(i, n) v_i^-1)^q)^(1/q): A_3 and D_4."""
    rows, vinv, w, q = rows_of(inst.kernel.columns), _vinv(inst), inst.w.values, inst.q
    total = 0.0
    for n in range(inst.length):
        x = 0.0
        for i in range(n + 1):
            x += ext_mul(rows[i][n - i], vinv[i])
        total += ext_mul(ext_pow(x, q), w[n])
    return ext_pow(total, 1.0 / q)


def _weak_sup(inst):
    """sup over i <= n of U(i, n) v_i^-1 w_n: A_6 and calA_3."""
    rows, vinv, w = rows_of(inst.kernel.columns), _vinv(inst), inst.w.values
    best = 0.0
    for n in range(inst.length):
        x = 0.0
        for i in range(n + 1):
            x = max(x, ext_mul(rows[i][n - i], vinv[i]))
        best = max(best, ext_mul(w[n], x))
    return best


def _cell_integral(inst):
    """(sum_n w_n integral over cell n of (int_{-inf}^t U f)^q)^(1/q) at
    f = 1/v on unit cells: calA_4."""
    rows, vinv, w, q = rows_of(inst.kernel.columns), _vinv(inst), inst.w.values, inst.q
    total = 0.0
    for n in range(inst.length):
        base = 0.0
        for i in range(n):
            base += ext_mul(rows[i][n - i], vinv[i])
        slope = ext_mul(rows[n][0], vinv[n])
        total += ext_mul(w[n], _int_pow_linear(base, slope, q, 1.0))
    return ext_pow(total, 1.0 / q)


def _closed_forms(q):
    """(name, constant, its loop, the form whose lhs it is) in q's regime."""
    if math.isinf(q):
        return [("A_6", lambda i: condition_A(6, i), _weak_sup, "WEAK"),
                ("calA_3", lambda i: continuous_constant("calA_3", i),
                 _weak_sup, "WEAK")]
    out = [("D_4", lambda i: condition_D(4, i), _gop_dual_sum, "GOP_DUAL"),
           ("calA_4", lambda i: continuous_constant("calA_4", i),
            _cell_integral, None)]
    if q >= 1:
        out.append(("A_3", lambda i: condition_A(3, i), _gop_dual_sum, "GOP_DUAL"))
    return out


@pytest.mark.parametrize("q", Q_VALUES)
def test_closed_forms_equal_their_loops(q):
    values = []
    for inst, _ in _instances(q):
        for name, constant, loop, _ in _closed_forms(q):
            got = constant(inst)
            assert repr(got) == repr(loop(inst)), (name, inst)
            values.append(got)
    assert INF in values and any(0.0 < x < INF for x in values)


@pytest.mark.parametrize("q", Q_VALUES)
def test_constants_are_left_hand_sides_at_inverse_v(q):
    checked = 0
    for inst, _ in _instances(q):
        vinv = _vinv(inst)
        if not all(map(math.isfinite, vinv)):
            continue
        a = TestSequence(inst.start, tuple(vinv))
        for name, constant, _, form in _closed_forms(q):
            if form is None:
                continue
            value = constant(inst)
            assert repr(value) == repr(functional_lhs(form, inst, a)), name
            for strategy in ("vertex", "support_grid", "multistart_ascent"):
                est = best_constant(form, inst, strategy, budget=150).estimate
                assert est <= value * (1.0 + 1e-12), (name, strategy, est, value)
            checked += 1
    assert checked >= 4


def test_kernel_finite_flags_the_overflowing_power_only():
    for q in Q_VALUES:
        for inst, overflows in _instances(q):
            assert inst.kernel.finite is not overflows
