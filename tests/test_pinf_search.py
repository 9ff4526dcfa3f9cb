"""At p = inf every search considers the point where its ratio peaks.

The right-hand side is sup a_n v_n and every form is nondecreasing in
a, so the best constant is the left-hand side at a = 1/v (with
0 * inf = 0), and a zero v_j whose lines reach a positive w makes it
inf.  `_form_ratios` carries that point as `top`, scaled by a power of
two, and `_Search.vertices` considers it after the vertex pass where
the budget has room.  Checked for every form without sigma and every
strategy on seeded instances with zero, subnormal and 1e+-300 v
entries.
"""

import math
import random
import sys

import pytest

from kernelineq import (INF, ExponentPair, Instance, TestSequence, WeightSeq,
                        best_constant, condition_A, constant_kernel,
                        functional_lhs)
from kernelineq.oracle import FORM_TABLE, STRATEGIES, _form_ratios

from conftest import close, random_instance

FORMS = tuple(name for name, f in FORM_TABLE.items() if not f.sigma)
V_EXTREMES = (0.0, 5e-324, 1e-310, 1e-300, 1e300)
BUDGET = 40


def _instances(form, q, count=6, seed=20):
    """Seeded p = inf instances on the kernels the form accepts, with
    zero, subnormal and 1e+-300 entries in v."""
    rng = random.Random(seed + FORMS.index(form))
    kinds = (("row", "sup") if FORM_TABLE[form].kernel != "U"
             else ("constant", "sup", "row", "tabulated"))
    for _ in range(count):
        inst = random_instance(rng, INF, q, kinds=kinds, max_length=6)
        v = [rng.choice(V_EXTREMES) if rng.random() < 0.4 else x
             for x in inst.v.values]
        yield Instance(inst.exponents, WeightSeq(inst.start, tuple(v)), inst.w,
                       inst.kernel)


def _infinite(form, inst):
    """Whether some vertex e_j has a positive left-hand side against a
    zero v_j, or against a subnormal one that takes the ratio past the
    largest float."""
    L = inst.length
    for j, vj in enumerate(inst.v.values):
        e_j = TestSequence(inst.start, tuple(float(i == j) for i in range(L)))
        lhs = functional_lhs(form, inst, e_j)
        if lhs > 0.0 and (vj == 0.0 or lhs / vj == INF):
            return True
    return False


@pytest.mark.parametrize("q", [0.5, 1.0, 2.0, INF])
@pytest.mark.parametrize("form", FORMS)
def test_every_strategy_reaches_the_top(form, q):
    for inst in _instances(form, q):
        fns = _form_ratios(form, inst)
        at_top = fns.ratio(fns.top)
        infinite = _infinite(form, inst)
        for strategy in STRATEGIES:
            res = best_constant(form, inst, strategy, BUDGET, seed=4)
            assert res.evaluations <= BUDGET
            assert (res.estimate == INF) is infinite, (strategy, res.estimate)
            if at_top is not None:
                assert res.estimate >= at_top


@pytest.mark.parametrize("q", [0.5, 1.0, 2.0, INF])
@pytest.mark.parametrize("form", ["GOP_DUAL", "WEAK", "SUP_ITER"])
def test_the_point_is_skipped_at_budget_l(form, q):
    for inst in _instances(form, q):
        res = best_constant(form, inst, "vertex", inst.length)
        assert res.evaluations == inst.length
        assert res.witness.values.count(0.0) >= inst.length - 1


@pytest.mark.parametrize("q", [1.0, 2.0, 3.0, INF])
def test_closed_forms_within_a_few_ulps(q):
    # A_3 (GOP_DUAL, 1 <= q < inf) and A_6 (WEAK, q = inf) are the
    # left-hand side at 1/v, taken at 1/v itself or at the scaled point.
    form, k = ("WEAK", 6) if math.isinf(q) else ("GOP_DUAL", 3)
    compared = 0
    for inst in _instances(form, q, count=40):
        value = condition_A(k, inst)
        if not 0.0 < value < INF:
            continue
        for strategy in STRATEGIES:
            est = best_constant(form, inst, strategy, BUDGET, seed=4).estimate
            assert math.isclose(est, value, rel_tol=4 * sys.float_info.epsilon), (
                strategy, est, value)
        compared += 1
    assert compared >= 10


def test_the_ascent_starts_in_range():
    # 1/v = (1e308, 1, 0.5): scaled by 2^-1023, the top keeps the ascent's
    # moves (factors 4 and 1/4) finite; unscaled, the first move is inf.
    w = WeightSeq(0, (1.0, 1.0, 1.0))
    inst = Instance(ExponentPair(INF, 2.0), WeightSeq(0, (1e-308, 1.0, 2.0)), w,
                    constant_kernel(1.0, 0, 3))
    res = best_constant("GOP_DUAL", inst, "multistart_ascent", 200, seed=0)
    assert close(res.estimate, math.sqrt(3.0) * 1e308, 1e-12)
    assert all(map(math.isfinite, res.witness.values))
