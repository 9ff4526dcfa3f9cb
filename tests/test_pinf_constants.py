"""The p = inf constants are left-hand sides at a = 1/v.

A_3 and D_4 are GOP_DUAL's left-hand side at a = 1/v, A_6 and calA_3
are WEAK's, and calA_4 is the continuous GOP_DUAL left-hand side on unit
pieces at f = 1/v.  Where 1/v has an entry of 1 or more each is taken
at 1/v itself; else at 1/v times 2^-e, where e puts the largest finite
entry in [0.5, 1), scaled back by 2^e; and at the other point where that
one reads 0 or inf.  Each is compared by `repr` with its closed form,
written out here as an ext_mul/ext_pow loop in the order the closed form
adds and run at those points, on seeded p = inf instances with zero and
subnormal v entries and a squared 1e200 kernel (whose entries overflow
to inf).  Seeded instances with v entries from 0 to 1e300, some also
with zero and subnormal w entries and zero kernel lines, are compared
with mpmath.
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


def _at_inverse_v(inst, lhs):
    """lhs at a = 1/v as the constants take it (see the module docstring)."""
    vinv = _vinv(inst)
    e = math.frexp(max([x for x in vinv if x < INF], default=0.0))[1]
    points = [(vinv, 0), ([math.ldexp(x, -e) for x in vinv], e)]
    if e <= 0:
        points.reverse()
    first, second = (_scaled_back(lhs(a), k) for a, k in points)
    return first if 0.0 < first < INF or second == 0.0 else second


def _scaled_back(value, e):
    try:
        return math.ldexp(value, e)
    except OverflowError:
        return INF


def _gop_dual_sum(inst, a):
    """(sum_n w_n (sum_{i <= n} U(i, n) a_i)^q)^(1/q): A_3 and D_4."""
    rows, w, q = rows_of(inst.kernel.columns), inst.w.values, inst.q
    total = 0.0
    for n in range(inst.length):
        x = 0.0
        for i in range(n + 1):
            x += ext_mul(rows[i][n - i], a[i])
        total += ext_mul(ext_pow(x, q), w[n])
    return ext_pow(total, 1.0 / q)


def _weak_sup(inst, a):
    """sup over i <= n of U(i, n) a_i w_n: A_6 and calA_3."""
    rows, w = rows_of(inst.kernel.columns), inst.w.values
    best = 0.0
    for n in range(inst.length):
        x = 0.0
        for i in range(n + 1):
            x = max(x, ext_mul(rows[i][n - i], a[i]))
        best = max(best, ext_mul(w[n], x))
    return best


def _cell_integral(inst, f):
    """(sum_n w_n integral over cell n of (int_{-inf}^t U f)^q)^(1/q) with
    f_n on unit cell n: calA_4."""
    rows, w, q = rows_of(inst.kernel.columns), inst.w.values, inst.q
    total = 0.0
    for n in range(inst.length):
        base = 0.0
        for i in range(n):
            base += ext_mul(rows[i][n - i], f[i])
        slope = ext_mul(rows[n][0], f[n])
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
            want = _at_inverse_v(inst, lambda a: loop(inst, a))
            assert repr(got) == repr(want), (name, inst)
            values.append(got)
    assert INF in values and any(0.0 < x < INF for x in values)


@pytest.mark.parametrize("q", Q_VALUES)
def test_constants_are_left_hand_sides_at_inverse_v(q):
    checked = 0
    for inst, _ in _instances(q):
        if not all(map(math.isfinite, _vinv(inst))):
            continue
        for name, constant, _, form in _closed_forms(q):
            if form is None:
                continue
            value = constant(inst)
            want = _at_inverse_v(inst, lambda a: functional_lhs(
                form, inst, TestSequence(inst.start, tuple(a))))
            assert repr(value) == repr(want), name
            for strategy in ("vertex", "support_grid", "multistart_ascent"):
                est = best_constant(form, inst, strategy, budget=150).estimate
                assert est <= value * (1.0 + 1e-12), (name, strategy, est, value)
            checked += 1
    assert checked >= 4


def test_kernel_finite_flags_the_overflowing_power_only():
    for q in Q_VALUES:
        for inst, overflows in _instances(q):
            assert inst.kernel.finite is not overflows


def test_constants_at_tiny_v_do_not_overflow():
    # 1/v = (1e200, 1, 0.5): at the unscaled 1/v the squared inner term
    # overflows, where A_3 = D_4 = sqrt(3) 1e200.
    inst = Instance(ExponentPair(INF, 2.0), WeightSeq(0, (1e-200, 1.0, 2.0)),
                    WeightSeq(0, (1.0, 1.0, 1.0)), tabulated_kernel(
                        [[1.0, 1.0, 1.0], [1.0, 1.0], [1.0]], 0, 3))
    assert condition_A(3, inst) == condition_D(4, inst) == 1.7320508075688773e+200
    assert 0.0 < continuous_constant("calA_4", inst) < INF


def test_constants_keep_small_entries_that_carry_the_weight():
    # Only cell 0 carries weight, and it sees only 1/v_0 = 1e-300, which
    # 1/v times 2^-e would push below the normal floats (to 0 at 1e-200).
    for tiny_v in (1e-200, 1e-20):
        inst = Instance(ExponentPair(INF, 1.0), WeightSeq(0, (1e300, tiny_v)),
                        WeightSeq(0, (1.0, 0.0)), tabulated_kernel(
                            [[1.0, 1.0], [1.0]], 0, 2))
        assert condition_A(3, inst) == condition_D(4, inst) == 1e-300
        assert best_constant("GOP_DUAL", inst, "vertex").estimate == 1e-300


EDGE_V = (0.0, 5e-324, 1e-310, 1e-300, 1e-200, 1e200, 1e300)


EDGE_W = (0.0, 5e-324)


def _edge_instances(q, count=40, degenerate=False):
    """Seeded p = inf instances, about half of whose v entries are drawn
    from EDGE_V; where degenerate, about a third of the w entries are
    drawn from EDGE_W and each kernel row (where a_i enters) and column
    (what cell n sees) is zero with chance 1/4."""
    rng = random.Random(20261019 + Q_VALUES.index(q) + 10 * degenerate)
    for _ in range(count):
        inst = random_instance(rng, INF, q, kinds=KINDS, max_length=7)
        v = tuple(rng.choice(EDGE_V) if rng.random() < 0.5 else x
                  for x in inst.v.values)
        w, kernel = inst.w, inst.kernel
        if degenerate:
            w = WeightSeq(inst.start, tuple(rng.choice(EDGE_W) if rng.random() < 0.3
                                            else x for x in w.values))
            rows = rows_of(inst.kernel.columns)
            for j in range(inst.length):
                if rng.random() < 0.25:
                    rows[j] = [0.0] * len(rows[j])
                if rng.random() < 0.25:
                    for i in range(j + 1):
                        rows[i][j - i] = 0.0
            kernel = tabulated_kernel(rows, inst.start, inst.length)
        yield Instance(inst.exponents, WeightSeq(inst.start, v), w, kernel)


def _mp_cells(inst, mp):
    """Per cell n: w_n, the sum over i < n of U(i, n)/v_i and U(n, n)/v_n,
    at mp's precision (inf where a zero v_i meets a positive U(i, n))."""
    rows, v = rows_of(inst.kernel.columns), inst.v.values

    def term(i, n):
        u = rows[i][n - i]
        if v[i] == 0.0:
            return mp.inf if u > 0.0 else mp.zero
        return mp.mpf(u) / mp.mpf(v[i])
    return [(inst.w.values[n], mp.fsum(term(i, n) for i in range(n)), term(n, n))
            for n in range(inst.length)]


def _mp_gop_dual(inst, mp):
    """A_3 and D_4: (sum_n w_n (sum_{i <= n} U(i, n)/v_i)^q)^(1/q)."""
    q = mp.mpf(inst.q)
    total = mp.fsum((base + own) ** q * wn
                    for wn, base, own in _mp_cells(inst, mp) if wn != 0.0)
    return float(total ** (1 / q))


def _mp_cell(base, slope, q, mp):
    """Integral over s in [0, 1] of (base + slope s)^q, without cancellation."""
    if mp.isinf(base) or mp.isinf(slope):
        return mp.inf
    if slope == 0:
        return base ** q
    if base == 0:
        return slope ** q / (q + 1)
    t = slope / base
    return base ** q * mp.expm1((q + 1) * mp.log1p(t)) / ((q + 1) * t)


def _mp_cala4(inst, mp):
    """calA_4: (sum_n w_n integral over cell n of (int_{-inf}^t U/v)^q)^(1/q)."""
    q = mp.mpf(inst.q)
    total = mp.fsum(_mp_cell(base, own, q, mp) * wn
                    for wn, base, own in _mp_cells(inst, mp) if wn != 0.0)
    return float(total ** (1 / q))


def _rel_err(x, ref):
    if x == ref:
        return 0.0
    if ref in (0.0, INF) or math.isinf(x):
        return INF
    return abs(x - ref) / ref


@pytest.mark.parametrize("q", [q for q in Q_VALUES if math.isfinite(q)])
def test_constants_at_edge_v_against_mpmath(q):
    mpmath = pytest.importorskip("mpmath")
    mp = mpmath.mp.clone()
    finite_refs = 0
    for inst in _edge_instances(q):
        mp.dps = 50
        ref = _mp_gop_dual(inst, mp)
        for name, constant, _, form in _closed_forms(q):
            if form is not None:
                got = constant(inst)
                assert got == ref or abs(got - ref) <= 4 * math.ulp(ref), (name, inst, got, ref)
        finite_refs += 0.0 < ref < INF
        mp.dps = 40
        ref = _mp_cala4(inst, mp)
        got = continuous_constant("calA_4", inst)
        unscaled = _cell_integral(inst, _vinv(inst))
        assert _rel_err(got, ref) <= _rel_err(unscaled, ref) + 1e-14, (inst, got, unscaled, ref)
    assert finite_refs >= 10


def _degenerate_checks(inst, mp):
    """(name, mpmath reference, constant, its loop) for D_4, A_3 and calA_4."""
    mp.dps = 50
    ref = _mp_gop_dual(inst, mp)
    out = [(name, ref, constant, loop) for name, constant, loop, form
           in _closed_forms(inst.q) if form is not None]
    mp.dps = 40
    return out + [("calA_4", _mp_cala4(inst, mp),
                   lambda i: continuous_constant("calA_4", i), _cell_integral)]


@pytest.mark.parametrize("q", [q for q in Q_VALUES if math.isfinite(q)])
def test_constants_at_degenerate_weights_against_mpmath(q):
    # Where a subnormal weight or a power below the float range leaves no
    # point exact, each constant is no further from the reference than
    # the unscaled evaluation, and within 4 ulps of it where that is.
    mpmath = pytest.importorskip("mpmath")
    mp = mpmath.mp.clone()
    within = 0
    for inst in _edge_instances(q, count=60, degenerate=True):
        for name, ref, constant, loop in _degenerate_checks(inst, mp):
            got, unscaled = constant(inst), loop(inst, _vinv(inst))
            assert _rel_err(got, ref) <= _rel_err(unscaled, ref) + 1e-14, (name, inst, got, ref)
            within += got == ref or abs(got - ref) <= 4 * math.ulp(ref)
    assert within >= 100
