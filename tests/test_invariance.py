"""Invariances that the theory guarantees: translation of the window
(exact, by repr) and homogeneity in v and w of the characterizing
constants and of the exact best constants (for the p = inf constants
also at v scaled by 2^-700 and 2^700), their orders (nonincreasing in v,
nondecreasing in w and in each kernel entry, and not raised by
shrinking the window), and index-reversal duality of the backward forms.

Every A_k, D_k and calA constant is computed wherever its (p, q) regime
applies, and the vertex search of every form wherever it is exact
(`vertex_exact`), on seeded instances with constant, sup, tabulated and
row kernels and zero entries in v.  Heuristic searches are left out: a
lower bound can find less on a larger instance.  Each backward record
(GOP, BT1-BT6) is compared with its forward twin on the reversed
instance, left-hand side and vertex constant, on the same kinds and on
powers of them.
"""

import math
import random

from kernelineq import (INF, Instance, Kernel, RowSequenceKernel,
                        SupSequenceKernel, TabulatedKernel, TestSequence, WeightSeq,
                        best_constant, functional_lhs, reverse_instance,
                        tabulated_kernel, vertex_exact)
from kernelineq.kernels import SEQUENCE_KERNELS
from kernelineq.oracle import FORM_TABLE

from conftest import CONSTANTS, applicable_constants, close, random_instance

EXPONENTS = (0.5, 1.0, 1.5, 2.0, 3.0, INF)
KINDS = ("constant", "sup", "tabulated", "row")
# The exact vertex search of each form (`exact_constants`), by name.
SEARCHED = {f"vertex {form}" for form in FORM_TABLE}

# C(lam v) = lam^(-1/p) C(v) (lam^-1 at p = inf).  Left out: D_5 and D_6
# (S_V) and calA_12 and calA_13, which do not scale so in v; see the
# FOUND line on them in CHANGES.md.
V_HOMOGENEOUS = ({name for name, _, _ in CONSTANTS} - {"D_5", "D_6", "calA_12", "calA_13"}
                 | SEARCHED)
# C(mu w) = mu^(1/q) C(w) (mu at q = inf).  Left out: D_2, which scales
# as mu^(1/p), and D_3, which takes w^0 = 1; see the FOUND lines on
# D_2 and on D_3 in CHANGES.md.
W_HOMOGENEOUS = {name for name, _, _ in CONSTANTS} - {"D_2", "D_3"} | SEARCHED
# A best constant is nonincreasing in v and nondecreasing in w, and a
# sub-window is the same inequality with w = 0 and a = 0 outside it.
# Left out: D_5 and D_6 (S_V), which doubling one v entry or dropping an
# end index raises, by the sigma_p^(-r) that also breaks their v scaling;
# see ROADMAP items 13 and 21.
ORDERED = {name for name, _, _ in CONSTANTS} - {"D_5", "D_6"} | SEARCHED


def exact_constants(inst):
    """`applicable_constants`, and the vertex search's estimate of every
    form where it is the best constant (`vertex_exact`) and defined: an
    SB form needs a sequence kernel, and a sigma form 1 <= p < inf."""
    out = applicable_constants(inst)
    sequence = isinstance(inst.kernel.spec, tuple(SEQUENCE_KERNELS.values()))
    for form, f in FORM_TABLE.items():
        if (vertex_exact(form, inst.exponents) and (f.kernel == "U" or sequence)
                and (not f.sigma or 1 <= inst.p < INF)):
            out[f"vertex {form}"] = best_constant(form, inst, "vertex").estimate
    return out


def instances(seed, per_pair=8):
    rng = random.Random(seed)
    for p in EXPONENTS:
        for q in EXPONENTS:
            for _ in range(per_pair):
                yield random_instance(rng, p, q, kinds=KINDS, allow_zero_v=True)


def translated(inst, shift):
    start = inst.start + shift
    spec = inst.kernel.spec
    if isinstance(spec, TabulatedKernel):
        spec = TabulatedKernel(start, spec.entries)
    elif isinstance(spec, (SupSequenceKernel, RowSequenceKernel)):
        spec = type(spec)(WeightSeq(start, spec.u.values))
    return Instance(inst.exponents, WeightSeq(start, inst.v.values),
                    WeightSeq(start, inst.w.values), Kernel(spec, start, inst.length))


def cut(inst, drop_first):
    """The instance on its window without the first (or the last) index."""
    start, keep = inst.start + drop_first, slice(1, None) if drop_first else slice(-1)
    spec = inst.kernel.spec
    if isinstance(spec, TabulatedKernel):
        rows = spec.entries[keep]
        spec = TabulatedKernel(start, rows if drop_first else tuple(r[:-1] for r in rows))
    elif isinstance(spec, (SupSequenceKernel, RowSequenceKernel)):
        spec = type(spec)(WeightSeq(start, spec.u.values[keep]))
    return Instance(inst.exponents, WeightSeq(start, inst.v.values[keep]),
                    WeightSeq(start, inst.w.values[keep]),
                    Kernel(spec, start, inst.length - 1))


def doubled(seq, j):
    vals = list(seq.values)
    vals[j] *= 2.0
    return WeightSeq(seq.start, tuple(vals))


def assert_not_above(low, high, what):
    """Every ordered constant of `low` is at most its value in `high`, to
    1e-12 relative; returns the count compared."""
    for name in ORDERED & low.keys():
        x, y = low[name], high[name]
        assert x <= y or close(x, y, 1e-12), (what, name, x, y)
    return len(ORDERED & low.keys())


def order_instances():
    """The seeded instances of seeds 31-33, each with a window offset j."""
    rng = random.Random(31)
    for seed in (31, 32, 33):
        for inst in instances(seed):
            yield rng.randrange(inst.length), inst


def test_order_in_v():
    checked = 0
    for j, inst in order_instances():
        more = Instance(inst.exponents, doubled(inst.v, j), inst.w, inst.kernel)
        checked += assert_not_above(exact_constants(more),
                                    exact_constants(inst), ("v", j, inst))
    assert checked > 10000


def test_order_in_w():
    checked = 0
    for j, inst in order_instances():
        more = Instance(inst.exponents, inst.v, doubled(inst.w, j), inst.kernel)
        checked += assert_not_above(exact_constants(inst),
                                    exact_constants(more), ("w", j, inst))
    assert checked > 10000


def test_order_in_the_window():
    checked = 0
    for _, inst in order_instances():
        if inst.length == 1:
            continue
        whole = exact_constants(inst)
        for drop_first in (True, False):
            checked += assert_not_above(exact_constants(cut(inst, drop_first)),
                                        whole, ("cut", drop_first, inst))
    assert checked > 16000


def test_order_in_the_kernel():
    # Every constant, D_5 and D_6 included: doubling one entry U(m, n) of a
    # tabulated copy of the kernel (m <= n) lowers none.
    rng, checked = random.Random(21), 0
    for n, inst in order_instances():
        cols = inst.kernel.columns
        rows = [[cols[k][m] for k in range(m, inst.length)] for m in range(inst.length)]
        m = rng.randrange(n + 1)
        low = Instance(inst.exponents, inst.v, inst.w, tabulated_kernel(rows, inst.start,
                                                                          inst.length))
        rows[m][n - m] *= 2.0
        high = Instance(inst.exponents, inst.v, inst.w, tabulated_kernel(rows, inst.start,
                                                                           inst.length))
        less, more = exact_constants(low), exact_constants(high)
        for name, x in less.items():
            assert x <= more[name] or close(x, more[name], 1e-12), (m, n, name, inst)
        checked += len(less)
    assert checked > 9000


def assert_scaled(got, base, factor, what):
    for name, val in base.items():
        want = factor * val
        if math.isinf(want):
            assert math.isinf(got[name]), (what, name)
        else:
            assert close(got[name], want, 1e-12), (what, name, got[name], want)


def test_translation_invariance():
    checked = 0
    for inst in instances(21):
        base = {name: repr(val) for name, val in exact_constants(inst).items()}
        for shift in (-7, 5):
            moved = {name: repr(val) for name, val in exact_constants(translated(inst, shift)).items()}
            assert moved == base, (inst, shift)
        checked += len(base)
    assert checked > 3500


def test_v_homogeneity():
    checked = 0
    for inst in instances(22):
        base = {name: val for name, val in exact_constants(inst).items() if name in V_HOMOGENEOUS}
        for lam in (0.3, 3.7):
            scaled = Instance(inst.exponents, inst.v.scaled(lam), inst.w, inst.kernel)
            factor = lam ** (-1.0 / inst.p) if math.isfinite(inst.p) else 1.0 / lam
            assert_scaled(exact_constants(scaled), base, factor, ("v", lam, inst))
        checked += len(base)
    assert checked > 3000


# The p = inf constants are left-hand sides at 1/v, evaluated at 1/v or
# at 1/v scaled by a power of two.  Scaling v by 2^-700 or 2^700 pushes
# no power out of the float range there; the two scales may take the
# value at different points, whose non-integer powers round apart.
PINF_CONSTANTS = ("A_3", "D_4", "A_6", "calA_3", "calA_4")


def test_pinf_v_homogeneity_at_extreme_scales():
    rng = random.Random(25)
    checked = 0
    for q in EXPONENTS:
        for _ in range(16):
            inst = random_instance(rng, INF, q, kinds=KINDS, allow_zero_v=True)
            base = {name: val for name, val in applicable_constants(inst).items()
                    if name in PINF_CONSTANTS}
            for k in (-700, 700):
                scaled = Instance(inst.exponents, inst.v.scaled(2.0 ** k), inst.w,
                                  inst.kernel)
                got = applicable_constants(scaled)
                for name, val in base.items():
                    want = math.ldexp(val, -k)
                    assert got[name] == want or abs(got[name] - want) <= 4 * math.ulp(want), (
                        name, k, inst)
                    checked += 1
    assert checked > 200


def test_w_homogeneity():
    checked = 0
    for inst in instances(23):
        base = {name: val for name, val in exact_constants(inst).items() if name in W_HOMOGENEOUS}
        for mu in (0.3, 3.7):
            scaled = Instance(inst.exponents, inst.v, inst.w.scaled(mu), inst.kernel)
            factor = mu ** (1.0 / inst.q) if math.isfinite(inst.q) else mu
            assert_scaled(exact_constants(scaled), base, factor, ("w", mu, inst))
        checked += len(base)
    assert checked > 3500


# Index-reversal duality: a backward record on I is its forward twin on
# reverse_instance(I), the test sequence reversed with it.
DUAL_PAIRS = (("GOP", "GOP_DUAL"), ("BT1", "WEAK"), ("BT2", "B2"),
              ("BT3", "SUP_ITER"), ("BT5", "B5"), ("BT6", "STRONG"))
DUAL_EXPONENTS = (0.5, 1.0, 2.0, 3.0, INF)
DUAL_KINDS = ("constant", "sup", "row", "tabulated", "power")


def dual_instances(seed):
    rng = random.Random(seed)
    for p in DUAL_EXPONENTS:
        for q in DUAL_EXPONENTS:
            for kind in DUAL_KINDS:
                base = rng.choice(KINDS) if kind == "power" else kind
                inst = random_instance(rng, p, q, kinds=(base,), allow_zero_v=True)
                if kind == "power":
                    inst = Instance(inst.exponents, inst.v, inst.w,
                                    inst.kernel.power(rng.choice((0.5, 2.0, 3.0))))
                yield rng, inst


def same_value(x, y):
    """Equal to 1e-12 relative; 0 and inf only exactly."""
    if x == 0.0 or y == 0.0 or math.isinf(x) or math.isinf(y):
        return x == y
    return abs(x - y) <= 1e-12 * max(abs(x), abs(y))


def test_backward_records_are_their_reversed_twins():
    checked = 0
    for rng, inst in dual_instances(24):
        rev = reverse_instance(inst)
        seqs = [[rng.choice((0.0, 0.5, 1.0, 3.0)) for _ in range(inst.length)]
                for _ in range(3)]
        for back, twin in DUAL_PAIRS:
            for vals in seqs:
                x = functional_lhs(back, inst, TestSequence(inst.start, tuple(vals)))
                y = functional_lhs(twin, rev, TestSequence(rev.start, tuple(vals[::-1])))
                assert same_value(x, y), (back, twin, inst, vals, x, y)
                checked += 1
            x = best_constant(back, inst, "vertex").estimate
            y = best_constant(twin, rev, "vertex").estimate
            assert same_value(x, y), (back, twin, inst, x, y)
    assert checked > 2000
