"""The bridge's one cell sweep and one dyadic block walk against the two
builders and two walks they replaced.

`bridge._sweep` evaluates both continuous left-hand sides, the iterated
integral (GOP_DUAL, lemma L2, calA_4) and the supremum (SUP_ITER, lemmas
L1 and L3), on the half pieces of the continuous ratio and on the unit
pieces of `bridge._cell_lhs`, and `bridge._block` walks a dyadic block
for either.  The separate builders, which add the per-piece closed forms
`bridge._int_pow_linear` and `bridge._int_pow_max`, and the walks they
replaced are copied below as the reference.  Every float must be formed
by the same operations in the same order, so the continuous ratio (full,
and each move resumed from its cell), calA_4, its left-hand side on unit
pieces and the decompositions L1-L3 must equal the reference's by
`repr`, on step data with zero, subnormal, 1e300 and overflowing entries,
on a squared kernel whose 1e300 entries overflow to inf, and on moderate
data with vertex points, zero pieces and one piece whose cell's power
overflows, on half and on unit pieces.
"""

import itertools
import math

from hypothesis import given, settings, strategies as st
import pytest

from kernelineq import ExponentPair, Instance, WeightSeq, tabulated_kernel
from kernelineq import bridge
from kernelineq.bridge import (LemmaDecomposition, StepFunction, _ContRatio,
                               continuous_constant, lemma_decompose)
from kernelineq.discretize import decomposition_ratio
from kernelineq.numerics import INF, ext_mul, ext_pow, finite, mul_for, quotient, sup0
from kernelineq.oracle import _at_top


# ---------------------------------------------------------------------------
# The reference: the two builders and two block walks as they were before
# the merge, and the decomposition built from them.

def _masses(g, h):
    """The cell masses of the step function with values g on pieces of
    length h: g itself on unit pieces, the bridge's on half pieces."""
    return g if h == 1.0 else bridge._masses(g)


def _integral_lhs(w, cols, h, e, outer):
    cols_finite = finite(*cols)
    cells = bridge._cells(w, cols)
    firsts = bridge._firsts(cells, len(cols))
    k = round(1.0 / h)

    def lhs(g, masses=None, c=0, totals=(), keep=None):
        if masses is None:
            masses = _masses(g, h)
        mul = mul_for(masses, rest_finite=cols_finite)
        t = firsts[c]
        total = totals[t] if totals else 0.0
        if keep is not None:
            keep += totals[:t]
        for n, wn, head, un in cells[t:]:
            if keep is not None:
                keep.append(total)
            base = sum(map(mul, head, masses))
            acc = 0.0
            for val in g[k * n:k * n + k]:
                slope = mul(un, val)
                acc += bridge._int_pow_linear(base, slope, e, h)
                base += slope * h
            total += wn * acc
            if total == INF:
                return INF
        if keep is not None:
            keep.append(total)
        return ext_pow(total, outer)
    return lhs


def _sup_lhs(w, cols, h, e, outer):
    cols_finite = finite(*cols)
    cells = bridge._cells(w, cols)
    firsts = bridge._firsts(cells, len(cols))
    k = round(1.0 / h)

    def lhs(g, masses=None, c=0, totals=(), keep=None):
        cum = list(itertools.accumulate(_masses(g, h) if masses is None else masses,
                                        initial=0.0))
        mul = mul_for(cum, rest_finite=cols_finite)
        edges = cum[1:]
        t = firsts[c]
        total = totals[t] if totals else 0.0
        if keep is not None:
            keep += totals[:t]
        for n, wn, head, un in cells[t:]:
            if keep is not None:
                keep.append(total)
            peak = sup0(map(mul, head, edges))
            F = cum[n]
            acc = 0.0
            for val in g[k * n:k * n + k]:
                acc += bridge._int_pow_max(peak, mul(un, F), mul(un, val), e, h)
                F += val * h
            total += wn * acc
            if total == INF:
                return INF
        if keep is not None:
            keep.append(total)
        return ext_pow(total, outer)
    return lhs


def _block_sup(inst, f, a, b, r):
    best = 0.0
    acc = 0.0
    for right, mass in f.pieces(a, b):
        acc += mass
        best = max(best, ext_mul(bridge._u_at(inst, right, b, r), acc))
    return best


def _block_int(inst, f, a, b, r):
    total = 0.0
    for right, mass in f.pieces(a, b):
        total += ext_mul(bridge._u_at(inst, right, b, r), mass)
    return total


def _lemma(which, inst, f):
    p, q = inst.p, inst.q
    cover = bridge.dyadic_covering(StepFunction(inst.start, inst.w.values))
    if which == "L1":
        r, e, outer, build = 1.0, q, 1.0 / q, _sup_lhs
    elif which == "L2":
        r, e, outer, build = p, q / p, p / q, _integral_lhs
    else:
        r, e, outer, build = p, q / p, p / q, _sup_lhs
    lhs = build(inst.w.values, inst.kernel.powered(r)[0], 1.0, e, outer)(f.values)
    block = 0.0
    cross = 0.0
    for k in range(cover.N, cover.top + 1):
        xk = cover.index(k)
        xprev = cover.index(k - 1)
        mass = 2.0 ** (-k)
        if which == "L2":
            inner = _block_int(inst, f, xprev, xk, p)
        else:
            inner = _block_sup(inst, f, xprev, xk, r)
        block += mass * ext_pow(inner, e)
        if not math.isinf(xprev):
            cross += mass * ext_mul(bridge._u_at(inst, xprev, xk, q),
                                    ext_pow(f.cum(xprev), e))
    block = ext_pow(block, outer)
    cross = ext_pow(cross, outer)
    return LemmaDecomposition(which=which, lhs=lhs, block_part=block, cross_part=cross,
                              ratio=decomposition_ratio(lhs, block + cross))


# ---------------------------------------------------------------------------
# Step data: mostly moderate entries, with zeros, the least subnormal, 1e300
# and entries whose sums or powers overflow.

EXTREMES = (0.0, 5e-324, 1e300, 1e308, 1.7e308)
MODERATE = st.floats(1e-3, 1e3)
ENTRY = st.one_of(st.sampled_from(EXTREMES), *[MODERATE] * 5)


@st.composite
def cases(draw):
    """An instance on window 0..n-1 at finite q, its kernel squared in half
    the cases (1e300 and above overflow to inf), half-unit piece values g,
    the values each piece moves to and unit piece values f.  Half the
    cases draw moderate entries only, so that their points keep a state
    to move from; of those, some make g and f vertices (one positive
    piece), put zeros among g, the moves and f (moves into and after zero
    pieces), or move one piece, and set one piece of f, to a value whose
    cell's power (base + s h)^(q+1) overflows among plain cells."""
    n = draw(st.integers(1, 5))
    extreme = draw(st.booleans())
    entry = ENTRY if extreme else MODERATE
    ent = lambda k: draw(st.lists(entry, min_size=k, max_size=k))
    p = draw(st.sampled_from((1.0, 1.5, 2.0, 3.0)))
    q = draw(st.sampled_from((0.5, 1.0, 2.0, 3.0)))
    kernel = tabulated_kernel([ent(n - i) for i in range(n)], 0, n)
    if draw(st.booleans()):
        kernel = kernel.power(2.0)
    inst = Instance(ExponentPair(p, q), WeightSeq(0, tuple(ent(n))),
                    WeightSeq(0, tuple(ent(n))), kernel)
    g, moved, f = ent(2 * n), ent(2 * n), ent(n)
    shape = "drawn" if extreme else draw(
        st.sampled_from(("drawn", "vertex", "zeros", "overflow")))
    if shape == "vertex":
        g, f = [0.0] * (2 * n), [0.0] * n
        g[draw(st.integers(0, 2 * n - 1))] = draw(MODERATE)
        f[draw(st.integers(0, n - 1))] = draw(MODERATE)
    elif shape == "zeros":
        zero_or = st.one_of(st.just(0.0), MODERATE)
        g, moved, f = (draw(st.lists(zero_or, min_size=k, max_size=k))
                       for k in (2 * n, 2 * n, n))
    elif shape == "overflow":
        # Times 4e6 > 1 / (h min U): the piece's slope times h alone overflows.
        big = 2.0 ** (1024.0 / (q + 1.0)) * 4e6
        moved[draw(st.integers(0, 2 * n - 1))] = big
        f[draw(st.integers(0, n - 1))] = big
    return inst, g, moved, f


def _outcome(fn, *args):
    """repr of fn(*args), or the type and message of what it raises."""
    try:
        return repr(fn(*args))
    except (ValueError, OverflowError) as err:
        return type(err).__name__, str(err)


@pytest.mark.parametrize("form", ["GOP_DUAL", "SUP_ITER"])
@settings(max_examples=150, deadline=None)
@given(case=cases())
def test_continuous_ratio_is_the_two_builders(form, case):
    inst, g, moved, _ = case
    q = inst.q
    ratio = _ContRatio(form, inst)
    ref = (_sup_lhs if form == "SUP_ITER" else _integral_lhs)(
        inst.w.values, inst.kernel.powered(1.0)[0], 0.5, q, 1.0 / q)

    def expect(y, keep=None):
        return quotient(ref(y, None, 0, (), keep), ratio.rhs(y))
    # Some extreme points raise (a NaN from inf - inf); the two must raise alike.
    totals = []
    at_g = _outcome(ratio, g)
    assert at_g == _outcome(expect, g, totals)

    # The ratio's sweep resumed from every cell c, for a point that differs
    # from g on cells c and above, from g's running totals (all of them
    # only where g's sweep ran to its end).  The reference keeps no total
    # after one that reaches inf; the sweep ends its list with that inf.
    ended = len(totals) == 1 + sum(x != 0.0 for x in inst.w.values)
    for c in range(inst.length + 1 if ended else 0):
        y = g[:2 * c] + moved[2 * c:]
        ref_kept = []
        kept = ratio._sweep(y, bridge._masses(y), c, totals)
        assert _outcome(ext_pow, kept[-1], 1.0 / q) == _outcome(ref, y, None, c, totals,
                                                              ref_kept)
        assert repr(kept) == repr(ref_kept + [INF] if kept[-1] == INF else ref_kept)

    # Each one-piece move through the ratio's own move evaluator, from g's
    # state, whose running totals are the reference's.
    if isinstance(at_g, tuple):
        return
    at_state, state = ratio.state(g)
    assert repr(at_state) == at_g
    if state is None:
        return
    assert repr(state[1]) == repr(totals)
    for j, val in enumerate(moved):
        y = list(g)
        y[j] = val
        kept, ref_kept = [], []

        def move():
            r, st = ratio.move(state, j, y)
            kept.append(st)
            return r
        assert _outcome(move) == _outcome(expect, y, ref_kept), (j, val)
        if kept and kept[0] is not None:
            assert repr(kept[0][1]) == repr(ref_kept)


@settings(max_examples=150, deadline=None)
@given(case=cases())
def test_cala4_is_the_integral_builder(case):
    """calA_4, and its left-hand side on unit pieces at f."""
    inst, _, _, f = case
    q = inst.q
    inst = Instance(ExponentPair(INF, q), inst.v, inst.w, inst.kernel)
    view = inst.kernel.powered(1.0)
    ref = _integral_lhs(inst.w.values, view[0], 1.0, q, 1.0 / q)
    assert (_outcome(continuous_constant, "calA_4", inst)
            == _outcome(_at_top, ref, inst.v.values))
    lhs = bridge._cell_lhs(inst.w.values, view, q, 1.0 / q, False)
    assert _outcome(lhs, f) == _outcome(ref, f)


@pytest.mark.parametrize("which", ["L1", "L2", "L3"])
@settings(max_examples=100, deadline=None)
@given(case=cases())
def test_decompositions_are_the_two_builders_and_walks(which, case):
    inst, _, _, f = case
    f = StepFunction(inst.start, tuple(f))
    assert _outcome(lemma_decompose, which, inst, f) == _outcome(_lemma, which, inst, f)
