"""The vertex twin and the screened and resumed ascent moves against the
scalar search.

`oracle._form_ratios` returns, next to the ratio, the ratios of all
vertices from one view of the kernel by coordinate (`oracle._coordinates`)
and, for the linear and the forward records, the ascent's move evaluator
(`screen.Moves`), which reads the same view.  The vertex twin must equal
the per-candidate ratio by `repr` on every record; the screen may only
reject a move whose exact ratio is at most the current one; a forward
record's resumed move, and the state it hands on, must be the full
evaluation's by `repr`.  So a search with them returns what the plain
scalar search returned: the estimate, the witness and the evaluation
count, by `repr`.

The bridge's continuous ratio is its own move evaluator: a move resumes
the current point's sweep at the moved cell.  Each move's ratio, and the
state it hands on, must be the full evaluation's by `repr`, and
`bridge_check` must return what it returns with the plain scalar ascent.
"""

import collections
import math
import operator
import random

import pytest
from hypothesis import given, settings, strategies as st

from kernelineq import (ExponentPair, Instance, Kernel, WeightSeq, constant_kernel,
                        tabulated_kernel)
from kernelineq.kernels import RowSequenceKernel, SupSequenceKernel
from kernelineq import bridge
from kernelineq.bridge import _cont_ratio, bridge_check
from kernelineq.oracle import (FORM_TABLE, STRATEGIES, Ratios, _form_ratios, _run_search,
                               _scaling_ratios, _Search, _unit)
from kernelineq.screen import PRODUCT_FLOOR

EXPONENTS = (0.5, 1.0, 2.0, 3.0, math.inf)
RECORDS = sorted(set(FORM_TABLE) - {"B1", "B3", "B4", "B6", "BT4"})
LINEAR = [f for f in RECORDS
          if FORM_TABLE[f].transform == "id" and FORM_TABLE[f].reduce == "sum"]
L = 5
# Zeros of both signs, a subnormal and 1e300 among the kernel entries.
ROWS = [[1.0, -0.0, 5e-324, 2.0, 1e300], [0.0, 3.0, 0.5, 1.0],
        [2.5, 1e300, 0.0], [5e-324, 4.0], [1.5]]
V = (1.0, 2.5, 0.0, 5e-324, 0.5)
W = (2.0, -0.0, 1.0, 3.0, 0.25)
U = (0.5, 2.0, 1e-300, 3.0, 1.0)


def _kernel(kind: str) -> Kernel:
    if kind == "constant":
        return constant_kernel(2.0, 0, L)
    if kind in ("sup", "row"):
        seq = SupSequenceKernel if kind == "sup" else RowSequenceKernel
        return Kernel(seq(WeightSeq(0, U)), 0, L)
    if kind == "tabulated":
        return tabulated_kernel(ROWS, 0, L)
    return tabulated_kernel(ROWS, 0, L).power(2.0)  # 1e300 squared overflows


def _instance(p, q, kind, v=V):
    return Instance(ExponentPair(p, q), WeightSeq(0, v), WeightSeq(0, W), _kernel(kind))


def _pairs(sigma):
    return [(p, q) for p in EXPONENTS for q in EXPONENTS
            if not sigma or 1.0 <= p < math.inf]


def _assert_vertices_equal(fns, dim):
    scalar = [fns.ratio(_unit(j, dim)) for j in range(dim)]
    if fns.vertices is not None:
        assert repr(fns.vertices()) == repr(scalar)
    runs = []
    for bundle in (fns, Ratios(fns.ratio)):
        s = _Search(bundle, dim, dim, 0)
        s.vertices()
        runs.append((repr(s.best), repr(s.best_x), s.evals))
    assert runs[0] == runs[1]


@pytest.mark.parametrize("form", RECORDS)
def test_vertex_twin_is_per_candidate(form):
    f = FORM_TABLE[form]
    kinds = ("row", "sup") if f.kernel != "U" else (
        "constant", "sup", "row", "tabulated", "overflowing")
    for kind in kinds:
        for p, q in _pairs(f.sigma):
            for v in (V, (1.0,) * L):
                _assert_vertices_equal(_form_ratios(form, _instance(p, q, kind, v)), L)


@pytest.mark.parametrize("side", ["SCALE3", "SCALE4"])
def test_vertex_twin_of_the_scaled_displays(side):
    b, c = WeightSeq(0, (2.0,) + W[1:]), WeightSeq(0, V)
    for p, q in _pairs(True):
        if not math.isinf(q):
            _assert_vertices_equal(_scaling_ratios(side, b, c, ExponentPair(p, q)), L)


def test_vertex_twin_falls_back_off_the_finite_path():
    assert _form_ratios("GOP_DUAL", _instance(2.0, 2.0, "overflowing")).vertices is None
    assert _form_ratios("GOP_DUAL", _instance(2.0, 2.0, "tabulated")).vertices is not None


def test_tied_vertex_ratios_keep_the_first_index():
    # Only w_2 is nonzero and the kernel is constant: every vertex has the
    # left-hand side c, so at p = 1 the ratio is c / v_j; v_1 = v_2 tie.
    inst = Instance(ExponentPair(1.0, 2.0), WeightSeq(0, (2.0, 1.0, 1.0)),
                    WeightSeq(0, (0.0, 0.0, 1.0)), constant_kernel(3.0, 0, 3))
    fns = _form_ratios("WEAK", inst)
    assert fns.vertices is not None
    assert fns.vertices() == [1.5, 3.0, 3.0]
    s = _Search(fns, 3, 3, 0)
    s.vertices()
    assert (s.best, s.best_x, s.evals) == (3.0, [0.0, 1.0, 0.0], 3)


# The screen: a rejected move never has an exact ratio above cur.

MOVES = (4.0, 1 / 4.0, 1.0027, 1 / 1.0027)


def _entries(draw, n, spread):
    return tuple(10.0 ** draw(st.floats(-spread, spread)) for _ in range(n))


@st.composite
def screened_moves(draw):
    form = draw(st.sampled_from(LINEAR))
    n = draw(st.integers(2, 6))
    spread = draw(st.sampled_from((1.0, 30.0, 150.0, 300.0)))
    sigma = FORM_TABLE[form].sigma
    p = draw(st.sampled_from((1.0, 2.0, 3.0) if sigma else (0.5, 1.0, 2.0, 3.0)))
    q = draw(st.sampled_from((0.5, 1.0, 2.0, 3.0)))
    v, w, u = (_entries(draw, n, spread) for _ in range(3))
    if form.startswith("SB"):
        kernel = Kernel(SupSequenceKernel(WeightSeq(0, u)), 0, n)
    else:
        rows = [_entries(draw, n - i, spread) for i in range(n)]
        kernel = tabulated_kernel(rows, 0, n)
    inst = Instance(ExponentPair(p, q), WeightSeq(0, v), WeightSeq(0, w), kernel)
    x = list(_entries(draw, n, spread))
    j = draw(st.integers(0, n - 1))
    return form, inst, x, j, draw(st.sampled_from(MOVES))


@settings(max_examples=400, deadline=None)
@given(screened_moves())
def test_screen_rejects_only_moves_that_do_not_improve(case):
    form, inst, x, j, f = case
    fns = _form_ratios(form, inst)
    if fns.screen is None:
        return
    screen = fns.screen()
    out = []
    cur = fns.ratio(x, out)
    state = screen.state(out)
    if cur is None or state is None:
        return
    yj = max(x[j], 1e-12) * f
    y = list(x)
    y[j] = yj
    r = fns.ratio(y)
    # The move's own exact ratio, just below it, and the current one.
    for bar in (cur, r, None if r is None else math.nextafter(r, 0.0)):
        if bar is not None and screen.rejects(state, j, yj, bar):
            assert r is not None and r <= bar, (form, inst, x, j, f, bar, r)


def test_screen_rejects_moves_across_the_range():
    """Moves rejected on entries over 1e-300..1e300: the soundness test
    above is not vacuous there."""
    rng = random.Random(5)
    rejected = 0
    for trial in range(200):
        n, spread = 6, (1.0, 30.0, 150.0)[trial % 3]
        ent = lambda k: tuple(10.0 ** rng.uniform(-spread, spread) for _ in range(k))
        rows = [ent(n - i) for i in range(n)]
        inst = Instance(ExponentPair(2.0, 2.0), WeightSeq(0, ent(n)), WeightSeq(0, ent(n)),
                        tabulated_kernel(rows, 0, n))
        fns = _form_ratios("GOP_DUAL", inst)
        screen = fns.screen()
        x = list(ent(n))
        out = []
        cur = fns.ratio(x, out)
        state = screen.state(out)
        for j in range(n):
            for f in MOVES:
                yj = max(x[j], 1e-12) * f
                if state is not None and screen.rejects(state, j, yj, cur):
                    y = list(x)
                    y[j] = yj
                    assert fns.ratio(y) <= cur
                    rejected += 1
    assert rejected > 100


def test_screen_declines_a_shrink_it_cannot_bound():
    # At p = 900 a move from 2 to 1/2 scales b_j = x_j^p by 2^-1800, which
    # underflows: the screen leaves the move to the exact evaluation.
    inst = Instance(ExponentPair(900.0, 2.0), WeightSeq(0, (1.0, 1.0)),
                    WeightSeq(0, (1.0, 1.0)), constant_kernel(1.0, 0, 2))
    fns = _form_ratios("GOP_DUAL", inst)
    screen, out = fns.screen(), []
    cur = fns.ratio([2.0, 2.0], out)
    state = screen.state(out)
    assert state is not None
    assert not screen.rejects(state, 0, 0.5, cur)


def test_screen_covers_only_linear_records_at_finite_exponents():
    # The move evaluator (`Ratios.screen`) covers the linear records and the
    # forward ones at finite p and q; of those, only the linear ones screen.
    for form in RECORDS:
        f = FORM_TABLE[form]
        kind = "sup" if f.kernel != "U" else "constant"
        for p, q in _pairs(f.sigma):
            fns = _form_ratios(form, _instance(p, q, kind, (1.0,) * L))
            at_finite = math.isfinite(p) and math.isfinite(q)
            linear = form in LINEAR and at_finite
            assert (fns.screen is not None) == (linear or (f.forward and at_finite)), (form, p, q)
            if fns.screen is not None:
                assert fns.screen().screens == linear, (form, p, q)
    b, c = WeightSeq(0, (1.0,) * L), WeightSeq(0, U)
    assert _scaling_ratios("SCALE3", b, c, ExponentPair(2.0, 2.0)).screen().screens
    assert _scaling_ratios("SCALE4", b, c, ExponentPair(2.0, 2.0)).screen is None
    assert _form_ratios("GOP_DUAL", _instance(2.0, 2.0, "overflowing")).screen is None


# The whole search against the plain scalar search it replaces.

class _ScalarSearch:
    """The plain scalar search, the reference: every vertex and every move
    is one exact evaluation."""

    def __init__(self, ratio_fn, dim, budget, seed):
        self.ratio_fn, self.dim, self.budget = ratio_fn, dim, budget
        self.rng = random.Random(seed)
        self.evals, self.best, self.best_x = 0, 0.0, None

    def consider(self, x):
        self.evals += 1
        r = self.ratio_fn(x)
        if r is not None and (self.best_x is None or r > self.best):
            self.best = r
            self.best_x = list(x)
        return r

    def vertices(self):
        for j in range(self.dim):
            x = [0.0] * self.dim
            x[j] = 1.0
            self.consider(x)

    def ascent(self):
        seeds = []
        if self.best_x is not None and all(math.isfinite(t) for t in self.best_x):
            seeds.append(list(self.best_x))
        for _ in range(8):
            seeds.append([10.0 ** self.rng.uniform(-3, 3) for _ in range(self.dim)])
        for x in seeds:
            if self.evals >= self.budget:
                return
            cur = self.consider(x)
            if cur is None:
                continue
            step = 4.0
            while step > 1.005 and self.evals < self.budget:
                improved = False
                for j in range(self.dim):
                    for f in (step, 1.0 / step):
                        if self.evals >= self.budget:
                            return
                        y = list(x)
                        y[j] = max(y[j], 1e-12) * f
                        r = self.consider(y)
                        if r is not None and r > cur:
                            x, cur = y, r
                            improved = True
                if not improved:
                    step = math.sqrt(step)


def _random_instance(n, p, q, kind, seed):
    rng = random.Random(seed)
    ent = lambda k, lo, hi: tuple(10.0 ** rng.uniform(lo, hi) for _ in range(k))
    if kind == "sup":
        kernel = Kernel(SupSequenceKernel(WeightSeq(0, ent(n, -1, 1))), 0, n)
    elif kind == "constant":
        kernel = constant_kernel(2.0, 0, n)
    else:
        kernel = tabulated_kernel([ent(n - i, -1, 1) for i in range(n)], 0, n)
    return Instance(ExponentPair(p, q), WeightSeq(0, ent(n, -2, 2)),
                    WeightSeq(0, ent(n, -2, 2)), kernel)


SEARCHES = [
    ("GOP_DUAL", 40, 2.0, 2.0, "tabulated"),
    ("GOP_DUAL", 50, 2.0, 2.0, "sup"),
    ("GOP", 20, 1.0, 3.0, "tabulated"),
    ("STRONG", 30, 0.5, 1.0, "tabulated"),
    ("CPRIME", 25, 2.0, 0.5, "sup"),
    ("BT6", 20, 3.0, 2.0, "tabulated"),
    ("SB8", 20, 3.0, 2.0, "sup"),
    ("WEAK", 20, 2.0, 3.0, "tabulated"),
    ("SCALE3", 60, 2.0, 3.0, "sup"),
    # Max reductions: every move the ascent makes is a resumed exact one.
    ("SUP_ITER", 30, 2.0, 2.0, "tabulated"),
    ("B2", 20, 0.5, 1.0, "tabulated"),
    ("B5", 25, 3.0, 0.5, "tabulated"),
    ("CDPRIME", 20, 2.0, 3.0, "sup"),
    ("SB4", 20, 1.0, 0.5, "sup"),
    # The shape of the bridge workload's first slot.
    ("GOP_DUAL", 12, 1.0, 0.5, "constant"),
    ("SUP_ITER", 12, 1.0, 0.5, "constant"),
]


def _assert_search_is_scalar(fns, n, budget):
    scalar = _ScalarSearch(fns.ratio, n, budget, 3)
    scalar.vertices()
    scalar.ascent()
    res = _run_search(fns, n, 0, "multistart_ascent", budget, 3, False)
    assert ((repr(res.estimate), repr(list(res.witness.values)), res.evaluations)
            == (repr(scalar.best), repr(scalar.best_x), scalar.evals))


@pytest.mark.parametrize("form, n, p, q, kind", SEARCHES)
def test_search_equals_the_scalar_search(form, n, p, q, kind):
    inst = _random_instance(n, p, q, kind, n)
    if form == "SCALE3":
        fns = _scaling_ratios(form, inst.w, inst.v, inst.exponents)
    else:
        fns = _form_ratios(form, inst)
    _assert_search_is_scalar(fns, n, 1000)


def test_screen_declines_a_moved_entry_out_of_its_range():
    # At p = 30 the ascent from a vertex moves a zero coordinate to
    # 4e-12, whose 30th power underflows to 0: below b's range.
    inst = Instance(ExponentPair(30.0, 2.0), WeightSeq(0, (1.0, 2.0, 0.5)),
                    WeightSeq(0, (1.0, 0.5, 2.0)), constant_kernel(1.0, 0, 3))
    fns = _form_ratios("GOP_DUAL", inst)
    screen, out = fns.screen(), []
    cur = fns.ratio([0.0, 1.0, 0.0], out)
    state = screen.state(out)
    assert state is not None
    yj = 1e-12 * 4.0  # max(x_0, 1e-12) times the first step
    assert yj ** 30.0 < screen.b_lo
    assert not screen.rejects(state, 0, yj, cur)
    _assert_search_is_scalar(fns, 3, 600)


def test_screen_declines_an_underflowing_weight_product():
    # vv_j = 1e-300 puts vv_j b_j near the bottom of the range, and a move
    # by 2^-30 relative makes vv_j d_b fall below PRODUCT_FLOOR, with every
    # earlier check passed; the ordinary move 1/1.0027 is rejected there.
    inst = Instance(ExponentPair(2.0, 2.0), WeightSeq(0, (1e-300, 1e-300)),
                    WeightSeq(0, (1.0, 1.0)), constant_kernel(1.0, 0, 2))
    fns = _form_ratios("GOP_DUAL", inst)
    screen, out = fns.screen(), []
    x = [0.5, 0.5]
    cur = fns.ratio(x, out)
    state = screen.state(out)
    assert state is not None
    yj = x[0] * (1.0 + 2.0 ** -30)
    bj = yj ** 2.0
    assert screen.z_lo <= yj <= screen.z_hi and screen.b_lo <= bj <= screen.b_hi
    assert screen.k_min * (yj - x[0]) >= PRODUCT_FLOOR
    assert 0.0 < 1e-300 * (bj - state[2][0]) < PRODUCT_FLOOR
    assert not screen.rejects(state, 0, yj, cur)
    assert screen.rejects(state, 0, x[0] / 1.0027, cur)
    _assert_search_is_scalar(fns, 2, 600)


class _Counted:
    """The ratio and the move evaluator of fns, counting the calls a search
    makes to them; a move left to the full ratio is not counted twice."""

    def __init__(self, fns):
        self.fns, self.calls = fns, 0
        self.moves = fns.screen()

    def ratio(self, x, out=None):
        self.calls += 1
        return self.fns.ratio(x) if out is None else self.fns.ratio(x, out)

    def state(self, out):
        return self.moves.state(out)

    def move(self, st, j, y, cur, out, ratio):
        self.calls += 1
        return self.moves.move(st, j, y, cur, out, self.fns.ratio)


def _bridge_ratios(form):
    """The continuous ratio of bridge_check on the shape of the bridge
    workload's first slot (L = 12, p = 1, q = 0.5), its own move evaluator."""
    ratio = _cont_ratio(form, _random_instance(12, 1.0, 0.5, "constant", 12))
    return Ratios(ratio, screen=lambda: ratio)


@pytest.mark.parametrize("fns, dim", [
    (_bridge_ratios("GOP_DUAL"), 24),
    (_bridge_ratios("SUP_ITER"), 24),
    # A wide p = q = 2 ascent.
    (_form_ratios("GOP_DUAL", _random_instance(40, 2.0, 2.0, "tabulated", 40)), 40),
])
def test_ascent_evaluates_no_point_twice_in_a_seed(fns, dim):
    """A move to a point its seed has already evaluated is counted and not
    evaluated: the search calls its ratio and move evaluator fewer times
    than it counts evaluations, and returns the scalar search's result."""
    counted = _Counted(fns)
    res = _run_search(Ratios(counted.ratio, screen=lambda: counted), dim, 0,
                      "multistart_ascent", 2000, 3, False)
    scalar = _ScalarSearch(fns.ratio, dim, 2000, 3)
    scalar.vertices()
    scalar.ascent()
    assert ((repr(res.estimate), repr(list(res.witness.values)), res.evaluations)
            == (repr(scalar.best), repr(scalar.best_x), scalar.evals))
    assert counted.calls <= 0.9 * res.evaluations, (counted.calls, res.evaluations)


def test_screen_fires_on_a_long_window():
    """At p = q = 2 and L = 40 the ascent evaluates fewer moves exactly
    than it counts: the screen has not switched itself off."""
    fns = _form_ratios("GOP_DUAL", _random_instance(40, 2.0, 2.0, "tabulated", 40))
    moves, rejected = fns.screen(), []
    move = moves.move

    def counting(*args):
        r = move(*args)
        rejected.append(r is None)
        return r
    moves.move = counting
    res = _run_search(fns._replace(screen=lambda: moves), 40, 0, "multistart_ascent",
                      1000, 3, False)
    # The vertex twin and the seeds evaluate in full; every move goes to the
    # move evaluator, which returns None where the screen rejects it.
    assert res.evaluations == 1000
    assert sum(rejected) >= 0.25 * (res.evaluations - 40)


# The discrete moves of a forward record: resumed from the current point's
# frontier, bit for bit the full evaluation.

FORWARD = [f for f in RECORDS if FORM_TABLE[f].forward]


def _forward_instance(form, n, p, q, seed, v=None, kernel=None):
    """Entries over 1e-2..1e2 with zero w cells, on the record's kernel kind."""
    rng = random.Random(seed)
    ent = lambda k: [10.0 ** rng.uniform(-2, 2) for _ in range(k)]
    w = [0.0 if rng.random() < 0.3 else x for x in ent(n)]
    if kernel is None and FORM_TABLE[form].kernel != "U":
        seq = SupSequenceKernel if rng.random() < 0.5 else RowSequenceKernel
        kernel = Kernel(seq(WeightSeq(0, tuple(ent(n)))), 0, n)
    elif kernel is None:
        kernel = tabulated_kernel([ent(n - i) for i in range(n)], 0, n)
    return Instance(ExponentPair(p, q), WeightSeq(0, tuple(ent(n) if v is None else v)),
                    WeightSeq(0, tuple(w)), kernel)


def _frontier_is_the_partial_reduction(moves, st, j):
    """The frontier a move hands on: at j, each line n >= j reduced over the
    terms i < j of the point, from 0.0 (a sum) or as builtin max keeps them."""
    jf, P = st.front
    assert jf == j
    for line, p_n in zip(moves.lines[j:], P):
        terms = map(operator.mul, line[:j], st.z[:j])
        want = sum(terms, 0.0) if moves.summing else max(terms, default=-math.inf)
        assert repr(p_n) == repr(want)


def _resumed_walk(fns, n, rng, steps):
    """Sweeps of moves as the ascent makes them, wrapping to j = 0, with jumps
    and restarts from new seeds (zeros among them, so that moves go to
    1e-12 times a step and back); each move's ratio, and the state it hands
    on, against the full evaluation.  The number of resumed moves."""
    moves = fns.screen()
    seed = lambda: [0.0 if rng.random() < 0.3 else 10.0 ** rng.uniform(-3, 3)
                    for _ in range(n)]
    x, resumed, j = seed(), 0, 0
    out = []
    cur = fns.ratio(x, out)
    st = None if cur is None else moves.state(out)
    for _ in range(steps):
        if st is None or rng.random() < 0.03:  # a new seed
            x = seed()
            out = []
            cur = fns.ratio(x, out)
            st = None if cur is None else moves.state(out)
            continue
        j = rng.randrange(n) if rng.random() < 0.1 else (j + rng.random() // 0.5) % n
        j = int(j)
        y = list(x)
        y[j] = max(x[j], 1e-12) * rng.choice(BRIDGE_MOVES)
        full_out, move_out = [], []
        full = fns.ratio(y, full_out)
        got = moves.move(st, j, y, cur, move_out, fns.ratio)
        if got is None:  # the screen rejected it
            assert full is not None and full <= cur
            continue
        assert repr(got) == repr(full), (x, j, y)
        got_st, full_st = moves.state(move_out), moves.state(full_out)
        if full_st is None or got_st is None:
            assert got_st is None and full_st is None, (x, j, y)
        else:
            assert repr(got_st._replace(front=None)) == repr(full_st._replace(front=None))
            if len(move_out) == 1:
                _frontier_is_the_partial_reduction(moves, got_st, j)
                resumed += 1
        if rng.random() < 0.5 or (full is not None and full > cur):
            x, cur, st = y, full, got_st
    return resumed


@pytest.mark.parametrize("form", FORWARD)
def test_resumed_moves_are_the_full_ratio(form):
    rng = random.Random(13)
    sigma = FORM_TABLE[form].sigma
    resumed = 0
    for p in ((1.0, 2.0, 3.0) if sigma else (0.5, 1.0, 2.0, 3.0)):
        for q in (0.5, 1.0, 2.0, 3.0):
            for n in range(1, 13):
                # Zero and subnormal v entries on every other window.
                v = None if n % 2 else tuple(rng.choice((0.0, 5e-324, 1.0, 2.5))
                                             for _ in range(n))
                fns = _form_ratios(form, _forward_instance(form, n, p, q, 100 * n, v))
                if fns.screen is not None:
                    resumed += _resumed_walk(fns, n, rng, 30)
    # Kernel entries of both zero signs, subnormal and 1e300 (products that
    # overflow), zero and subnormal v, and w with -0.0.
    for kind in (("row", "sup") if FORM_TABLE[form].kernel != "U" else ("tabulated",)):
        for p, q in _pairs(sigma):
            fns = _form_ratios(form, _instance(p, q, kind))
            if fns.screen is not None:
                resumed += _resumed_walk(fns, L, rng, 30)
    fns = _form_ratios(form, _forward_instance(form, 50, 2.0, 2.0, 50))
    resumed += _resumed_walk(fns, 50, rng, 150)
    assert resumed >= 600


def test_resumed_moves_leave_non_finite_values_to_the_full_path():
    rng = random.Random(17)
    # A cumulative sum that overflows: t = (1e300, inf, inf) after the move,
    # and 0 * inf, which the full path takes as 0 (ext_mul), heads line 2.
    inst = Instance(ExponentPair(1.0, 1.0), WeightSeq(0, (1e-10, 1e-10, 1.0)),
                    WeightSeq(0, (1.0, 1.0, 1.0)),
                    tabulated_kernel([[1.0, 1.0, 1.0], [0.0, 0.0], [1.0]], 0, 3))
    fns = _form_ratios("SUP_ITER", inst)
    moves, out = fns.screen(), []
    x = [1e300, 1.0, 1.0]
    cur = fns.ratio(x, out)
    st = moves.state(out)
    assert st is not None
    y, move_out = [1e300, 1.7976931348623157e308, 1.0], []
    assert repr(moves.move(st, 1, y, cur, move_out, fns.ratio)) == repr(fns.ratio(y)) == "inf"
    assert len(move_out) != 1
    # Squaring 1e300 overflows a kernel entry: no move evaluator, the
    # plain ratio takes every move.
    over = tabulated_kernel([[1.0, 1e300, 2.0], [3.0, 0.5], [1e300]], 0, 3).power(2.0)
    assert _form_ratios("SUP_ITER", _forward_instance("SUP_ITER", 3, 2.0, 1.0, 5,
                                                      kernel=over)).screen is None
    for form in ("GOP_DUAL", "SUP_ITER", "B5", "STRONG"):
        inst = _forward_instance(form, 3, 3.0, 2.0, 7, v=(1.0, 5e-324, 0.5))
        fns = _form_ratios(form, inst)
        moves = fns.screen()
        # A point whose p-th power overflows keeps no state; a move that
        # makes one overflow, from a point that keeps one, takes the full path.
        out = []
        fns.ratio([1.0, 1e200, 0.5], out)
        assert moves.state(out) is None
        x = [1.0, 5e102, 0.5]
        out = []
        cur = fns.ratio(x, out)
        st = moves.state(out)
        assert st is not None
        y = [1.0, 5e102 * 4.0, 0.5]
        move_out = []
        assert repr(moves.move(st, 1, y, cur, move_out, fns.ratio)) == repr(fns.ratio(y))
        assert len(move_out) != 1 and moves.state(move_out) is None
        assert _resumed_walk(fns, 3, rng, 60) > 0
        # An all-subnormal v: right-hand terms underflow to 0 or stay
        # subnormal, outside the screen's range; the moves still resume.
        fns = _form_ratios(form, _forward_instance(form, 4, 2.0, 0.5, 9, v=(5e-324,) * 4))
        assert _resumed_walk(fns, 4, rng, 60) > 0


# The bridge's continuous moves: resumed from the current point's state,
# bit for bit the full evaluation.

BRIDGE_FORMS = ("GOP_DUAL", "SUP_ITER")
BRIDGE_MOVES = MOVES + (1.5, 1 / 1.5)


def _bridge_instance(n, p, q, seed, kernel=None):
    """Entries over 1e-2..1e2, with zero w cells and zero and subnormal v."""
    rng = random.Random(seed)
    ent = lambda k: [10.0 ** rng.uniform(-2, 2) for _ in range(k)]
    v = [rng.choice((0.0, 5e-324, 1e-310)) if rng.random() < 0.25 else x for x in ent(n)]
    w = [0.0 if rng.random() < 0.3 else x for x in ent(n)]
    if kernel is None:
        kernel = tabulated_kernel([ent(n - i) for i in range(n)], 0, n)
    return Instance(ExponentPair(p, q), WeightSeq(0, tuple(v)), WeightSeq(0, tuple(w)),
                    kernel)


def _walk(ratio, x, steps, rng):
    """Moves as the ascent makes them, each taken at random: every move's
    ratio and the state it hands back against the full evaluation."""
    out = []
    cur = ratio(x, out)
    st = ratio.state(out)
    moved = 0
    for _ in range(steps):
        j = rng.randrange(len(x))
        y = list(x)
        y[j] = max(x[j], 1e-12) * rng.choice(BRIDGE_MOVES)
        full_out, move_out = [], []
        full = ratio(y, full_out)
        if st is not None:
            assert repr(ratio.move(st, j, y, cur, move_out, ratio)) == repr(full), (x, j, y)
            assert repr(ratio.state(move_out)) == repr(ratio.state(full_out)), (x, j, y)
            moved += 1
        if rng.random() < 0.5:
            x, cur, st = y, full, ratio.state(full_out)
    return moved


@pytest.mark.parametrize("form", BRIDGE_FORMS)
@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0])
@pytest.mark.parametrize("q", [0.5, 1.0, 2.0, 3.0])
def test_bridge_moves_are_the_full_ratio(form, p, q):
    rng = random.Random(7)
    moved = 0
    for n in range(1, 13):
        ratio = _cont_ratio(form, _bridge_instance(n, p, q, 100 * n))
        # Zero pieces, so that moves go to 1e-12 times a step and back.
        x = [0.0 if rng.random() < 0.3 else 10.0 ** rng.uniform(-3, 3)
             for _ in range(2 * n)]
        x[rng.randrange(2 * n)] = 1.0
        moved += _walk(ratio, x, 40, rng)
    assert moved >= 400


def _sweep_instance(n, p, q, rng, spread, scale, zeros):
    """Kernel entries over 10^-spread..10^spread, scale times that off the
    diagonal, a zero diagonal entry U(m, m) with chance zeros, zero w cells
    with chance zeros, and v and the other w entries over 1e-3..1e3."""
    ent = lambda k: 10.0 ** rng.uniform(-k, k)
    rows = [[0.0 if rng.random() < zeros else ent(spread)]
            + [scale * ent(spread) for _ in range(n - m - 1)] for m in range(n)]
    v = [ent(3) for _ in range(n)]
    w = [0.0 if rng.random() < zeros else ent(3) for _ in range(n)]
    return Instance(ExponentPair(p, q), WeightSeq(0, tuple(v)), WeightSeq(0, tuple(w)),
                    tabulated_kernel(rows, 0, n))


@pytest.mark.parametrize("form", BRIDGE_FORMS)
@pytest.mark.parametrize("q", [0.5, 1.0, 1.5, 2.0, 3.0])
def test_bridge_plain_sweep_is_the_full_ratio(form, q):
    """A move from a plain state takes the written-out sweep
    (`_ContRatio._sweep`), which hands every move it cannot take to
    `_cell_lhs`: a zero piece or a zero diagonal entry (slope 0), cells
    after zero cells (base or peak 0), supremum crossings inside either
    half piece (off-diagonal entries above the diagonal one), and, where
    the pieces' masses sum to near 2^(1024 / (q + 1)), powers
    (base + s h)^(q+1) and peak^(q+1) that overflow.  Each move's ratio
    and the state it hands on are the full evaluation's by repr."""
    rng = random.Random(23)
    taken = collections.Counter()
    for n in range(1, 21):
        near = 2.0 ** (1024.0 / (q + 1.0)) / n
        for p, spread, scale, size, zeros in (
                (1.0, 3.0, 1.0, 1.0, 0.0), (2.0, 3.0, 1e3, 1.0, 0.0),
                (1.0, 3.0, 1.0, 1.0, 0.1), (2.0, 3.0, 1e3, 1.0, 0.1),
                (1.0, 0.1, 1.0, near, 0.0), (1.0, 0.1, 4.0, near, 0.0)):
            ratio = _cont_ratio(form, _sweep_instance(n, p, q, rng, spread, scale, zeros))
            sweep = ratio._sweep

            def counted(*args):
                kept = sweep(*args)
                taken[kept is not None] += 1
                return kept
            ratio._sweep = counted
            x = [0.0 if rng.random() < zeros else size * 10.0 ** rng.uniform(-2, 0)
                 for _ in range(2 * n)]
            if rng.random() < 0.3:  # zero cells before the rest
                k = rng.randrange(n)
                x[:2 * k] = [0.0] * (2 * k)
            _walk(ratio, x, 30, rng)
    assert taken[True] >= 1500 and taken[False] >= 300, taken


@pytest.mark.parametrize("form", BRIDGE_FORMS)
def test_bridge_plain_sweep_declines_an_overflowing_sum(form):
    # w_n = 1e300 against cell integrals near 1e8 and 1e7: every product and
    # power is finite, the total 1.25e308 too, and a move of piece 0 by 4
    # makes the sum of the cells' totals overflow.
    inst = Instance(ExponentPair(1.0, 1.0), WeightSeq(0, (1.0, 1.0)),
                    WeightSeq(0, (1e300, 1e300)),
                    tabulated_kernel([[1.0, 1.0], [1.0]], 0, 2))
    ratio = _cont_ratio(form, inst)
    x = [1e8, 1e8, 1e-3, 1e-3]
    out = []
    cur = ratio(x, out)
    st = ratio.state(out)
    assert st is not None and cur < math.inf
    y = [4e8] + x[1:]
    assert ratio._sweep(y, [0.5 * 4e8 + 0.5 * 1e8, st[0][1]], 0, st[1]) is None
    move_out = []
    assert repr(ratio.move(st, 0, y, cur, move_out, ratio)) == repr(ratio(y)) == "inf"
    assert ratio.state(move_out) is None


@pytest.mark.parametrize("form", BRIDGE_FORMS)
def test_bridge_moves_leave_the_plain_products_to_the_full_path(form):
    rng = random.Random(11)
    # Squaring 1e300 overflows a kernel entry to inf: no point keeps a state.
    over = tabulated_kernel([[1.0, 1e300, 2.0], [3.0, 0.5], [1e300]], 0, 3).power(2.0)
    ratio = _cont_ratio(form, _bridge_instance(3, 2.0, 1.0, 5, over))
    for x in ([1.0] * 6, [0.0, 0.0, 1.0, 1.0, 0.0, 0.0]):  # lhs inf; finite
        out = []
        assert ratio(x, out) is not None and ratio.state(out) is None
        _walk(ratio, x, 40, rng)
    # A move of the last piece, which only the right-hand side sees (w_2 =
    # 0), to a piece (p = 1) or a p-th power (p = 3) that overflows takes
    # the full path and keeps no state.
    for p, big in ((1.0, 1e308), (3.0, 5e102)):
        inst = Instance(ExponentPair(p, 1.0), WeightSeq(0, (1.0, 1.0, 0.5)),
                        WeightSeq(0, (1.0, 2.0, 0.0)),
                        tabulated_kernel([[1.0, 2.0, 3.0], [1.0, 2.0], [1.0]], 0, 3))
        ratio = _cont_ratio(form, inst)
        x = [1.0, 2.0, 0.5, 1.0, 1.0, big]
        out = []
        cur = ratio(x, out)
        st = ratio.state(out)
        assert st is not None
        y = x[:5] + [big * 4.0]
        move_out = []
        assert repr(ratio.move(st, 5, y, cur, move_out, ratio)) == repr(ratio(y))
        assert ratio.state(move_out) is None
        assert _walk(ratio, x, 40, rng) > 0


def _bridge_runs(inst, form, budget, monkeypatch, plain):
    """C_continuous, the continuous witness and the continuous side's count
    of evaluations of bridge_check, with the plain scalar ascent on both
    sides where plain."""
    made = []

    class Recorded(_Search):
        def __init__(self, *args):
            super().__init__(*args)
            made.append(self)
    with monkeypatch.context() as m:
        m.setattr(bridge, "_Search", Recorded)
        if plain:
            m.setitem(STRATEGIES, "multistart_ascent", _ScalarSearch.ascent)
        rep = bridge_check(inst, form, budget, 3)
    return repr(rep.C_continuous), repr(rep.continuous_witness), made[1].evals


@pytest.mark.parametrize("form", BRIDGE_FORMS)
@pytest.mark.parametrize("n, p, q", [(5, 2.0, 3.0), (6, 2.0, 0.5), (8, 3.0, 1.0),
                                     (12, 1.0, 0.5), (20, 2.0, 2.0)])
def test_bridge_check_equals_the_plain_continuous_ascent(form, n, p, q, monkeypatch):
    inst = _random_instance(n, p, q, "tabulated", n)
    runs = [_bridge_runs(inst, form, 2000, monkeypatch, plain) for plain in (False, True)]
    assert runs[0] == runs[1]
    assert runs[0][2] == 2000 + 2  # the budget, then two cross-seeding points
