"""The vertex twin and the resumed ascent moves against the scalar search.

`oracle._form_ratios` returns, next to the ratio, the ratios of all
vertices from one view of the kernel by coordinate (`oracle._coordinates`)
and, for every forward record at finite p and q, the ascent's move
evaluator: `moves.Moves`, which reads the same view, where the record
has no diagonal (`oracle._diagonal`), and `moves.RunningMoves`, which
resumes the running reduction, where it has one.
The vertex twin must equal the per-candidate ratio by `repr` on every
record; a forward record's resumed move must be the full evaluation's by
`repr`, and the state it hands on the state built from the moved point.
So a search with them returns what the plain scalar search returned:
the estimate, the witness and the evaluation count, by `repr`.

The bridge's continuous ratio is its own move evaluator: a move resumes
the current point's sweep at the moved cell.  Each move's ratio must be
the full evaluation's by `repr`, and the state it hands on the state
built from the moved point, and `bridge_check` must return what it
returns with the plain scalar ascent.
"""

import collections
import itertools
import math
import operator
import random

import pytest

from kernelineq import (ExponentPair, Instance, Kernel, WeightSeq, constant_kernel,
                        tabulated_kernel)
from kernelineq.kernels import RowSequenceKernel, SupSequenceKernel
from kernelineq import bridge
from kernelineq.moves import Moves, RunningMoves
from kernelineq.bridge import _ContRatio, bridge_check
from kernelineq.oracle import (FORM_TABLE, STRATEGIES, Ratios, _diagonal, _form_ratios,
                               _form_record, _run_search, _scaling_ratios, _Search,
                               _unit)

EXPONENTS = (0.5, 1.0, 2.0, 3.0, math.inf)
RECORDS = sorted(set(FORM_TABLE) - {"B1", "B3", "B4", "B6", "BT4"})
L = 5
# Zeros of both signs, a subnormal and 1e300 among the kernel entries.
ROWS = [[1.0, -0.0, 5e-324, 2.0, 1e300], [0.0, 3.0, 0.5, 1.0],
        [2.5, 1e300, 0.0], [5e-324, 4.0], [1.5]]
V = (1.0, 2.5, 0.0, 5e-324, 0.5)
W = (2.0, -0.0, 1.0, 3.0, 0.25)
U = (0.5, 2.0, 1e-300, 3.0, 1.0)
# The factors by which the walks move a coordinate.
MOVES = (4.0, 1 / 4.0, 1.0027, 1 / 1.0027, 1.5, 1 / 1.5)


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
        assert repr(fns.vertices) == repr(scalar)
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
    assert fns.vertices == [1.5, 3.0, 3.0]
    s = _Search(fns, 3, 3, 0)
    s.vertices()
    assert (s.best, s.best_x, s.evals) == (3.0, [0.0, 1.0, 0.0], 3)


# Per kernel, whether a forward record on it has a diagonal: the constant
# and row kernels and their powers do, the tabulated and sup kernels and
# their powers do not.
DIAGONAL_KERNELS = {
    "constant": True, "row": True, "constant ^ 2": True, "row ^ 0.5": True,
    "tabulated": False, "sup": False, "tabulated ^ 0.5": False, "sup ^ 2": False}


def _named_kernel(name: str) -> Kernel:
    """The kernel of DIAGONAL_KERNELS by name, its lines finite at every p."""
    base, _, r = name.partition(" ^ ")
    kern = (tabulated_kernel([[1.0 + i + n for n in range(L - i)] for i in range(L)], 0, L)
            if base == "tabulated" else _kernel(base))
    return kern.power(float(r)) if r else kern


def test_every_forward_record_at_finite_exponents_has_a_move_evaluator():
    # Every forward record at finite p and q has a move evaluator
    # (`Ratios.moves`), whether or not its kernel has a diagonal
    # (`oracle._diagonal`): `Moves` on the lines where it has none,
    # `RunningMoves` where it has one.  A backward record's moves take the
    # full ratio.  An SB "row" record reads the row kernel of u, which has
    # a diagonal.
    for form in RECORDS:
        f = FORM_TABLE[form]
        names = ("row", "sup") if f.kernel != "U" else DIAGONAL_KERNELS
        for name in names:
            for p, q in _pairs(f.sigma):
                inst = Instance(ExponentPair(p, q), WeightSeq(0, (1.0,) * L),
                                WeightSeq(0, W), _named_kernel(name))
                diagonal = f.kernel == "row" or f.kernel == "U" and DIAGONAL_KERNELS[name]
                at_finite = math.isfinite(p) and math.isfinite(q)
                if f.forward:
                    assert ((_diagonal(_form_record(form, inst), inst) is not None)
                            == diagonal), (form, name, p, q)
                fns = _form_ratios(form, inst)
                kind = ((RunningMoves if diagonal else Moves) if f.forward and at_finite
                        else type(None))
                assert type(fns.moves) is kind, (form, name, p, q)
    b, c = WeightSeq(0, (1.0,) * L), WeightSeq(0, U)
    # SCALE3 is GOP_DUAL on a row kernel; SCALE4 searches x = a^p, where
    # STRONG's evaluator moves a.
    assert type(_scaling_ratios("SCALE3", b, c, ExponentPair(2.0, 2.0)).moves) is RunningMoves
    assert _scaling_ratios("SCALE4", b, c, ExponentPair(2.0, 2.0)).moves is None
    assert _form_ratios("GOP_DUAL", _instance(2.0, 2.0, "overflowing")).moves is None


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
    if kind in ("sup", "row"):
        seq = SupSequenceKernel if kind == "sup" else RowSequenceKernel
        kernel = Kernel(seq(WeightSeq(0, ent(n, -1, 1))), 0, n)
    elif kind == "constant":
        kernel = constant_kernel(2.0, 0, n)
    elif kind == "power":
        kernel = constant_kernel(2.0, 0, n).power(1.5)
    else:
        kernel = tabulated_kernel([ent(n - i, -1, 1) for i in range(n)], 0, n)
    return Instance(ExponentPair(p, q), WeightSeq(0, ent(n, -2, 2)),
                    WeightSeq(0, ent(n, -2, 2)), kernel)


# Every forward record resumes its moves: on the kernel lines (`Moves`)
# where it has no diagonal, on the running reduction (`RunningMoves`)
# where it has one.  The backward GOP and BT6, and SCALE4, which searches
# x = a^p, take the plain ratio for every move.
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
    ("SCALE4", 60, 2.0, 3.0, "sup"),
    # Max reductions.
    ("SUP_ITER", 30, 2.0, 2.0, "tabulated"),
    ("B2", 20, 0.5, 1.0, "tabulated"),
    ("B5", 25, 3.0, 0.5, "tabulated"),
    ("CDPRIME", 20, 2.0, 3.0, "sup"),
    ("SB4", 20, 1.0, 0.5, "sup"),
    # The shape of the bridge workload's first slot.
    ("GOP_DUAL", 12, 1.0, 0.5, "constant"),
    ("SUP_ITER", 12, 1.0, 0.5, "constant"),
    # Long windows with a diagonal (`oracle._diagonal`): constant, row and
    # power-of-constant kernels, and the row kernel of an SB "row" record.
    ("GOP_DUAL", 40, 2.0, 1.5, "constant"),
    ("SUP_ITER", 40, 2.0, 1.5, "constant"),
    ("STRONG", 40, 2.0, 1.5, "row"),
    ("SB3", 40, 2.0, 1.5, "sup"),
    ("GOP_DUAL", 40, 2.0, 1.5, "power"),
    # Powers near the ends of the float range (`EDGES`).
    ("GOP_DUAL", 3, 30.0, 2.0, "underflow"),
    ("GOP_DUAL", 2, 2.0, 2.0, "tiny_v"),
]
# At p = 30 the ascent from a vertex moves a zero coordinate to 4e-12,
# whose 30th power underflows to 0; v = 1e-300 puts the right-hand terms
# v_j a_j^p near the bottom of the float range.
EDGES = {
    "underflow": Instance(ExponentPair(30.0, 2.0), WeightSeq(0, (1.0, 2.0, 0.5)),
                          WeightSeq(0, (1.0, 0.5, 2.0)), constant_kernel(1.0, 0, 3)),
    "tiny_v": Instance(ExponentPair(2.0, 2.0), WeightSeq(0, (1e-300, 1e-300)),
                       WeightSeq(0, (1.0, 1.0)), constant_kernel(1.0, 0, 2)),
}


def _assert_search_is_scalar(fns, n, budget):
    scalar = _ScalarSearch(fns.ratio, n, budget, 3)
    scalar.vertices()
    scalar.ascent()
    res = _run_search(fns, n, 0, "multistart_ascent", budget, 3, False)
    assert ((repr(res.estimate), repr(list(res.witness.values)), res.evaluations)
            == (repr(scalar.best), repr(scalar.best_x), scalar.evals))


@pytest.mark.parametrize("form, n, p, q, kind", SEARCHES)
def test_search_equals_the_scalar_search(form, n, p, q, kind):
    inst = EDGES[kind] if kind in EDGES else _random_instance(n, p, q, kind, n)
    if form in ("SCALE3", "SCALE4"):
        fns = _scaling_ratios(form, inst.w, inst.v, inst.exponents)
    else:
        fns = _form_ratios(form, inst)
    _assert_search_is_scalar(fns, n, 1000)


class _Counted:
    """The ratio and the move evaluator of fns, counting the calls a search
    makes to them, each a point's evaluation; a move left to the full
    ratio is not counted twice."""

    def __init__(self, fns):
        self.fns, self.calls = fns, 0
        self.moves = fns.moves

    def ratio(self, x):
        self.calls += 1
        return self.fns.ratio(x)

    def state(self, x):
        self.calls += 1
        return self.moves.state(x)

    def move(self, st, j, y):
        self.calls += 1
        return self.moves.move(st, j, y)


def _bridge_ratios(form):
    """The continuous ratio of bridge_check on the shape of the bridge
    workload's first slot (L = 12, p = 1, q = 0.5), its own move evaluator."""
    ratio = _ContRatio(form, _random_instance(12, 1.0, 0.5, "constant", 12))
    return Ratios(ratio, moves=ratio)


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
    res = _run_search(Ratios(counted.ratio, moves=counted), dim, 0,
                      "multistart_ascent", 2000, 3, False)
    scalar = _ScalarSearch(fns.ratio, dim, 2000, 3)
    scalar.vertices()
    scalar.ascent()
    assert ((repr(res.estimate), repr(list(res.witness.values)), res.evaluations)
            == (repr(scalar.best), repr(scalar.best_x), scalar.evals))
    assert counted.calls <= 0.9 * res.evaluations, (counted.calls, res.evaluations)


def test_moves_resume_on_a_long_window():
    """At p = q = 2 and L = 40 nearly every move the ascent hands to the
    move evaluator resumes (it hands on a state rather than fall back to
    ratio(y)): the evaluator has not switched itself off.  And the memo
    of products is reused: per seed it forms at most L columns plus one
    per accepted move, where a move that formed its lines' products anew
    would form L - j - 1 columns."""
    fns = _form_ratios("GOP_DUAL", _random_instance(40, 2.0, 2.0, "tabulated", 40))
    moves, resumed = fns.moves, []
    move, state, refresh = moves.move, moves.state, moves._refresh
    seeds = []  # per seed: [columns formed, accepted moves, current ratio]

    def seeding(x):
        seeds.append([0, 0, None])
        r, x_st = state(x)
        seeds[-1][2] = r
        return r, x_st

    def counting(st, j, y):
        r, y_st = move(st, j, y)
        resumed.append(y_st is not None)
        seed = seeds[-1]
        if seed[2] is not None and r is not None and r > seed[2]:  # the ascent takes it
            seed[1:] = seed[1] + 1, r
        return r, y_st

    def refreshing(i, ti):
        seeds[-1][0] += 1
        refresh(i, ti)
    moves.move, moves.state, moves._refresh = counting, seeding, refreshing
    res = _run_search(fns, 40, 0, "multistart_ascent", 1000, 3, False)
    # The vertex twin and the seeds evaluate in full, and a repeated point
    # computes nothing; every other move goes to the move evaluator.
    assert res.evaluations == 1000
    assert sum(resumed) >= 0.9 * len(resumed) >= 0.5 * (res.evaluations - 40), (
        sum(resumed), len(resumed))
    assert sum(accepted for _, accepted, _ in seeds) >= 100
    assert all(formed <= 40 + accepted for formed, accepted, _ in seeds), seeds


def test_one_move_evaluator_serves_every_ascent():
    """The ratios' move evaluator keeps no point's state, only a memo of
    products it checks against every move's point: an ascent on ratios
    that another ascent has used returns what fresh ratios give."""
    inst = _random_instance(12, 2.0, 2.0, "tabulated", 12)
    used = _form_ratios("GOP_DUAL", inst)
    _run_search(used, 12, 0, "multistart_ascent", 600, 4, False)
    runs = [_run_search(fns, 12, 0, "multistart_ascent", 600, 3, False)
            for fns in (used, _form_ratios("GOP_DUAL", inst))]
    assert repr(runs[0]) == repr(runs[1])


def test_a_seed_without_an_improving_move_becomes_the_witness():
    """The first random seed of the ascent reads 2.0 and every other point
    1.0, so no move from it improves: the seed itself is the witness."""
    rng = random.Random(5)
    seed = [10.0 ** rng.uniform(-3, 3) for _ in range(2)]
    res = _run_search(Ratios(lambda x: 2.0 if list(x) == seed else 1.0), 2, 0,
                      "multistart_ascent", 200, 5, False)
    assert res.estimate == 2.0 and list(res.witness.values) == seed


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


def _seed_state(fns, moves, x):
    """x's ratio and state from the move evaluator, the ratio against the
    full evaluation; no state where the ratio is None, as the ascent
    moves from no such seed."""
    cur, st = moves.state(x)
    assert repr(cur) == repr(fns.ratio(x)), x
    return cur, None if cur is None else st


def _resumed_walk(fns, n, rng, steps):
    """Sweeps of moves as the ascent makes them, wrapping to j = 0, with jumps
    and restarts from new seeds (zeros among them, so that moves go to
    1e-12 times a step and back) and moves from the stale states of
    earlier points; each seed's and each move's ratio against the full
    evaluation, and the state a move hands on against the state built
    from the moved point.  The number of resumed moves."""
    moves = fns.moves
    seed = lambda: [0.0 if rng.random() < 0.3 else 10.0 ** rng.uniform(-3, 3)
                    for _ in range(n)]
    x, resumed, j, old = seed(), 0, 0, []
    cur, st = _seed_state(fns, moves, x)
    for _ in range(steps):
        if st is None or rng.random() < 0.03:  # a new seed
            x = seed()
            cur, st = _seed_state(fns, moves, x)
            continue
        if old and rng.random() < 0.1:  # back to a stale state
            x, cur, st = rng.choice(old)
        old.append((x, cur, st))
        j = rng.randrange(n) if rng.random() < 0.1 else (j + rng.random() // 0.5) % n
        j = int(j)
        y = list(x)
        y[j] = max(x[j], 1e-12) * rng.choice(MOVES)
        full = fns.ratio(y)
        got, got_st = moves.move(st, j, y)
        assert repr(got) == repr(full), (x, j, y)
        at_y, full_st = moves.state(y)
        assert repr(at_y) == repr(full), y
        if full_st is None or got_st is None:
            assert got_st is None and full_st is None, (x, j, y)
        elif isinstance(moves, Moves):
            assert repr(got_st._replace(front=None)) == repr(full_st._replace(front=None))
            _frontier_is_the_partial_reduction(moves, got_st, j)
            resumed += 1
        else:
            assert repr(got_st) == repr(full_st), (x, j, y)
            resumed += 1
        if rng.random() < 0.5 or (full is not None and full > cur):
            x, cur, st = y, full, got_st
    return resumed


@pytest.mark.parametrize("form", FORWARD)
def test_resumed_moves_are_the_full_ratio(form):
    # On a tabulated or sup kernel (`Moves`); an SB "row" record reads the
    # row kernel of u, which has a diagonal (`RunningMoves`).
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
                if fns.moves is not None:
                    resumed += _resumed_walk(fns, n, rng, 30)
    # Kernel entries of both zero signs, subnormal and 1e300 (products that
    # overflow), zero and subnormal v, and w with -0.0.
    for kind in (("row", "sup") if FORM_TABLE[form].kernel != "U" else ("tabulated",)):
        for p, q in _pairs(sigma):
            fns = _form_ratios(form, _instance(p, q, kind))
            if fns.moves is not None:
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
    moves = fns.moves
    st = _seed_state(fns, moves, [1e300, 1.0, 1.0])[1]
    assert st is not None
    y = [1e300, 1.7976931348623157e308, 1.0]
    got, y_st = moves.move(st, 1, y)
    assert repr(got) == repr(fns.ratio(y)) == "inf"
    assert y_st is None
    # Squaring 1e300 overflows a kernel entry: no move evaluator, the
    # plain ratio takes every move.
    over = tabulated_kernel([[1.0, 1e300, 2.0], [3.0, 0.5], [1e300]], 0, 3).power(2.0)
    assert _form_ratios("SUP_ITER", _forward_instance("SUP_ITER", 3, 2.0, 1.0, 5,
                                                      kernel=over)).moves is None
    for form in ("GOP_DUAL", "SUP_ITER", "B5", "STRONG"):
        inst = _forward_instance(form, 3, 3.0, 2.0, 7, v=(1.0, 5e-324, 0.5))
        fns = _form_ratios(form, inst)
        moves = fns.moves
        # A point whose p-th power overflows keeps no state; a move that
        # makes one overflow, from a point that keeps one, takes the full path.
        assert _seed_state(fns, moves, [1.0, 1e200, 0.5])[1] is None
        st = _seed_state(fns, moves, [1.0, 5e102, 0.5])[1]
        assert st is not None
        y = [1.0, 5e102 * 4.0, 0.5]
        got, y_st = moves.move(st, 1, y)
        assert repr(got) == repr(fns.ratio(y))
        assert y_st is None and _seed_state(fns, moves, y)[1] is None
        assert _resumed_walk(fns, 3, rng, 60) > 0
        # Where v is 0 there, such a point has a ratio (inf where the
        # record's inner power overflows too): the seed takes it from the
        # full ratio.
        inst = _forward_instance(form, 3, 3.0, 0.5, 7, v=(1.0, 0.0, 0.5))
        fns = _form_ratios(form, inst)
        cur, st = _seed_state(fns, fns.moves, [1.0, 1e200, 0.5])
        assert st is None and cur > 0.0
        # An all-subnormal v: right-hand terms underflow to 0 or stay
        # subnormal; the moves still resume.
        fns = _form_ratios(form, _forward_instance(form, 4, 2.0, 0.5, 9, v=(5e-324,) * 4))
        assert _resumed_walk(fns, 4, rng, 60) > 0


# The moves of a forward record with a diagonal (`moves.RunningMoves`):
# one pass over n >= j resumed from the current point's run, bit for bit
# the full evaluation.

RUNNING = [f for f in FORWARD if FORM_TABLE[f].kernel != "sup"]
# Per kind of record, the kernels with a diagonal it runs on: the kernels
# of DIAGONAL_KERNELS that have one, and for an SB "row" record (which
# reads the row kernel of u) the row and sup kernels of u.
RUNNING_KERNELS = {"U": ("constant", "row", "constant ^ 2", "row ^ 0.5"),
                   "row": ("row", "sup")}


def _running_instance(kind, n, p, q, rng, v=None, edges=False):
    """Entries over 1e-2..1e2 with zero w cells on the named kernel; where
    edges, 0.0, 5e-324 and 1e300 among the kernel's, v's and w's entries."""
    def ent(k):
        return tuple(rng.choice((0.0, 5e-324, 1e300)) if edges and rng.random() < 0.25
                     else 10.0 ** rng.uniform(-2, 2) for _ in range(k))
    base, _, r = kind.partition(" ^ ")
    if base == "constant":
        kern = constant_kernel(ent(1)[0], 0, n)
    else:
        seq = SupSequenceKernel if base == "sup" else RowSequenceKernel
        kern = Kernel(seq(WeightSeq(0, ent(n))), 0, n)
    w = tuple(0.0 if rng.random() < 0.3 else x for x in ent(n))
    return Instance(ExponentPair(p, q), WeightSeq(0, ent(n) if v is None else v),
                    WeightSeq(0, w), kern.power(float(r)) if r else kern)


@pytest.mark.parametrize("form", RUNNING)
def test_running_moves_are_the_full_ratio(form):
    f = FORM_TABLE[form]
    rng = random.Random(f"running:{form}")
    resumed = edge_resumed = 0
    lengths = (*range(1, 13), 40)
    for kind in RUNNING_KERNELS[f.kernel]:
        for p in ((1.0, 2.0, 3.0) if f.sigma else (0.5, 1.0, 2.0, 3.0)):
            # Every length at each p, a quarter of them at each q.
            for k, q in enumerate((0.5, 1.0, 2.0, 3.0)):
                for n in lengths[k::4]:
                    # Zero and subnormal v entries on every other window.
                    v = None if n % 2 else tuple(rng.choice((0.0, 5e-324, 1.0, 2.5))
                                                 for _ in range(n))
                    fns = _form_ratios(form, _running_instance(kind, n, p, q, rng, v))
                    assert type(fns.moves) is RunningMoves, (kind, n, p, q)
                    resumed += _resumed_walk(fns, n, rng, 30 if n == 40 else 8)
                # Zero, subnormal and 1e300 entries: overflowing kernel
                # powers leave no move evaluator, overflowing products and
                # powers leave moves to the full ratio.
                fns = _form_ratios(form, _running_instance(kind, 6, p, q, rng, edges=True))
                if fns.moves is not None:
                    edge_resumed += _resumed_walk(fns, 6, rng, 20)
    kinds = len(RUNNING_KERNELS[f.kernel])
    assert resumed >= 300 * kinds and edge_resumed >= 100 * kinds, (resumed, edge_resumed)


def _running_fallback(form, inst, x, j, y):
    """The move at j from x's state to y: the full ratio, and no state at
    y, from the move and from y's own state."""
    fns = _form_ratios(form, inst)
    assert type(fns.moves) is RunningMoves
    st = _seed_state(fns, fns.moves, x)[1]
    assert st is not None
    got, y_st = fns.moves.move(st, j, y)
    assert repr(got) == repr(fns.ratio(y))
    assert y_st is None and fns.moves.state(y)[1] is None
    return got


def test_running_moves_leave_non_finite_values_to_the_full_ratio():
    def inst(p, q, w, kern, v=None):
        return Instance(ExponentPair(p, q), WeightSeq(0, v or (1.0,) * len(w)),
                        WeightSeq(0, w), kern)
    row = lambda u: Kernel(RowSequenceKernel(WeightSeq(0, u)), 0, len(u))
    # a^p overflows: (2e103)^3.
    for form in ("STRONG", "GOP_DUAL", "SUP_ITER"):
        _running_fallback(form, inst(3.0, 2.0, (1.0, 1.0, 1.0), constant_kernel(1.0, 0, 3)),
                          [1.0, 5e102, 0.5], 1, [1.0, 2e103, 0.5])
    # A cumulative sum overflows where the diagonal is 0: t = (1e300, inf,
    # inf), and the full path takes 0 * inf as 0 (ext_mul), so only t shows
    # it; v_1 = 0 keeps the right-hand sum finite.
    got = _running_fallback("SUP_ITER", inst(1.0, 1.0, (1.0, 1.0, 1.0), row((1.0, 0.0, 0.0)),
                                             (1.0, 0.0, 1.0)),
                            [1e300, 1.0, 1.0], 1, [1e300, 1.7976931348623157e308, 1.0])
    assert 0.0 < got < math.inf
    # An outer power overflows: (2e103)^3 at q = 3, and s^(1/p) = s^2 at
    # p = 0.5, where s_0 = (1e20 * 4e300)^0.5.
    _running_fallback("GOP_DUAL", inst(1.0, 3.0, (1e-10, 1.0), constant_kernel(1.0, 0, 2)),
                      [5e102, 1.0], 0, [2e103, 1.0])
    _running_fallback("STRONG", inst(0.5, 1.0, (1e-10, 1.0), constant_kernel(1e20, 0, 2)),
                      [1e280, 1.0], 0, [4e300, 1.0])
    # An outer sum overflows: its terms w_n s_n^q, 1.6e308 each, are finite.
    _running_fallback("GOP_DUAL", inst(1.0, 1.0, (1e300, 1e300), constant_kernel(1.0, 0, 2)),
                      [4e7, 1.0], 0, [1.6e8, 1.0])
    # A product d_n t_n overflows against w_0 = 0: inf * 0 is NaN in the
    # outer sum, which the full path takes as 0.
    big = constant_kernel(1e300, 0, 2)
    got = _running_fallback("GOP_DUAL", inst(1.0, 1.0, (0.0, 1.0), big), [1.0, 1.0], 0,
                            [4e9, 1.0])
    assert got == math.inf


# The products memo of a record under the id transform, checked against
# the point of every move: two walks that take turns on one move
# evaluator, states of other points between their moves, moves from
# states older than the memo's last refresh and new seeds mid-walk each
# read their own point's products.

def _memo_kernel(kind, n, rng):
    """A tabulated or sup kernel, or a power of one: none has a diagonal."""
    ent = lambda k: tuple(10.0 ** rng.uniform(-1, 1) for _ in range(k))
    if kind == "sup":
        return Kernel(SupSequenceKernel(WeightSeq(0, ent(n))), 0, n)
    kern = tabulated_kernel([ent(n - i) for i in range(n)], 0, n)
    return kern.power(1.5) if kind == "power" else kern


def _interleaved_walks(form, inst, n, rng, steps):
    """Moves of two walks in turn on one move evaluator, with states of
    other points, moves from old states and new seeds between them; each
    ratio against the full evaluation and the state of a fresh evaluator
    at the moved point, and each state it hands on against that state.
    The number of moves from an old state."""
    fns = _form_ratios(form, inst)
    moves = fns.moves
    seed = lambda: [0.0 if k and rng.random() < 0.2 else 10.0 ** rng.uniform(-2, 2)
                    for k in range(n)]

    def checked_state(x):
        cur, st = moves.state(x)
        assert repr(cur) == repr(fns.ratio(x)), x
        assert st is not None
        return [x, cur, st, 0]

    walks, old, from_old = [checked_state(seed()), checked_state(seed())], [], 0
    for k in range(steps):
        roll = rng.random()
        if roll < 0.1:  # a state of another point between the moves
            checked_state(seed())
            continue
        walk = walks[k % 2]
        if roll < 0.15:  # a new seed mid-walk
            walks[k % 2] = checked_state(seed())
            continue
        x, cur, st, j = walk
        if roll < 0.3 and old:  # from a state older than the memo's last refresh
            x, cur, st = rng.choice(old)
            from_old += 1
        y = list(x)
        y[j] = max(x[j], 1e-12) * rng.choice(MOVES)
        got, got_st = moves.move(st, j, y)
        at_y, fresh_st = _form_ratios(form, inst).moves.state(y)
        assert repr(got) == repr(fns.ratio(y)) == repr(at_y), (x, j, y)
        assert repr(got_st._replace(front=None)) == repr(fresh_st._replace(front=None))
        _frontier_is_the_partial_reduction(moves, got_st, j)
        old.append((x, cur, st))
        if got > cur or rng.random() < 0.3:
            walk[:3] = y, got, got_st
        walk[3] = (j + 1) % n if rng.random() < 0.8 else rng.randrange(n)
    assert moves.memo is not None
    return from_old


@pytest.mark.parametrize("form", ["GOP_DUAL", "WEAK"])  # a sum and a max
@pytest.mark.parametrize("kind", ["tabulated", "sup", "power"])
def test_interleaved_moves_read_their_own_points_products(form, kind):
    rng = random.Random(f"{form}:{kind}")
    from_old = 0
    for n, p, q in ((1, 2.0, 2.0), (7, 2.0, 3.0), (12, 0.5, 1.0), (20, 3.0, 0.5)):
        inst = _forward_instance(form, n, p, q, n, kernel=_memo_kernel(kind, n, rng))
        from_old += _interleaved_walks(form, inst, n, rng, 120)
    assert from_old >= 40


def test_forward_records_with_a_transform_reduce_by_max():
    # `Moves` reduces a line under a sum or max transform by max alone.
    for form, f in FORM_TABLE.items():
        if f.forward and f.transform != "id":
            assert f.reduce == "max", form


def test_searches_without_an_ascent_build_no_memo():
    """The move evaluator builds its memo on its first state: a support
    grid or a vertex search leaves it unbuilt, an ascent builds it, and a
    record under a sum or max transform has none.  So does the running
    evaluator its zip of the diagonal and the weights."""
    inst = _random_instance(6, 2.0, 2.0, "tabulated", 6)
    on_diagonal = _random_instance(6, 2.0, 2.0, "constant", 6)
    for strategy in ("support_grid", "vertex"):
        fns = _form_ratios("GOP_DUAL", inst)
        _run_search(fns, 6, 0, strategy, 3000, 0, False)
        assert fns.moves is not None and fns.moves.memo is None, strategy
        fns = _form_ratios("GOP_DUAL", on_diagonal)
        _run_search(fns, 6, 0, strategy, 3000, 0, False)
        assert fns.moves is not None and fns.moves.dwv is None, strategy
    fns = _form_ratios("GOP_DUAL", on_diagonal)
    _run_search(fns, 6, 0, "multistart_ascent", 300, 0, False)
    assert fns.moves.dwv is not None
    for form, memo in (("GOP_DUAL", True), ("WEAK", True), ("SUP_ITER", False), ("B2", False)):
        fns = _form_ratios(form, inst)
        _run_search(fns, 6, 0, "multistart_ascent", 300, 0, False)
        assert (fns.moves.memo is not None) == memo, form


# The bridge's continuous moves: resumed from the current point's state,
# bit for bit the full evaluation.

BRIDGE_FORMS = ("GOP_DUAL", "SUP_ITER")


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


def _bridge_state(ratio, x):
    """x's state from the continuous ratio's move evaluator, with the ratio
    it gives against the full evaluation."""
    at_x, st = ratio.state(x)
    assert repr(at_x) == repr(ratio(x)), x
    return st


def _walk(ratio, x, steps, rng):
    """Moves as the ascent makes them, each taken at random: every move's
    ratio against the full evaluation, and the state it hands back against
    the state built from the moved point."""
    st = _bridge_state(ratio, x)
    moved = 0
    for _ in range(steps):
        j = rng.randrange(len(x))
        y = list(x)
        y[j] = max(x[j], 1e-12) * rng.choice(MOVES)
        full = ratio(y)
        full_st = _bridge_state(ratio, y)
        if st is not None:
            got, got_st = ratio.move(st, j, y)
            assert repr(got) == repr(full), (x, j, y)
            assert repr(got_st) == repr(full_st), (x, j, y)
            moved += 1
        if rng.random() < 0.5:
            x, st = y, full_st
    return moved


@pytest.mark.parametrize("form", BRIDGE_FORMS)
@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0])
@pytest.mark.parametrize("q", [0.5, 1.0, 2.0, 3.0])
def test_bridge_moves_are_the_full_ratio(form, p, q):
    rng = random.Random(7)
    moved = 0
    for n in range(1, 13):
        ratio = _ContRatio(form, _bridge_instance(n, p, q, 100 * n))
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


def _swept_cells(inst, sup, g, masses, c):
    """The kinds of cell that a sweep of the continuous ratio at g from
    cell c meets, computed from its inputs: "zero" where a half piece or
    the diagonal entry is 0 (a zero slope), "overflow" where the power
    (x + b h)^(q+1) or peak^(q+1) at the cell's right edge overflows, and
    with sup "cross" where a + b s crosses the peak inside a half piece."""
    e1 = inst.q + 1.0
    cols = inst.kernel.columns
    cum = list(itertools.accumulate(masses, initial=0.0))
    kinds = set()
    for n in range(c, inst.length):
        if inst.w.values[n] == 0.0:
            continue
        un, head = cols[n][n], cols[n][:n]
        slopes = (un * g[2 * n], un * g[2 * n + 1])
        if 0.0 in slopes:
            kinds.add("zero")
        if sup:
            peak = max(map(operator.mul, head, cum[1:]), default=0.0)
            a = un * cum[n]
            for b in slopes:
                if a < peak < a + 0.5 * b:
                    kinds.add("cross")
                a += 0.5 * b
            top = max(peak, a)
        else:
            top = sum(map(operator.mul, head, masses)) + 0.5 * sum(slopes)
        try:
            top ** e1
        except OverflowError:
            kinds.add("overflow")
    return kinds


@pytest.mark.parametrize("form", BRIDGE_FORMS)
@pytest.mark.parametrize("q", [0.5, 1.0, 1.5, 2.0, 3.0])
def test_bridge_plain_sweep_is_the_full_ratio(form, q):
    """A move from a plain state resumes the ratio's sweep, which writes
    every piece out, zero slopes and overflows included.  The walks meet
    zero pieces and zero diagonal entries (slope 0), and, where the
    pieces' masses sum to near 2^(1024 / (q + 1)), powers (base + s h)^(q+1)
    and peak^(q+1) that overflow (the last walk per n starts with pieces
    within a factor 10^0.1 of each other, so that its moves cross there);
    they also meet cells after zero cells (base or peak 0) and supremum
    crossings inside either half piece (off-diagonal entries above the
    diagonal one).  Each move's ratio and the state it hands on are the
    full evaluation's by repr.  `met` counts the moves whose sweep meets
    each kind of cell (`_swept_cells`), and "plain" those that meet none."""
    rng = random.Random(23)
    sup = form == "SUP_ITER"
    met = collections.Counter()
    for n in range(1, 21):
        near = 2.0 ** (1024.0 / (q + 1.0)) / n
        for p, spread, scale, size, span, zeros in (
                (1.0, 3.0, 1.0, 1.0, 2.0, 0.0), (2.0, 3.0, 1e3, 1.0, 2.0, 0.0),
                (1.0, 3.0, 1.0, 1.0, 2.0, 0.1), (2.0, 3.0, 1e3, 1.0, 2.0, 0.1),
                (1.0, 0.1, 1.0, near, 2.0, 0.0), (1.0, 0.1, 4.0, near, 2.0, 0.0),
                (1.0, 0.1, 1.0, near, 0.1, 0.0)):
            inst = _sweep_instance(n, p, q, rng, spread, scale, zeros)
            ratio = _ContRatio(form, inst)
            sweep = ratio._sweep

            def counted(g, masses, c, totals, mul=None):
                if mul is not None:  # a move; a full evaluation scans for mul
                    met.update(_swept_cells(inst, sup, g, masses, c) or ["plain"])
                return sweep(g, masses, c, totals, mul)
            ratio._sweep = counted
            x = [0.0 if rng.random() < zeros else size * 10.0 ** rng.uniform(-span, 0)
                 for _ in range(2 * n)]
            if rng.random() < 0.3:  # zero cells before the rest
                k = rng.randrange(n)
                x[:2 * k] = [0.0] * (2 * k)
            _walk(ratio, x, 30, rng)
    assert met["plain"] >= 1500 and met["zero"] >= 500 and met["overflow"] >= 25, met
    assert not sup or met["cross"] >= 600, met


@pytest.mark.parametrize("form", BRIDGE_FORMS)
def test_bridge_plain_sweep_declines_an_overflowing_sum(form):
    # w_n = 1e300 against cell integrals near 1e8 and 1e7: every product and
    # power is finite, the total 1.25e308 too, and a move of piece 0 by 4
    # makes the sum of the cells' totals overflow: the sweep's last total
    # is inf, and the move keeps no state.
    inst = Instance(ExponentPair(1.0, 1.0), WeightSeq(0, (1.0, 1.0)),
                    WeightSeq(0, (1e300, 1e300)),
                    tabulated_kernel([[1.0, 1.0], [1.0]], 0, 2))
    ratio = _ContRatio(form, inst)
    x = [1e8, 1e8, 1e-3, 1e-3]
    cur = ratio(x)
    st = _bridge_state(ratio, x)
    assert st is not None and cur < math.inf
    y = [4e8] + x[1:]
    kept = ratio._sweep(y, [0.5 * 4e8 + 0.5 * 1e8, st[0][1]], 0, st[1], operator.mul)
    assert kept[-1] == math.inf
    got, y_st = ratio.move(st, 0, y)
    assert repr(got) == repr(ratio(y)) == "inf"
    assert y_st is None and _bridge_state(ratio, y) is None


@pytest.mark.parametrize("form", BRIDGE_FORMS)
def test_bridge_moves_leave_the_plain_products_to_the_full_path(form):
    rng = random.Random(11)
    # Squaring 1e300 overflows a kernel entry to inf: no point keeps a state.
    over = tabulated_kernel([[1.0, 1e300, 2.0], [3.0, 0.5], [1e300]], 0, 3).power(2.0)
    ratio = _ContRatio(form, _bridge_instance(3, 2.0, 1.0, 5, over))
    for x in ([1.0] * 6, [0.0, 0.0, 1.0, 1.0, 0.0, 0.0]):  # lhs inf; finite
        assert ratio(x) is not None and _bridge_state(ratio, x) is None
        _walk(ratio, x, 40, rng)
    # A move of the last piece, which only the right-hand side sees (w_2 =
    # 0), to a piece (p = 1) or a p-th power (p = 3) that overflows takes
    # the full path and keeps no state.
    for p, big in ((1.0, 1e308), (3.0, 5e102)):
        inst = Instance(ExponentPair(p, 1.0), WeightSeq(0, (1.0, 1.0, 0.5)),
                        WeightSeq(0, (1.0, 2.0, 0.0)),
                        tabulated_kernel([[1.0, 2.0, 3.0], [1.0, 2.0], [1.0]], 0, 3))
        ratio = _ContRatio(form, inst)
        x = [1.0, 2.0, 0.5, 1.0, 1.0, big]
        st = _bridge_state(ratio, x)
        assert st is not None
        y = x[:5] + [big * 4.0]
        got, y_st = ratio.move(st, 5, y)
        assert repr(got) == repr(ratio(y))
        assert y_st is None and _bridge_state(ratio, y) is None
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
