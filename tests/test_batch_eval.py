"""The batched search ratio against the per-candidate one, bit for bit.

`oracle._form_ratios` returns a form's search ratio and its batched twin
(built from `kernelineq.batch`), which takes a grid of candidates (a
base point with one or two coordinates running over lists of values),
evaluates it factored and falls back to the per-candidate ratio where
its all-finite path does not apply.  Every record of FORM_TABLE and both
scaled displays are compared by `repr` on kernels with zero, subnormal
and overflowing entries, on the support grids and on grids with dense
base points, zeros inside a coordinate, 1e300 and 1.7e308 entries, and
on grids drawn at random; `_Search.support_grid` is compared with the
batch, with the per-candidate batch and with the loop that considered
one candidate at a time.
"""

import itertools
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

import kernelineq.batch as batch_mod
import kernelineq.oracle as oracle
from conftest import random_instance
from kernelineq import (ExponentPair, Instance, Kernel, WeightSeq, constant_kernel,
                        tabulated_kernel)
from kernelineq.batch import Grid, per_candidate
from kernelineq.kernels import RowSequenceKernel, SupSequenceKernel
from kernelineq.oracle import (FORM_TABLE, Ratios, _form_ratios, _linspace,
                               _scaling_ratios, _Search, _unit)

EXPONENTS = (0.5, 1.0, 2.0, 3.0, math.inf)
L = 4
V = (1.0, -0.0, 5e-324, 2.5)  # a zero (of either sign) and a subnormal entry
W = (-0.0, 0.5, 1.0, 3.0)
U = (0.5, 2.0, 1.0, 3.0)
TABLE = [[1.0, 2.0, 4.0, 4.0], [0.5, 3.0, 3.0], [2.0, 0.0], [1.0]]
GRID = [10.0 ** t for t in _linspace(-4.0, 4.0, 3)]


def _kernel(kind: str, length: int = L) -> Kernel:
    u = WeightSeq(0, U[:length] + (1.5,) * (length - len(U)))
    if kind == "constant":
        return constant_kernel(2.0, 0, length)
    if kind == "sup":
        return Kernel(SupSequenceKernel(u), 0, length)
    if kind == "row":
        return Kernel(RowSequenceKernel(u), 0, length)
    rows = [[float(i + n + 1) for n in range(length - i)] for i in range(length)]
    if length == L:
        rows = TABLE
    if kind == "tabulated":
        return tabulated_kernel(rows, 0, length)
    if kind == "power":
        return tabulated_kernel(rows, 0, length).power(1.5)
    # Entries of 1e200 squared overflow to inf: the lines are not finite.
    rows = [[1e200] + row[1:] for row in rows]
    return tabulated_kernel(rows, 0, length).power(2.0)


# Each record once: the aliases name records already listed.
RECORDS = sorted(set(FORM_TABLE) - {"B1", "B3", "B4", "B6", "BT4"})
U_KINDS = ("constant", "sup", "tabulated", "row", "power", "squared")
SB_KINDS = ("row", "sup")


def _instance(p, q, kind, length=L):
    pad = (1.0,) * (length - L)
    return Instance(ExponentPair(p, q), WeightSeq(0, V[:length] + pad),
                    WeightSeq(0, W[:length] + pad), _kernel(kind, length))


def _pairs(sigma):
    """(p, q) over EXPONENTS; sigma_p needs 1 <= p < inf."""
    return [(p, q) for p in EXPONENTS for q in EXPONENTS
            if not sigma or 1.0 <= p < math.inf]


def _batches(dim):
    """The support grids, then grids on dense base points, on the first
    coordinate alone, with 1e300 and 1.7e308 entries, and with zeros
    inside a coordinate."""
    out = []
    for size in (2, 3):
        for support in itertools.combinations(range(dim), size):
            out.append(Grid(_unit(support[0], dim), support[1:], (GRID,) * (size - 1)))
    spread = [1.0, 1e-4, 1e4, 3.0]
    for v in spread:  # every coordinate v, then the first one over spread
        out.append(Grid([v] * dim, (0, dim - 1), (spread, [v])))
    zero = [0.0] * dim
    out.append(Grid(zero, (0,), ([1.0, 2.0],)))  # against w_0 = -0.0
    out.append(Grid(zero, (0, dim - 1), ([1.0, 1e300], [1e300, 1.0])))
    out.append(Grid([1e300] * dim, (1,), ([1e300] * 3,)))
    for base in (1.7e308, 1.0):  # products overflow
        out.append(Grid([base] * dim, (dim - 1, 0), ([1.7e308, 1.0], [1.0, 1.7e308])))
    out.append(Grid([0.0, 0.0] + [1e-4] * (dim - 2), (1, 2),
                    ([0.0, 2.0, 0.0], [1.0, 0.0, 1e-4])))
    return out


def _assert_batch_equal(ratio, batch, dim):
    """Off the finite path the ratio has no batch: the search takes it per
    candidate (`_Search.batch_fn`), and there is nothing to compare."""
    if batch is None:
        return
    for grid in _batches(dim):
        assert repr(batch(grid)) == repr(per_candidate(ratio)(grid)), grid


@pytest.mark.parametrize("form", RECORDS)
def test_batched_ratio_is_per_candidate(form):
    f = FORM_TABLE[form]
    kinds = SB_KINDS if f.kernel != "U" else U_KINDS
    for kind in kinds:
        for p, q in _pairs(f.sigma):
            ratio, batch = _form_ratios(form, _instance(p, q, kind))[:2]
            _assert_batch_equal(ratio, batch, L)


def _scaling(side, p, q, dim=L):
    b = WeightSeq(0, ((2.0,) + W[1:] + (0.5, 0.25))[:dim])
    c = WeightSeq(0, (V + (1.0, 4.0))[:dim])
    return _scaling_ratios(side, b, c, ExponentPair(p, q))


@pytest.mark.parametrize("side", ["SCALE3", "SCALE4"])
def test_batched_scaling_ratio_is_per_candidate(side):
    for p, q in _pairs(True):
        if math.isinf(q):
            continue  # the scaled displays need a finite q
        ratio, batch = _scaling(side, p, q)[:2]
        _assert_batch_equal(ratio, batch, L)


VALUES = (0.0, 5e-324, 1e-300, 1e-4, 1.0, 1e4, 1e300, 1.7e308)


@st.composite
def grid_cases(draw):
    """A record or scaled display, exponents, a kernel, and a grid of one
    or two coordinates at random positions on a random base point."""
    name = draw(st.sampled_from(RECORDS + ["SCALE3", "SCALE4"]))
    scaled = name.startswith("SCALE")
    sigma = scaled or FORM_TABLE[name].sigma
    p, q = draw(st.sampled_from([(p, q) for p, q in _pairs(sigma)
                                 if not (scaled and math.isinf(q))]))
    dim = draw(st.integers(1, 6))
    coords = tuple(draw(st.permutations(range(dim)))[:draw(st.integers(1, min(2, dim)))])
    base = draw(st.lists(st.sampled_from(VALUES), min_size=dim, max_size=dim))
    values = tuple(draw(st.lists(st.sampled_from(VALUES), min_size=1, max_size=15))
                   for _ in coords)
    if scaled:
        return _scaling(name, p, q, dim), Grid(base, coords, values)
    kinds = SB_KINDS if FORM_TABLE[name].kernel != "U" else U_KINDS
    inst = _instance(p, q, draw(st.sampled_from(kinds)), dim)
    return _form_ratios(name, inst), Grid(base, coords, values)


@settings(max_examples=300, deadline=None)
@given(grid_cases())
def test_grid_batch_is_per_candidate(case):
    fns, grid = case
    if fns.batch is not None:  # else the search takes the ratio per candidate
        assert repr(fns.batch(grid)) == repr(per_candidate(fns.ratio)(grid)), grid


def test_batch_falls_back_only_off_the_finite_path(monkeypatch):
    """Grid candidates on finite lines stay on the batch path; 1e300
    entries that overflow a power, and infinite lines, leave it."""
    fallbacks = []
    real = batch_mod.candidates
    monkeypatch.setattr(batch_mod, "candidates",
                        lambda *a: fallbacks.append(1) or real(*a))
    batch = _form_ratios("STRONG", _instance(2.0, 2.0, "tabulated")).batch
    batch(_batches(L)[0])
    assert not fallbacks
    batch(Grid([0.0] * L, (0,), ([1.0, 1e300],)))
    assert fallbacks
    # No batch: the search takes the ratio per candidate.
    fns = _form_ratios("GOP_DUAL", _instance(2.0, 2.0, "squared"))
    assert fns.batch is None
    fallbacks.clear()
    _Search(fns, L, L, 0).batch_fn(_batches(L)[0])
    assert fallbacks


def _one_at_a_time(s):
    """The support-grid loop that considered one candidate at a time."""
    remaining = max(s.budget - s.evals, 0)
    n2 = s.dim * (s.dim - 1) // 2
    n3 = s.dim * (s.dim - 1) * (s.dim - 2) // 6
    g = 3
    while g + 2 <= 15 and n2 * (g + 2) + n3 * (g + 2) ** 2 <= remaining:
        g += 2
    grid = [10.0 ** t for t in _linspace(-4.0, 4.0, g)]
    for size in (2, 3):
        for support in itertools.combinations(range(s.dim), size):
            for extra in itertools.product(grid, repeat=size - 1):
                if s.evals >= s.budget:
                    return
                x = [0.0] * s.dim
                x[support[0]] = 1.0
                for idx, val in zip(support[1:], extra):
                    x[idx] = val
                s.consider(x)


SEARCH_DIM = 6
SEARCH_PAIRS = ((0.5, 2.0), (2.0, 1.0), (math.inf, 3.0), (1.0, 0.5))
def _search_ratios(name, p, q):
    if name in ("SCALE3", "SCALE4"):
        b = WeightSeq(0, (2.0, 0.5, 1.0, 3.0, 1.0, 0.25))
        c = WeightSeq(0, (1.0, 0.0, 5e-324, 2.5, 1.0, 4.0))
        return _scaling_ratios(name, b, c, ExponentPair(p, q))
    kind = "sup" if FORM_TABLE[name].kernel != "U" else "tabulated"
    return _form_ratios(name, _instance(p, q, kind, SEARCH_DIM))


@pytest.mark.parametrize("name", RECORDS + ["SCALE3", "SCALE4"])
def test_support_grid_batched_is_one_at_a_time(name):
    """Budgets dim + 1 and dim + 7 stop inside a support; 3000 and 6000
    run grids of 11 and 15 points.  The full grids run at one exponent
    pair per record."""
    sigma = name in ("SCALE3", "SCALE4") or FORM_TABLE[name].sigma
    pairs = [(p, q) for p, q in SEARCH_PAIRS if not sigma or 1.0 <= p < math.inf]
    full = pairs[(RECORDS + ["SCALE3", "SCALE4"]).index(name) % len(pairs)]
    for p, q in pairs:
        ratio, batch = _search_ratios(name, p, q)[:2]
        budgets = (SEARCH_DIM + 1, SEARCH_DIM + 7)
        for budget in budgets + ((3000, 6000) if (p, q) == full else ()):
            results = []
            for run in ("batch", "per_candidate", "one_at_a_time"):
                s = _Search(Ratios(ratio, batch if run == "batch" else None),
                            SEARCH_DIM, budget, 0)
                s.vertices()
                if run == "one_at_a_time":
                    _one_at_a_time(s)
                else:
                    s.support_grid()
                results.append((repr(s.best), repr(s.best_x), s.evals))
            assert results[0] == results[1] == results[2], (name, p, q, budget)


def _fallbacks(monkeypatch):
    """Count the grids a batch hands to the per-candidate ratio."""
    grids = []
    real = batch_mod.candidates

    def spy(grid):
        grids.append(grid)
        return real(grid)
    monkeypatch.setattr(batch_mod, "candidates", spy)
    return grids


def _compared(fns, grid):
    """The batch of the grid, after checking it against the per-candidate one."""
    got = fns.batch(grid)
    assert repr(got) == repr(per_candidate(fns.ratio)(grid)), grid
    return got


def test_finite_support_grid_searches_never_fall_back(monkeypatch):
    """On seeded finite instances every record's support-grid search stays
    on the batch, while the overflow grids above still leave it."""
    grids = _fallbacks(monkeypatch)
    rng = random.Random(42)
    for form in RECORDS:
        f = FORM_TABLE[form]
        kinds = SB_KINDS if f.kernel != "U" else ("constant", "sup", "tabulated")
        for p, q in _pairs(f.sigma):
            if q == 3.0 or p == 3.0:
                continue
            inst = random_instance(rng, p, q, length=rng.randint(2, 6), kinds=kinds,
                                   allow_zero_v=True)
            fns = _form_ratios(form, inst)
            assert fns.batch is not None, form
            s = _Search(fns, inst.length, 400, 0)
            s.vertices()
            s.support_grid()
            assert s.evals > inst.length
    assert grids == []
    for form in RECORDS:
        kind = "sup" if FORM_TABLE[form].kernel != "U" else "tabulated"
        fns = _form_ratios(form, _instance(2.0, 2.0, kind))
        for base in (1.7e308, 1.0):
            _compared(fns, Grid([base] * L, (L - 1, 0), ([1.7e308, 1.0], [1.0, 1.7e308])))
        assert grids, form
        grids.clear()


def test_support_grid_hands_the_batch_only_finite_nonnegative_grids(monkeypatch):
    """The batch does not check its grid: every grid a support-grid search
    hands it, and every grid the form's batch then reads (for SCALE4 the
    search's grid raised to 1/p), has a finite, nonnegative base and
    values, for every record and both scaled displays, on seeded finite
    instances, at budgets that stop inside a support and that run the
    grids of 11 and 15 points."""
    seen = []

    def finite_nonnegative(grid):
        assert all(math.isfinite(x) and x >= 0.0
                   for x in itertools.chain(grid.base, *grid.values)), grid
        seen.append(grid)
        return grid
    real = oracle.columns
    monkeypatch.setattr(oracle, "columns", lambda grid: real(finite_nonnegative(grid)))
    rng = random.Random(43)
    cases = []
    for form, f in FORM_TABLE.items():
        kinds = SB_KINDS if f.kernel != "U" else ("constant", "sup", "tabulated")
        for p, q in _pairs(f.sigma):
            if q != 3.0 and p != 3.0:
                inst = random_instance(rng, p, q, length=rng.randint(2, 6), kinds=kinds,
                                       allow_zero_v=True)
                cases.append((_form_ratios(form, inst), inst.length))
    for side in ("SCALE3", "SCALE4"):
        for p, q in _pairs(True):
            if q != 3.0 and p != 3.0 and not math.isinf(q):
                inst = random_instance(rng, p, q, length=rng.randint(2, 6), allow_zero_v=True)
                cases.append((_scaling_ratios(side, inst.w, inst.v, inst.exponents), inst.length))
    for fns, dim in cases:
        assert fns.batch is not None
        spied = fns._replace(batch=lambda grid, b=fns.batch: b(finite_nonnegative(grid)))
        for budget in (dim + 1, dim + 7, 3000, 6000):
            s = _Search(spied, dim, budget, 0)
            s.vertices()
            s.support_grid()
            assert seen or s.evals == budget
            seen.clear()


def test_an_outer_power_that_overflows_falls_back(monkeypatch):
    """x ** q raises OverflowError inside the fused line pass at q = 2 (an
    inner term near 1e200), and inside the root at q = 0.5."""
    grids = _fallbacks(monkeypatch)
    for q in (2.0, 0.5):
        fns = _form_ratios("GOP_DUAL", _instance(1.0, q, "tabulated"))
        _compared(fns, Grid([0.0] * L, (0, 1), ([1.0, 1e200], [1.0, 2.0])))
        assert grids, q
        grids.clear()


def test_a_right_hand_side_that_overflows_falls_back(monkeypatch):
    """v = 1e300 times a grid value 1e10 overflows the right-hand side's
    sums while the left-hand side stays finite."""
    grids = _fallbacks(monkeypatch)
    for p in (1.0, math.inf):
        inst = Instance(ExponentPair(p, 2.0), WeightSeq(0, (1e300,) * L), WeightSeq(0, W),
                        _kernel("tabulated"))
        fns = _form_ratios("GOP_DUAL", inst)
        ratios = _compared(fns, Grid([0.0] * L, (1, 2), ([1.0, 1e10], [1.0, 2.0])))
        assert ratios[2] is None  # x / inf says nothing
        assert grids, p
        grids.clear()


def test_a_zero_weight_against_an_overflowed_inner_term():
    """w_0 = -0.0 meets an inner term that overflows to inf: 0 * inf is 0 in
    the per-candidate evaluation, so the batch must agree with it (here by
    falling back)."""
    for form in ("GOP_DUAL", "WEAK", "STRONG", "SUP_ITER"):
        for q in (1.0, 2.0, math.inf):
            fns = _form_ratios(form, _instance(1.0, q, "tabulated"))
            _compared(fns, Grid([0.0] * L, (0, 3), ([1.0, 1.7e308], [1.0, 2.0])))


@pytest.mark.parametrize("q", [1.0, 3.0])
def test_a_negative_zero_kernel_entry_at_odd_q(q):
    """pow_for adds +0.0 after a power 1 or an odd one, so that -0.0 becomes
    +0.0; the fused passes take x ** q, whose zero sign no sum shows."""
    kern = tabulated_kernel([[-0.0, 2.0, 4.0, 4.0], [0.5, -0.0, 3.0], [2.0, 0.0], [-0.0]],
                            0, L)
    for form in RECORDS:
        if FORM_TABLE[form].kernel != "U":
            continue
        for p in (1.0, 3.0):
            inst = Instance(ExponentPair(p, q), WeightSeq(0, V), WeightSeq(0, W), kern)
            fns = _form_ratios(form, inst)
            for grid in _batches(L)[:4] + [Grid([0.0, 1.0, 0.0, 0.0], (0,), ([0.0, 1.0],))]:
                _compared(fns, grid)


@pytest.mark.parametrize("p, q", [(math.inf, 2.0), (2.0, math.inf), (math.inf, math.inf)])
def test_infinite_exponents_on_two_coordinate_grids(p, q):
    for form in RECORDS:
        f = FORM_TABLE[form]
        if f.sigma:
            continue
        kind = "row" if f.kernel != "U" else "tabulated"
        fns = _form_ratios(form, _instance(p, q, kind))
        for grid in _batches(L):
            _compared(fns, grid)


def test_backward_records_on_two_coordinate_grids():
    """A backward line reads its entries from n up, so the grid's widest
    parts come first and the outer sum is wide from line 0."""
    backward = [form for form in RECORDS if not FORM_TABLE[form].forward]
    assert backward
    values = [10.0 ** t for t in _linspace(-4.0, 4.0, 5)]
    for form in backward:
        for p, q in ((0.5, 2.0), (2.0, 1.0), (3.0, 3.0), (math.inf, 0.5)):
            for kind in ("tabulated", "power", "constant"):
                fns = _form_ratios(form, _instance(p, q, kind))
                for j, c1, c2 in itertools.combinations(range(L), 3):
                    _compared(fns, Grid(_unit(j, L), (c1, c2), (values, values)))
                    _compared(fns, Grid([0.5] * L, (c2, c1), (values, values[:2])))


def test_a_grid_the_budget_cuts():
    """At budget dim + 4 the vertex pass leaves 4 evaluations: the first
    2-point grid (3 points) runs whole and the second is cut after its
    first ratio, as the loop that took one candidate at a time cut it."""
    fns = _search_ratios("GOP_DUAL", 2.0, 1.0)
    results = []
    for run in ("batch", "one_at_a_time"):
        s = _Search(fns, SEARCH_DIM, SEARCH_DIM + 4, 0)
        s.vertices()
        if run == "batch":
            s.support_grid()
        else:
            _one_at_a_time(s)
        results.append((repr(s.best), repr(s.best_x), s.evals))
    assert results[0] == results[1]
    assert results[0][2] == SEARCH_DIM + 4


def test_keep_first_max_takes_the_first_of_equal_ratios_and_skips_none():
    s = _Search(Ratios(lambda x: None), 3, 100, 0)
    s._keep_first_max([None, None], lambda k: [float(k)] * 3)
    assert s.best_x is None and s.evals == 2
    s._keep_first_max([None, 0.0, None, 0.0], lambda k: [float(k)] * 3)
    assert s.best == 0.0 and s.best_x == [1.0] * 3
    s._keep_first_max([1.0, 2.0, None, 2.0, 1.5], lambda k: [float(k)] * 3)
    assert s.best == 2.0 and s.best_x == [1.0] * 3
    s._keep_first_max([2.0, 2.0], lambda k: [9.0] * 3)  # not above the best
    assert s.best_x == [1.0] * 3
    s._keep_first_max([math.inf, 3.0, math.inf], lambda k: [float(k)] * 3)
    assert s.best == math.inf and s.best_x == [0.0] * 3 and s.evals == 16
