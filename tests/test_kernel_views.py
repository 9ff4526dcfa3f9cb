"""The kernel's derived triangles, `Kernel.powered(r)` and `Kernel.rows(r)`:
each is the fresh derivation bit for bit, no caller changes one, the
module holds the views of one kernel at a time, and a run of the forms
and the constants on one kernel derives each view once per exponent."""

import collections
import gc
import random
import weakref

import pytest

from kernelineq import (INF, Kernel, StepFunction,
                        TestSequence, WeightSeq, best_constant, bridge_check,
                        characterize, constant_kernel, covering_sequence,
                        default_ratio, functional_lhs, kernels, l24_decompose,
                        lemma_decompose, tabulated_kernel)
from kernelineq.kernels import RowSequenceKernel, SupSequenceKernel, rows_of
from kernelineq.numerics import finite, pow_for
from kernelineq.oracle import FORM_TABLE, STRATEGIES

from conftest import applicable_constants, random_instance

# -0.0 entries, subnormals, and entries whose powers overflow to inf.
_TAB = [[-0.0, 5e-324, 1e200, 1.7e308], [2.0, -0.0, 1e-300], [1e155, 0.5], [5e-324]]
_U = WeightSeq(0, (-0.0, 5e-324, 1e200, 3.0))
KERNELS = {
    "constant": lambda: constant_kernel(-0.0, 0, 4),
    "constant_big": lambda: constant_kernel(1e300, 0, 4),
    "row": lambda: Kernel(RowSequenceKernel(_U), 0, 4),
    "sup": lambda: Kernel(SupSequenceKernel(_U), 0, 4),
    "tabulated": lambda: tabulated_kernel(_TAB, 0, 4),
    "power": lambda: tabulated_kernel(_TAB, 0, 4).power(2.0),
}
EXPONENTS = [0.5, 1.0, 2.0, 3.0, INF]


def fresh(K: Kernel, r):
    """The columns of K raised to r (K's own where r is None), derived anew."""
    return K.columns if r is None else [pow_for(r)(col) for col in K.columns]


@pytest.mark.parametrize("r", EXPONENTS)
@pytest.mark.parametrize("name", list(KERNELS))
def test_views_are_the_fresh_derivations(name, r):
    K = KERNELS[name]()
    cols = fresh(K, r)
    assert repr(K.powered(r)) == repr((cols, finite(*cols)))
    assert repr(K.rows(r)) == repr(rows_of(cols))
    assert repr(K.rows()) == repr(rows_of(K.columns))
    # Held: a second ask derives nothing.
    assert K.powered(r) is K.powered(r) and K.rows(r) is K.rows(r)


@pytest.mark.parametrize("name", list(KERNELS))
def test_no_exponent_is_the_stored_columns(name):
    # powered() hands out the stored columns themselves and the kernel's
    # flag, as rows() reads them, and keeps nothing in the slot.
    K = KERNELS[name]()
    cols, cols_finite = K.powered()
    assert cols is K.columns and cols_finite is K.finite
    assert K.powered(None)[0] is K.columns
    assert ("powered", None) not in kernels._slot[1]
    assert repr(K.rows()) == repr(rows_of(K.columns))


def _regularity_kernels(seed: int):
    """The kernels of KERNELS, then seeded ones of every kind with zeros,
    -0.0, subnormals and entries whose powers overflow or underflow."""
    yield from (make() for make in KERNELS.values())
    rng = random.Random(seed)
    pool = (0.0, -0.0, 5e-324, 1e-300, 0.5, 1.0, 3.0, 1e155, 1e300)
    for _ in range(40):
        L = rng.randint(1, 6)
        rows = [[rng.choice(pool) for _ in range(L - i)] for i in range(L)]
        u = WeightSeq(0, tuple(rng.choice(pool) for _ in range(L)))
        yield tabulated_kernel(rows, 0, L)
        yield tabulated_kernel(rows, 0, L).power(rng.choice((0.5, 2.0, 3.0)))
        yield Kernel(SupSequenceKernel(u), 0, L)
        yield Kernel(RowSequenceKernel(u), 0, L)
        yield constant_kernel(rng.choice(pool), 0, L)


@pytest.mark.parametrize("r", [0.5, 2.0, 3.0])
def test_power_regularity_is_the_power_kernels_scan(r):
    # The scan of the views powered(r) and rows(r) is the scan of a power
    # kernel built anew, by repr.
    seen = set()
    for K in _regularity_kernels(3703):
        got = K.power_regularity(r)
        assert repr(got) == repr(K.power(r).regularity_constant()), (K.spec, r)
        seen.add("inf" if got == INF else "zero" if got == 0.0 else "finite")
    assert seen == {"inf", "zero", "finite"}


def test_the_power_flag_is_the_triangles_own():
    K = KERNELS["tabulated"]()
    assert K.finite and K.powered(1.0)[1] and not K.powered(2.0)[1]
    assert not K.powered(INF)[1] and K.powered(0.5)[1]


def _views_handed_out(monkeypatch) -> list:
    """Record every kernel that asks the slot for its views, with them."""
    seen = []
    real = kernels._views

    def spy(kernel):
        views = real(kernel)
        if not any(v is views for _, v in seen):
            seen.append((kernel, views))
        return views
    monkeypatch.setattr(kernels, "_views", spy)
    return seen


def _outcome(fn, *args):
    try:
        return fn(*args)
    except ValueError as exc:
        return exc


@pytest.mark.parametrize("kind, p, q", [("sup", 1.0, 2.0), ("tabulated", 0.5, 3.0),
                                        ("sup", 2.0, 1.5)])
def test_no_caller_changes_a_view(monkeypatch, kind, p, q):
    seen = _views_handed_out(monkeypatch)
    inst = random_instance(random.Random(3701), p, q, length=6, kinds=(kind,))
    stored = repr(inst.kernel.columns)
    a = TestSequence(inst.start, (1.0, 0.5, 0.0, 2.0, 1.5, 3.0))
    f = StepFunction(inst.start, a.values)
    for form in FORM_TABLE:
        _outcome(functional_lhs, form, inst, a)
        for strategy in STRATEGIES:
            _outcome(best_constant, form, inst, strategy, 60, 1)
    characterize(inst)
    assert applicable_constants(inst)
    for form in ("GOP_DUAL", "SUP_ITER"):
        _outcome(bridge_check, inst, form, 60, 1)
    for which in ("L1", "L2", "L3"):
        _outcome(lemma_decompose, which, inst, f)
    c_star = inst.kernel.regularity_constant()
    pe = min(p, 1.0)
    cs = covering_sequence(inst.w, default_ratio(pe, q, c_star ** pe))
    _outcome(l24_decompose, inst, a, cs)

    assert repr(inst.kernel.columns) == stored
    assert any(K is inst.kernel for K, _ in seen)
    checked = 0
    for K, views in seen:
        assert repr(K.columns) == repr(Kernel(K.spec, K.start, K.length).columns)
        for (view, r), value in views.items():
            cols = fresh(K, r)
            want = (cols, finite(*cols)) if view == "powered" else rows_of(cols)
            assert repr(value) == repr(want), (K.spec, view, r)
            checked += 1
    assert checked >= 3
    slot_kernel, slot_views = kernels._slot[0](), kernels._slot[1]
    assert any(K is slot_kernel and v is slot_views for K, v in seen)


def test_the_slot_holds_one_kernel():
    A, B = KERNELS["tabulated"](), KERNELS["sup"]()
    held = A.powered(2.0)
    A.rows(2.0)
    assert kernels._slot[0]() is A and len(kernels._slot[1]) == 2
    B.rows()
    # B's views replace A's: the slot holds no view of A.
    assert kernels._slot[0]() is B and list(kernels._slot[1]) == [("rows", None)]
    assert all(v is not held for v in kernels._slot[1].values())
    # A asks again: its views are derived anew, equal to the first.
    again = A.powered(2.0)
    assert again is not held and repr(again) == repr(held)
    assert kernels._slot[0]() is A
    # The slot keeps A alive no longer than its callers do, and A's
    # views go with it.
    ref = weakref.ref(A)
    del A, held, again
    gc.collect()
    assert ref() is None
    assert kernels._slot[0] is None and kernels._slot[1] == {}


def test_equal_kernels_keep_their_own_views():
    A, B = KERNELS["tabulated"](), KERNELS["tabulated"]()
    assert A == B
    rows = A.rows()
    B.rows()
    assert kernels._slot[0]() is B
    assert A.rows() is not rows


@pytest.mark.parametrize("p, q", [(2.0, 3.0), (0.5, 1.5), (1.0, INF)])
@pytest.mark.parametrize("kind", ["tabulated", "sup"])
def test_one_derivation_per_exponent_on_a_long_window(monkeypatch, kind, p, q):
    inst = random_instance(random.Random(3702), p, q, length=40, kinds=(kind,))
    K = inst.kernel
    powered, derived = collections.Counter(), []
    real_pow_for, real_rows_of = kernels.pow_for, kernels.rows_of

    def counted_pow_for(r):
        powered[r] += 1
        return real_pow_for(r)

    def counted_rows_of(cols):
        derived.append(cols)
        return real_rows_of(cols)
    monkeypatch.setattr(kernels, "pow_for", counted_pow_for)
    monkeypatch.setattr(kernels, "rows_of", counted_rows_of)
    a = TestSequence(inst.start, tuple(1.0 + (i % 7) for i in range(40)))
    # Every record, the SB ones on the sup kernel.
    for form, f in FORM_TABLE.items():
        if f.kernel == "U" or kind == "sup":
            functional_lhs(form, inst, a)
    characterize(inst)
    assert max(powered.values(), default=0) <= 1, powered
    # Each derivation of rows, by the exponent of the columns it read.
    exponents = collections.Counter(
        None if cols is K.columns else
        next(r for r in powered if repr(cols) == repr(fresh(K, r)))
        for cols in derived)
    assert max(exponents.values(), default=0) <= 1, exponents
    assert powered and derived
