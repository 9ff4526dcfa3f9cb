"""The equivalence suites' sample batch against the scalar evaluator.

`oracle._sample_lhs` evaluates one form's left-hand side at every sample
of a suite as one `batch.lines_batch`, the sample index its single grid
coordinate, and falls back to the evaluator per sample where the kernel
lines are not finite or the batch meets an overflow.  Every record of
FORM_TABLE is compared with `oracle._evaluator` by `repr` at p, q in
{0.5, 1, 2, inf} and L 1-8, on samples with zero entries, a single
trial, an entry that is zero in every sample, and entries whose products
or powers overflow, on kernels whose lines are finite or overflow.  Each
suite evaluates each of its forms once per call and checks its regime
before it draws a sample.
"""

import math
import random

import pytest

from kernelineq import (ExponentPair, Instance, Kernel, WeightSeq,
                        constant_kernel, equivalence_suite, oracle, tabulated_kernel)
from kernelineq.kernels import RowSequenceKernel, SupSequenceKernel
from kernelineq.oracle import FORM_TABLE, _evaluator, _random_sequences, _sample_lhs

EXPONENTS = (0.5, 1.0, 2.0, math.inf)
U_KINDS = ("constant", "sup", "row", "tabulated", "power", "big", "squared")
SB_KINDS = ("sup", "row")
ALIASES = {"B1", "B3", "B4", "B6", "BT4"}


def _kernel(kind: str, length: int) -> Kernel:
    """A kernel on the window [0, length).  "big" has 1e200 entries, whose
    p-th powers overflow at p = 2; "squared" is it squared, with inf
    entries, so its lines are never finite."""
    u = WeightSeq(0, tuple((0.5, 2.0, 1.0, 3.0)[i % 4] for i in range(length)))
    if kind == "constant":
        return constant_kernel(2.0, 0, length)
    if kind == "sup":
        return Kernel(SupSequenceKernel(u), 0, length)
    if kind == "row":
        return Kernel(RowSequenceKernel(u), 0, length)
    rows = [[float(i + n + 1) for n in range(length - i)] for i in range(length)]
    if kind == "tabulated":
        return tabulated_kernel(rows, 0, length)
    if kind == "power":
        return tabulated_kernel(rows, 0, length).power(1.5)
    rows = [[1e200] + row[1:] for row in rows]
    return tabulated_kernel(rows, 0, length).power(2.0 if kind == "squared" else 1.0)


def _instance(p, q, kind, length):
    rng = random.Random(f"{kind}:{length}")
    v = WeightSeq(0, tuple(rng.choice((0.0, 0.5, 1.0, 2.5)) for _ in range(length)))
    w = WeightSeq(0, tuple(rng.choice((0.0, 0.5, 1.0, 3.0)) for _ in range(length)))
    return Instance(ExponentPair(p, q), v, w, _kernel(kind, length))


def _sample_sets(inst):
    """Random samples with zero entries, a single trial, samples whose last
    entry is zero in every one, and samples with 1e300, 1.7e308 and
    subnormal entries, whose products and powers overflow or underflow."""
    L = inst.length
    drawn = _random_sequences(inst, 5, L)
    zero_last = [a[:-1] + (0.0,) for a in drawn if any(a[:-1])]
    huge = [tuple((1e300, 1.7e308, 5e-324, 0.0, 2.0)[(i + k) % 5] for i in range(L))
            for k in range(3)]
    return [drawn, drawn[:1], zero_last, huge]


def _records(kind):
    """Each record once (an alias names a record already listed), the SB
    records only on sequence kernels."""
    return [name for name, f in FORM_TABLE.items() if name not in ALIASES
            and (f.kernel == "U" or kind in SB_KINDS)]


@pytest.mark.parametrize("length", range(1, 9))
@pytest.mark.parametrize("p", EXPONENTS)
def test_sample_batch_matches_the_evaluator(length, p):
    for q in EXPONENTS:
        for kind in U_KINDS:
            inst = _instance(p, q, kind, length)
            for name in _records(kind):
                scalar = _evaluator(name, inst)
                for samples in _sample_sets(inst):
                    if not samples:
                        continue
                    got = _sample_lhs(name, inst, samples)
                    want = [scalar(list(a)) for a in samples]
                    assert repr(got) == repr(want), (name, kind, length, p, q)


def _scalar_calls(monkeypatch):
    """Count the evaluators `_sample_lhs` builds for its per-sample fallback."""
    calls = []
    real = oracle._lines_evaluator

    def spy(*args):
        calls.append(args[0])
        return real(*args)
    monkeypatch.setattr(oracle, "_lines_evaluator", spy)
    return calls


def test_the_batch_runs_where_everything_is_finite(monkeypatch):
    calls = _scalar_calls(monkeypatch)
    for kind in ("constant", "sup", "row", "tabulated", "power"):
        inst = _instance(2.0, 1.0, kind, 5)
        for name in _records(kind):
            _sample_lhs(name, inst, _random_sequences(inst, 10, 3))
    assert calls == []


def test_the_fallback_takes_infinite_lines_and_overflows(monkeypatch):
    calls = _scalar_calls(monkeypatch)
    # The squared kernel's lines hold inf: every record falls back.
    inst = _instance(1.0, 1.0, "squared", 4)
    values = _sample_lhs("GOP_DUAL", inst, _random_sequences(inst, 5, 0))
    assert len(calls) == 1 and len(values) == 5
    # 1e200^2 overflows only in the lines of a record raised to p = 2.
    inst = _instance(2.0, 1.0, "big", 4)
    _sample_lhs("GOP_DUAL", inst, _random_sequences(inst, 5, 0))
    assert len(calls) == 1
    _sample_lhs("STRONG", inst, _random_sequences(inst, 5, 0))
    assert len(calls) == 2
    # Finite lines, but K * a = 1e200 * 1e300 overflows in the batch.
    huge = [(1e300, 1.0, 0.0, 2.0), (1.0,) * 4]
    assert _sample_lhs("GOP_DUAL", inst, huge)[0] == math.inf
    assert len(calls) == 3


def test_a_root_that_overflows_falls_back(monkeypatch):
    """At q = 0.5 the root squares the outer sum: with w = 1e100 a finite
    sum near 1e160 has a root past the largest float, inf per sample."""
    calls = _scalar_calls(monkeypatch)
    inst = Instance(ExponentPair(1.0, 0.5), WeightSeq(0, (1.0,) * 3),
                    WeightSeq(0, (1e100,) * 3), _kernel("tabulated", 3))
    samples = [(1.0, 2.0, 1.0), (1e120, 1.0, 1.0)]
    values = _sample_lhs("GOP_DUAL", inst, samples)
    assert len(calls) == 1 and values[1] == math.inf
    scalar = _evaluator("GOP_DUAL", inst)
    assert repr(values) == repr([scalar(list(a)) for a in samples])


def test_the_fallback_resolves_the_record_once(monkeypatch):
    """Where the lines are not finite, the per-sample fallback evaluates the
    record and lines `_sample_lhs` has already built."""
    calls = []
    real = oracle._form_columns

    def counted(*args):
        calls.append(args[0])
        return real(*args)
    monkeypatch.setattr(oracle, "_form_columns", counted)
    inst = _instance(1.0, 1.0, "squared", 4)
    samples = _random_sequences(inst, 5, 0)
    values = _sample_lhs("GOP_DUAL", inst, samples)
    assert len(calls) == 1
    scalar = _evaluator("GOP_DUAL", inst)
    assert repr(values) == repr([scalar(list(a)) for a in samples])


SUITE_FORMS = {
    "six": ("B1", "B2", "B3", "B4", "B6", "B5"),
    "hux": ("SB1", "SB2", "SB3", "SB4", "SB6", "SB7", "SB5", "SB8"),
    "kernel_main": ("WEAK", "GOP_DUAL", "STRONG"),
    "supremalpge": ("CDPRIME", "CPRIME"),
}


@pytest.mark.parametrize("suite, p, q", [("six", 0.5, 1.0), ("hux", 1.0, 2.0),
                                         ("kernel_main", 0.5, math.inf),
                                         ("supremalpge", 2.0, 1.0)])
def test_each_form_is_evaluated_once_per_call(monkeypatch, suite, p, q):
    seen = []
    real = oracle._sample_lhs

    def counted(form, inst, samples):
        seen.append((form, len(samples)))
        return real(form, inst, samples)
    monkeypatch.setattr(oracle, "_sample_lhs", counted)
    inst = _instance(p, q, "sup", 4)
    rep = equivalence_suite(suite, inst, budget=100, seed=3, trials=7)
    assert rep.passed, rep.violations
    assert seen == [(form, 7) for form in SUITE_FORMS[suite]]


@pytest.mark.parametrize("suite, p, q, message", [
    ("six", 2.0, 1.0, "six-form suite needs"),
    ("six", 0.5, math.inf, "six-form suite needs"),
    ("hux", 2.0, 1.0, "sup-of-sequence suite needs"),
    ("hux", 1.0, math.inf, "sup-of-sequence suite needs"),
    ("kernel_main", 2.0, 1.0, "three-form equivalence needs"),
    ("supremalpge", 0.5, 1.0, "sigma-weighted suite needs"),
    ("supremalpge", math.inf, 1.0, "sigma-weighted suite needs"),
    ("supremalpge", 2.0, math.inf, "sigma-weighted suite needs"),
    ("nonesuch", 1.0, 1.0, "unknown suite"),
])
def test_the_regime_is_checked_before_samples_are_drawn(monkeypatch, suite, p, q,
                                                        message):
    def no_draw(*args):
        raise AssertionError("samples were drawn")
    monkeypatch.setattr(oracle, "_random_sequences", no_draw)
    with pytest.raises(ValueError, match=message):
        equivalence_suite(suite, _instance(p, q, "sup", 3), budget=100, seed=0)
