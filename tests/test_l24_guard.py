"""The block decomposition's threshold guard: an upper bound on C(U^p)
that scans no U^p admits a covering ratio it clears, and only the exact
constant of U^p rejects one."""

import itertools
import math
import random

import pytest

from kernelineq import (INF, ExponentPair, Instance, Kernel, TestSequence,
                        WeightSeq, constant_kernel, covering_sequence,
                        default_ratio, kernels, l24_decompose, l24_threshold,
                        tabulated_kernel)
from kernelineq.kernels import (POWER_BOUND_PAD, PowerKernel, SupSequenceKernel,
                                TabulatedKernel)
from kernelineq.numerics import ext_pow

PS = (0.1, 0.25, 0.5, 0.75, 0.9)
ENTRIES = (0.0, 0.0, 1e-300, 0.5, 1.0, 2.0, 3.0, 1e300)


def _rows(rng, length, entries=ENTRIES):
    return [[rng.choice(entries) for _ in range(length - i)] for i in range(length)]


def _kernels(seed: int):
    """Seeded kernels of every kind the bound reads: tabulated with zeros
    and 1e+-300 entries, a power of one, sup and constant (c = 0 too)."""
    rng = random.Random(seed)
    for trial in range(60):
        L = rng.randint(1, 8)
        yield tabulated_kernel(_rows(rng, L), 0, L)
        spec = TabulatedKernel(0, tuple(map(tuple, _rows(rng, L, ENTRIES[:-1]))))
        yield Kernel(PowerKernel(spec, rng.choice((0.5, 2.0, 3.0))), 0, L)
        u = WeightSeq(0, tuple(rng.choice(ENTRIES) for _ in range(L)))
        yield Kernel(SupSequenceKernel(u), 0, L)
        yield constant_kernel(rng.choice((0.0, 0.5, 1.0, 1e300)), 0, L)


def _copy(K: Kernel) -> Kernel:
    return Kernel(K.spec, K.start, K.length)


def _additive(rng, length: int) -> Kernel:
    u = [rng.uniform(0.5, 2.0) for _ in range(length)]
    return tabulated_kernel([list(itertools.accumulate(u[i:])) for i in range(length)],
                            0, length)


def _instance(K: Kernel, p: float, q: float, rng) -> Instance:
    w = WeightSeq(0, tuple(rng.uniform(0.5, 2.0) for _ in range(K.length)))
    return Instance(ExponentPair(p, q), w, w, K)


class TestBound:
    def test_bound_is_at_least_the_scan_of_u_to_the_p(self):
        finite = 0
        for K in _kernels(2811):
            for p in PS:
                bound = _copy(K).power_regularity_bound(p)
                assert bound >= K.power(p).regularity_constant(), (K.spec, p)
                if K.regularity_constant() < INF:
                    assert bound < INF, (K.spec, p)
                    finite += 1
        assert finite > 100

    def test_kept_exact_value_is_the_bound(self):
        K = _additive(random.Random(2812), 12)
        assert K.power_regularity_bound(1.0) == K.regularity_constant()
        exact = K.power_regularity(0.5)
        assert K.power_regularity_bound(0.5) == exact
        fresh = _copy(K)
        assert fresh.power_regularity_bound(0.5) == (
            ext_pow(fresh.regularity_constant(), 0.5) * POWER_BOUND_PAD)

    @pytest.mark.parametrize("rows, p", [
        # Every sum of two entries overflows: U's scan skips every pair
        # (C(U) = 0) while U^p's scan reads 1/2.
        ([[1e308, 1e308], [1e308]], 0.5),
        # Subnormal entries whose powers stay subnormal at p = 0.999:
        # rounding them lifts U^p's scan 4 % above C(U)^p.
        ([[8.4e-323, 2.5e-323], [2e-323]], 0.999),
    ])
    def test_unsound_float_bound_is_inf(self, rows, p):
        K = tabulated_kernel(rows, 0, len(rows))
        exact = K.power(p).regularity_constant()
        assert ext_pow(K.regularity_constant(), p) * POWER_BOUND_PAD < exact
        assert _copy(K).power_regularity_bound(p) == INF


class TestGuard:
    @pytest.mark.parametrize("p, q", [(0.5, 1.0), (0.25, 2.0), (0.75, 0.5), (0.9, 3.0)])
    def test_cleared_bound_scans_no_view(self, p, q, monkeypatch):
        # C(U^p) is scanned from the views of U^p, so the spy sits on that
        # scan; U's own constant, which the bound reads, is computed first.
        rng = random.Random(2813)
        K = _additive(rng, 30)
        inst = _instance(K, p, q, rng)
        cs = covering_sequence(inst.w, default_ratio(p, q, K.regularity_constant() ** p))
        assert cs.D >= l24_threshold(p, q, K.power_regularity_bound(p))
        a = TestSequence(0, tuple(rng.choice((0.0, 0.5, 1.0, 2.0)) for _ in range(30)))
        # The exact path on an equal instance whose kernel keeps C(U^p).
        twin = _copy(K)
        twin.power_regularity(p)
        want = l24_decompose(Instance(inst.exponents, inst.v, inst.w, twin), a, cs)

        def no_scan(cols, rows):
            raise AssertionError("U^p scanned")
        monkeypatch.setattr(kernels, "_regularity_scan", no_scan)
        assert repr(l24_decompose(inst, a, cs)) == repr(want)
        assert ("power_regularity", p) not in K.memo

    def test_bound_that_does_not_clear_falls_back_to_the_scan(self, monkeypatch):
        # U = 1: C(U) = 1/2, so the bound is 0.707 and its threshold at
        # p = 0.5, q = 1 is 2 * 2^2 * 0.5 = 4 > D = 2; U^p = 1 too, whose
        # exact constant 1/2 gives the threshold 2, which D = 2 meets.
        K = constant_kernel(1.0, 0, 3)
        inst = Instance(ExponentPair(0.5, 1.0), WeightSeq(0, (1.0, 1.0, 1.0)),
                        WeightSeq(0, (1.0, 1.0, 1.0)), K)
        assert math.isclose(K.power_regularity_bound(0.5), math.sqrt(0.5))
        cs = covering_sequence(inst.w, 2.0)
        assert cs.D < l24_threshold(0.5, 1.0, K.power_regularity_bound(0.5))
        scanned = []
        scan = kernels._regularity_scan

        def counting_scan(cols, rows):
            scanned.append(cols)
            return scan(cols, rows)
        monkeypatch.setattr(kernels, "_regularity_scan", counting_scan)
        dec = l24_decompose(inst, TestSequence(0, (1.0, 1.0, 1.0)), cs)
        assert len(scanned) == 1 and scanned[0] is K.powered(0.5)[0]
        assert K.power_regularity(0.5) == 0.5
        assert dec.lhs > 0.0

    def test_bound_that_does_not_clear_derives_u_to_the_p_once(self, monkeypatch):
        # The exact constant and the decomposition read one view of U^p.
        rng = random.Random(2814)
        K = _additive(rng, 12)
        inst = _instance(K, 0.5, 1.0, rng)
        cs = covering_sequence(inst.w, l24_threshold(0.5, 1.0, K.power(0.5)
                                                     .regularity_constant()))
        assert cs.D < l24_threshold(0.5, 1.0, _copy(K).power_regularity_bound(0.5))
        powers = []
        pow_for = kernels.pow_for

        def counting_pow_for(r):
            powers.append(r)
            return pow_for(r)
        monkeypatch.setattr(kernels, "pow_for", counting_pow_for)
        a = TestSequence(0, tuple(rng.choice((0.0, 0.5, 1.0, 2.0)) for _ in range(12)))
        dec = l24_decompose(inst, a, cs)
        assert powers == [0.5]
        assert dec.lhs > 0.0

    def test_p_one_reads_the_stored_columns_value(self, monkeypatch):
        # At p = 1 the decomposition reads U's +0.0 copy, whose -0.0 entries
        # are +0.0: the result is that of the stored columns by repr.
        rows = [[-0.0, 1.0, -0.0, 2.0], [3.0, -0.0, 0.5], [-0.0, 1.0], [2.0]]
        K = tabulated_kernel(rows, 0, 4)
        assert "-0.0" in repr(K.columns)
        for w, a in (((1.0, 0.0, 2.0, 0.5), (1.0, 2.0, 0.0, 1.0)),
                     ((1.0, 1.0, 1.0, 1.0), (0.0, 0.0, 0.0, 1.0)),
                     ((2.0, 0.5, 1.0, 1.0), (1.0, 0.0, 0.0, 0.0))):
            for q in (0.5, 1.0, 3.0):
                inst = Instance(ExponentPair(1.0, q), WeightSeq(0, w), WeightSeq(0, w), K)
                cs = covering_sequence(inst.w, default_ratio(1.0, q,
                                                             K.regularity_constant()))
                seq = TestSequence(0, a)
                got = repr(l24_decompose(inst, seq, cs))
                with monkeypatch.context() as m:
                    powered = Kernel.powered
                    m.setattr(Kernel, "powered", lambda kern, r=None: (
                        powered(kern) if r == 1.0 else powered(kern, r)))
                    assert got == repr(l24_decompose(inst, seq, cs))

    def test_only_the_exact_scan_rejects(self):
        # A ratio just below the exact threshold is rejected with the
        # threshold of the exact constant in its message.
        K = constant_kernel(1.0, 0, 3)
        inst = Instance(ExponentPair(0.5, 1.0), WeightSeq(0, (1.0, 1.0, 1.0)),
                        WeightSeq(0, (1.0, 1.0, 1.0)), K)
        cs = covering_sequence(inst.w, 1.99)
        with pytest.raises(ValueError, match=r"below the required threshold "
                           r"2\*max\(1,2\^\(q/p-1\)\)\^2\*C\^\(q/p\) = 2\.0$"):
            l24_decompose(inst, TestSequence(0, (1.0, 1.0, 1.0)), cs)
