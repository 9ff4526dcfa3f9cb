import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from kernelineq import (INF, ExponentPair, Instance, TestSequence, WeightSeq,
                        constant_kernel, covering_sequence, default_ratio,
                        l24_decompose, l24_threshold, tabulated_kernel,
                        verify_covering, weighted_sum_bounds)
from kernelineq.discretize import NEG_INF, CoveringSeq, decomposition_ratio

from conftest import close, random_instance

w111 = WeightSeq(0, (1.0, 1.0, 1.0))


def inst_111(p=1.0, q=1.0):
    return Instance(ExponentPair(p, q), w111, w111, constant_kernel(1.0, 0, 3))


class TestCoveringSequence:
    def test_unit_example(self):
        cs = covering_sequence(w111, 2.0)
        assert cs.picks == (0, 1, 2)
        assert cs.index(cs.N - 1) == NEG_INF

    def test_single_point(self):
        cs = covering_sequence(WeightSeq(0, (1.0,)), 2.0)
        assert cs.picks == (0,)
        assert cs.N == cs.M

    def test_leading_zeros_collapse(self):
        cs = covering_sequence(WeightSeq(0, (0.0, 0.0, 5.0)), 10.0)
        assert cs.picks == (2,)

    def test_all_zero_error(self):
        with pytest.raises(ValueError):
            covering_sequence(WeightSeq(0, (0.0, 0.0)), 2.0)

    def test_requires_ratio_above_one(self):
        with pytest.raises(ValueError):
            covering_sequence(w111, 1.0)

    def test_tail_above_the_largest_level_bound(self):
        # The tail 1.7e308 lies in (2^1023, 2^1024]; 2.0 ** 1024 overflows.
        cs = covering_sequence(WeightSeq(0, (1.7e308, 1.0)), 2.0)
        assert cs.levels == (-1023, 1)
        assert verify_covering(WeightSeq(0, (1.7e308, 1.0)), cs).ok

    def test_level_rounded_up_at_an_exact_boundary(self):
        # -log(0.001) / log(10) rounds to just under 3, so the first
        # guess is level 3, whose band (1e-3, 1e-2] misses 0.001.
        assert covering_sequence(WeightSeq(0, (0.001,)), 10.0).levels == (4,)

    def test_level_rounded_down_just_above_a_boundary(self):
        # One ulp above 1e-40, where the log puts the first guess at 41.
        t = 10.0 ** -40 * (1 + 2 ** -52)
        assert covering_sequence(WeightSeq(0, (t,)), 10.0).levels == (40,)

    def test_infinite_tail_error(self):
        with pytest.raises(ValueError, match="overflows to inf"):
            covering_sequence(WeightSeq(0, (1.7e308, 1.7e308, 1.0)), 2.0)


class TestVerifyCovering:
    def test_roundtrip(self):
        assert verify_covering(w111, covering_sequence(w111, 2.0)).ok

    def test_random_roundtrip(self):
        rng = random.Random(0)
        for _ in range(100):
            L = rng.randint(1, 12)
            vals = [float(rng.randint(0, 5)) for _ in range(L)]
            if not any(vals):
                vals[rng.randrange(L)] = 1.0
            w = WeightSeq(rng.randint(-5, 5), tuple(vals))
            for D in (2.0, 4.0, 10.0):
                cs = covering_sequence(w, D)
                rep = verify_covering(w, cs)
                assert rep.ok, (w, D, rep)

    @pytest.mark.parametrize("vals, D, picks, clause, detail", [
        ((1.0, 1.0, 1.0), 2.0, (0, 2, 1), "i", "not strictly increasing"),
        ((1.0, 0.0), 2.0, (1,), "i", "tail at n_M=1 is zero"),
        ((1.0, 1.0, 1.0), 2.0, (2,), "ii", "clause (ii) fails at k=0"),
        ((1.0, 1.0, 1.0, 1.0), 10.0, (0, 1, 3), "iii", "clause (iii) fails at k=1"),
    ])
    def test_hand_built_failures(self, vals, D, picks, clause, detail):
        cs = CoveringSeq(D=D, N=0, M=len(picks) - 1, indices=(NEG_INF,) + picks,
                         levels=tuple(range(len(picks))))
        rep = verify_covering(WeightSeq(0, vals), cs)
        assert (rep.ok, rep.failed_clause) == (False, clause)
        assert detail in rep.detail

    def test_wrong_top_fails_clause_i(self):
        cs = covering_sequence(w111, 2.0)
        bad = type(cs)(D=cs.D, N=cs.N, M=cs.M - 1,
                       indices=cs.indices[:-1], levels=cs.levels[:-1])
        rep = verify_covering(w111, bad)
        assert not rep.ok and rep.failed_clause == "i"


class TestWeightedSumBounds:
    def test_unit_example(self):
        cs = covering_sequence(w111, 2.0)
        sb = weighted_sum_bounds(w111, TestSequence(0, (1.0, 1.0, 1.0)), cs)
        assert close(sb.lower, 1.0)
        assert sb.middle == 3.0
        assert sb.upper == 12.0

    def test_zero_sequence(self):
        cs = covering_sequence(w111, 2.0)
        sb = weighted_sum_bounds(w111, TestSequence(0, (0.0, 0.0, 0.0)), cs)
        assert (sb.lower, sb.middle, sb.upper) == (0.0, 0.0, 0.0)

    def test_geometric_example(self):
        cs = covering_sequence(w111, 2.0)
        sb = weighted_sum_bounds(w111, TestSequence(0, (1.0, 2.0, 4.0)), cs)
        assert close(sb.lower, 11.0 / 6.0)
        assert sb.middle == 7.0
        assert sb.upper == 22.0

    def test_non_monotone_rejected(self):
        cs = covering_sequence(w111, 2.0)
        with pytest.raises(ValueError):
            weighted_sum_bounds(w111, TestSequence(0, (1.0, 0.5, 1.0)), cs)

    @settings(deadline=None, max_examples=200)
    @given(st.lists(st.integers(0, 9), min_size=1, max_size=10),
           st.lists(st.integers(0, 9), min_size=10, max_size=10),
           st.sampled_from([2.0, 4.0, 10.0]))
    def test_bounds_hold(self, wvals, incr, D):
        if not any(wvals):
            wvals[0] = 1
        L = len(wvals)
        w = WeightSeq(0, tuple(float(x) for x in wvals))
        b_vals, acc = [], 0.0
        for x in incr[:L]:
            acc += x
            b_vals.append(acc)
        b = TestSequence(0, tuple(b_vals))
        cs = covering_sequence(w, D)
        sb = weighted_sum_bounds(w, b, cs)
        assert sb.lower <= sb.middle + 1e-12 * max(1.0, sb.middle)
        assert sb.middle <= sb.upper + 1e-12 * max(1.0, sb.upper)


class TestL24:
    def test_threshold(self):
        # p = q = 1, C* = 1/2: threshold 2 * 1 * 1 * 1/2 = 1.
        assert l24_threshold(1.0, 1.0, 0.5) == 1.0
        assert default_ratio(1.0, 1.0, 0.5) == 2.0

    def test_unit_example(self):
        inst = inst_111()
        cs = covering_sequence(inst.w, 2.0)
        d = l24_decompose(inst, TestSequence(0, (1.0, 1.0, 1.0)), cs)
        assert d.lhs == 6.0
        assert d.block_term == 6.0
        assert d.cross_term == 4.0
        assert close(d.ratio, 0.6)

    def test_zero_sequence(self):
        inst = inst_111()
        cs = covering_sequence(inst.w, 2.0)
        d = l24_decompose(inst, TestSequence(0, (0.0, 0.0, 0.0)), cs)
        assert (d.lhs, d.block_term, d.cross_term) == (0.0, 0.0, 0.0)
        assert d.ratio == 1.0

    def test_single_spike(self):
        # Formula value: cross term sums over k >= N+1, giving
        # tail(1)*a_0 + tail(2)*a_0 = 2 + 1 = 3 and ratio 3/6 = 0.5.
        inst = inst_111()
        cs = covering_sequence(inst.w, 2.0)
        d = l24_decompose(inst, TestSequence(0, (1.0, 0.0, 0.0)), cs)
        assert d.lhs == 3.0
        assert d.block_term == 3.0
        assert d.cross_term == 3.0
        assert close(d.ratio, 0.5)

    def test_infinite_kernel_power_against_zero_entry(self):
        # U = [[1e200, 1e200], [x]] squared has infinite entries; against
        # a_0 = 0 they contribute 0 * inf = 0, not NaN.
        w = WeightSeq(0, (1.0, 1.0))
        for x, lhs, ratio in ((1e200, INF, 1.0), (1.0, 1.0, None)):
            kernel = tabulated_kernel([[1e200, 1e200], [x]], 0, 2).power(2.0)
            inst = Instance(ExponentPair(0.5, 1.0), w, w, kernel)
            d = l24_decompose(inst, TestSequence(0, (0.0, 1.0)),
                              covering_sequence(w, 1e300))
            assert d.lhs == lhs
            if ratio is None:
                assert math.isfinite(d.ratio) and d.ratio > 0.0
            else:
                # lhs and block + cross are both inf: ratio 1, as for 0 = 0.
                assert d.block_term + d.cross_term == INF
                assert d.ratio == ratio

    def test_decomposition_ratio(self):
        assert decomposition_ratio(0.0, 0.0) == 1.0
        assert decomposition_ratio(INF, INF) == 1.0
        assert decomposition_ratio(1.0, 0.0) == INF
        assert decomposition_ratio(INF, 2.0) == INF
        assert decomposition_ratio(1.0, INF) == 0.0
        assert decomposition_ratio(3.0, 2.0) == 1.5

    def test_default_ratio_needs_finite_threshold(self):
        with pytest.raises(ValueError, match="no admissible covering ratio"):
            default_ratio(1.0, 1.0, INF)

    def test_below_threshold_rejected(self):
        inst = inst_111(p=0.5, q=1.0)  # threshold 2*2^2*C*^2 = 2 with C*=1/2
        cs = covering_sequence(inst.w, 1.5)
        with pytest.raises(ValueError) as err:
            l24_decompose(inst, TestSequence(0, (1.0, 1.0, 1.0)), cs)
        assert "threshold" in str(err.value)

    def test_proof_side_inequalities(self):
        rng = random.Random(5)
        for _ in range(50):
            p = rng.choice((0.5, 1.0))
            q = rng.choice((0.5, 1.0, 2.0))
            inst = random_instance(rng, p, q, kinds=("constant", "sup"))
            c_star = inst.kernel.power(p).regularity_constant()
            D = default_ratio(p, q, c_star)
            cs = covering_sequence(inst.w, D)
            a = TestSequence(inst.start,
                             tuple(rng.choice((0.0, 0.5, 1.0, 2.0))
                                   for _ in range(inst.length)))
            d = l24_decompose(inst, a, cs)
            m = max(1.0, 2.0 ** (q / p - 1.0))
            tol = 1e-9 * max(1.0, d.lhs)
            assert d.block_term <= D * d.lhs + tol
            assert d.cross_term <= D * m * m * c_star ** (q / p) * d.lhs + tol
            assert d.lhs <= 2.0 * m * (d.block_term + d.cross_term) + tol
