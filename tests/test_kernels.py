import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from kernelineq import INF, Kernel, WeightSeq, constant_kernel, tabulated_kernel
from kernelineq.kernels import (ConstantKernel, PowerKernel, RowSequenceKernel,
                                SupSequenceKernel)

from conftest import close, monotone_tabulated


def doubling_kernel():
    # K(i, n) = 2^(n-i) on window {0, 1, 2}.
    return tabulated_kernel([[1.0, 2.0, 4.0], [1.0, 2.0], [1.0]], 0, 3)


def naive_regularity(k):
    """The regularity constant by its definition: every triple i <= j <= n."""
    worst = 0.0
    for i in range(k.start, k.stop + 1):
        for j in range(i, k.stop + 1):
            for n in range(j, k.stop + 1):
                num = k.eval(i, n)
                if num == 0.0:
                    continue
                den = k.eval(i, j) + k.eval(j, n)
                worst = max(worst, num / den if den > 0 else INF)
    return worst


def spike_kernel():
    # K(0, 2) = 1, every other entry 0.
    return tabulated_kernel([[0.0, 0.0, 1.0], [0.0, 0.0], [0.0]], 0, 3)


class TestEval:
    def test_sup_of_sequence(self):
        k = Kernel(SupSequenceKernel(WeightSeq(0, (3.0, 1.0, 2.0))), 0, 3)
        assert k.eval(1, 2) == 2.0
        assert k.eval(0, 2) == 3.0

    def test_constant(self):
        k = constant_kernel(1.0, 0, 6)
        assert k.eval(0, 5) == 1.0

    def test_row_sequence(self):
        k = Kernel(RowSequenceKernel(WeightSeq(0, (3.0, 1.0, 2.0))), 0, 3)
        assert k.eval(0, 2) == 3.0
        assert k.eval(1, 2) == 1.0

    def test_out_of_window(self):
        k = constant_kernel(1.0, 0, 3)
        with pytest.raises(IndexError):
            k.eval(1, 0)
        with pytest.raises(IndexError):
            k.eval(0, 3)


class TestMonotonicity:
    def test_constant_ok(self):
        assert constant_kernel(1.0, 0, 3).monotonicity_check().ok

    def test_sup_always_ok(self):
        rng = random.Random(0)
        for _ in range(30):
            L = rng.randint(1, 8)
            u = WeightSeq(0, tuple(rng.uniform(0, 5) for _ in range(L)))
            k = Kernel(SupSequenceKernel(u), 0, L)
            assert k.monotonicity_check().ok

    def test_row_violation(self):
        k = Kernel(RowSequenceKernel(WeightSeq(0, (1.0, 3.0))), 0, 2)
        rep = k.monotonicity_check()
        assert not rep.ok
        assert len(rep.violations) >= 1


class TestRegularity:
    def test_constant(self):
        assert constant_kernel(1.0, 0, 3).regularity_constant() == 0.5

    def test_doubling(self):
        assert close(doubling_kernel().regularity_constant(), 1.0)

    def test_spike_not_regular(self):
        assert spike_kernel().regularity_constant() == INF

    def test_at_least_half_when_positive(self):
        rng = random.Random(1)
        for _ in range(20):
            k = monotone_tabulated(rng, 0, rng.randint(1, 5))
            assert k.regularity_constant() >= 0.5

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_scan_matches_triple_loop(self, data):
        # Zeros of both signs, subnormals, non-monotone rows, and entries
        # whose sums (or, under a power, whose values) overflow to inf.
        L = data.draw(st.integers(1, 7))
        entry = st.one_of(
            st.sampled_from((0.0, -0.0, 5e-324, 1e-310, 0.5, 1.0, 3.0, 1e300,
                             1.7e308, 1.7976931348623157e308)),
            st.floats(min_value=0.0, max_value=1.7976931348623157e308))
        rows = [data.draw(st.lists(entry, min_size=L - i, max_size=L - i))
                for i in range(L)]
        k = tabulated_kernel(rows, data.draw(st.integers(-3, 3)), L)
        r = data.draw(st.sampled_from((None, 0.5, 2.0)))
        if r is not None:
            k = k.power(r)
        assert repr(k.regularity_constant()) == repr(naive_regularity(k))

    @pytest.mark.parametrize("c", [0.0, -0.0, 5e-324, 1.0, 1e308])
    @pytest.mark.parametrize("L", [1, 2, 5])
    def test_constant_closed_form_matches_triple_loop(self, c, L):
        k = constant_kernel(c, 0, L)
        assert repr(k.regularity_constant()) == repr(naive_regularity(k))


class TestInfiniteOverInfinite:
    """A pair (or chain) whose smallest sum is inf bounds nothing: inf <= C * inf
    for every C > 0, so it is skipped, not left to how NaN compares."""

    def test_every_entry_inf(self):
        k = Kernel(PowerKernel(ConstantKernel(1e200), 2.0), 0, 3)
        assert k.eval(0, 2) == INF
        assert repr(k.regularity_constant()) == "0.0"
        assert k.monotonicity_check().ok
        assert repr(k.chain_alpha_check(1.0, 1.0, 3).worst_ratio) == "0.0"

    def test_inf_pairs_beside_finite_ones(self):
        k = tabulated_kernel(((1, 1e200, 1e200), (1, 1), (1,)), 0, 3).power(2.0)
        assert k.regularity_constant() == 0.5


class TestPower:
    def test_constant_power(self):
        k = constant_kernel(2.0, 0, 3).power(2.0)
        assert k.eval(0, 2) == 4.0

    def test_tabulated_sqrt(self):
        k = doubling_kernel().power(0.5)
        assert close(k.eval(0, 2), 2.0)
        assert close(k.eval(0, 1), math.sqrt(2.0))

    def test_power_regularity(self):
        assert constant_kernel(1.0, 0, 3).power(3.0).regularity_constant() == 0.5

    def test_power_regularity_bound(self):
        rng = random.Random(2)
        for _ in range(20):
            L = rng.randint(2, 5)
            rows = [[rng.uniform(0.5, 4.0) for _ in range(L - i)]
                    for i in range(L)]
            k = tabulated_kernel(rows, 0, L)
            c = k.regularity_constant()
            for r in (0.5, 2.0, 3.0):
                bound = max(1.0, 2.0 ** (r - 1.0)) * c ** r
                assert k.power(r).regularity_constant() <= bound + 1e-12


class TestChainAlpha:
    def test_constant(self):
        rep = constant_kernel(1.0, 0, 3).chain_alpha_check(1.0, 1.0, 3)
        assert rep.ok
        assert close(rep.worst_ratio, 0.5)

    def test_doubling_tight(self):
        rep = doubling_kernel().chain_alpha_check(1.0, 1.0, 3)
        assert rep.ok
        assert close(rep.worst_ratio, 1.0)
        assert tuple(rep.worst_chain) == (0, 1, 2)

    def test_spike_fails(self):
        rep = spike_kernel().chain_alpha_check(0.5, 100.0, 3)
        assert not rep.ok
        assert rep.worst_ratio == INF

    def test_max_len_validation(self):
        with pytest.raises(ValueError):
            constant_kernel(1.0, 0, 3).chain_alpha_check(1.0, 1.0, 1)

    @pytest.mark.parametrize("c", [0.0, -1.0, math.nan])
    def test_bound_must_be_positive(self, c):
        with pytest.raises(ValueError, match="c must be positive"):
            constant_kernel(1.0, 0, 3).chain_alpha_check(1.0, c, 3)


class TestReversed:
    def test_regularity_invariant(self):
        rng = random.Random(3)
        for _ in range(20):
            L = rng.randint(1, 5)
            rows = [[rng.uniform(0.1, 4.0) for _ in range(L - i)]
                    for i in range(L)]
            k = tabulated_kernel(rows, 0, L)
            assert close(k.regularity_constant(),
                         k.reversed_().regularity_constant(), 1e-12)

    def test_reflection(self):
        k = doubling_kernel()
        rk = k.reversed_()
        for i in range(-2, 1):
            for n in range(i, 1):
                assert rk.eval(i, n) == k.eval(-n, -i)

    @pytest.mark.parametrize("k", [
        Kernel(RowSequenceKernel(WeightSeq(0, (1.0, 3.0, 2.0))), 0, 3),
        doubling_kernel().power(0.5),
        # Squared, the 1e200 entries overflow to inf.
        tabulated_kernel([[1e200, 1.0, 1e200], [3.0, 1e200], [0.0]], 0, 3).power(2.0),
    ])
    def test_reflection_of_row_and_power_kernels(self, k):
        rk = k.reversed_()
        for i in range(-2, 1):
            for n in range(i, 1):
                assert rk.eval(i, n) == k.eval(-n, -i)

    def test_power_reverses_as_a_power(self):
        k = tabulated_kernel([[1e200, 1e200], [1e200]], 0, 2).power(2.0)
        rk = k.reversed_()
        assert rk.spec == PowerKernel(rk.spec.base, 2.0)
        assert rk.eval(-1, 0) == INF
        assert rk.reversed_() == k


class TestFinite:
    @pytest.mark.parametrize("k", [
        constant_kernel(1e300, 0, 3),
        tabulated_kernel([[1.7e308, 0.0], [5e-324]], 0, 2),
        Kernel(SupSequenceKernel(WeightSeq(0, (1e300, 1.0))), 0, 2),
        Kernel(RowSequenceKernel(WeightSeq(0, (1e300, 1.0))), 0, 2),
        tabulated_kernel([[1e150, 1.0], [1e150]], 0, 2).power(2.0),
    ])
    def test_finite(self, k):
        assert k.finite is True

    def test_overflowing_power(self):
        k = tabulated_kernel([[1.0, 1e200], [1.0]], 0, 2).power(2.0)
        assert k.finite is False
        assert k.reversed_().finite is False


class TestValidation:
    def test_negative_entry(self):
        with pytest.raises(ValueError):
            tabulated_kernel([[1.0, -1.0], [1.0]], 0, 2)

    def test_wrong_shape(self):
        with pytest.raises(ValueError):
            tabulated_kernel([[1.0], [1.0]], 0, 2)

    def test_power_requires_positive_exponent(self):
        with pytest.raises(ValueError):
            constant_kernel(1.0, 0, 2).power(0.0)

    @pytest.mark.parametrize("r", [math.inf, math.nan])
    def test_power_requires_finite_exponent(self, r):
        with pytest.raises(ValueError, match="positive and finite"):
            constant_kernel(1.0, 0, 2).power(r)
