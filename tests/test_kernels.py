import itertools
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from kernelineq import INF, Kernel, WeightSeq, constant_kernel, tabulated_kernel
from kernelineq import kernels
from kernelineq.kernels import (ConstantKernel, PowerKernel, RowSequenceKernel,
                                SupSequenceKernel, TabulatedKernel, rows_of)
from kernelineq.numerics import ext_pow

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

    @pytest.mark.parametrize("r", [0.0, -0.5, INF, math.nan])
    def test_power_regularity_needs_a_positive_finite_exponent(self, r):
        with pytest.raises(ValueError, match="positive and finite"):
            doubling_kernel().power_regularity(r)

    @pytest.mark.parametrize("r", [0.0, -0.5, 2.0, INF])
    def test_power_regularity_bound_outside_the_unit_interval_is_inf(self, r):
        # t^r is subadditive only for 0 < r <= 1; with no kept value the
        # bound scans nothing and reads inf.
        k = doubling_kernel()
        assert k.power_regularity_bound(r) == INF
        assert k.memo == {}


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

    @pytest.mark.parametrize("x", [-1.0, -5e-324, math.inf, math.nan])
    def test_entry_outside_the_finite_nonnegative_range(self, x):
        with pytest.raises(ValueError, match="finite and nonnegative"):
            tabulated_kernel([[1.0, 2.0, 3.0], [1.0, x], [1.0]], 0, 3)

    def test_entries_whose_sum_overflows(self):
        k = tabulated_kernel([[1.7e308, 1.7e308], [-0.0]], 0, 2)
        assert repr(k.columns) == "[[1.7e+308], [1.7e+308, -0.0]]"

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


# Entries at the edges of the double range: zeros of both signs, the
# smallest subnormal, tiny, huge and near-overflow values.
EXTREMES = (0.0, -0.0, 5e-324, 1e-300, 1e300, 1.7e308)


def reference_rows(spec, L):
    """rows[i][n - i] = K(i, n) by each spec's definition, row by row."""
    if isinstance(spec, ConstantKernel):
        return [[float(spec.c)] * (L - i) for i in range(L)]
    if isinstance(spec, TabulatedKernel):
        return [[float(x) for x in row] for row in spec.entries]
    if isinstance(spec, SupSequenceKernel):
        u = spec.u.values
        return [list(itertools.accumulate(u[i:], max)) for i in range(L)]
    if isinstance(spec, RowSequenceKernel):
        return [[spec.u.values[i]] * (L - i) for i in range(L)]
    return [[ext_pow(x, spec.r) for x in row] for row in reference_rows(spec.base, L)]


def reference_columns(rows):
    return [[rows[i][n - i] for i in range(n + 1)] for n in range(len(rows))]


def reference_reversed_rows(spec, L):
    """The rows of `reversed_` as the row-stored kernel built them."""
    if isinstance(spec, SupSequenceKernel):
        ru = WeightSeq(-spec.u.stop, tuple(reversed(spec.u.values)))
        return reference_rows(SupSequenceKernel(ru), L)
    if isinstance(spec, PowerKernel):
        return [[ext_pow(x, spec.r) for x in row]
                for row in reference_reversed_rows(spec.base, L)]
    rows = reference_rows(spec, L)
    return [[rows[L - 1 - b][b - a] for b in range(a, L)] for a in range(L)]


def reference_violations(rows, s):
    L, bad = len(rows), []
    for i, row in enumerate(rows):
        for n in range(i, L):
            x = row[n - i]
            if i < n and x < rows[i + 1][n - i - 1]:
                bad.append((s + i, s + i + 1, s + n))
            if n + 1 < L and x > row[n - i + 1]:
                bad.append((s + i, s + n, s + n + 1))
    return tuple(bad)


def reference_chain(rows, s, alpha, max_len):
    steps = [ext_pow(row[1], alpha) for row in rows[:-1]]
    worst, chain = 0.0, ()
    for m in range(3, max_len + 1):
        for x in range(len(rows) - m + 1):
            lhs = rows[x][m - 1]
            rhs = ext_pow(sum(steps[x:x + m - 1], 0.0), 1.0 / alpha)
            if lhs == 0.0 or rhs == INF:
                continue
            ratio = lhs / rhs if rhs > 0 else INF
            if ratio > worst:
                worst, chain = ratio, tuple(range(s + x, s + x + m))
    return worst, chain


def random_spec(rng, start, L):
    entry = lambda: rng.choice(EXTREMES + (0.5, 1.0, 3.0))  # noqa: E731
    u = WeightSeq(start, tuple(entry() for _ in range(L)))
    kind = rng.choice(("constant", "tabulated", "sup", "row", "power"))
    if kind == "constant":
        return ConstantKernel(entry())
    if kind == "tabulated":
        return TabulatedKernel(start, tuple(tuple(entry() for _ in range(L - i))
                                            for i in range(L)))
    if kind in ("sup", "row"):
        return kernels.SEQUENCE_KERNELS[kind](u)
    base = rng.choice((ConstantKernel(entry()), SupSequenceKernel(u),
                       RowSequenceKernel(u),
                       TabulatedKernel(start, tuple(tuple(entry() for _ in range(L - i))
                                                    for i in range(L)))))
    return PowerKernel(base, rng.choice((0.5, 2.0, 3.0)))


class TestColumns:
    """The stored columns against rows built independently, by repr, and
    every diagnostic against its row-based result."""

    def check(self, spec, start, L):
        k = Kernel(spec, start, L)
        rows = reference_rows(spec, L)
        assert repr(k.columns) == repr(reference_columns(rows))
        assert repr(rows_of(k.columns)) == repr(rows)
        for i in range(L):
            for n in range(i, L):
                assert repr(k.eval(start + i, start + n)) == repr(rows[i][n - i])
        assert k.monotonicity_check().violations == reference_violations(rows, start)
        assert repr(rows_of(k.reversed_().columns)) == repr(reference_reversed_rows(spec, L))
        for alpha in (1.0, 0.5):
            for max_len in range(3, L + 1):
                rep = k.chain_alpha_check(alpha, 1.0, max_len)
                worst, chain = reference_chain(rows, start, alpha, max_len)
                assert repr(rep.worst_ratio) == repr(worst)
                assert rep.worst_chain == chain
        return k

    @pytest.mark.parametrize("spec", [
        ConstantKernel(1.7e308),
        ConstantKernel(-0.0),
        TabulatedKernel(0, ((0.0, -0.0, 5e-324), (1e-300, 1e300), (1.7e308,))),
        SupSequenceKernel(WeightSeq(0, (-0.0, 0.0, 5e-324, 1e-300, 1.7e308, 0.0))),
        RowSequenceKernel(WeightSeq(0, (1e300, 0.0, -0.0, 5e-324))),
        PowerKernel(SupSequenceKernel(WeightSeq(0, (1e300, 0.0, 1.7e308))), 2.0),
    ], ids=["constant", "constant-0", "tabulated", "sup", "row", "power-inf"])
    def test_each_kind(self, spec):
        L = (len(spec.entries) if isinstance(spec, TabulatedKernel)
             else 3 if isinstance(spec, (ConstantKernel, PowerKernel))
             else len(spec.u.values))
        k = self.check(spec, 0, L)
        if isinstance(spec, PowerKernel):
            assert k.finite is False and INF in k.columns[-1]

    def test_random_kernels(self):
        rng = random.Random(160)
        for _ in range(400):
            L, start = rng.randint(1, 6), rng.randint(-3, 3)
            self.check(random_spec(rng, start, L), start, L)

    def test_columns_are_stored_not_copied(self):
        k = Kernel(SupSequenceKernel(WeightSeq(0, (1.0, 2.0))), 0, 2)
        assert k.columns is k.columns
        assert [v for v in vars(k).values() if isinstance(v, list)] == [k.columns]


class TestSupRegularity:
    """The sup kernel's O(L^2) regularity form against the general scan on
    the same entries as a tabulated kernel, by repr."""

    def test_closed_form_matches_the_scan(self):
        rng = random.Random(1612)
        for _ in range(3000):
            L = rng.randint(1, 12)
            u = tuple(rng.choice(EXTREMES) if rng.random() < 0.5
                      else 10.0 ** rng.uniform(-300, 300) for _ in range(L))
            spec = SupSequenceKernel(WeightSeq(0, u))
            k = Kernel(spec, 0, L)
            scan = tabulated_kernel(reference_rows(spec, L), 0, L)
            assert repr(k.regularity_constant()) == repr(scan.regularity_constant()), u

    def test_the_sup_kernel_takes_the_closed_form(self, monkeypatch):
        def boom(cols):
            raise AssertionError("closed form called")
        monkeypatch.setattr(kernels, "_sup_regularity", boom)
        k = Kernel(SupSequenceKernel(WeightSeq(0, (1.0, 2.0))), 0, 2)
        with pytest.raises(AssertionError, match="closed form called"):
            k.regularity_constant()

    @pytest.mark.parametrize("r", [0.5, 2.0])
    def test_a_power_of_a_sup_kernel_takes_the_scan(self, monkeypatch, r):
        u = (3.0, 1e-300, 1e200, 0.5, 2.0)
        spec = SupSequenceKernel(WeightSeq(0, u))
        expected = tabulated_kernel(reference_rows(spec, 5), 0, 5).power(r)

        def boom(cols):
            raise AssertionError("closed form called")
        monkeypatch.setattr(kernels, "_sup_regularity", boom)
        k = Kernel(spec, 0, 5).power(r)
        assert repr(k.regularity_constant()) == repr(expected.regularity_constant())


class TestKernelIdentity:
    def test_equality_with_other_types_is_not_implemented(self):
        k = constant_kernel(3.0, 0, 2)
        assert k.__eq__(3) is NotImplemented
        assert k != 3 and not (k == 3)

    def test_equal_kernels_hash_alike(self):
        a, b = constant_kernel(2.0, -1, 3), constant_kernel(2.0, -1, 3)
        assert a is not b and a == b and hash(a) == hash(b)
        assert len({a, b, constant_kernel(2.0, 0, 3)}) == 2
