import math

import pytest
from hypothesis import given, strategies as st

from kernelineq import INF, TestSequence, WeightSeq, ext, head_sum, sigma_p, tail_sum
from kernelineq.weights import sigma_p_running

from conftest import close

w111 = WeightSeq(0, (1.0, 1.0, 1.0))


class TestWeightSeq:
    def test_zero_extension(self):
        assert w111[-1] == 0.0
        assert w111[3] == 0.0
        assert w111[1] == 1.0

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            WeightSeq(0, (1.0, -1.0))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            WeightSeq(0, ())

    def test_rejects_inf_entry(self):
        with pytest.raises(ValueError):
            WeightSeq(0, (1.0, INF))

    @pytest.mark.parametrize("bad", [True, "2", math.nan, -1.0, 10 ** 400])
    def test_rejects_what_ext_rejects(self, bad):
        """An entry is validated as it is given, with ext's own error: a
        bool or a numeric string is not converted to a float first."""
        with pytest.raises(Exception) as want:
            ext(bad)
        for values in [(bad,), (1.0, bad, 3), (2, 0.5, bad)]:
            with pytest.raises(want.type) as got:
                WeightSeq(0, values)
            assert str(got.value) == str(want.value)

    def test_the_first_bad_entry_raises(self):
        with pytest.raises(ValueError, match="must be finite"):
            WeightSeq(0, (1.0, INF, math.nan))
        with pytest.raises(ValueError, match="NaN"):
            WeightSeq(0, (1.0, math.nan, INF))

    def test_ints_and_negative_zero_are_kept_as_floats(self):
        w = WeightSeq(0, [1, -0.0, 5e-324, 2 ** 60])
        assert repr(w.values) == repr((1.0, -0.0, 5e-324, float(2 ** 60)))

    def test_a_float_subclass_entry_becomes_a_plain_float(self):
        class Tagged(float):
            pass
        w = WeightSeq(0, (1.0, Tagged(2.5), 3))
        assert w.values == (1.0, 2.5, 3.0)
        assert [type(x) for x in w.values] == [float, float, float]


class TestTailSum:
    def test_examples(self):
        assert tail_sum(w111, 0) == 3.0
        assert tail_sum(w111, 3) == 0.0
        assert tail_sum(w111, -5) == 3.0

    @given(st.integers(-2, 4))
    def test_difference_is_weight(self, n):
        assert tail_sum(w111, n) - tail_sum(w111, n + 1) == w111[n]

    def test_head_sum(self):
        assert head_sum(w111, 1) == 2.0
        assert head_sum(w111, -1) == 0.0
        assert head_sum(w111, 10) == 3.0


# sigma_p over finite ranges inside, straddling and outside the window:
# (start, values, p, N, M, value); the values are compared by repr.
SIGMA_P_TABLE = [
    (0, (1.0, 2.0, 4.0), 2.0, 0, 2, 1.3228756555322954),
    (0, (1.0, 2.0, 4.0), 1.5, 1, 2, 0.6786044041487267),
    (0, (1.0, 2.0, 4.0), 3.0, 1, 1, 0.7937005259840998),
    (-2, (0.5, 3.0, 0.25, 7.0), 1.0, -1, 0, 4.0),
    (-2, (0.5, 3.0, 0.25, 7.0), 2.0, -3, 0, INF),
    (-2, (0.5, 3.0, 0.25, 7.0), 1.0, 0, 4, INF),
    (-2, (0.5, 3.0, 0.25, 7.0), 3.0, 5, 9, INF),
    (-2, (0.5, 3.0, 0.25, 7.0), 1.5, -9, -3, INF),
    (1, (0.0, 1.0, 2.0), 2.0, 2, 3, 1.224744871391589),
    (1, (0.0, 1.0, 2.0), 1.0, 1, 3, INF),
    (1, (0.0, 1.0, 2.0), 1.5, 1, 1, INF),
    (0, (5e-324, 1.0), 1.0, 0, 1, INF),
    (0, (5e-324, 1.0), 2.0, 0, 1, INF),
    (0, (5e-324, 1.0), 3.0, 1, 1, 1.0),
    (0, (1e-300, 1e+300, 1.0), 1.5, 0, 2, INF),
    (0, (1e-300, 1e+300, 1.0), 3.0, 1, 2, 1.0),
    (0, (1e-300, 1e+300, 1.0), 1.0, 0, 2, 9.999999999999999e+299),
    (0, (1.7e+308, 1.7e+308, 1e+300), 2.0, 0, 2, 1.0000000058823529e-150),
    (0, (1.7e+308, 1.7e+308, 1e+300), 1.5, 0, 1, 0.0),
    (0, (1.7e+308, 1.7e+308, 1e+300), 1.0, 0, 2, 1e-300),
    (3, (2.0, 1e-300, 0.0, 5e-324), 3.0, 3, 4, 9.999999999999872e+99),
    (3, (2.0, 1e-300, 0.0, 5e-324), 2.0, 4, 6, INF),
]


class TestSigmaP:
    def test_p2_example(self):
        assert close(sigma_p(WeightSeq(0, (1.0, 1.0, 1.0)), 2.0, 0, 2),
                     math.sqrt(3.0))

    def test_p1_example(self):
        assert sigma_p(WeightSeq(0, (1.0, 2.0)), 1.0, 0, 1) == 1.0

    def test_empty_range_error(self):
        with pytest.raises(ValueError):
            sigma_p(WeightSeq(0, (1.0, 1.0)), 2.0, 0, -1)

    @pytest.mark.parametrize("start, vals, p, N, M, value", SIGMA_P_TABLE)
    def test_pinned_values(self, start, vals, p, N, M, value):
        assert repr(sigma_p(WeightSeq(start, vals), p, N, M)) == repr(value)

    def test_infinite_bounds(self):
        v = WeightSeq(0, (1.0, 2.0, 4.0))
        with pytest.raises(ValueError, match="empty index range"):
            sigma_p(v, 2.0, INF, 1)
        # Zero extension above the window: a zero entry's term is inf.
        assert sigma_p(v, 2.0, 0, INF) == INF
        assert sigma_p(v, 1.0, -INF, INF) == INF
        assert sigma_p(v, 2.0, -INF, -INF) == INF

    def test_regime_errors(self):
        with pytest.raises(ValueError):
            sigma_p(w111, 0.5, 0, 2)
        with pytest.raises(ValueError):
            sigma_p(w111, INF, 0, 2)

    def test_zero_weight_is_infinite(self):
        assert sigma_p(WeightSeq(0, (0.0, 1.0)), 2.0, 0, 1) == INF
        assert sigma_p(WeightSeq(0, (0.0, 1.0)), 1.0, 0, 1) == INF

    def test_monotone_in_window(self):
        v = WeightSeq(0, (1.0, 2.0, 0.5, 3.0))
        for p in (1.0, 2.0, 3.0):
            prev = 0.0
            for M in range(4):
                cur = sigma_p(v, p, 0, M)
                assert cur >= prev
                prev = cur
            assert sigma_p(v, p, 1, 3) <= sigma_p(v, p, 0, 3)

    @given(st.lists(st.one_of(st.sampled_from((0.0, 5e-324, 1e-300, 1e300, 1.7e308)),
                              st.floats(min_value=0.0, max_value=1e6)),
                    min_size=1, max_size=6),
           st.sampled_from([1.0, 1.5, 2.0, 3.0]))
    def test_running_is_sigma_p_per_index(self, vals, p):
        v = WeightSeq(-2, tuple(vals))
        assert (repr(sigma_p_running(v, p))
                == repr([sigma_p(v, p, -INF, n) for n in v.indices()]))

    def test_running_regime_errors(self):
        for p in (0.5, INF):
            with pytest.raises(ValueError, match="1 <= p < inf"):
                sigma_p_running(w111, p)

    @given(st.floats(min_value=0.01, max_value=100.0),
           st.sampled_from([1.0, 1.5, 2.0, 4.0]))
    def test_scaling(self, lam, p):
        v = WeightSeq(0, (1.0, 2.0, 0.5))
        base = sigma_p(v, p, 0, 2)
        scaled = sigma_p(v.scaled(lam), p, 0, 2)
        assert close(scaled, lam ** (-1.0 / p) * base, 1e-12)


class TestTestSequence:
    def test_scaled(self):
        a = TestSequence(0, (1.0, 2.0))
        b = a.scaled(3.0)
        assert b.values == (3.0, 6.0)
        assert b.start == 0
