import functools
import itertools
import math
import operator

import pytest
from hypothesis import given, strategies as st

from kernelineq import INF, ExponentPair, conjugate, ext_mul, ext_pow, regime
from kernelineq.numerics import (KERNEL_CASES, SUP_CASES, ext_dot, ext_muls,
                                 finite, mul_for, pow_for, pows, sup0)

from conftest import close


class TestExtPow:
    def test_zero_negative_exponent(self):
        assert ext_pow(0.0, -1.0) == INF

    def test_ordinary_power(self):
        assert ext_pow(2.0, 3.0) == 8.0

    def test_inf_negative_exponent(self):
        assert ext_pow(INF, -0.5) == 0.0

    def test_conventions(self):
        assert ext_pow(0.0, 2.0) == 0.0
        assert ext_pow(0.0, 0.0) == 1.0
        assert ext_pow(INF, 2.0) == INF
        assert ext_pow(INF, 0.0) == 1.0
        assert ext_pow(INF, INF) == INF
        assert ext_pow(0.0, INF) == 0.0

    @given(st.floats(min_value=1e-6, max_value=1e6),
           st.floats(min_value=-8, max_value=8).filter(lambda r: abs(r) > 1e-3))
    def test_round_trip(self, x, r):
        assert close(ext_pow(ext_pow(x, r), 1.0 / r), x, 1e-12)


class TestExtMul:
    def test_zero_times_inf(self):
        assert ext_mul(0.0, INF) == 0.0
        assert ext_mul(INF, 0.0) == 0.0

    def test_ordinary(self):
        assert ext_mul(2.0, 3.0) == 6.0
        assert ext_mul(2.0, INF) == INF


# Zeros of both signs, subnormals, values whose powers overflow, and inf.
EDGE = (0.0, -0.0, 5e-324, 1e-310, 1e300, 1.7e308, INF)
ext_reals = st.one_of(st.sampled_from(EDGE), st.floats(min_value=0.0, max_value=1e6))
vectors = st.lists(ext_reals, max_size=8)
EXPONENTS = (-1.0, 0.0, 0.5, 1.0, 3.0, INF, -INF)
exponents = st.sampled_from(EXPONENTS)


class TestVectorLayer:
    """The vector helpers against the scalar rules, bit for bit."""

    @pytest.mark.parametrize("r", EXPONENTS)
    def test_pows_edge_values(self, r):
        xs = list(EDGE) + [0.5, 1.0, 2.0]
        assert repr(pows(xs, r)) == repr([ext_pow(x, r) for x in xs])

    @pytest.mark.parametrize("r", EXPONENTS)
    def test_pow_for_edge_values(self, r):
        xs = list(EDGE) + [0.5, 1.0, 2.0]
        power = pow_for(r)
        assert repr(power(xs)) == repr([ext_pow(x, r) for x in xs])
        assert repr([power([x])[0] for x in xs]) == repr(power(xs))

    @given(vectors, exponents)
    def test_pows_is_ext_pow(self, xs, r):
        assert repr(pows(xs, r)) == repr([ext_pow(x, r) for x in xs])

    @given(vectors, vectors)
    def test_products_are_ext_mul(self, xs, ys):
        scalar = [ext_mul(x, y) for x, y in zip(xs, ys)]
        assert finite(xs, ys) == all(map(math.isfinite, xs + ys))
        # Equal up to the sign of a zero product ...
        assert ext_muls(xs, ys) == scalar
        # ... which a sum from 0.0 and a sup from +0.0 never show.
        fold = functools.reduce(lambda acc, t: acc + t, scalar, 0.0)
        assert repr(ext_dot(xs, ys)) == repr(fold)
        assert repr(sup0(ext_muls(xs, ys))) == repr(functools.reduce(max, scalar, 0.0))

    @given(vectors, vectors)
    def test_mul_for_rest_finite(self, xs, ys):
        mul = mul_for(xs, rest_finite=finite(ys))
        assert repr(sum(map(mul, xs, ys), 0.0)) == repr(ext_dot(xs, ys))


# Sums of nonnegative extended reals, and the roots 1/q the evaluators take.
SUMS = (0.0, -0.0, 5e-324, 1e-300, 1.0, 1e300, 1.7e308, INF)
ROOTS = tuple(1.0 / q for q in (0.25, 0.5, 1.0, 2.0, 3.0))


class _Validated(float):
    """A float that `ext_pow` does not take on its fast path, so it runs
    the validated rules (`ext` turns it back into a plain float)."""


def test_sum_adds_floats_left_to_right():
    # Each 1e-16 is below half an ulp of 1.0, so a left-to-right sum
    # drops both; a compensated sum (CPython 3.12) keeps them.
    assert sum([1.0, 1e-16, 1e-16]) == 1.0, (
        "builtin sum does not add floats left to right on this Python; the "
        "batched and per-candidate evaluations, and the recorded reference "
        "outputs, assume it does (see the kernelineq.numerics docstring)")


def test_sums_resume_from_their_prefixes():
    # The partial sums of a left-to-right sum: where sum resumes from the
    # float sum of the first k terms, and where itertools.accumulate runs
    # (weights.sigma_p_running against sigma_p), it equals builtin sum.
    xs = [1.0, 1e-16, 1e-16, 3.0, 1e-16, 0.1, 0.2, 1e-300, 7.0, 1e-16]
    prefixes = list(itertools.accumulate(xs, initial=0.0))
    message = ("builtin sum does not add floats left to right on this Python; "
               "pyproject.toml pins Python < 3.12 because running and resumed "
               "sums assume it does (see the kernelineq.numerics docstring)")
    for k in range(len(xs) + 1):
        assert repr(sum(xs[k:], sum(xs[:k]))) == repr(sum(xs)), (k, message)
        assert repr(prefixes[k]) == repr(float(sum(xs[:k]))), (k, message)
    # A frontier built term by term, P + fl(k t), and the rest of a line's
    # products summed from it (the oracle's resumed ascent move).
    ks = [0.5, 3.0, 1e-8, -0.0, 2.0, 7.0, 0.1, 1e300, 5e-324, 0.3]
    full = sum(map(operator.mul, ks, xs))
    front = 0.0
    for k in range(len(xs) + 1):
        resumed = sum(map(operator.mul, ks[k:], xs[k:]), front)
        assert repr(resumed) == repr(full), (k, message)
        if k < len(xs):
            front = front + ks[k] * xs[k]
    # The running max from -inf up to j, joined with the max of the rest as
    # the resumed move joins a line's frontier, is builtin max by repr: the
    # first of equal terms is kept, so -0.0 before 0.0 stays -0.0.
    for terms in ([-0.0, 0.0, 0.0], [0.0, -0.0, -0.0], [1.0, 3.0, 3.0, 2.0],
                  [-0.0, -0.0, 5e-324], list(map(operator.mul, ks, xs))):
        for j in range(len(terms)):
            front = _first_max(-INF, terms[:j])
            rest = max(terms[j:])
            assert repr(rest if rest > front else front) == repr(max(terms)), (terms, j)


def _first_max(front, terms):
    """The running max fold: a term replaces the frontier only where it is
    larger."""
    for t in terms:
        front = t if t > front else front
    return front


class TestScalarFastPaths:
    """`ext_pow`'s fast path and the one-frame `mul_for` against the
    extended-real rules."""

    @pytest.mark.parametrize("r", ROOTS + tuple(-r for r in ROOTS))
    def test_ext_pow_edge_values(self, r):
        for s in SUMS:
            assert repr(ext_pow(s, r)) == repr(ext_pow(_Validated(s), r)), (s, r)

    @given(ext_reals, st.one_of(st.sampled_from(ROOTS),
                                st.floats(min_value=-1e3, max_value=1e3),
                                st.sampled_from((0.0, -0.0, INF, -INF))))
    def test_ext_pow_fast_path_is_validated(self, s, r):
        assert repr(ext_pow(s, r)) == repr(ext_pow(_Validated(s), r))

    @pytest.mark.parametrize("r", ROOTS)
    def test_ext_pow_rejects_nan_and_bool(self, r):
        with pytest.raises(ValueError, match="NaN is not a valid extended real"):
            ext_pow(math.nan, r)
        with pytest.raises(ValueError, match="NaN exponent"):
            ext_pow(2.0, math.nan)
        with pytest.raises(TypeError):
            ext_pow(True, r)

    @pytest.mark.parametrize("rest_finite", (True, False))
    def test_mul_for_edge_values(self, rest_finite):
        for x in SUMS:
            for y in SUMS:
                mul = mul_for([x], [y], rest_finite=rest_finite)
                expected = operator.mul if rest_finite and finite([x, y]) else ext_mul
                assert mul is expected, (x, y)
                # +0.0 hides the sign of a zero product, as every reduction does.
                assert repr(mul(x, y) + 0.0) == repr(ext_mul(x, y)), (x, y)
                assert mul_for([x], rest_finite=rest_finite) is mul_for(
                    [x], [], rest_finite=rest_finite)

    @given(vectors, vectors, st.booleans())
    def test_mul_for_picks_by_finiteness(self, xs, ys, rest_finite):
        expected = operator.mul if rest_finite and finite(xs, ys) else ext_mul
        assert mul_for(xs, ys, rest_finite=rest_finite) is expected
        assert mul_for(xs + ys, rest_finite=rest_finite) is expected
        assert mul_for(rest_finite=rest_finite) is (
            operator.mul if rest_finite else ext_mul)


class TestConjugate:
    def test_examples(self):
        assert conjugate(2.0) == 2.0
        assert conjugate(0.5) == -1.0
        assert conjugate(1.0) == INF
        assert conjugate(INF) == 1.0

    @given(st.floats(min_value=1.001, max_value=1000.0))
    def test_involution(self, p):
        assert close(conjugate(conjugate(p)), p, 1e-12)

    def test_negative_below_one(self):
        assert conjugate(0.25) < 0


class TestExponentPair:
    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            ExponentPair(0.0, 1.0)
        with pytest.raises(ValueError):
            ExponentPair(1.0, -1.0)

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            ExponentPair(float("nan"), 1.0)

    def test_accepts_inf(self):
        e = ExponentPair(INF, INF)
        assert math.isinf(e.p)


class TestRegime:
    def test_p1_q1(self):
        r = regime(ExponentPair(1.0, 1.0))
        assert r.kernel_case == "K_I"
        assert r.small_p_case == "P_LE1_Q_GE_P"

    def test_p1_q_half(self):
        r = regime(ExponentPair(1.0, 0.5))
        assert r.small_p_case == "P_LE1_Q_LT_P"
        assert r.kernel_case == "K_X"

    def test_p2_q1(self):
        r = regime(ExponentPair(2.0, 1.0))
        assert r.kernel_case == "K_IV"
        assert r.sup_case == "S_V"

    def test_q_inf(self):
        assert regime(ExponentPair(0.5, INF)).small_p_case == "P_LE1_Q_INF"

    def test_total(self):
        vals = (0.3, 0.5, 1.0, 1.5, 2.0, 3.0, INF)
        for p in vals:
            for q in vals:
                r = regime(ExponentPair(p, q))
                assert r.kernel_case in KERNEL_CASES
                assert r.sup_case in SUP_CASES
                assert r.small_p_case in ("P_LE1_Q_GE_P", "P_LE1_Q_INF",
                                          "P_LE1_Q_LT_P", "NA")
                if p <= 1.0:
                    assert r.small_p_case != "NA"
