import math
import random
import sys

import pytest

from kernelineq import (INF, ExponentPair, Instance, StepFunction, TestSequence,
                        WeightSeq, bridge_check, condition_A, constant_kernel,
                        continuous_constant, dyadic_covering, lemma_decompose,
                        tabulated_kernel, tail_invert)
from kernelineq import bridge
from kernelineq.bridge import _ContRatio, _int_pow_max, _quad_cell
from kernelineq.oracle import Ratios, _form_ratios, _run_search, _Search

from conftest import close, random_instance

ones3 = StepFunction(0, (1.0, 1.0, 1.0))


def unit_instance(p, q, length=3):
    w = WeightSeq(0, (1.0,) * length)
    return Instance(ExponentPair(p, q), w, w, constant_kernel(1.0, 0, length))


def squared_kernel_instance(u00, rest):
    """p = q = 1 on two cells; U is [[u00, rest], [rest]] squared, so an
    entry of 1e200 becomes inf."""
    w = WeightSeq(0, (1.0, 1.0))
    return Instance(ExponentPair(1.0, 1.0), w, w,
                    tabulated_kernel([[u00, rest], [rest]], 0, 2).power(2.0))


class TestStepFunction:
    def test_cell_semantics(self):
        f = StepFunction(0, (1.0, 2.0))
        assert f[0] == 1.0
        assert f[1] == 2.0
        assert f[5] == 0.0
        assert f.mass() == 3.0

    def test_cum_and_tail(self):
        f = StepFunction(0, (1.0, 2.0))
        assert close(f.cum(0.5), 2.0)
        assert close(f.tail(0.5), 1.0)
        assert f.cum(-2.0) == 0.0
        assert f.tail(5.0) == 0.0


class TestTailInvert:
    def test_examples(self):
        assert tail_invert(ones3, 2.0) == 0.0
        assert tail_invert(ones3, 3.0) == -1.0
        assert close(tail_invert(ones3, 0.5), 1.5)

    def test_level_of_the_whole_mass(self):
        # mass() adds the cells bottom-up and the inversion walks them
        # top-down; that sum is an ulp short of this one.
        f = StepFunction(0, (0.3, 1e-16, 0.1))
        assert tail_invert(f, f.mass()) == -1.0

    def test_flat_stretch_rightmost(self):
        f = StepFunction(0, (1.0, 0.0, 1.0))
        # Tail equals 1 on the whole flat stretch [0, 1]; rightmost point.
        assert tail_invert(f, 1.0) == 1.0

    def test_errors(self):
        with pytest.raises(ValueError):
            tail_invert(ones3, 4.0)
        with pytest.raises(ValueError):
            tail_invert(ones3, 0.0)


class TestDyadicCovering:
    def test_unit_example(self):
        cov = dyadic_covering(ones3)
        assert cov.N == -1
        assert cov.index(cov.N - 1) == -INF
        assert cov.index(-1) == 0.0
        assert cov.index(0) == 1.0
        assert close(cov.index(1), 1.5)
        assert close(cov.index(2), 1.75)

    def test_single_block(self):
        cov = dyadic_covering(StepFunction(1, (1.0,)))
        assert cov.N == 1
        assert close(cov.index(1), 0.5)

    def test_mass_exactly_two(self):
        assert dyadic_covering(StepFunction(0, (2.0,))).N == 0

    def test_zero_mass_error(self):
        with pytest.raises(ValueError):
            dyadic_covering(StepFunction(0, (0.0,)))

    def test_mass_above_two_to_the_1023(self):
        # N = -1023: 2^1023 < mass <= 2^1024, whose float overflows.
        w = StepFunction(0, (1.7e308,))
        cov = dyadic_covering(w)
        assert cov.N == -1023
        assert close(w.tail(cov.index(-1023)), 2.0 ** 1023)

    def test_level_above_the_top_down_sum(self):
        # The mass is 4.000000000000001 and the top-down sum of the cells
        # 3.9999999999999996: the level 2^2 lies between them.
        w = StepFunction(0, (4.440892098500626e-16, 2.220446049250313e-16,
                             1.0000000000000002, 0.9999999999999998,
                             0.9999999999999998, 0.9999999999999999))
        cov = dyadic_covering(w)
        assert cov.N == -2
        assert cov.index(-2) == -1.0
        for k in range(cov.N, cov.top + 1):
            assert close(w.tail(cov.index(k)), 2.0 ** (-k), 1e-12)
        inst = Instance(ExponentPair(1.0, 2.0), WeightSeq(0, (1.0,) * 6), w,
                        constant_kernel(1.0, 0, 6))
        d = lemma_decompose("L1", inst, StepFunction(0, (1.0,) * 6))
        assert math.isfinite(d.ratio) and d.ratio > 0.0

    def test_infinite_mass_error(self):
        w = StepFunction(0, (1.7e308, 1.7e308, 1.0))
        with pytest.raises(ValueError, match="overflows to inf"):
            dyadic_covering(w)
        inst = Instance(ExponentPair(1.0, 1.0), WeightSeq(0, (1.0,) * 3), w,
                        constant_kernel(1.0, 0, 3))
        with pytest.raises(ValueError, match="overflows to inf"):
            lemma_decompose("L1", inst, ones3)

    @pytest.mark.parametrize("mass", [1e-3, 1e-7, 1e-300])
    def test_small_masses_get_twenty_halvings(self, mass):
        # The covering runs at least 20 halvings below the mass, also where
        # the mass lies below the absolute level 2^-20.  A point is exact
        # to an ulp of its position, which is 2^20 ulps of the smallest
        # tail; the tail is summed piece by piece to keep its own error
        # out of the check.
        w = StepFunction(0, (mass / 4, mass / 2, mass / 4))
        cov = dyadic_covering(w)
        assert len(cov.picks) >= 21
        for k in range(cov.N, cov.top + 1):
            tail = math.fsum(m for _, m in w.pieces(cov.index(k), w.stop))
            assert math.isclose(tail, 2.0 ** (-k), rel_tol=1e-9)
        inst = Instance(ExponentPair(1.5, 3.0), WeightSeq(0, (1.0, 2.0, 1.0)), w,
                        constant_kernel(1.0, 0, 3))
        for which in ("L1", "L2", "L3"):
            d = lemma_decompose(which, inst, StepFunction(0, (1.0, 0.5, 2.0)))
            assert d.block_part > 0.0 and d.cross_part > 0.0
            assert 0.0 < d.ratio < INF

    def test_tails_halve_exactly(self):
        rng = random.Random(0)
        for _ in range(50):
            L = rng.randint(1, 6)
            vals = [rng.choice((0.0, 0.5, 1.0, 2.0, 3.0)) for _ in range(L)]
            if not any(vals):
                vals[0] = 1.0
            w = StepFunction(rng.randint(-3, 3), tuple(vals))
            cov = dyadic_covering(w)
            for k in range(cov.N, cov.top + 1):
                x = cov.index(k)
                assert close(w.tail(x), 2.0 ** (-k), 1e-12)
                if k < cov.top:
                    assert close(w.tail(x), 2.0 * w.tail(cov.index(k + 1)),
                                 1e-12)

    def test_tails_are_relatively_exact(self):
        # A tail far below the mass equals the correctly rounded sum of
        # the pieces right of x, where close() above is absolute below 1.
        rng = random.Random(1)
        for _ in range(400):
            L = rng.randint(1, 8)
            vals = [0.0 if rng.random() < 0.2 else 10.0 ** rng.uniform(-7, 6)
                    for _ in range(L)]
            vals[rng.randrange(L)] = 1e6
            w = StepFunction(rng.randint(-3, 3), tuple(vals))
            xs = list(dyadic_covering(w).picks)
            xs += [rng.uniform(w.start - 1, w.stop) for _ in range(5)]
            for x in xs:
                want = math.fsum(val * (j - max(j - 1, x))
                                 for j, val in zip(w.indices(), vals) if j > x)
                assert w.tail(x) == want, (vals, x)
            assert repr(w.tail(w.stop)) == "0.0"


def _cala1_mpmath(v, w, rows, p, q):
    """calA_1 (1 < p <= q) at 50 digits: per cell n, the max over s in
    [0, 1] of (A + a s)^(1/p') (B + b (1 - s))^(1/q), where a = v_n^(1-p'),
    A sums a over the cells below n, b = U(n, n)^q w_n and B sums
    U(n, m)^q w_m over m > n.  The log of the product is concave in s, so
    the max is at its stationary point when that lies in (0, 1), else at
    an end."""
    mpmath = pytest.importorskip("mpmath")
    mp = mpmath.mp.clone()
    mp.dps = 50
    pc = mp.mpf(p) / (p - 1)
    best, A = mp.zero, mp.zero
    for n in range(len(v)):
        a = mp.mpf(v[n]) ** (1 - pc)
        b = mp.mpf(rows[n][0]) ** q * w[n]
        B = mp.fsum(mp.mpf(rows[n][m - n]) ** q * w[m] for m in range(n + 1, len(v)))
        s = (a * q * (B + b) - b * pc * A) / (a * b * (q + pc))
        for t in (0, 1, s) if 0 < s < 1 else (0, 1):
            best = max(best, (A + a * t) ** (1 / pc) * (B + b * (1 - t)) ** (mp.one / q))
        A += a
    return float(best)


class TestContinuousConstant:
    def test_cala1_unit(self):
        assert close(continuous_constant("calA_1", unit_instance(1.0, 1.0)), 3.0)

    def test_cala1_zero_w(self):
        inst = Instance(ExponentPair(1.0, 1.0), WeightSeq(0, (1.0, 1.0)),
                        WeightSeq(0, (0.0, 0.0)), constant_kernel(1.0, 0, 2))
        assert continuous_constant("calA_1", inst) == 0.0

    def test_cala4_unit(self):
        assert close(continuous_constant("calA_4", unit_instance(INF, 1.0)), 4.5)

    def test_regime_mismatch(self):
        with pytest.raises(ValueError):
            continuous_constant("calA_4", unit_instance(2.0, 1.0))
        with pytest.raises(ValueError):
            continuous_constant("calA_1", unit_instance(2.0, 1.0))

    def test_cala12_where_quad_overflows(self):
        # The second cell's integrand is near the float max, where the
        # adaptive quadrature used before the tanh-sinh rule returned
        # NaN; the value is mpmath's at 50 digits.
        inst = Instance(ExponentPair(2.0, 1.0), WeightSeq(0, (3.0, 1e300, 0.5, 1.0)),
                        WeightSeq(0, (5e-324, 1e-300, 1.0, 1.7e308)),
                        tabulated_kernel([[3.0, 3.0, 0.0, 0.0], [0.5, 0.0, 0.0],
                                          [0.0, 0.0], [0.0]], 0, 4))
        assert close(continuous_constant("calA_12", inst), 29721.135776751994, 1e-12)

    @pytest.mark.parametrize("v, w", [((1e300, 1.0), (1e-300, 1.0)),
                                      ((1e-300, 1.0), (1e300, 1.0))])
    def test_cala1_interior_point_at_extreme_weights(self, v, w):
        # a * b underflowed (ZeroDivisionError) in the first case and the
        # products overflowed to a NaN point in the second, which dropped
        # the interior maximum: 1e150 was returned for 5.7e249.
        rows = [[1.0, 1.0], [1.0]]
        inst = Instance(ExponentPair(2.0, 3.0), WeightSeq(0, v), WeightSeq(0, w),
                        tabulated_kernel(rows, 0, 2))
        assert close(continuous_constant("calA_1", inst),
                     _cala1_mpmath(v, w, rows, 2, 3), 1e-12)

    def test_quad_cell_where_quad_crashed(self):
        # Unscaled, the pair sums of the adaptive quadrature used before
        # the tanh-sinh rule overflowed and the process died with a bus
        # error; the rule runs on scaled factors.  The value is mpmath's
        # at 40 digits.
        val = _quad_cell(1e-300, 4.0, 1.7e308, 1.0, 1.0, 1.0, 1.5)
        assert close(val, 102622360.95113451851608816, 1e-12)

    def test_matches_discrete_a1_at_p1(self):
        rng = random.Random(1)
        for _ in range(25):
            q = rng.choice((1.0, 2.0, 3.0))
            inst = random_instance(rng, 1.0, q,
                                   kinds=("constant", "sup", "tabulated"))
            assert close(continuous_constant("calA_1", inst),
                         condition_A(1, inst), 1e-12)


class TestBridgeCheck:
    def test_unit_example(self):
        rep = bridge_check(unit_instance(1.0, 1.0), budget=1500, seed=0)
        assert rep.C_discrete == 3.0
        assert rep.factor_bound == 4.0
        assert rep.factor_ok
        assert rep.C_continuous <= rep.C_discrete <= 4.0 * rep.C_continuous

    def test_single_cell(self):
        rep = bridge_check(unit_instance(1.0, 1.0, length=1), budget=600, seed=0)
        assert rep.factor_ok
        assert 0.0 < rep.C_continuous <= rep.C_discrete == 1.0

    def test_zero_w(self):
        inst = Instance(ExponentPair(1.0, 1.0), WeightSeq(0, (1.0,)),
                        WeightSeq(0, (0.0,)), constant_kernel(1.0, 0, 1))
        rep = bridge_check(inst, budget=600, seed=0)
        assert rep.factor_ok
        assert rep.C_discrete == rep.C_continuous == 0.0

    def test_sup_iter_form(self):
        rep = bridge_check(unit_instance(1.0, 1.0), form="SUP_ITER",
                           budget=1000, seed=0)
        assert rep.factor_ok

    def test_rejects_small_p(self):
        with pytest.raises(ValueError):
            bridge_check(unit_instance(0.5, 1.0))

    @pytest.mark.parametrize("scale", [10.0, 0.01])
    def test_violation_reports_its_slack(self, scale, monkeypatch):
        # Scaling the continuous ratio breaks one side of the factor bound.
        cont_ratio = bridge._ContRatio

        def scaled(form, inst):
            ratio = cont_ratio(form, inst)

            def scaled_ratio(g):
                r = ratio(g)
                return None if r is None else scale * r
            return scaled_ratio
        monkeypatch.setattr(bridge, "_ContRatio", scaled)
        rep = bridge_check(unit_instance(1.0, 2.0), budget=500, seed=0)
        assert not rep.factor_ok
        if scale > 1.0:
            assert rep.slack == rep.C_continuous / rep.C_discrete - 1.0
        else:
            assert rep.slack == (rep.C_discrete
                                 / (rep.factor_bound * rep.C_continuous) - 1.0)
        assert rep.slack > 1.0

    @pytest.mark.parametrize("form", ["GOP_DUAL", "SUP_ITER"])
    def test_infinite_kernel_against_zero_cell(self, form):
        # A zero cell value times the infinite diagonal entry is 0, not NaN.
        rep = bridge_check(squared_kernel_instance(1e200, 1e200), form,
                           budget=40, seed=7)
        assert rep.C_discrete == rep.C_continuous == INF
        assert rep.factor_ok

    @pytest.mark.parametrize("p", [1.0, 2.0, INF])
    @pytest.mark.parametrize("q", [1.0, INF])
    @pytest.mark.parametrize("form", ["GOP_DUAL", "SUP_ITER"])
    @pytest.mark.parametrize("budget", [7, 40])
    @pytest.mark.parametrize("v, w, C", [
        ((0.0, 0.0, 0.0), (0.0, 0.0, 0.0), 0.0),  # no candidate has a ratio
        ((0.0, 0.0, 0.0), (1.0, 2.0, 0.5), INF),  # every vertex ratio is inf
        ((1.0, 2.0, 0.5), (0.0, 0.0, 0.0), 0.0),  # every ratio is 0
    ])
    def test_degenerate_weights(self, p, q, form, budget, v, w, C):
        # Where no ratio beats the first one, or none exists, both
        # witnesses are e_0, however the sides are searched and seeded.
        for kern in (constant_kernel(1.0, 0, 3),
                     tabulated_kernel([[2.0, 3.0, 0.0], [1.0, 5.0], [0.5]], 0, 3)):
            inst = Instance(ExponentPair(p, q), WeightSeq(0, v), WeightSeq(0, w), kern)
            want = bridge.BridgeReport(
                form, C, C, 2.0 ** (1.0 + 1.0 / q), True, 0.0,
                TestSequence(0, (1.0, 0.0, 0.0)), (1.0, 0.0, 0.0, 0.0, 0.0, 0.0))
            assert repr(bridge_check(inst, form, budget, seed=3)) == repr(want)


def pinf_instances(q, seed=19, per_kind=6):
    """Seeded p = inf instances on constant, sup, tabulated and power
    kernels, windows of up to 8 indices, every other one with zero v
    entries."""
    rng = random.Random(seed)
    for kind in ("constant", "sup", "tabulated", "power"):
        for k in range(per_kind):
            inst = random_instance(rng, INF, q, max_length=8, allow_zero_v=k % 2 == 1,
                                   kinds=("tabulated",) if kind == "power" else (kind,))
            if kind == "power":
                inst = Instance(inst.exponents, inst.v, inst.w,
                                inst.kernel.power(rng.choice((0.5, 2.0))))
            yield inst


class TestBridgeAtPInf:
    """At p = inf each side is its vertex pass and its ratio at 1/v."""

    @pytest.mark.parametrize("form", ["GOP_DUAL", "SUP_ITER"])
    def test_q_inf_sides_agree_bit_for_bit(self, form):
        # The cell masses of 1/v on both halves of each cell are 1/v, and
        # at q = inf the continuous left-hand side is the discrete one of
        # the cell masses.
        for inst in pinf_instances(INF):
            rep = bridge_check(inst, form, budget=40, seed=3)
            assert repr(rep.C_discrete) == repr(rep.C_continuous)
            assert rep.factor_ok

    @pytest.mark.parametrize("q", [1.0, 2.0, 3.0])
    def test_gop_dual_is_a3_and_cala4(self, q):
        # sup a_n v_n at a = 1/v is 1 to within an ulp, so C_discrete is
        # A_3, lhs(1/v), within 4 ulps.  calA_4 integrates each unit cell
        # in one piece and the bridge in two halves, and
        # `_int_pow_linear` cancels where a piece's slope is small
        # against its base (ROADMAP item 1): up to 7e-13 relative on
        # seeded instances like these, hence the 1e-11.  Both constants
        # take 1/0 = inf with 0 * inf = 0, so zero v entries stay in.
        for inst in pinf_instances(q):
            rep = bridge_check(inst, budget=40, seed=3)
            assert close(rep.C_discrete, condition_A(3, inst),
                         4 * sys.float_info.epsilon)
            assert close(rep.C_continuous, continuous_constant("calA_4", inst), 1e-11)

    @pytest.mark.parametrize("form", ["GOP_DUAL", "SUP_ITER"])
    @pytest.mark.parametrize("q", [0.5, 2.0, INF])
    def test_no_search_beats_it(self, form, q):
        for inst in pinf_instances(q, per_kind=2):
            rep = bridge_check(inst, form, budget=40, seed=3)
            L = inst.length
            sides = ((_form_ratios(form, inst), L, rep.C_discrete),
                     (Ratios(_ContRatio(form, inst)), 2 * L, rep.C_continuous))
            for fns, dim, value in sides:
                for strategy in ("support_grid", "multistart_ascent"):
                    found = _run_search(fns, dim, inst.start, strategy, 400, 5,
                                        False).estimate
                    assert found <= value * (1.0 + 1e-12), (strategy, found, value)

    @pytest.mark.parametrize("form", ["GOP_DUAL", "SUP_ITER"])
    @pytest.mark.parametrize("q", [1.0, INF])
    def test_zero_v(self, form, q):
        w = WeightSeq(0, (1.0, 1.0, 0.0))
        kern = constant_kernel(1.0, 0, 3)
        # v_1 = 0, and its column reaches w_1 > 0: both constants are inf.
        inst = Instance(ExponentPair(INF, q), WeightSeq(0, (1.0, 0.0, 2.0)), w, kern)
        rep = bridge_check(inst, form, budget=40, seed=0)
        assert rep.C_discrete == rep.C_continuous == INF
        assert rep.factor_ok and rep.slack == 0.0
        # v_2 = 0 reaches only w_2 = 0: both constants stay finite.
        inst = Instance(ExponentPair(INF, q), WeightSeq(0, (1.0, 0.5, 0.0)), w, kern)
        rep = bridge_check(inst, form, budget=40, seed=0)
        assert 0.0 < rep.C_continuous <= rep.C_discrete < INF
        assert rep.factor_ok
        assert all(map(math.isfinite, rep.discrete_witness.values))
        if form == "GOP_DUAL" and q == 1.0:
            # lhs(1/v) with 1/0 = inf and 0 * inf = 0: 2 * 1 + 2 and
            # 1/2 + (1 + 1).
            assert rep.C_discrete == condition_A(3, inst) == 4.0
            assert rep.C_continuous == continuous_constant("calA_4", inst) == 2.5

    def test_extreme_scales_stay_in_range(self):
        # 1/v = (0.5, 1e-300, 1e300).  Unscaled, a power in the continuous
        # left-hand side at 1/v overflowed, and C_continuous read inf.
        inst = Instance(ExponentPair(INF, 1.0), WeightSeq(0, (2.0, 1e300, 1e-300)),
                        WeightSeq(0, (0.0, 0.0, 1e-300)),
                        tabulated_kernel([[0.0, 3.0, 6.0], [0.0, 0.0], [0.5]], 0, 3))
        rep = bridge_check(inst)
        assert rep.C_continuous == 0.25
        assert rep.factor_ok

    def test_budget_must_cover_the_continuous_vertices(self):
        inst = unit_instance(INF, 1.0, length=4)
        with pytest.raises(ValueError, match="budget must cover at least one pass over "
                           "the 2L = 8 half pieces of the continuous side"):
            bridge_check(inst, budget=7)
        assert bridge_check(inst, budget=8).factor_ok

    @pytest.mark.parametrize("form", ["GOP_DUAL", "SUP_ITER"])
    def test_one_pass_and_one_point_per_side(self, form, monkeypatch):
        counts = {"disc": 0, "cont": 0}
        before_seeding = []
        form_ratios, cont_ratio = bridge._form_ratios, bridge._ContRatio

        def counted(side, ratio):
            def wrapped(*args):
                counts[side] += 1
                return ratio(*args)
            return wrapped

        def disc_ratios(f, inst):
            fns = form_ratios(f, inst)
            return fns._replace(ratio=counted("disc", fns.ratio))

        class Recorded(_Search):
            def run(self, *args):
                out = super().run(*args)
                before_seeding.append(dict(counts))
                return out
        monkeypatch.setattr(bridge, "_form_ratios", disc_ratios)
        monkeypatch.setattr(bridge, "_ContRatio",
                            lambda f, inst: counted("cont", cont_ratio(f, inst)))
        monkeypatch.setattr(bridge, "_Search", Recorded)
        for q in (0.5, INF):
            for inst in pinf_instances(q, per_kind=1):
                counts.update(disc=0, cont=0)
                before_seeding.clear()
                bridge_check(inst, form, budget=40, seed=0)
                L = inst.length
                assert before_seeding[0]["disc"] <= L + 1
                assert before_seeding[1]["cont"] <= 2 * L + 1


class TestContinuousRatio:
    @pytest.mark.parametrize("p", [1.0, 2.0, INF])
    @pytest.mark.parametrize("q", [1.0, INF])
    def test_rejects_bad_entries_on_their_own_account(self, p, q):
        # With q = inf the ratio once returned a value for some of these.
        ratio = _ContRatio("GOP_DUAL", unit_instance(p, q, length=2))
        with pytest.raises(ValueError, match="negative value not allowed: -0.5"):
            ratio([1.0, 2.0, -0.5, 1.0])
        with pytest.raises(ValueError, match="NaN is not a valid extended real"):
            ratio([1.0, math.nan, 0.0, 1.0])
        with pytest.raises(ValueError, match="2 \\* window length"):
            ratio([1.0, 1.0, 1.0])

    def test_rejects_other_forms(self):
        with pytest.raises(ValueError, match="GOP_DUAL and SUP_ITER"):
            _ContRatio("WEAK", unit_instance(1.0, 1.0))


class TestLemmaDecompose:
    def test_zero_function(self):
        inst = unit_instance(1.0, 1.0)
        d = lemma_decompose("L1", inst, StepFunction(0, (0.0, 0.0, 0.0)))
        assert (d.lhs, d.block_part, d.cross_part) == (0.0, 0.0, 0.0)
        assert d.ratio == 1.0

    def test_l1_positive(self):
        inst = unit_instance(1.0, 1.0)
        d = lemma_decompose("L1", inst, ones3)
        assert d.lhs > 0.0 and d.block_part > 0.0 and d.cross_part > 0.0
        assert math.isfinite(d.ratio) and d.ratio > 0.0

    def test_l2_p1_equals_l1(self):
        inst = unit_instance(1.0, 2.0)
        f = StepFunction(0, (1.0, 0.5, 2.0))
        d1 = lemma_decompose("L1", inst, f)
        d2 = lemma_decompose("L2", inst, f)
        assert close(d1.lhs, d2.lhs, 1e-12)
        assert close(d1.block_part, d2.block_part, 1e-12)
        assert close(d1.cross_part, d2.cross_part, 1e-12)

    def test_l2_overflowing_kernel_power_against_zero_mass(self):
        # U(0, 1)^p = (1e200)^2 overflows, but f has no mass on cell 0, so
        # the cell-1 integral is w_1 * int_0^1 (0 + s)^1 ds = 1/2.
        inst = Instance(ExponentPair(2.0, 2.0), WeightSeq(0, (1.0, 1.0)),
                        WeightSeq(0, (1.0, 1.0)),
                        tabulated_kernel([[1.0, 1e200], [1.0]], 0, 2))
        d = lemma_decompose("L2", inst, StepFunction(0, (0.0, 1.0)))
        assert d.lhs == 0.5
        assert all(map(math.isfinite, (d.block_part, d.cross_part, d.ratio)))

    @pytest.mark.parametrize("which", ["L1", "L2", "L3"])
    def test_infinite_diagonal_against_zero_cell(self, which):
        f = StepFunction(0, (0.0, 1.0))
        d = lemma_decompose(which, squared_kernel_instance(1e200, 1e200), f)
        assert d.lhs == d.block_part == d.cross_part == INF
        # Only U(0, 0) is inf, and f is zero on cell 0: the left-hand side
        # is w_1 * int_0^1 s ds.
        d = lemma_decompose(which, squared_kernel_instance(1e200, 1.0), f)
        assert d.lhs == 0.5
        assert math.isfinite(d.ratio) and d.ratio > 0.0

    @pytest.mark.parametrize("which", ["L1", "L2", "L3"])
    def test_both_sides_infinite_ratio_is_one(self, which):
        d = lemma_decompose(which, squared_kernel_instance(1e200, 1e200),
                            StepFunction(0, (0.0, 1.0)))
        assert d.lhs == d.block_part + d.cross_part == INF
        assert d.ratio == 1.0

    def test_regime_validation(self):
        with pytest.raises(ValueError):
            lemma_decompose("L2", unit_instance(INF, 1.0), ones3)
        with pytest.raises(ValueError):
            lemma_decompose("L1", unit_instance(1.0, INF), ones3)

    def test_envelope_recorded(self):
        rng = random.Random(2)
        lo, hi = INF, 0.0
        for _ in range(60):
            p = rng.choice((1.0, 2.0))
            q = rng.choice((1.0, 2.0))
            inst = random_instance(rng, p, q, kinds=("constant", "sup"))
            f = StepFunction(inst.start,
                             tuple(rng.choice((0.0, 0.5, 1.0, 2.0))
                                   for _ in range(inst.length)))
            for which in ("L1", "L2", "L3"):
                d = lemma_decompose(which, inst, f)
                assert math.isfinite(d.ratio) and d.ratio > 0.0
                lo, hi = min(lo, d.ratio), max(hi, d.ratio)
        assert 0.0 < lo <= hi < INF


class TestCellIntegralExtremes:
    def test_quad_cell_underflows_at_every_node(self):
        # (1 - s)^1000 s^(1000/1.1): every node's product underflows.
        assert _quad_cell(1.0, 0.0, 1.0, 1000.0, 0.0, 1.0, 1.1) == 0.0

    def test_quad_cell_overflows(self):
        # (2 - s)^1100 (1 + s)^550 overflows at the nodes near s = 0.
        assert _quad_cell(1.0, 1.0, 1.0, 1100.0, 1.0, 1.0, 2.0) == INF

    def test_int_pow_max_floor_overflows(self):
        # The linear part never reaches the floor c = 1e300, whose square
        # overflows.
        assert _int_pow_max(1e300, 0.0, 1.0, 2.0, 1.0) == INF

    def test_int_pow_max_infinite_floor_and_slope(self):
        # (c - a) / b is inf / inf; the integrand is inf throughout.
        assert _int_pow_max(INF, 0.0, INF, 0.5, 0.5) == INF

    @pytest.mark.parametrize("form", ["GOP_DUAL", "SUP_ITER"])
    def test_continuous_ratio_infinite_peak_and_slope(self, form):
        # Cell 1's peak U(0, 1) * 2 = 1e308 * 2 and its slope U(1, 1) * 1e308
        # overflow; SUP_ITER once raised "NaN is not a valid extended real".
        inst = Instance(ExponentPair(1.0, 0.5), WeightSeq(0, (0.0, 0.0, 0.0)),
                        WeightSeq(0, (0.0, 5e-324, 0.0)),
                        tabulated_kernel([[0.0, 1e308, 0.0], [2.0, 0.0], [0.0]], 0, 3))
        assert _ContRatio(form, inst)([0.0, 4.0, 0.0, 1e308, 0.0, 0.0]) == INF

    def test_sweep_peak_power_overflows(self):
        # Cell 1's peak U(0, 1) F = 2e200 stays above a + b s, and its square
        # overflows: the cell is inf on half pieces and on unit pieces.
        inst = Instance(ExponentPair(1.0, 2.0), WeightSeq(0, (1.0, 1.0)),
                        WeightSeq(0, (0.0, 1.0)),
                        tabulated_kernel([[1.0, 2.0], [1.0]], 0, 2))
        assert _ContRatio("SUP_ITER", inst)([1e200, 1e200, 1e-3, 1e-3]) == INF
        assert lemma_decompose("L1", inst, StepFunction(0, (1e200, 1e-3))).lhs == INF

    @pytest.mark.parametrize("which", ["L1", "L2", "L3"])
    def test_decomposition_infinite_peak_and_slope(self, which):
        w = WeightSeq(0, (1.0, 1.0))
        inst = Instance(ExponentPair(1.0, 0.5), w, w,
                        tabulated_kernel([[1.0, 1e308], [2.0]], 0, 2))
        assert lemma_decompose(which, inst, StepFunction(0, (4.0, 1e308))).lhs == INF
