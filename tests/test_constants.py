import math
import random

import pytest

from kernelineq import (INF, ConstantKernel, ExponentPair, Instance, Kernel,
                        PowerKernel, RowSequenceKernel, SupSequenceKernel,
                        TabulatedKernel, WeightSeq, characterize, condition_A,
                        condition_D, constant_kernel)
from kernelineq.constants import _pair_sup, _uq_tails
from kernelineq.kernels import rows_of
from kernelineq.numerics import ext_dot, ext_mul, ext_muls, pows, sup0
from kernelineq.weights import sigma_p_running

from conftest import applicable_constants, close, count_rows_of, random_instance


def unit_instance(p, q, length=3):
    w = WeightSeq(0, (1.0,) * length)
    return Instance(ExponentPair(p, q), w, w, constant_kernel(1.0, 0, length))


class TestConditionA:
    def test_a1_example(self):
        assert condition_A(1, unit_instance(1.0, 1.0)) == 3.0

    def test_a12_a13_example(self):
        inst = unit_instance(1.0, 0.5, length=2)
        assert close(condition_A(12, inst), 3.0)
        assert close(condition_A(13, inst), 3.0)

    def test_regime_mismatch(self):
        with pytest.raises(ValueError):
            condition_A(4, unit_instance(1.0, 1.0))  # A4 needs 1 < p < inf
        with pytest.raises(ValueError):
            condition_A(1, unit_instance(2.0, 1.0))  # A1 needs q >= p, p <= 1

    def test_zero_w_gives_zero(self):
        inst = Instance(ExponentPair(1.0, 1.0), WeightSeq(0, (1.0, 1.0)),
                        WeightSeq(0, (0.0, 0.0)), constant_kernel(1.0, 0, 2))
        assert condition_A(1, inst) == 0.0

    def test_zero_v_gives_inf(self):
        inst = Instance(ExponentPair(1.0, 1.0), WeightSeq(0, (0.0, 1.0)),
                        WeightSeq(0, (1.0, 1.0)), constant_kernel(1.0, 0, 2))
        assert condition_A(1, inst) == INF


class TestConditionD:
    def test_d1_example(self):
        assert close(condition_D(1, unit_instance(2.0, 2.0, length=2)),
                     math.sqrt(2.0))

    def test_d4_example(self):
        assert condition_D(4, unit_instance(INF, 1.0)) == 6.0

    def test_d5_example(self):
        assert close(condition_D(5, unit_instance(2.0, 1.0, length=2)),
                     math.sqrt(3.0))

    def test_regime_mismatch(self):
        with pytest.raises(ValueError):
            condition_D(4, unit_instance(2.0, 1.0))  # D4 needs p = inf
        with pytest.raises(ValueError):
            condition_D(1, unit_instance(2.0, 1.0))  # D1 needs q >= p


class TestCharacterize:
    def test_unit_example(self):
        rep = characterize(unit_instance(1.0, 1.0))
        assert rep.constants["A_1"] == 3.0
        assert rep.predicted_C == 3.0

    def test_sum_regime(self):
        rep = characterize(unit_instance(1.0, 0.5, length=2))
        assert close(rep.predicted_C, 6.0)
        assert close(rep.constants["A_12"], 3.0)
        assert close(rep.constants["A_13"], 3.0)

    def test_zero_w(self):
        inst = Instance(ExponentPair(1.0, 1.0), WeightSeq(0, (1.0, 1.0)),
                        WeightSeq(0, (0.0, 0.0)), constant_kernel(1.0, 0, 2))
        rep = characterize(inst)
        assert rep.predicted_C == 0.0
        assert all(val == 0.0 for val in rep.constants.values())

    def test_every_regime_computes(self):
        rng = random.Random(7)
        for p in (0.5, 1.0, 1.5, 2.0, INF):
            for q in (0.5, 1.0, 2.0, 3.0, INF):
                inst = random_instance(rng, p, q)
                rep = characterize(inst)
                if not (math.isinf(p) and q < 1.0):
                    assert rep.predicted_kernel is not None, (p, q)
                for val in rep.constants.values():
                    assert val >= 0.0

    def test_finiteness_consistency(self):
        rng = random.Random(8)
        for _ in range(60):
            p = rng.choice((0.5, 1.0, 2.0))
            q = rng.choice((0.5, 1.0, 2.0))
            inst = random_instance(rng, p, q, allow_zero_v=True)
            rep = characterize(inst)
            if rep.predicted_kernel is None:
                continue
            names = [n for n in rep.constants if n.startswith("A_")]
            required_inf = any(math.isinf(rep.constants[n]) for n in names)
            assert math.isinf(rep.predicted_kernel) == required_inf


class TestHomogeneity:
    def test_w_scaling(self):
        rng = random.Random(9)
        for _ in range(40):
            p = rng.choice((0.5, 1.0, 2.0))
            q = rng.choice((0.5, 1.0, 2.0))
            inst = random_instance(rng, p, q)
            mu = 3.7
            scaled = Instance(inst.exponents, inst.v, inst.w.scaled(mu),
                              inst.kernel)
            base, after = characterize(inst), characterize(scaled)
            for name, val in base.constants.items():
                got = after.constants[name]
                if math.isinf(val):
                    assert math.isinf(got)
                else:
                    assert close(got, mu ** (1.0 / q) * val, 1e-11), name

    def test_v_scaling(self):
        rng = random.Random(10)
        for _ in range(40):
            p = rng.choice((0.5, 1.0, 2.0))
            q = rng.choice((0.5, 1.0, 2.0))
            inst = random_instance(rng, p, q)
            lam = 2.3
            scaled = Instance(inst.exponents, inst.v.scaled(lam), inst.w,
                              inst.kernel)
            base, after = characterize(inst), characterize(scaled)
            for name, val in base.constants.items():
                if name in ("D_5", "D_6"):
                    # Printed as products of sigma_p powers whose combined
                    # v-exponent is not -1/p; not a pure power in v.
                    continue
                got = after.constants[name]
                if math.isinf(val):
                    assert math.isinf(got)
                else:
                    assert close(got, lam ** (-1.0 / p) * val, 1e-11), name


class TestMonotonicity:
    def test_random_perturbations(self):
        rng = random.Random(11)
        for _ in range(60):
            p = rng.choice((0.5, 1.0, 2.0))
            q = rng.choice((0.5, 1.0, 2.0))
            inst = random_instance(rng, p, q)
            i = rng.randrange(inst.length)
            base = characterize(inst)

            w_up = list(inst.w.values)
            w_up[i] += 1.0
            rep = characterize(Instance(inst.exponents, inst.v,
                                        WeightSeq(inst.start, tuple(w_up)),
                                        inst.kernel))
            for name, val in base.constants.items():
                assert rep.constants[name] >= val - 1e-12 * max(1.0, val), name

            v_up = list(inst.v.values)
            v_up[i] += 1.0
            rep = characterize(Instance(inst.exponents,
                                        WeightSeq(inst.start, tuple(v_up)),
                                        inst.w, inst.kernel))
            for name, val in base.constants.items():
                if name in ("D_5", "D_6"):
                    continue
                assert rep.constants[name] <= val + 1e-12 * max(1.0, val), name


# Kernel entries and weights at the edges of the doubles: signed and
# subnormal zeros, products that underflow and products that overflow.
EXTREME_ENTRIES = (0.0, -0.0, 5e-324, 1e-300, 1.0, 1e300, 1.7e308)
EXTREME_WEIGHTS = (0.0, 5e-324, 1e-300, 0.5, 1.0, 1e300, 1.7e308)


def extreme_kernel(rng, kind, length):
    u = WeightSeq(0, tuple(rng.choice(EXTREME_ENTRIES) for _ in range(length)))
    if kind == "constant":
        spec = ConstantKernel(rng.choice(EXTREME_ENTRIES))
    elif kind == "sup":
        spec = SupSequenceKernel(u)
    elif kind == "row":
        spec = RowSequenceKernel(u)
    elif kind == "tabulated":
        spec = TabulatedKernel(0, tuple(
            tuple(rng.choice(EXTREME_ENTRIES) for _ in range(length - i))
            for i in range(length)))
    else:  # a power whose 1e300 or 1.7e308 entries overflow to inf
        spec = PowerKernel(rng.choice((SupSequenceKernel(u), RowSequenceKernel(u))),
                           rng.choice((2.0, 3.0)))
    return Kernel(spec, 0, length)


def row_tails(inst, q, strict):
    """The sums along the kernel rows, left to right from 0.0."""
    w = inst.w.values
    return [ext_dot(pows(row[strict:], q), w[n + strict:])
            for n, row in enumerate(rows_of(inst.kernel.columns))]


def row_pair_sup(inst, hs, ws):
    """sup_n h_n times the sup along kernel row n of U(n, i) ws_i."""
    return sup0(ext_muls(hs, [sup0(map(ext_mul, row, ws[n:]))
                              for n, row in enumerate(rows_of(inst.kernel.columns))]))


class TestColumnReads:
    """The tail sums and double suprema read down the stored columns equal
    the row formulas by repr."""

    def test_matches_row_formulas(self):
        rng = random.Random(12)
        kinds = ("constant", "sup", "row", "tabulated", "power")
        for trial in range(250):
            length = rng.randint(1, 6)
            v = tuple(rng.choice(EXTREME_WEIGHTS) for _ in range(length))
            w = tuple(rng.choice(EXTREME_WEIGHTS) for _ in range(length))
            kernel = extreme_kernel(rng, kinds[trial % len(kinds)], length)
            inst = Instance(ExponentPair(1.0, 1.0), WeightSeq(0, v), WeightSeq(0, w),
                            kernel)
            for q in (0.5, 1.0, 1.5, 2.0, 3.0):
                for strict in (False, True):
                    assert (repr(_uq_tails(inst, q, strict))
                            == repr(row_tails(inst, q, strict))), (trial, q, strict)
            # The h of A_2 (v^(-1/p) at p = 0.5 and 1), D_3 (1/v) and
            # D_2/calA_2 (sigma_p), against the ws of A_2, D_2 and D_3.
            for hs in (pows(v, -2.0), pows(v, -1.0), sigma_p_running(inst.v, 1.0),
                       sigma_p_running(inst.v, 1.5), sigma_p_running(inst.v, 3.0)):
                for ws in (list(w), pows(w, 0.5), pows(w, 0.0)):
                    assert (repr(_pair_sup(inst, hs, ws))
                            == repr(row_pair_sup(inst, hs, ws))), (trial, hs, ws)

    def test_pair_sup_underflowed_h_meets_overflowed_product(self):
        # h_0 = v_0^-2 underflows to 0 and U(0, 1) w_1 overflows to inf:
        # that pair is 0 * inf = 0, and the pair (1, 1) holds the sup.
        inst = Instance(ExponentPair(0.5, INF), WeightSeq(0, (1.7e308, 1.0)),
                        WeightSeq(0, (1.0, 1e300)),
                        Kernel(TabulatedKernel(0, ((1.0, 1e300), (1e-300,))), 0, 2))
        hs = pows(inst.v.values, -2.0)
        assert hs == [0.0, 1.0]
        want = row_pair_sup(inst, hs, inst.w.values)
        assert want == 1e-300 * 1e300
        assert _pair_sup(inst, hs, inst.w.values) == want
        assert condition_A(2, inst) == want

    def test_tail_head_sum_zero_head_meets_overflowed_power(self):
        # U(0, 1) = (1e200)^2 overflows to inf, so the view of U is not
        # finite, and its column 1 meets the head v_0^(q'/p) = 0 (v_0 =
        # 1e300 underflows): that product is 0 * inf = 0, and U(1, 1) h_1 = 1
        # holds the sup.  A_12 = A_13 = 1 (a plain product would give nan,
        # which sup0 reads as 0).
        spec = PowerKernel(TabulatedKernel(0, ((1.0, 1e200), (1.0,))), 2.0)
        inst = Instance(ExponentPair(0.75, 0.5), WeightSeq(0, (1e300, 1.0)),
                        WeightSeq(0, (1.0, 1.0)), Kernel(spec, 0, 2))
        assert inst.kernel.columns == [[1.0], [INF, 1.0]]
        assert condition_A(12, inst) == condition_A(13, inst) == 1.0


class TestNoKernelRows:
    def test_constants_read_no_rows(self, monkeypatch):
        """The constants and the bridge's constants read the stored columns:
        they never derive the kernel rows."""
        rng = random.Random(13)
        exps = (0.5, 1.0, 2.0, 3.0, INF)
        insts = [random_instance(rng, p, q, kinds=("constant", "sup", "row", "tabulated"),
                                 allow_zero_v=True)
                 for p in exps for q in exps for _ in range(3)]
        for inst in insts:
            # The general regularity scan runs along rows; it is computed
            # once per kernel and kept, so it is taken before counting.
            inst.kernel.regularity_constant()
        calls = count_rows_of(monkeypatch)
        computed = 0
        for inst in insts:
            characterize(inst)
            computed += len(applicable_constants(inst))
        assert computed > 200
        assert calls == []
