import dataclasses
import itertools
import math
import random
import re

import pytest

from kernelineq import (FORMS, INF, ExponentPair, Instance, TestSequence,
                        WeightSeq, best_constant, condition_A, constant_kernel,
                        equivalence_suite, ext_mul, ext_pow, functional_lhs,
                        reverse_instance, rhs_norm, scaling_pair,
                        strong_classical_constant, tabulated_kernel, vertex_exact)
from kernelineq import Kernel, kernels, oracle
from kernelineq.kernels import RowSequenceKernel, SupSequenceKernel
from kernelineq.bridge import _ContRatio, bridge_check
from kernelineq.numerics import conjugate, finite, pow_for, pows, quotient
from kernelineq.oracle import (FORM_TABLE, _check_chain, _form_ratios, _norm,
                               _random_sequences, _sample_lhs, form_rhs_weights)

from conftest import close, count_rows_of, random_instance


def unit_instance(p, q, length=3):
    w = WeightSeq(0, (1.0,) * length)
    return Instance(ExponentPair(p, q), w, w, constant_kernel(1.0, 0, length))


class TestFunctionalLhs:
    def test_gop_dual_spike(self):
        inst = unit_instance(1.0, 1.0)
        assert functional_lhs("GOP_DUAL", inst, TestSequence(0, (1.0, 0.0, 0.0))) == 3.0

    def test_weak_spike(self):
        inst = unit_instance(1.0, 1.0)
        assert functional_lhs("B1", inst, TestSequence(0, (1.0, 0.0, 0.0))) == 3.0
        assert functional_lhs("WEAK", inst, TestSequence(0, (1.0, 0.0, 0.0))) == 3.0

    def test_strong_equals_gop_dual_at_p1(self):
        rng = random.Random(0)
        for _ in range(30):
            inst = random_instance(rng, 1.0, rng.choice((0.5, 1.0, 2.0)))
            a = TestSequence(inst.start, tuple(rng.uniform(0, 2)
                                               for _ in range(inst.length)))
            assert close(functional_lhs("STRONG", inst, a),
                         functional_lhs("GOP_DUAL", inst, a))

    def test_q_inf_is_sup(self):
        inst = unit_instance(1.0, INF)
        a = TestSequence(0, (1.0, 0.0, 0.0))
        # sup_n w_n * (partial sum) = 1 for every n.
        assert functional_lhs("GOP_DUAL", inst, a) == 1.0

    def test_sb_requires_sequence_kernel(self):
        inst = unit_instance(1.0, 1.0)
        with pytest.raises(ValueError):
            functional_lhs("SB1", inst, TestSequence(0, (1.0, 1.0, 1.0)))

    def test_homogeneity_all_forms(self):
        rng = random.Random(1)
        for form in FORMS:
            if form in ("SCALE3", "SCALE4"):
                continue
            for p, q in ((0.5, 1.0), (1.0, 0.5), (2.0, 3.0), (2.0, INF),
                         (INF, 1.0), (INF, INF)):
                kinds = ("row", "sup") if form.startswith("SB") else \
                    ("constant", "sup", "tabulated")
                inst = random_instance(rng, p, q, kinds=kinds)
                a = TestSequence(inst.start,
                                 tuple(rng.choice((0.0, 0.5, 1.0, 2.0))
                                       for _ in range(inst.length)))
                lam = 3.7
                x = functional_lhs(form, inst, a)
                y = functional_lhs(form, inst, a.scaled(lam))
                if math.isfinite(x):
                    assert close(y, lam * x, 1e-11), (form, p, q)


def _bound_lines(monkeypatch):
    """Record the kernel lines (the diagonal where the inner terms are a
    running reduction), finiteness flag and path each evaluator binds."""
    bound = []
    real = oracle._lines_evaluator

    def spy(f, inst, lines, lines_finite, running=False):
        bound.append((lines, lines_finite, running))
        return real(f, inst, lines, lines_finite, running)
    monkeypatch.setattr(oracle, "_lines_evaluator", spy)
    return bound


def _runs(name, f):
    """Whether the record f (collapsed where p = inf) reads the diagonal of
    the kernel `_LINE_KERNELS[name]` as one running reduction: every
    forward record on a kernel constant along rows (an SB "row" kernel
    is), a backward max record on a constant one."""
    if f.kernel != "U":
        return f.kernel == "row"
    if f.forward:
        return name in ("constant", "row")
    return name == "constant" and f.reduce == "max"


_SUP_U = WeightSeq(0, (3.0, 1e200, 0.5, 0.0))
_LINE_KERNELS = {
    "constant": constant_kernel(1e300, 0, 4),
    "tabulated": tabulated_kernel([[1.0, 1e200, 2.0, 0.0], [1.0, 5e-324, 1e-300],
                                   [1.7e308, 1.0], [0.0]], 0, 4),
    "sup": Kernel(SupSequenceKernel(_SUP_U), 0, 4),
    "row": Kernel(RowSequenceKernel(_SUP_U), 0, 4),
    # K(0, 1)^2 and K(2, 2)^2 overflow to inf.
    "power": tabulated_kernel([[1.0, 1e200, 2.0, 0.0], [1.0, 5e-324, 1e-300],
                               [1.7e308, 1.0], [0.0]], 0, 4).power(2.0),
}


class TestKernelLines:
    """What a form's evaluator binds from the instance kernel."""

    @pytest.mark.parametrize("p", [0.5, 1.0, 2.0, INF])
    @pytest.mark.parametrize("name", list(_LINE_KERNELS))
    def test_finiteness_flag_is_the_lines_own(self, monkeypatch, name, p):
        kern = _LINE_KERNELS[name]
        w = WeightSeq(0, (1.0,) * 4)
        inst = Instance(ExponentPair(p, 2.0), w, w, kern)
        bound = _bound_lines(monkeypatch)
        sequence = isinstance(kern.spec, (SupSequenceKernel, RowSequenceKernel))
        forms = [x for x, f in FORM_TABLE.items() if sequence or f.kernel == "U"]
        for form in forms:
            oracle._evaluator(form, inst)
            lines, flag, running = bound.pop()
            f = oracle._form_record(form, inst)
            assert running is _runs(name, f), form
            if running:
                # The diagonal's own flag: 1e300^2 overflows at p = 2.
                assert len(lines) == 4 and flag is finite(lines), form
                if name == "constant":
                    assert flag is not (p == 2.0 and f.power), form
            else:
                assert flag is finite(*lines), form
        assert kern.finite is (name != "power")

    def test_zero_times_an_infinite_kernel_entry(self):
        # K(0, 1) = inf on the squared kernel; a_0 = 0 gives 0 * inf = 0.
        w = WeightSeq(0, (1.0, 1.0))
        kern = tabulated_kernel([[1.0, 1e200], [1.0]], 0, 2).power(2.0)
        a = TestSequence(0, (0.0, 1.0))
        for p, form, expected in [(1.0, "GOP_DUAL", 1.0), (1.0, "WEAK", 1.0),
                                  (2.0, "STRONG", 1.0), (INF, "GOP_DUAL", 1.0)]:
            inst = Instance(ExponentPair(p, 1.0), w, w, kern)
            assert functional_lhs(form, inst, a) == expected, (p, form)

    @pytest.mark.parametrize("kind", [SupSequenceKernel, RowSequenceKernel])
    def test_sb_forms_read_the_stored_columns(self, monkeypatch, kind):
        kern = Kernel(kind(_SUP_U), 0, 4)
        tag = "sup" if kind is SupSequenceKernel else "row"
        bound = _bound_lines(monkeypatch)
        inst = Instance(ExponentPair(INF, 2.0), _SUP_U, _SUP_U, kern)
        for form, f in FORM_TABLE.items():
            if f.kernel in ("sup", "row"):
                oracle._evaluator(form, inst)
                lines, _, running = bound.pop()
                # A row kernel's inner terms read u itself, as its diagonal.
                if f.kernel == "row":
                    assert running and lines == list(_SUP_U.values), form
                else:
                    assert not running and (lines is kern.columns) == (tag == "sup"), form

    def test_rows_derived_only_for_backward_records(self, monkeypatch):
        """Across every record's evaluator build on one kernel, only a
        backward record derives rows, and the kernel derives them at most
        once per exponent (of its stored columns, of U^p) and raises its
        triangle to p at most once; on the running path (forward on a
        constant or row kernel, backward max on a constant one) no record
        derives rows or raises a triangle to p."""
        rng = random.Random(31)
        calls = count_rows_of(monkeypatch)
        raised = []
        real_pow_for = kernels.pow_for

        def counted_pow_for(r):
            raised.append(r)
            return real_pow_for(r)
        monkeypatch.setattr(kernels, "pow_for", counted_pow_for)
        for kind in ("sup", "tabulated", "constant", "row"):
            # A new kernel, whose views no build has derived yet.
            inst = random_instance(rng, 2.0, 2.0, length=5, kinds=(kind,))
            a = TestSequence(inst.start, (1.0, 0.5, 0.0, 2.0, 1.5))
            del calls[:], raised[:]
            derived = set()
            for form, f in FORM_TABLE.items():
                if f.kernel == "U":
                    before = len(calls), len(raised)
                    oracle._evaluator(form, inst)
                    exponent = 2.0 if f.power else None
                    if _runs(kind, f):
                        assert (len(calls), len(raised)) == before, (kind, form)
                    elif not f.forward:
                        assert len(calls) - before[0] == (exponent not in derived), (
                            kind, form)
                        derived.add(exponent)
                    else:
                        assert len(calls) == before[0], (kind, form)
                    functional_lhs(form, inst, a)
            assert len(calls) == len(derived) <= 2, kind
            assert raised in ([], [2.0]), kind

    @pytest.mark.parametrize("strategy", ["vertex", "multistart_ascent"])
    def test_one_search_derives_rows_at_most_once(self, monkeypatch, strategy):
        rng = random.Random(32)
        calls = count_rows_of(monkeypatch)
        for p, q in [(2.0, 2.0), (0.5, 1.0), (INF, 3.0)]:
            for kinds in [("tabulated",), ("sup",), ("constant",)]:
                inst = random_instance(rng, p, q, length=6, kinds=kinds)
                for form in ("GOP_DUAL", "GOP", "BT3"):
                    del calls[:]
                    best_constant(form, inst, strategy, 300)
                    assert len(calls) <= 1, (form, p, q, kinds)


class TestOneBuild:
    """`_form_ratios` resolves its record once: one `_diagonal` call, and
    for an SB record on a kernel of the other sequence kind one kernel
    built from u."""

    @staticmethod
    def _count(monkeypatch):
        calls = {"kernel": 0, "diagonal": 0}
        real_init, real_diagonal = Kernel.__init__, oracle._diagonal

        def init(self, *args):
            calls["kernel"] += 1
            real_init(self, *args)

        def diagonal(f, inst):
            calls["diagonal"] += 1
            return real_diagonal(f, inst)
        monkeypatch.setattr(Kernel, "__init__", init)
        monkeypatch.setattr(oracle, "_diagonal", diagonal)
        return calls

    @pytest.mark.parametrize("p, q", [(0.5, 1.0), (2.0, 3.0), (2.0, INF), (INF, 2.0)])
    def test_sup_record_builds_one_sup_kernel_on_a_row_kernel(self, monkeypatch, p, q):
        inst = Instance(ExponentPair(p, q), _SUP_U, WeightSeq(0, (1.0, 0.5, 2.0, 1.0)),
                        Kernel(RowSequenceKernel(WeightSeq(0, (3.0, 1.0, 0.5, 2.0))), 0, 4))
        calls = self._count(monkeypatch)
        sup = [form for form, f in FORM_TABLE.items() if f.kernel == "sup"]
        assert sup == ["SB2", "SB4", "SB5", "SB7", "SB8"]
        for form in sup:
            calls.update(kernel=0, diagonal=0)
            _form_ratios(form, inst)
            assert calls == {"kernel": 1, "diagonal": 1}, (form, p, q)

    @pytest.mark.parametrize("p, q", [(0.5, 1.0), (2.0, 3.0), (2.0, INF), (INF, 0.5)])
    @pytest.mark.parametrize("kind", ["constant", "tabulated", "sup", "row"])
    def test_every_record_calls_diagonal_once(self, monkeypatch, kind, p, q):
        rng = random.Random(33)
        inst = random_instance(rng, p, q, length=4, kinds=(kind,))
        assert inst.kernel.finite
        calls = self._count(monkeypatch)
        sequence = kind in ("sup", "row")
        for form, f in FORM_TABLE.items():
            if (f.kernel != "U" and not sequence) or (f.sigma and not 1.0 <= p < INF):
                continue
            calls["diagonal"] = 0
            _form_ratios(form, inst)
            assert calls["diagonal"] == 1, (form, kind, p, q)


class TestExtendedRealEdges:
    """Extended-real conventions where plain float arithmetic differs."""

    @staticmethod
    def _inst(p, q, w, kernel, v=(1.0, 1.0, 1.0)):
        return Instance(ExponentPair(p, q), WeightSeq(0, v), WeightSeq(0, w), kernel)

    def test_zero_weight_annihilates_overflowing_power(self):
        # x_2 = 1e200 (from a, or from K(2, 2)) squares to inf, but w_2 = 0.
        unit = self._inst(2.0, 2.0, (0.0, 1.0, 0.0), constant_kernel(1.0, 0, 3))
        a = TestSequence(0, (0.0, 1.0, 1e200))
        assert functional_lhs("GOP_DUAL", unit, a) == 1.0   # (1 * 1^2)^(1/2)
        assert functional_lhs("STRONG", unit, a) == 1.0     # (1 * (1^2)^(2/2))^(1/2)
        big = self._inst(2.0, 2.0, (0.0, 1.0, 0.0),
                         tabulated_kernel([[1.0, 1.0, 1.0], [1.0, 1.0], [1e200]], 0, 3))
        ones = TestSequence(0, (1.0, 1.0, 1.0))
        assert functional_lhs("GOP_DUAL", big, ones) == 2.0  # (1 * (1 + 1)^2)^(1/2)
        # STRONG: (1 * (1^2 + 1^2))^(1/2), with K(2, 2)^2 = inf in the lines.
        assert close(functional_lhs("STRONG", big, ones), math.sqrt(2.0))

    @pytest.mark.parametrize("q", [0.5, 1.0, 2.0, INF])
    @pytest.mark.parametrize("top", [0.0, 1.0])
    def test_cumulative_sum_overflow(self, q, top):
        # SUP_ITER: x_n = max over i <= n of K(i, n) (a_0 + ... + a_i).  The
        # partial sums overflow from i = 1 on, where K(1, n) = 0 gives
        # 0 * inf = 0 and K(2, 2) = top gives 0 or inf.
        rows = [[0.25, 0.5, 1.0], [0.0, 0.0], [top]]
        w = (1e-10, 1.0, 1e-10)
        inst = self._inst(1.0, q, w, tabulated_kernel(rows, 0, 3))
        a = [1.7e308] * 3
        t, acc = [], 0.0
        for x in a:
            acc += x
            t.append(acc)
        assert math.isinf(t[1])
        inners = [max(ext_mul(rows[i][n - i], t[i]) for i in range(n + 1))
                  for n in range(3)]
        if math.isinf(q):
            expected = max(ext_mul(wn, x) for wn, x in zip(w, inners))
        else:
            total = 0.0
            for wn, x in zip(w, inners):
                total += ext_mul(wn, ext_pow(x, q))
            expected = ext_pow(total, 1.0 / q)
        got = functional_lhs("SUP_ITER", inst, TestSequence(0, tuple(a)))
        assert repr(got) == repr(expected)
        assert _form_ratios("SUP_ITER", inst)[0](a) is None  # rhs = sum of a = inf

    def test_negative_zero_gives_positive_zero(self):
        zeros = TestSequence(0, (-0.0, -0.0, -0.0))
        ones = TestSequence(0, (1.0, 1.0, 1.0))
        rng = random.Random(5)
        for p in (0.5, 1.0, 2.0, INF):
            for q in (0.5, 1.0, 2.0, INF):
                row = random_instance(rng, p, q, length=3, kinds=("row",))
                inst = Instance(row.exponents, row.v, row.w, row.kernel)
                signed = self._inst(p, q, (1.0, 1.0, 1.0), constant_kernel(-0.0, 0, 3))
                for form in FORMS:
                    if form in ("SCALE3", "SCALE4"):
                        continue
                    cases = [(inst, TestSequence(inst.start, zeros.values))]
                    if not form.startswith("SB"):
                        cases.append((signed, ones))
                    for case, a in cases:
                        x = functional_lhs(form, case, a)
                        assert x == 0.0 and math.copysign(1.0, x) == 1.0, (form, p, q)
                x = rhs_norm(inst, TestSequence(inst.start, zeros.values))
                assert x == 0.0 and math.copysign(1.0, x) == 1.0, (p, q)

    def test_subnormal_entries(self):
        tiny = 5e-324  # the smallest subnormal
        a = TestSequence(0, (tiny, 0.0, 0.0))
        one = self._inst(1.0, 1.0, (1.0, 1.0, 1.0), constant_kernel(1.0, 0, 3))
        # Every n has partial sum (and running max) tiny: 3 * tiny in all.
        assert functional_lhs("GOP_DUAL", one, a) == 3 * tiny
        assert functional_lhs("WEAK", one, a) == 3 * tiny
        assert rhs_norm(one, a) == tiny
        assert _form_ratios("GOP_DUAL", one)[0]([tiny, 0.0, 0.0]) == 3.0
        two = self._inst(2.0, 2.0, (1.0, 1.0, 1.0), constant_kernel(1.0, 0, 3))
        # tiny^2 underflows to 0 on both sides.
        assert functional_lhs("GOP_DUAL", two, a) == 0.0
        assert functional_lhs("STRONG", two, a) == 0.0
        assert rhs_norm(two, a) == 0.0

    def test_search_ratio_rejects_bad_entries(self):
        inst = unit_instance(2.0, 2.0)
        for form in ("GOP_DUAL", "STRONG", "CPRIME"):
            ratio = _form_ratios(form, inst)[0]
            for x, msg in (([1.0, -1.0, 0.0], "negative value not allowed: -1.0"),
                           ([1.0, math.nan, 0.0], "NaN is not a valid extended real"),
                           ([INF, 1.0, 0.0], "weight entries must be finite")):
                with pytest.raises(ValueError, match=re.escape(msg)):
                    ratio(x)


class TestRhsNorm:
    def test_p1(self):
        inst = unit_instance(1.0, 1.0)
        assert rhs_norm(inst, TestSequence(0, (1.0, 2.0, 3.0))) == 6.0

    def test_p2(self):
        inst = Instance(ExponentPair(2.0, 1.0), WeightSeq(0, (1.0, 4.0)),
                        WeightSeq(0, (1.0, 1.0)), constant_kernel(1.0, 0, 2))
        assert close(rhs_norm(inst, TestSequence(0, (1.0, 1.0))), math.sqrt(5.0))

    def test_p_inf(self):
        inst = Instance(ExponentPair(INF, 1.0), WeightSeq(0, (2.0, 1.0)),
                        WeightSeq(0, (1.0, 1.0)), constant_kernel(1.0, 0, 2))
        assert rhs_norm(inst, TestSequence(0, (1.0, 3.0))) == 3.0


def _assert_reproduces(estimate, form, inst, witness):
    """The form's ratio at the witness, lhs over the rhs norm against the
    form's weights, is the estimate by repr (0.0 where it is None)."""
    a = list(witness.values)
    got = quotient(functional_lhs(form, inst, witness),
                   _norm(form_rhs_weights(form, inst), inst.p)(a))
    assert repr(estimate) == repr(0.0 if got is None else got), (form, inst, a)


def _scaled(side, inst):
    """The instance on which `scaling_pair` searches the display, for
    b = inst.w and c = inst.v: v = 1, w = b and the row kernel of c (SCALE3)
    or of c's running l^p' norms (SCALE4; running maxima at p = 1)."""
    p, c = inst.p, list(inst.v.values)
    if side == "SCALE4" and p > 1:
        pc = conjugate(p)
        c = pows(list(itertools.accumulate(pows(c, pc))), 1.0 / pc)
    elif side == "SCALE4":
        c = list(itertools.accumulate(c, max))
    ones = WeightSeq(inst.start, (1.0,) * inst.length)
    return Instance(inst.exponents, ones, inst.w,
                    Kernel(RowSequenceKernel(WeightSeq(inst.start, tuple(c))),
                           inst.start, inst.length))


class TestBestConstant:
    def test_vertex_exact_example(self):
        res = best_constant("GOP_DUAL", unit_instance(1.0, 1.0))
        assert res.estimate == 3.0
        assert res.exact
        assert res.witness.values.index(max(res.witness.values)) == 0

    def test_sub_one_q(self):
        res = best_constant("GOP_DUAL", unit_instance(1.0, 0.5, length=2),
                            strategy="support_grid", budget=2000, seed=0)
        assert close(res.estimate, 4.0, 1e-9)

    def test_single_point(self):
        inst = unit_instance(1.0, 1.0, length=1)
        for form in ("GOP_DUAL", "WEAK", "STRONG", "SUP_ITER", "GOP"):
            assert best_constant(form, inst).estimate == 1.0

    def test_zero_v_inf(self):
        inst = Instance(ExponentPair(1.0, 1.0), WeightSeq(0, (0.0, 1.0)),
                        WeightSeq(0, (1.0, 1.0)), constant_kernel(1.0, 0, 2))
        res = best_constant("GOP_DUAL", inst)
        assert res.estimate == INF

    def test_budget_validation(self):
        with pytest.raises(ValueError):
            best_constant("GOP_DUAL", unit_instance(1.0, 1.0), budget=2)

    def test_witness_reproduces_estimate(self):
        """Every search's witness gives its estimate by repr: every record
        under every strategy, both scaled displays on the instance that
        `scaling_pair` derives (SCALE4 at a = x^(1/p)), and both sides of
        `bridge_check`.  Where no candidate has a ratio, the estimate is 0.0."""
        rng = random.Random(2)
        exps = (0.5, 1.0, 2.0, INF)
        for k, (p, q) in enumerate(itertools.product(exps, exps)):
            for sb in (False, True):
                kinds = ("row", "sup") if sb else ("constant", "sup", "tabulated")
                inst = random_instance(rng, p, q, kinds=kinds, allow_zero_v=k % 2 == 1,
                                       max_length=9)
                forms = [f for f, rec in FORM_TABLE.items()
                         if (rec.kernel != "U") == sb and (not rec.sigma or 1 <= p < INF)]
                for form, strategy in itertools.product(forms, (*oracle.STRATEGIES, "auto")):
                    res = best_constant(form, inst, strategy, budget=120, seed=k)
                    _assert_reproduces(res.estimate, form, inst, res.witness)
                if sb:
                    continue
                if 1 <= p < INF and q < INF:
                    for side, form in oracle.SCALING_FORMS.items():
                        res = scaling_pair(side, inst.w, inst.v, inst.exponents,
                                           "auto", 120, k)
                        x = list(res.witness.values)
                        a = x if side == "SCALE3" else pow_for(1.0 / p)(x)
                        _assert_reproduces(res.estimate, form, _scaled(side, inst),
                                           TestSequence(inst.start, tuple(a)))
                if p >= 1:
                    for form in ("GOP_DUAL", "SUP_ITER"):
                        rep = bridge_check(inst, form, 120, k)
                        _assert_reproduces(rep.C_discrete, form, inst,
                                           rep.discrete_witness)
                        got = _ContRatio(form, inst)(rep.continuous_witness)
                        assert repr(rep.C_continuous) == repr(0.0 if got is None else got)

    def test_weight_scaling_of_optimum(self):
        rng = random.Random(3)
        for _ in range(20):
            p = rng.choice((0.5, 1.0))
            q = rng.choice((1.0, 2.0))
            inst = random_instance(rng, p, q)
            base = best_constant("GOP_DUAL", inst, strategy="vertex").estimate
            lam, mu = 2.0, 5.0
            inst2 = Instance(inst.exponents, inst.v.scaled(lam),
                             inst.w.scaled(mu), inst.kernel)
            got = best_constant("GOP_DUAL", inst2, strategy="vertex").estimate
            want = lam ** (-1.0 / p) * mu ** (1.0 / q) * base
            assert close(got, want, 1e-9)

    def test_matches_condition_a1(self):
        rng = random.Random(4)
        for _ in range(20):
            p = rng.choice((0.5, 1.0))
            q = rng.choice((1.0, 2.0))
            if q < p:
                continue
            inst = random_instance(rng, p, q)
            res = best_constant("GOP_DUAL", inst)
            assert res.exact
            assert close(res.estimate, condition_A(1, inst), 1e-12)

    def test_soundness_vs_dense_grid(self):
        rng = random.Random(5)
        grid = [10.0 ** (-3 + 6 * t / 14.0) for t in range(15)]
        for _ in range(10):
            p = rng.choice((0.5, 1.0, 2.0))
            q = rng.choice((0.5, 1.0, 2.0))
            inst = random_instance(rng, p, q, length=3)
            res = best_constant("GOP_DUAL", inst, strategy="support_grid",
                                budget=4000, seed=6)
            brute = 0.0
            for a_vals in itertools.product(grid, repeat=3):
                a = TestSequence(inst.start, a_vals)
                r = functional_lhs("GOP_DUAL", inst, a) / rhs_norm(inst, a)
                brute = max(brute, r)
            assert res.estimate >= brute / 1.02

    def test_deterministic(self):
        rng = random.Random(6)
        inst = random_instance(rng, 2.0, 1.0, length=6)
        a = best_constant("GOP_DUAL", inst, strategy="multistart_ascent",
                          budget=800, seed=9)
        b = best_constant("GOP_DUAL", inst, strategy="multistart_ascent",
                          budget=800, seed=9)
        assert a.estimate == b.estimate
        assert a.witness == b.witness


class TestSearchBudget:
    @pytest.mark.parametrize("strategy", [*oracle.STRATEGIES, "auto"])
    def test_evaluations_within_budget(self, strategy):
        # The ascent used to evaluate each of its seeds unchecked, past
        # the budget (12 evaluations at budget 3 on a 3-index window).
        rng = random.Random(11)
        for p, q in itertools.product((0.5, 1.0, 2.0, INF), repeat=2):
            inst = random_instance(rng, p, q, allow_zero_v=True, max_length=6)
            sb = random_instance(rng, p, q, kinds=("row", "sup"), max_length=6)
            for form, on in [("GOP_DUAL", inst), ("STRONG", inst),
                             ("SUP_ITER", inst), ("SB4", sb)]:
                for budget in (on.length, on.length + 1, 40):
                    res = best_constant(form, on, strategy, budget, seed=budget)
                    assert res.evaluations <= budget
            if 1 <= p < INF and q < INF:
                for side in ("SCALE3", "SCALE4"):
                    for budget in (inst.length, 40):
                        res = scaling_pair(side, inst.w, inst.v, inst.exponents,
                                           strategy, budget, seed=budget)
                        assert res.evaluations <= budget

    def test_unknown_strategy_before_any_evaluation(self):
        calls = []

        def ratio(x):
            calls.append(x)
            return 1.0
        with pytest.raises(ValueError, match="unknown strategy: nope"):
            oracle._run_search(oracle.Ratios(ratio), 3, 0, "nope", 10, 0, False)
        assert calls == []

    def test_strategy_table_is_the_cli_choice_list(self):
        from kernelineq.cli import _build_parser
        sub = next(a for a in _build_parser()._actions if a.dest == "command")
        choices = next(a.choices for a in sub.choices["oracle"]._actions
                       if a.dest == "strategy")
        assert tuple(choices) == ("vertex", "support_grid", "multistart_ascent",
                                  "auto")


class TestValuesRealignment:
    def test_padded_window_equals_aligned_values(self):
        rng = random.Random(12)
        for p, q in itertools.product((0.5, 1.0, 2.0, INF), repeat=2):
            inst = random_instance(rng, p, q)
            vals = tuple(rng.choice((0.0, 0.5, 2.0)) for _ in range(inst.length))
            a = TestSequence(inst.start, vals)
            padded = TestSequence(inst.start - 2, (0.0, 0.0) + vals + (0.0,))
            for form in ("GOP_DUAL", "GOP", "STRONG", "SUP_ITER"):
                assert (repr(functional_lhs(form, inst, padded))
                        == repr(functional_lhs(form, inst, a)))
            assert repr(rhs_norm(inst, padded)) == repr(rhs_norm(inst, a))

    def test_mass_outside_the_window_raises(self):
        inst = unit_instance(1.0, 1.0)
        a = TestSequence(-1, (1.0, 1.0, 0.0, 0.0))
        with pytest.raises(ValueError, match="supported outside the window"):
            functional_lhs("GOP_DUAL", inst, a)
        with pytest.raises(ValueError, match="supported outside the window"):
            rhs_norm(inst, a)


class TestVertexExact:
    def test_flags(self):
        assert vertex_exact("GOP_DUAL", ExponentPair(0.5, 1.0))
        assert vertex_exact("GOP_DUAL", ExponentPair(1.0, INF))
        assert not vertex_exact("GOP_DUAL", ExponentPair(2.0, 1.0))
        assert not vertex_exact("GOP_DUAL", ExponentPair(1.0, 0.5))
        assert vertex_exact("STRONG", ExponentPair(2.0, 3.0))
        assert not vertex_exact("STRONG", ExponentPair(2.0, 1.0))


class TestReverseInstance:
    def test_values_reversed(self):
        inst = Instance(ExponentPair(1.0, 1.0), WeightSeq(0, (1.0, 2.0)),
                        WeightSeq(0, (3.0, 4.0)), constant_kernel(1.0, 0, 2))
        rev = reverse_instance(inst)
        assert rev.start == -1
        assert rev.v.values == (2.0, 1.0)
        assert rev.w.values == (4.0, 3.0)

    def test_involution(self):
        rng = random.Random(7)
        inst = random_instance(rng, 2.0, 1.0)
        back = reverse_instance(reverse_instance(inst))
        assert back.v.values == inst.v.values
        assert back.w.values == inst.w.values
        for i in range(inst.length):
            for n in range(i, inst.length):
                assert back.kernel.eval(inst.start + i, inst.start + n) == \
                    inst.kernel.eval(inst.start + i, inst.start + n)

    def test_regularity_invariant(self):
        rng = random.Random(8)
        for _ in range(10):
            inst = random_instance(rng, 1.0, 1.0, kinds=("tabulated",))
            assert close(inst.kernel.regularity_constant(),
                         reverse_instance(inst).kernel.regularity_constant())

    def test_duality(self):
        rng = random.Random(9)
        for _ in range(30):
            p = rng.choice((0.5, 1.0, 2.0))
            q = rng.choice((0.5, 1.0, 2.0))
            inst = random_instance(rng, p, q)
            a = best_constant("GOP", inst, strategy="vertex").estimate
            b = best_constant("GOP_DUAL", reverse_instance(inst),
                              strategy="vertex").estimate
            assert a == b or close(a, b, 1e-9)


class TestScalingPair:
    def test_single_point(self):
        one = WeightSeq(0, (1.0,))
        e = ExponentPair(2.0, 2.0)
        assert scaling_pair("SCALE3", one, one, e).estimate == 1.0
        assert scaling_pair("SCALE4", one, one, e).estimate == 1.0

    def test_two_point(self):
        ones = WeightSeq(0, (1.0, 1.0))
        e = ExponentPair(1.0, 1.0)
        assert scaling_pair("SCALE3", ones, ones, e).estimate == 2.0
        assert scaling_pair("SCALE4", ones, ones, e).estimate == 2.0

    def test_regime_validation(self):
        ones = WeightSeq(0, (1.0,))
        with pytest.raises(ValueError):
            scaling_pair("SCALE3", ones, ones, ExponentPair(0.5, 1.0))
        with pytest.raises(ValueError):
            scaling_pair("SCALE4", ones, ones, ExponentPair(1.0, INF))


class TestStrongNormalization:
    def test_classical_report(self):
        assert strong_classical_constant(3.0, 2.0) == 9.0
        assert strong_classical_constant(3.0, 1.0) == 3.0


class TestSuites:
    def test_six(self):
        rng = random.Random(10)
        inst = random_instance(rng, 0.5, 1.0)
        rep = equivalence_suite("six", inst, budget=400, seed=7)
        assert rep.passed, rep.violations

    def test_hux(self):
        rng = random.Random(11)
        inst = random_instance(rng, 0.5, 1.0, kinds=("sup",))
        rep = equivalence_suite("hux", inst, budget=400, seed=7)
        assert rep.passed, rep.violations

    def test_kernel_main(self):
        rng = random.Random(12)
        inst = random_instance(rng, 1.0, 1.0)
        rep = equivalence_suite("kernel_main", inst, budget=400, seed=7)
        assert rep.passed, rep.violations
        assert close(rep.estimates["GOP_DUAL"], rep.estimates["STRONG"], 1e-9)

    def test_supremalpge(self):
        rng = random.Random(13)
        inst = random_instance(rng, 2.0, 1.0)
        rep = equivalence_suite("supremalpge", inst, budget=400, seed=7)
        assert rep.passed, rep.violations

    def test_scaling(self):
        rng = random.Random(14)
        inst = random_instance(rng, 1.0, 1.0)
        rep = equivalence_suite("scaling", inst, budget=400, seed=7)
        assert rep.passed, rep.violations

    def test_dual(self):
        rng = random.Random(15)
        inst = random_instance(rng, 2.0, 2.0)
        rep = equivalence_suite("dual", inst, budget=400, seed=7)
        assert rep.passed, rep.violations

    def test_hux_needs_a_sequence_kernel(self, monkeypatch):
        def no_sample(inst, a):
            raise AssertionError("a sample was evaluated")
        monkeypatch.setattr(oracle, "_values", no_sample)
        with pytest.raises(ValueError, match="SB forms need a row- or "
                                             "sup-of-sequence kernel"):
            equivalence_suite("hux", unit_instance(0.5, 1.0), budget=400, seed=7)

    def test_check_chain_records_a_reversed_order(self):
        # At p = 0.5, WEAK <= GOP_DUAL <= STRONG on every sequence.
        inst = Instance(ExponentPair(0.5, 2.0), WeightSeq(0, (1.0, 2.0, 0.5)),
                        WeightSeq(0, (1.0, 1.0, 2.0)), constant_kernel(1.0, 0, 3))
        samples = _random_sequences(inst, 5, 0)
        lhs = {f: _sample_lhs(f, inst, samples) for f in ("WEAK", "GOP_DUAL", "STRONG")}
        assert _check_chain(["WEAK", "GOP_DUAL", "STRONG"], samples, lhs) == []
        bad = _check_chain(["STRONG", "WEAK"], samples, lhs)
        assert len(bad) == 5
        for (f1, f2, x, y, values), a in zip(bad, samples):
            assert (f1, f2, values) == ("STRONG", "WEAK", a)
            assert x > y * (1.0 + 1e-12)

    def test_regime_validation(self):
        rng = random.Random(16)
        inst = random_instance(rng, 2.0, 1.0)
        with pytest.raises(ValueError):
            equivalence_suite("six", inst, budget=400, seed=7)

    def test_cprime_rhs_weights(self):
        inst = unit_instance(2.0, 1.0, length=2)
        vals = form_rhs_weights("CPRIME", inst)
        assert len(vals) == 2
        assert all(val > 0 for val in vals)


class TestReportedViolations:
    """Each violation the suites record, and the branches of the search
    that no real instance reaches: the inputs are monkeypatched or
    degenerate on purpose."""

    def test_hux_pair_mismatch(self, monkeypatch):
        sample_lhs = oracle._sample_lhs

        def skewed(form, inst, samples):
            lhs = sample_lhs(form, inst, samples)
            return [2.0 * x + 1.0 for x in lhs] if form == "SB2" else lhs
        monkeypatch.setattr(oracle, "_sample_lhs", skewed)
        inst = random_instance(random.Random(11), 0.5, 1.0, kinds=("sup",))
        rep = equivalence_suite("hux", inst, budget=100, seed=7, trials=3)
        assert not rep.passed
        pairs = [vi for vi in rep.violations if vi[:2] == ("SB1", "SB2")]
        assert len(pairs) == 3
        for _, _, x, y, _ in pairs:
            assert y == 2.0 * x + 1.0

    def test_constant_chain_out_of_order(self, monkeypatch):
        real = oracle.best_constant

        def inflated(form, *args):
            res = real(form, *args)
            return dataclasses.replace(res, estimate=3.0 * res.estimate + 1.0) \
                if form == "WEAK" else res
        monkeypatch.setattr(oracle, "best_constant", inflated)
        inst = random_instance(random.Random(12), 1.0, 1.0)
        rep = equivalence_suite("kernel_main", inst, budget=100, seed=7, trials=3)
        assert not rep.passed
        assert rep.violations == (("constant-chain", rep.estimates),)
        assert rep.estimates["WEAK"] > rep.estimates["GOP_DUAL"]

    def test_dual_mismatch(self, monkeypatch):
        real = oracle.best_constant

        def doubled(form, *args):
            res = real(form, *args)
            return dataclasses.replace(res, estimate=2.0 * res.estimate) \
                if form == "GOP" else res
        monkeypatch.setattr(oracle, "best_constant", doubled)
        inst = random_instance(random.Random(15), 2.0, 2.0)
        rep = equivalence_suite("dual", inst, budget=100, seed=7)
        a, b = rep.estimates["GOP"], rep.estimates["GOP_DUAL_reversed"]
        assert b > 0.0 and a == 2.0 * b
        assert not rep.passed and rep.violations == (("dual-mismatch", a, b),)

    def test_unknown_form_is_not_vertex_exact(self):
        assert vertex_exact("GOP_DUAL", ExponentPair(0.5, 1.0))
        assert not vertex_exact("NO_SUCH_FORM", ExponentPair(0.5, 1.0))

    def test_ascent_seeds_without_a_ratio(self):
        # v = w = 0: every point's ratio is 0/0, so each vertex and each of
        # the ascent's eight seeds is one evaluation that says nothing.
        L = 4
        zero = WeightSeq(0, (0.0,) * L)
        inst = Instance(ExponentPair(2.0, 2.0), zero, zero, constant_kernel(1.0, 0, L))
        res = best_constant("GOP_DUAL", inst, "multistart_ascent", 2000, 0)
        assert (res.estimate, res.evaluations) == (0.0, L + 8)
        assert res.witness == TestSequence(0, (1.0, 0.0, 0.0, 0.0))
