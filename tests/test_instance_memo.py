"""The instance memo: each constant and per-index sum of `constants` is
computed once per instance and arguments, the memo is not part of the
instance's value, and the order in which constants are asked for does
not change any of them.  The kernel memo: each diagnostic of a kernel
is computed once per kernel and exponent, by the same decorator."""

import collections
import dataclasses
import inspect
import math
import random
import sys

from kernelineq import (Instance, Kernel, WeightSeq, characterize, condition_A,
                        condition_D)
from kernelineq import constants

from conftest import CONSTANTS, random_instance

EXPONENTS = (0.5, 1.0, 1.5, 2.0, 3.0, math.inf)
KINDS = ("constant", "sup", "tabulated", "row")
# The computations behind the kept functions, by their code objects.
KEPT = {fn.__wrapped__.__code__: fn.__name__
        for fn in (constants._uq_tails, constants._u_heads_dual,
                   constants._w_tails, condition_A, condition_D)}
DIAGNOSTICS = ("monotonicity_check", "regularity_constant", "power_regularity")


def _instances(seed: int, per_pair: int):
    rng = random.Random(seed)
    for p in EXPONENTS:
        for q in EXPONENTS:
            for _ in range(per_pair):
                yield random_instance(rng, p, q, kinds=KINDS, allow_zero_v=True,
                                      max_length=8)


def _applicable(inst: Instance) -> list:
    """(name, fn, k) of every constant defined at the instance's (p, q),
    each asked of a fresh instance."""
    out = []
    for name, fn, k in CONSTANTS:
        try:
            fn(k, _fresh(inst))
        except ValueError:
            continue
        out.append((name, fn, k))
    return out


def _fresh(inst: Instance) -> Instance:
    return Instance(inst.exponents, inst.v, inst.w, inst.kernel)


class TestMemoIsNotPartOfTheValue:
    def test_replace_and_equal_instances_start_empty(self):
        rng = random.Random(2801)
        inst = random_instance(rng, 2.0, 1.0, length=5)
        before = repr(inst)
        characterize(inst)
        condition_A(9, inst)
        assert inst.memo
        assert repr(inst) == before and "memo" not in before
        fresh = _fresh(inst)
        assert fresh.memo == {}
        assert fresh == inst and hash(fresh) == hash(inst)
        assert repr(fresh) == repr(inst)
        w = WeightSeq(inst.start, tuple(2.0 * x for x in inst.w.values))
        moved = dataclasses.replace(inst, w=w)
        assert moved.memo == {}
        assert moved.memo is not inst.memo
        # The moved instance's constants are its own, not the kept ones.
        assert repr(condition_A(9, moved)) == repr(condition_A(9, _fresh(moved)))
        assert condition_A(9, moved) != condition_A(9, inst)

    def test_kept_values_are_floats_and_window_lists(self):
        # Nothing kept is a view of the kernel's triangle.
        for inst in _instances(2802, 1):
            characterize(inst)
            for _, fn, k in _applicable(inst):
                fn(k, inst)
            for key, val in inst.memo.items():
                assert isinstance(val, float) or (
                    isinstance(val, list) and len(val) == inst.length
                    and all(isinstance(x, float) for x in val)), key


class TestOrderIndependence:
    def test_shuffled_orders_match_fresh_instances(self):
        rng = random.Random(2803)
        for inst in _instances(2804, 2):
            todo = _applicable(inst)
            want = {name: repr(fn(k, _fresh(inst))) for name, fn, k in todo}
            for _ in range(3):
                one = _fresh(inst)
                order = todo + [("characterize", None, None)]
                rng.shuffle(order)
                for name, fn, k in order:
                    if fn is None:
                        rep = characterize(one)
                        for c, val in rep.constants.items():
                            assert repr(val) == want[c], (inst, c)
                    else:
                        assert repr(fn(k, one)) == want[name], (inst, name)
                # Asked again, every constant reads its kept value.
                for name, fn, k in todo:
                    assert repr(fn(k, one)) == want[name], (inst, name)

    def test_zero_v_entries_and_lengths_one_to_eight(self):
        lengths = {inst.length for inst in _instances(2804, 2)}
        zeros = sum(0.0 in inst.v.values for inst in _instances(2804, 2))
        assert lengths == set(range(1, 9)) and zeros > 0


class TestEachSumRunsOnce:
    def test_characterize_then_every_constant(self):
        seen = 0
        for inst in _instances(2805, 1):
            runs = collections.Counter()

            def profile(frame, event, arg):
                name = KEPT.get(frame.f_code)
                if event == "call" and name is not None:
                    info = inspect.getargvalues(frame)
                    runs[(name,) + tuple(info.locals[a] for a in info.args
                                         if a != "inst")] += 1
            sys.setprofile(profile)
            try:
                characterize(inst)
                for k in range(1, 14):
                    try:
                        condition_A(k, inst)
                    except ValueError:
                        pass
                for k in range(1, 7):
                    try:
                        condition_D(k, inst)
                    except ValueError:
                        pass
            finally:
                sys.setprofile(None)
            assert all(n == 1 for n in runs.values()), (inst, runs)
            seen += len(runs)
        assert seen > 0

    def test_shared_sums_are_computed_once(self):
        # K_VIII and S_V (p = 2, q = 1.5): A_9 and D_5 share _w_tails, and
        # A_10, A_11 and D_6 share _uq_tails(q).
        inst = random_instance(random.Random(2806), 2.0, 1.5, length=4,
                               kinds=("tabulated",))
        for k in (9, 10, 11):
            condition_A(k, inst)
        for k in (5, 6):
            condition_D(k, inst)
        names = collections.Counter(key[0] for key in inst.memo)
        assert names == {"condition_A": 3, "condition_D": 2, "_uq_tails": 1,
                         "_w_tails": 1, "_u_heads_dual": 1}


class TestEachDiagnosticRunsOnce:
    def test_once_per_kernel_and_exponent(self):
        codes = {getattr(Kernel, name).__wrapped__.__code__: name
                 for name in DIAGNOSTICS}
        seen = 0
        for inst in _instances(2807, 1):
            K, runs = inst.kernel, collections.Counter()

            def profile(frame, event, arg):
                name = codes.get(frame.f_code)
                if event == "call" and name is not None:
                    args = frame.f_locals
                    runs[(name, args["self"].spec, args.get("r"))] += 1
            sys.setprofile(profile)
            try:
                for _ in range(3):
                    K.monotonicity_check()
                    K.regularity_constant()
                    for r in (0.5, 1.0, 2.0):
                        K.power_regularity(r)
                        K.power_regularity_bound(r)
            finally:
                sys.setprofile(None)
            assert all(n == 1 for n in runs.values()), (inst, runs)
            # K's own scan only: U^0.5 and U^2 are scanned from K's views
            # (U^1 is K itself), and no power kernel is built.
            names = collections.Counter(key[0] for key in runs)
            assert names == {"monotonicity_check": 1, "regularity_constant": 1,
                             "power_regularity": 3}, (inst, runs)
            assert set(K.memo) == {("monotonicity_check",), ("regularity_constant",),
                                   ("power_regularity", 0.5),
                                   ("power_regularity", 1.0),
                                   ("power_regularity", 2.0)}
            fresh = Kernel(K.spec, K.start, K.length)
            assert fresh == K and fresh.memo == {}
            assert repr(K.power_regularity(0.5)) == repr(fresh.power(0.5).regularity_constant())
            assert K.monotonicity_check() == fresh.monotonicity_check()
            seen += 1
        assert seen > 30

    def test_new_kernels_start_empty(self):
        inst = random_instance(random.Random(2808), 2.0, 1.0, length=5, kinds=KINDS)
        K = inst.kernel
        K.monotonicity_check()
        K.power_regularity(0.5)
        assert K.memo
        for other in (K.power(0.5), K.reversed_(), K.power(2.0).reversed_()):
            assert other.memo == {} and other.memo is not K.memo
