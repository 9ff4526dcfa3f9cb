"""Acceptance gate: one test per primary criterion, one PASS line each."""

import contextlib
import io
import json
import math
import os
import random
import time

from kernelineq import (INF, ExponentPair, Instance, TestSequence, WeightSeq,
                        best_constant, bridge_check, characterize, condition_A,
                        constant_kernel, covering_sequence, dyadic_covering,
                        functional_lhs, reverse_instance, verify_covering,
                        weighted_sum_bounds)
from kernelineq.bridge import StepFunction
from kernelineq.cli import run_command
from kernelineq.weights import tail_sum

from conftest import close, random_instance

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DATA = os.path.join(ROOT, "tests", "data")
GOLDEN = os.path.join(DATA, "golden")
GOLDEN_CASES = os.path.join(DATA, "golden_cases.txt")


def report(capsys, line):
    with capsys.disabled():
        print(line)


def unit_instance(p, q, length=3):
    w = WeightSeq(0, (1.0,) * length)
    return Instance(ExponentPair(p, q), w, w, constant_kernel(1.0, 0, length))


def test_criterion_1_bridge_factor_bound(capsys):
    """30 random instances: C_cont <= C_disc <= 2^(1+1/q) C_cont, slack <= 2%."""
    rng = random.Random(101)
    start = time.monotonic()
    worst = 0.0
    for t in range(30):
        p = rng.choice((1.0, 2.0))
        q = rng.choice((0.5, 1.0, 2.0))
        inst = random_instance(rng, p, q, max_length=6)
        rep = bridge_check(inst, budget=800, seed=t)
        worst = max(worst, rep.slack)
        assert rep.factor_ok, (t, p, q, rep)
        assert rep.slack <= 0.02, (t, p, q, rep.slack)
    elapsed = time.monotonic() - start
    assert elapsed < 30.0, elapsed
    report(capsys, f"criterion 1 PASS: bridge factor bound on 30 instances "
                   f"(worst slack {worst:.2e}, {elapsed:.1f}s)")


def test_criterion_2_weighted_sum_bounds_exact(capsys):
    """((D-1)/(3D)) S <= sum w_n b_n <= D S, exact on 500 integer triples."""
    rng = random.Random(102)
    start = time.monotonic()
    for _ in range(500):
        L = rng.randint(1, 10)
        wvals = [rng.randint(0, 9) for _ in range(L)]
        if not any(wvals):
            wvals[rng.randrange(L)] = 1
        w = WeightSeq(rng.randint(-5, 5), tuple(float(x) for x in wvals))
        acc, bvals = 0, []
        for _ in range(L):
            acc += rng.randint(0, 5)
            bvals.append(acc)
        b = TestSequence(w.start, tuple(float(x) for x in bvals))
        D = rng.choice((2, 4, 10))
        cs = covering_sequence(w, float(D))
        sb = weighted_sum_bounds(w, b, cs)
        # Exact comparison in integer arithmetic.
        middle = sum(x * y for x, y in zip(wvals, bvals))
        S = sum(int(tail_sum(w, nk)) * bvals[nk - w.start] for nk in cs.picks)
        assert (D - 1) * S <= 3 * D * middle
        assert middle <= D * S
        assert sb.middle == float(middle)
        assert sb.upper == float(D * S)
    elapsed = time.monotonic() - start
    assert elapsed < 5.0, elapsed
    report(capsys, f"criterion 2 PASS: two-sided pivot bounds exact on 500 "
                   f"integer triples ({elapsed:.1f}s)")


def test_criterion_3_covering_contract(capsys):
    """covering_sequence output passes verify_covering on 500 windows."""
    rng = random.Random(103)
    start = time.monotonic()
    for _ in range(500):
        L = rng.randint(1, 12)
        vals = [float(rng.randint(0, 9)) for _ in range(L)]
        if not any(vals):
            vals[rng.randrange(L)] = 1.0
        w = WeightSeq(rng.randint(-6, 6), tuple(vals))
        D = rng.choice((2.0, 4.0, 10.0))
        rep = verify_covering(w, covering_sequence(w, D))
        assert rep.ok, (w, D, rep)
    elapsed = time.monotonic() - start
    assert elapsed < 5.0, elapsed
    report(capsys, f"criterion 3 PASS: covering contract on 500 random "
                   f"integer windows ({elapsed:.1f}s)")


def test_criterion_4_per_sequence_chains(capsys):
    """B1 <= B2 <= B3 <= B4 <= B6 and B3 <= B5 <= B6 pointwise, p <= 1."""
    rng = random.Random(104)
    start = time.monotonic()
    chains = (("B1", "B2", "B3", "B4", "B6"), ("B3", "B5", "B6"))
    for t in range(1000):
        p = rng.choice((0.3, 0.5, 1.0))
        q = rng.choice((0.5, 1.0, 2.0))
        inst = random_instance(rng, p, q)
        a = TestSequence(inst.start,
                         tuple(rng.choice((0.0, 0.25, 1.0, 3.0))
                               for _ in range(inst.length)))
        vals = {f: functional_lhs(f, inst, a)
                for f in ("B1", "B2", "B3", "B4", "B5", "B6")}
        for chain in chains:
            for lo, hi in zip(chain, chain[1:]):
                x, y = vals[lo], vals[hi]
                assert x <= y * (1.0 + 1e-12) + 1e-300, (t, lo, hi, vals)
    elapsed = time.monotonic() - start
    assert elapsed < 10.0, elapsed
    report(capsys, f"criterion 4 PASS: per-sequence chains on 1000 pairs "
                   f"({elapsed:.1f}s)")


def test_criterion_5_p1_identity(capsys):
    """best_constant(GOP_DUAL) = best_constant(STRONG) at p = 1 to 1e-9."""
    rng = random.Random(105)
    for t in range(50):
        q = rng.choice((0.5, 1.0, 2.0, INF))
        inst = random_instance(rng, 1.0, q)
        a = best_constant("GOP_DUAL", inst, budget=600, seed=t).estimate
        b = best_constant("STRONG", inst, budget=600, seed=t).estimate
        assert a == b or close(a, b, 1e-9), (t, q, a, b)
    report(capsys, "criterion 5 PASS: GOP_DUAL = STRONG at p=1 "
                   "on 50 instances (1e-9)")


def test_criterion_6_constants_vs_oracle(capsys):
    """Worked examples: A_1 = oracle = 3 exactly; A_12+A_13 = 6 vs oracle 4."""
    inst1 = unit_instance(1.0, 1.0)
    a1 = condition_A(1, inst1)
    res1 = best_constant("GOP_DUAL", inst1)
    assert res1.exact
    assert close(a1, 3.0, 1e-12) and close(res1.estimate, 3.0, 1e-12)
    grid1 = best_constant("GOP_DUAL", inst1, strategy="support_grid",
                          budget=3000, seed=0)
    assert close(grid1.estimate, 3.0, 1e-12)

    inst2 = unit_instance(1.0, 0.5, length=2)
    rep = characterize(inst2)
    assert close(rep.predicted_C, 6.0, 1e-12)
    res2 = best_constant("GOP_DUAL", inst2, strategy="support_grid",
                         budget=3000, seed=0)
    assert close(res2.estimate, 4.0, 1e-9)
    ratio = rep.predicted_C / res2.estimate
    assert 0.25 <= ratio <= 4.0
    assert math.isfinite(rep.predicted_C) == math.isfinite(res2.estimate)
    report(capsys, "criterion 6 PASS: worked examples (A_1 = oracle = 3; "
                   "predicted 6 vs oracle 4, ratio 1.5)")


def test_criterion_7_duality(capsys):
    """best_constant(GOP, I) = best_constant(GOP_DUAL, reverse(I)) to 1e-9."""
    rng = random.Random(107)
    for t in range(50):
        p = rng.choice((0.5, 1.0, 2.0, INF))
        q = rng.choice((0.5, 1.0, 2.0, INF))
        inst = random_instance(rng, p, q, allow_zero_v=(t % 5 == 0))
        a = best_constant("GOP", inst, strategy="vertex").estimate
        b = best_constant("GOP_DUAL", reverse_instance(inst),
                          strategy="vertex").estimate
        assert a == b or close(a, b, 1e-9), (t, p, q, a, b)
    report(capsys, "criterion 7 PASS: duality via index reversal "
                   "on 50 instances (1e-9)")


def test_criterion_8_finiteness_agreement(capsys):
    """predicted_C < inf iff oracle stays bounded under budget doubling."""
    rng = random.Random(108)
    checked = 0
    for _ in range(200):
        p = rng.choice((0.5, 1.0, 2.0, INF))
        q = rng.choice((0.5, 1.0, 2.0, INF))
        if math.isinf(p) and q < 1.0:
            continue  # no closed-form characterization in this corner
        inst = random_instance(rng, p, q, allow_zero_v=rng.random() < 0.4)
        rep = characterize(inst)
        if rep.predicted_kernel is None:
            continue
        e1 = best_constant("GOP_DUAL", inst, strategy="support_grid",
                           budget=3000, seed=1).estimate
        e2 = best_constant("GOP_DUAL", inst, strategy="support_grid",
                           budget=6000, seed=1).estimate
        bounded = (math.isfinite(e1) and math.isfinite(e2)
                   and (e1 == e2 == 0.0 or e2 <= 1.05 * e1))
        assert (rep.predicted_kernel < INF) == bounded, \
            (p, q, rep.predicted_kernel, e1, e2, inst.v.values, inst.w.values)
        checked += 1
    assert checked >= 150
    report(capsys, f"criterion 8 PASS: finiteness agreement on {checked} "
                   f"instances (ratio <= 1.05 under budget doubling)")


def test_criterion_9_dyadic_halving(capsys):
    """Tail integrals at consecutive dyadic points halve exactly (1e-12)."""
    rng = random.Random(109)
    for _ in range(100):
        L = rng.randint(1, 8)
        vals = [rng.choice((0.0, 0.25, 0.5, 1.0, 2.0, 3.0)) for _ in range(L)]
        if not any(vals):
            vals[rng.randrange(L)] = 1.0
        w = StepFunction(rng.randint(-4, 4), tuple(vals))
        cov = dyadic_covering(w)
        for k in range(cov.N, cov.top + 1):
            assert close(w.tail(cov.index(k)), 2.0 ** (-k), 1e-12)
            if k < cov.top:
                assert close(w.tail(cov.index(k)),
                             2.0 * w.tail(cov.index(k + 1)), 1e-12)
    report(capsys, "criterion 9 PASS: dyadic tails halve exactly on 100 "
                   "random step weights (1e-12)")


def golden_cases():
    """(name, argv) of every golden report, from the one list that CI's
    console-script step also reads (tests/data/golden_cases.txt): per line
    the golden file's name, then the argv, with paths from the repository
    root."""
    with open(GOLDEN_CASES) as fh:
        return [(name, argv) for name, *argv in map(str.split, fh)]


def test_golden_cases_are_the_golden_files():
    names = [name for name, _ in golden_cases()]
    assert len(set(names)) == len(names)
    assert sorted(f"{name}.json" for name in names) == sorted(os.listdir(GOLDEN))


def test_criterion_10_golden_cli_reports(capsys, monkeypatch):
    """The worked instances give byte-identical json reports, every A- and
    D-constant of each (`constants --set all`), every verify suite but
    `discretize` and two bridge reports included."""
    monkeypatch.chdir(ROOT)
    for name, argv in golden_cases():
        outputs = []
        for _ in range(2):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                assert run_command(argv) == 0
            outputs.append(buf.getvalue())
        assert outputs[0] == outputs[1], name
        with open(os.path.join(GOLDEN, f"{name}.json")) as fh:
            golden = fh.read()
        assert outputs[0] == golden, name
        json.loads(outputs[0])  # reports are valid json
    report(capsys, "criterion 10 PASS: golden CLI reports byte-identical "
                   "for the three worked instances, verify suites included")
