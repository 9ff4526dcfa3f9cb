"""The fixed pipeline each workload applies to one instance, and its checks.

A task calls the package's public functions through a Recorder, so each
call is timed as its layer.  It returns the outputs that references are
recorded from, the theorem-backed checks that failed, and its direct
best-constant searches (for evals_per_s and search_gap).  Checks run on
the returned outputs after the task's clock has stopped.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from kernelineq import (ExponentPair, Instance, Kernel, StepFunction,
                        TestSequence, WeightSeq, best_constant, bridge_check,
                        characterize, condition_A, condition_D,
                        constant_kernel, continuous_constant,
                        covering_sequence, default_ratio, dyadic_covering,
                        equivalence_suite, functional_lhs, l24_decompose,
                        lemma_decompose, rhs_norm, tail_invert,
                        verify_covering, weighted_sum_bounds)
from kernelineq.cli import parse_instance, run_command
from kernelineq.kernels import SupSequenceKernel

from instances import Slot, instance_doc, task_data
from tracing import Recorder

INF = math.inf

# Canonical evaluators of functional_lhs; the SB forms need a sup kernel.
CANONICAL_FORMS = ("GOP_DUAL", "GOP", "WEAK", "STRONG", "SUP_ITER", "CPRIME",
                   "CDPRIME", "B2", "B5", "BT1", "BT2", "BT3", "BT5", "BT6",
                   "SB1", "SB2", "SB3", "SB4", "SB5", "SB6", "SB7", "SB8")
SUITES = ("six", "hux", "kernel_main", "supremalpge", "scaling", "dual")
CONTINUOUS = ("calA_1", "calA_2", "calA_3", "calA_4", "calA_12", "calA_13")
LEMMAS = ("L1", "L2", "L3")

WIDE_BUDGET = 1000
SMALL_BUDGETS = (3000, 6000)     # acceptance criterion 8
SUITE_BUDGET, SUITE_TRIALS = 2000, 100
BRIDGE_BUDGET = 2000

REL_TIGHT = 1e-9


@dataclass
class Search:
    """One direct best_constant call."""

    form: str
    strategy: str
    evaluations: int
    seconds: float
    estimate: float
    gap: Optional[float]    # 1 - estimate / spectral norm at p = q = 2


@dataclass
class TaskResult:
    outputs: Dict[str, object] = field(default_factory=dict)
    failures: List[str] = field(default_factory=list)
    searches: List[Search] = field(default_factory=list)
    deferred: List[Callable[[], None]] = field(default_factory=list)

    def check(self, fn: Callable[[], None]) -> None:
        """Queue a check that calls into the package; it runs untimed."""
        self.deferred.append(fn)

    def run_checks(self) -> None:
        for fn in self.deferred:
            fn()
        self.deferred.clear()


@dataclass
class Prepared:
    """A parsed instance and what its slot's regime allows."""

    slot_index: int
    variant: int
    slot: Slot
    inst: Instance
    path: str
    data: dict
    plan: dict


def close(x: float, y: float, rel: float = REL_TIGHT) -> bool:
    if x == y:
        return True
    if math.isinf(x) or math.isinf(y) or math.isnan(x) or math.isnan(y):
        return False
    return abs(x - y) <= rel * max(1.0, abs(x), abs(y))


# ---------------------------------------------------------------------------
# Set-up: regime plans (one warm-up call per entry point) and parsing.

def _unit(p: float, q: float, kind: str) -> Instance:
    w = WeightSeq(0, (1.0, 1.0))
    if kind == "sup":
        kern = Kernel(SupSequenceKernel(WeightSeq(0, (1.0, 2.0))), 0, 2)
    else:
        kern = constant_kernel(1.0, 0, 2)
    return Instance(ExponentPair(p, q), w, w, kern)


def _applicable(fn, *args) -> bool:
    try:
        fn(*args)
    except ValueError:
        return False
    return True


def regime_plan(workload: str, slot: Slot) -> dict:
    """What the slot's (p, q) admits, found by calling each entry point
    once on a two-cell instance; these calls are the warm-up."""
    p, q = slot.p, slot.q
    unit = _unit(p, q, slot.kind)
    plan = {
        "A": [k for k in range(1, 14) if _applicable(condition_A, k, unit)],
        "D": [k for k in range(1, 7) if _applicable(condition_D, k, unit)],
    }
    characterize(unit)
    functional_lhs("GOP_DUAL", unit, TestSequence(0, (1.0, 1.0)))
    best_constant("GOP_DUAL", unit, "vertex", 2, 0)
    if workload == "wide":
        cs = covering_sequence(unit.w, 2.0)
        verify_covering(unit.w, cs)
        weighted_sum_bounds(unit.w, TestSequence(0, (1.0, 1.0)), cs)
        plan["l24"] = p <= 1 and not math.isinf(q)
        if plan["l24"]:
            l24_decompose(unit, TestSequence(0, (1.0, 1.0)),
                          covering_sequence(unit.w, 64.0))
    elif workload == "small":
        plan["suites"] = [s for s in SUITES if _applicable(
            equivalence_suite, s, unit, 8, 0, 2)]
    elif workload == "bridge":
        plan["continuous"] = [n for n in CONTINUOUS
                              if _applicable(continuous_constant, n, unit)]
        plan["lemmas"] = [x for x in LEMMAS if _applicable(
            lemma_decompose, x, unit, StepFunction(0, (1.0, 1.0)))]
        bridge_check(unit, "GOP_DUAL", 8, 0)
        dyadic_covering(StepFunction(0, (1.0, 1.0)))
    return plan


def prepare(workload: str, slots, variants: List[int], rec: Recorder,
            out_dir: str) -> List[List[Prepared]]:
    """Generate, write and parse every instance of the run, pass by pass."""
    plans = [regime_plan(workload, s) for s in slots]
    passes = []
    for variant in variants:
        row = []
        for i, slot in enumerate(slots):
            doc = instance_doc(workload, i, variant)
            path = os.path.join(out_dir, f"{workload}-{i}-{variant}.json")
            with open(path, "w") as fh:
                fh.write(doc)
            inst = rec.call("cli.parse_instance", parse_instance, doc)
            rec.call("kernels.Kernel", Kernel, inst.kernel.spec, inst.start,
                     inst.length)
            row.append(Prepared(i, variant, slot, inst, path,
                                task_data(workload, i, variant, slot.L),
                                plans[i]))
        passes.append(row)
    return passes


# ---------------------------------------------------------------------------
# Shared pieces.

def spectral_norm(inst: Instance) -> float:
    """‖diag(w^½) Kᵀ diag(v^-½)‖₂: the exact GOP_DUAL constant at p = q = 2.

    numpy is imported here, not at module level, so that neither set-up
    nor the peak memory of the timed phase includes it."""
    import numpy as np

    L, lo = inst.length, inst.start
    v = np.array(inst.v.values)
    if np.any(v == 0.0):
        return INF
    K = np.zeros((L, L))
    for i in range(L):
        for n in range(i, L):
            K[i, n] = inst.kernel.eval(lo + i, lo + n)
    M = np.sqrt(np.array(inst.w.values))[:, None] * K.T / np.sqrt(v)[None, :]
    return float(np.linalg.norm(M, 2))


def _ratio(form: str, inst: Instance, x) -> float:
    a = TestSequence(inst.start, tuple(x))
    lhs, rhs = functional_lhs(form, inst, a), rhs_norm(inst, a)
    if rhs == 0.0:
        return INF if lhs > 0.0 else 0.0
    return lhs / rhs


def search(rec: Recorder, res: TaskResult, key: str, name: str, form: str,
           inst: Instance, strategy: str, budget: int, seed: int):
    """A direct best_constant call, timed under ``name``."""
    r = rec.call(name, best_constant, form, inst, strategy, budget, seed)
    s = Search(form, r.strategy, r.evaluations, rec.durations[name][-1][1],
               r.estimate, None)
    res.searches.append(s)
    res.outputs[("exact:" if r.exact else "lower:") + key] = r.estimate

    def check():
        if form == "GOP_DUAL" and inst.p == inst.q == 2.0:
            norm = spectral_norm(inst)
            if math.isfinite(norm) and norm > 0:
                s.gap = 1.0 - r.estimate / norm
                if r.estimate > norm * (1 + REL_TIGHT):
                    res.failures.append(f"{key}: estimate exceeds the spectral norm")
        if not close(_ratio(form, inst, r.witness.values), r.estimate):
            res.failures.append(f"{key}: witness ratio does not recompute")
    res.check(check)
    return r


def probe_forms(rec: Recorder, res: TaskResult, inst: Instance, a) -> None:
    ts = TestSequence(inst.start, tuple(a))
    sup = isinstance(inst.kernel.spec, SupSequenceKernel)
    for form in CANONICAL_FORMS:
        if form.startswith("SB") and not sup:
            continue
        res.outputs[f"exact:lhs.{form}"] = rec.call(
            f"oracle.functional_lhs.{form}", functional_lhs, form, inst, ts)
    res.outputs["exact:rhs_norm"] = rec.call("oracle.rhs_norm", rhs_norm, inst, ts)


def _characterize(rec: Recorder, res: TaskResult, inst: Instance):
    rep = rec.call("constants.characterize", characterize, inst)
    for k, val in rep.constants.items():
        res.outputs[f"exact:characterize.{k}"] = val
    for k in ("predicted_kernel", "predicted_sup"):
        val = getattr(rep, k)
        if val is not None:
            res.outputs[f"exact:characterize.{k}"] = val
    return rep


# ---------------------------------------------------------------------------
# wide

def wide_task(rec: Recorder, t: Prepared) -> TaskResult:
    res = TaskResult()
    inst, K, plan, slot = t.inst, t.inst.kernel, t.plan, t.slot
    out = res.outputs
    p, q = inst.p, inst.q

    mono = rec.call("kernels.monotonicity_check", K.monotonicity_check)
    c_star = rec.call("kernels.regularity_constant", K.regularity_constant)
    out["exact:kernels.monotone"] = float(mono.ok)
    out["exact:kernels.regularity"] = c_star
    if math.isfinite(c_star) and inst.length >= 3:
        max_len = min(inst.length, 6)
        c = max(1.0, c_star) ** max(1, math.ceil(math.log2(max_len - 1)))
        chain = rec.call("kernels.chain_alpha_check", K.chain_alpha_check,
                         1.0, c, max_len)
        out["exact:kernels.chain_worst_ratio"] = chain.worst_ratio

    _characterize(rec, res, inst)
    for k in plan["A"]:
        out[f"exact:A_{k}"] = rec.call(f"constants.A{k}", condition_A, k, inst)
    for k in plan["D"]:
        out[f"exact:D_{k}"] = rec.call(f"constants.D{k}", condition_D, k, inst)

    # Covering ratio as the CLI picks it; C(U^p) <= C(U)^p for p <= 1
    # keeps it admissible for the block decomposition.
    pe = min(p, 1.0)
    D = default_ratio(pe, 1.0 if math.isinf(q) else q, c_star ** pe) \
        if math.isfinite(c_star) else 2.0
    cs = rec.call("discretize.covering_sequence", covering_sequence, inst.w, D)
    ver = rec.call("discretize.verify_covering", verify_covering, inst.w, cs)
    out["exact:cover.picks"] = list(cs.picks)
    if not ver.ok:
        res.failures.append(f"covering clause {ver.failed_clause} fails")
    b = TestSequence(inst.start, tuple(t.data["b"]))
    sb = rec.call("discretize.weighted_sum_bounds", weighted_sum_bounds,
                  inst.w, b, cs)
    out["exact:sum_bounds"] = [sb.lower, sb.middle, sb.upper]
    if not (sb.lower <= sb.middle * (1 + 1e-12) and sb.middle <= sb.upper * (1 + 1e-12)):
        res.failures.append("weighted sum bounds fail")
    if plan["l24"] and math.isfinite(c_star):
        a = TestSequence(inst.start, tuple(t.data["a"]))
        dec = rec.call("discretize.l24_decompose", l24_decompose, inst, a, cs)
        out["exact:l24"] = [dec.lhs, dec.block_term, dec.cross_term]
        m = max(1.0, 2.0 ** (q / p - 1.0))
        # C(U^p)^(q/p) <= C(U)^q bounds the cross-term constant.
        cap = cs.D * m * m * (c_star ** q if c_star > 0 else 1.0)
        if (dec.block_term > cs.D * dec.lhs * (1 + 1e-12)
                or dec.cross_term > cap * dec.lhs * (1 + 1e-12)
                or dec.lhs > 2.0 * m * (dec.block_term + dec.cross_term) * (1 + 1e-12)):
            res.failures.append("block decomposition bounds fail")

    probe_forms(rec, res, inst, t.data["a"])
    if slot.search == "vertex":
        r = search(rec, res, "search.GOP_DUAL", "oracle.best_constant",
                   "GOP_DUAL", inst, "vertex", WIDE_BUDGET, t.data["search_seed"])
        if not r.exact:
            res.failures.append("vertex search is not exact in a vertex-exact regime")
    elif slot.search == "multistart_ascent":
        search(rec, res, "search.GOP_DUAL", "oracle.best_constant", "GOP_DUAL",
               inst, "multistart_ascent", WIDE_BUDGET, t.data["search_seed"])
    return res


# ---------------------------------------------------------------------------
# small

def _cli(rec: Recorder, argv: List[str]) -> Tuple[int, dict]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        status = rec.call("cli.run_command", run_command, argv)
    return status, json.loads(buf.getvalue()) if buf.getvalue() else {}


def _from_json(x):
    if x == "inf":
        return INF
    if x == "-inf":
        return -INF
    return x


def small_task(rec: Recorder, t: Prepared) -> TaskResult:
    res = TaskResult()
    inst, plan = t.inst, t.plan
    out = res.outputs
    seed = t.data["search_seed"]

    rec.call("kernels.monotonicity_check", inst.kernel.monotonicity_check)
    rec.call("kernels.regularity_constant", inst.kernel.regularity_constant)
    rep = _characterize(rec, res, inst)
    ests = []
    for budget in SMALL_BUDGETS:
        r = search(rec, res, f"search.support_grid.{budget}",
                   "oracle.best_constant", "GOP_DUAL", inst, "support_grid",
                   budget, seed)
        ests.append(r)
    e1, e2 = ests[0].estimate, ests[1].estimate
    if rep.predicted_kernel is not None:
        bounded = (math.isfinite(e1) and math.isfinite(e2)
                   and (e1 == e2 == 0.0 or e2 <= 1.05 * e1))
        if (rep.predicted_kernel < INF) != bounded:
            res.failures.append("finiteness of prediction and search disagree")
    if inst.p == inst.q == 1.0 and not close(e1, rep.constants["A_1"]):
        res.failures.append("p = q = 1 GOP_DUAL estimate differs from A_1")

    for suite in plan["suites"]:
        if suite == "dual":
            rec.call("kernels.reversed", inst.kernel.reversed_)
        srep = rec.call(f"oracle.equivalence_suite.{suite}", equivalence_suite,
                        suite, inst, SUITE_BUDGET, seed, SUITE_TRIALS)
        out[f"flag:suite.{suite}.passed"] = float(srep.passed)
        for f, val in srep.estimates.items():
            out[f"lower:suite.{suite}.{f}"] = val
        if not srep.passed:
            res.failures.append(f"suite {suite} does not pass")

    status, doc = _cli(rec, ["characterize", t.path])
    cli_consts = {k: _from_json(v) for k, v in doc.get("constants", {}).items()}
    if (status != 0 or cli_consts != rep.constants
            or _from_json(doc.get("predicted_kernel")) != rep.predicted_kernel):
        res.failures.append("CLI characterize differs from the library")
    status, doc = _cli(rec, ["oracle", t.path, "--form", "GOP_DUAL", "--strategy",
                             "support_grid", "--budget", str(SMALL_BUDGETS[0]),
                             "--seed", str(seed)])
    if (status != 0 or _from_json(doc.get("estimate")) != e1
            or doc.get("evaluations") != ests[0].evaluations):
        res.failures.append("CLI oracle differs from the library")

    probe_forms(rec, res, inst, t.data["a"])
    return res


# ---------------------------------------------------------------------------
# bridge

def bridge_task(rec: Recorder, t: Prepared) -> TaskResult:
    res = TaskResult()
    inst, plan = t.inst, t.plan
    out = res.outputs
    seed = t.data["search_seed"]

    for form in ("GOP_DUAL", "SUP_ITER"):
        rep = rec.call(f"bridge.bridge_check.{form}", bridge_check, inst, form,
                       BRIDGE_BUDGET, seed)
        out[f"lower:bridge.{form}.C_discrete"] = rep.C_discrete
        out[f"lower:bridge.{form}.C_continuous"] = rep.C_continuous
        out[f"flag:bridge.{form}.factor_ok"] = float(rep.factor_ok)
        out[f"info:bridge.{form}.slack"] = rep.slack
        if not rep.factor_ok:
            res.failures.append(f"bridge_check {form}: factor_ok is False")
        if form == "GOP_DUAL" and inst.p == inst.q == 2.0:
            def below_norm(c=rep.C_discrete):
                if c > spectral_norm(inst) * (1 + REL_TIGHT):
                    res.failures.append(
                        "bridge_check GOP_DUAL: C_discrete exceeds the spectral norm")
            res.check(below_norm)
        search(rec, res, f"search.{form}", "bridge.bridge_check.discrete_side",
               form, inst, "auto", BRIDGE_BUDGET, seed)

    for name in plan["continuous"]:
        out[f"exact:{name}"] = rec.call(f"bridge.continuous_constant.{name}",
                                        continuous_constant, name, inst)
    f = StepFunction(inst.start, tuple(t.data["f"]))
    for which in plan["lemmas"]:
        dec = rec.call(f"bridge.lemma_decompose.{which}", lemma_decompose,
                       which, inst, f)
        out[f"exact:lemma.{which}"] = [dec.lhs, dec.block_part, dec.cross_part]
        if not (math.isfinite(dec.ratio) and dec.ratio > 0.0):
            res.failures.append(f"lemma {which} ratio is not finite and positive")

    wstep = StepFunction(inst.start, inst.w.values)
    cov = rec.call("bridge.dyadic_covering", dyadic_covering, wstep)
    out["exact:dyadic.points"] = list(cov.picks)

    def halving():
        if not all(close(wstep.tail(cov.index(k)), 2.0 ** (-k), 1e-12)
                   for k in range(cov.N, cov.top + 1)):
            res.failures.append("dyadic tails do not halve exactly")
    res.check(halving)
    mass = wstep.mass()
    out["exact:tail_invert"] = rec.call("bridge.tail_invert", tail_invert,
                                        wstep, mass / 3.0)
    return res


TASKS = {"wide": wide_task, "small": small_task, "bridge": bridge_task}


# ---------------------------------------------------------------------------
# Reference agreement.

def _values_agree(kind: str, new, ref) -> bool:
    if isinstance(new, list) or isinstance(ref, list):
        return (isinstance(new, list) and isinstance(ref, list)
                and len(new) == len(ref)
                and all(_values_agree(kind, x, y) for x, y in zip(new, ref)))
    new, ref = _from_json(new), _from_json(ref)
    if kind == "info":
        return True
    if kind == "exact":
        return close(new, ref)
    # "lower" (a search's lower bound) and "flag" (a passed check) may
    # only rise.
    return new >= ref * (1 - REL_TIGHT) if not math.isinf(ref) else new == ref


def reference_mismatches(outputs: Dict[str, object], ref: dict) -> List[str]:
    """Output keys that disagree with the recorded reference outputs."""
    bad = []
    recorded = ref["outputs"]
    for key in sorted(set(outputs) | set(recorded)):
        if key not in outputs or key not in recorded:
            bad.append(f"{key}: present on one side only")
        elif not _values_agree(key.split(":", 1)[0], outputs[key], recorded[key]):
            bad.append(f"{key}: {outputs[key]!r} vs reference {recorded[key]!r}")
    return bad


def jsonable(x):
    if isinstance(x, float) and math.isinf(x):
        return "inf" if x > 0 else "-inf"
    if isinstance(x, (list, tuple)):
        return [jsonable(y) for y in x]
    if isinstance(x, dict):
        return {k: jsonable(v) for k, v in x.items()}
    return x
