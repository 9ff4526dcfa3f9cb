"""Command-line interface: instance ingestion, dispatch, report emission.

Reports are UTF-8 JSON on standard output with stable field ordering;
diagnostics go to standard error.  Exit codes: 0 success, 1 verification
failure, 2 input error.  Extended-real infinities are serialized as the
strings "inf" / "-inf" (JSON has no infinity literal).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import random
import sys
from typing import Any, Dict, List

from . import bridge as bridge_mod
from . import constants as constants_mod
from . import discretize as discretize_mod
from . import oracle as oracle_mod
from .instance import Instance
from .kernels import (InstanceError, Kernel, check_chain_args, doc_number, doc_weight,
                      kernel_doc, kernel_spec)
from .numerics import ExponentPair, ext_pow, regime
from .weights import TestSequence


def parse_instance(data) -> Instance:
    """Parse an instance document (bytes or str of UTF-8 JSON)."""
    if isinstance(data, bytes):
        data = data.decode("utf-8")
    try:
        doc = json.loads(data)
    except json.JSONDecodeError as e:
        raise InstanceError("<document>", f"invalid JSON: {e}") from e
    if not isinstance(doc, dict):
        raise InstanceError("<document>", "expected a JSON object")
    win = doc.get("window")
    if not isinstance(win, dict):
        raise InstanceError("window", "expected an object {start, length}")
    start, length = win.get("start"), win.get("length")
    if not isinstance(start, int) or isinstance(start, bool):
        raise InstanceError("window.start", "expected an integer")
    if not isinstance(length, int) or isinstance(length, bool) or length < 1:
        raise InstanceError("window.length", "expected a positive integer")
    p = doc_number(doc.get("p"), "p", allow_inf=True)
    q = doc_number(doc.get("q"), "q", allow_inf=True)
    if p == 0 or q == 0:
        raise InstanceError("p" if p == 0 else "q", "must be positive")
    v = doc_weight(doc.get("v"), "v", start, length)
    w = doc_weight(doc.get("w"), "w", start, length)
    kern = Kernel(kernel_spec(doc.get("kernel"), "kernel", start, length), start, length)
    return Instance(exponents=ExponentPair(p, q), v=v, w=w, kernel=kern)


def serialize(inst: Instance) -> str:
    """Instance -> JSON document; parse_instance(serialize(I)) == I."""
    doc = {
        "window": {"start": inst.start, "length": inst.length},
        "p": "inf" if math.isinf(inst.p) else inst.p,
        "q": "inf" if math.isinf(inst.q) else inst.q,
        "v": list(inst.v.values),
        "w": list(inst.w.values),
        "kernel": kernel_doc(inst.kernel.spec),
    }
    return json.dumps(doc, indent=2)


def _jsonable(obj) -> Any:
    """Replace non-JSON floats and tuples recursively."""
    if isinstance(obj, float):
        if math.isinf(obj):
            return "inf" if obj > 0 else "-inf"
        return obj
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(x) for x in obj]
    return obj


def _emit(report: dict, fmt: str) -> None:
    payload = _jsonable(report)
    if fmt == "json":
        print(json.dumps(payload, indent=2))
        return
    def walk(prefix, node):
        if isinstance(node, dict):
            for k, v in node.items():
                walk(f"{prefix}{k}." if prefix else f"{k}.", v) \
                    if isinstance(v, (dict, list)) else \
                    print(f"{prefix}{k:<24} {v}")
        elif isinstance(node, list):
            print(f"{prefix[:-1]:<24} {node}")
    walk("", payload)


def _witness_doc(ts: TestSequence) -> dict:
    return {"start": ts.start, "values": list(ts.values)}


def _regime_doc(label) -> dict:
    return {"kernel_case": label.kernel_case,
            "small_p_case": label.small_p_case,
            "sup_case": label.sup_case}


def _load(path: str) -> Instance:
    with open(path, "rb") as fh:
        return parse_instance(fh.read())


# ---------------------------------------------------------------------------
# Subcommand handlers.  Each returns (report dict, exit status).

def _cmd_check_kernel(inst: Instance, args) -> tuple:
    kern = inst.kernel
    check_chain_args(args.alpha, 1.0 if args.c is None else args.c, args.max_len,
                     kern.length)  # explicit values, also where the check is skipped
    mono = kern.monotonicity_check()
    c_star = kern.regularity_constant()
    max_len = args.max_len if args.max_len is not None else min(kern.length, 6)
    chain = None
    chain_ok = True
    if max_len >= 3 and math.isfinite(c_star) and kern.length >= 3:
        c = args.c
        if c is None:
            depth = max(1, math.ceil(math.log2(max(max_len - 1, 2))))
            c = ext_pow(max(1.0, c_star), depth)
        rep = kern.chain_alpha_check(args.alpha, c, max_len)
        chain_ok = rep.ok
        chain = {"alpha": args.alpha, "c": c, "max_len": max_len,
                 "ok": rep.ok, "worst_ratio": rep.worst_ratio,
                 "worst_chain": list(rep.worst_chain)}
    ok = mono.ok and math.isfinite(c_star) and chain_ok
    report = {
        "command": "check-kernel",
        "monotone": mono.ok,
        "monotonicity_violations": [list(t) for t in mono.violations[:20]],
        "regularity_constant": c_star,
        "chain": chain,
        "ok": ok,
    }
    return report, (0 if ok else 1)


def _constants_for(inst: Instance, which: str) -> Dict[str, float]:
    out: Dict[str, float] = {}
    for prefix, count, condition in (("A", 13, constants_mod.condition_A),
                                     ("D", 6, constants_mod.condition_D)):
        if which in (prefix, "all"):
            for k in range(1, count + 1):
                try:
                    out[f"{prefix}_{k}"] = condition(k, inst)
                except ValueError:
                    pass
    return out


def _cmd_constants(inst: Instance, args) -> tuple:
    report = {
        "command": "constants",
        "set": args.set,
        "regime": _regime_doc(regime(inst.exponents)),
        "constants": _constants_for(inst, args.set),
    }
    return report, 0


def _cmd_characterize(inst: Instance, args) -> tuple:
    rep = constants_mod.characterize(inst)
    report = {
        "command": "characterize",
        "regime": _regime_doc(rep.regime),
        "constants": dict(rep.constants),
        "predicted_kernel": rep.predicted_kernel,
        "predicted_sup": rep.predicted_sup,
        "regularity_constant": rep.regularity,
        "advisories": list(rep.advisories),
    }
    return report, 0


def _cmd_oracle(inst: Instance, args) -> tuple:
    res = oracle_mod.best_constant(args.form, inst, args.strategy,
                                   args.budget, args.seed)
    report = {
        "command": "oracle",
        "form": args.form,
        "estimate": res.estimate,
        "witness": _witness_doc(res.witness),
        "strategy": res.strategy,
        "evaluations": res.evaluations,
        "exact": res.exact,
    }
    if oracle_mod.FORM_TABLE[args.form].power and not math.isinf(inst.p):
        report["estimate_classical"] = oracle_mod.strong_classical_constant(
            res.estimate, inst.p)
    return report, 0


def _regularity(inst: Instance) -> float:
    """The regularity constant of U^min(p, 1), kept on the kernel."""
    return inst.kernel.power_regularity(min(inst.p, 1.0))


def _cmd_discretize(inst: Instance, args) -> tuple:
    D = args.D
    if D is None:
        c_star = _regularity(inst)
        D = discretize_mod.default_ratio(min(inst.p, 1.0), inst.q, c_star) \
            if not math.isinf(inst.q) else 2.0
    cs = discretize_mod.covering_sequence(inst.w, D)
    ver = discretize_mod.verify_covering(inst.w, cs)
    report = {
        "command": "discretize",
        "D": cs.D,
        "N": cs.N,
        "M": cs.M,
        "indices": list(cs.indices),
        "levels": list(cs.levels),
        "verified": {"ok": ver.ok, "failed_clause": ver.failed_clause,
                     "detail": ver.detail},
    }
    return report, (0 if ver.ok else 1)


def _suite_discretize(inst: Instance, trials: int, seed: int) -> tuple:
    """Covering + two-sided bounds + block decomposition checks."""
    if trials < 1:
        raise ValueError(f"trials must be at least 1: {trials}")
    rng = random.Random(seed)
    p, q = inst.p, inst.q
    if all(x == 0.0 for x in inst.w.values):
        return {"passed": True, "note": "zero weight: nothing to cover"}, 0
    c_star = _regularity(inst)
    D = discretize_mod.default_ratio(min(p, 1.0), q if not math.isinf(q) else 1.0,
                                     c_star) if math.isfinite(c_star) else 2.0
    cs = discretize_mod.covering_sequence(inst.w, D)
    ver = discretize_mod.verify_covering(inst.w, cs)
    failures: List[str] = []
    if not ver.ok:
        failures.append(f"covering clause {ver.failed_clause}: {ver.detail}")
    for t in range(trials):
        vals: List[float] = []
        acc = 0.0
        for _ in range(inst.length):
            acc += rng.randrange(0, 4)
            vals.append(float(acc))
        b = TestSequence(inst.start, tuple(vals))
        sb = discretize_mod.weighted_sum_bounds(inst.w, b, cs)
        if not (sb.lower <= sb.middle * (1 + 1e-12) and
                sb.middle <= sb.upper * (1 + 1e-12)):
            failures.append(f"sum bounds fail on trial {t}: {sb}")
            break
    l24 = None
    if 0 < p <= 1 and not math.isinf(q) and math.isfinite(c_star):
        m = max(1.0, ext_pow(2.0, q / p - 1.0))
        for t in range(trials):
            a = TestSequence(inst.start, tuple(
                float(rng.randrange(0, 4)) for _ in range(inst.length)))
            dec = discretize_mod.l24_decompose(inst, a, cs)
            l24 = {"lhs": dec.lhs, "block_term": dec.block_term,
                   "cross_term": dec.cross_term, "ratio": dec.ratio}
            if dec.block_term > cs.D * dec.lhs * (1 + 1e-12):
                failures.append(f"block term exceeds D*lhs on trial {t}")
                break
            cap = cs.D * m * m * (ext_pow(c_star, q / p) if c_star > 0 else 1.0)
            if dec.cross_term > cap * dec.lhs * (1 + 1e-12):
                failures.append(f"cross term exceeds its bound on trial {t}")
                break
            if dec.lhs > 2.0 * m * (dec.block_term + dec.cross_term) * (1 + 1e-12):
                failures.append(f"lhs exceeds the block bound on trial {t}")
                break
    report = {
        "passed": not failures,
        "D": cs.D,
        "covering_ok": ver.ok,
        "trials": trials,
        "l24_sample": l24,
        "failures": failures[:10],
    }
    return report, (0 if not failures else 1)


def _bridge_doc(rep) -> dict:
    return {"form": rep.form, "C_discrete": rep.C_discrete,
            "C_continuous": rep.C_continuous, "factor_bound": rep.factor_bound,
            "slack": rep.slack, "factor_ok": rep.factor_ok}


def _suite_bridge(inst: Instance, budget: int, seed: int) -> tuple:
    checks = []
    ok = True
    for form in ("GOP_DUAL", "SUP_ITER"):
        rep = bridge_mod.bridge_check(inst, form, budget, seed)
        checks.append(_bridge_doc(rep))
        ok = ok and rep.factor_ok
    return {"passed": ok, "checks": checks}, (0 if ok else 1)


def _cmd_verify(inst: Instance, args) -> tuple:
    suite = args.suite.replace("-", "_")
    report: dict = {"command": "verify", "suite": args.suite}
    if suite == "bridge":
        sub, status = _suite_bridge(inst, args.budget, args.seed)
    elif suite == "discretize":
        sub, status = _suite_discretize(inst, args.trials, args.seed)
    else:
        rep = oracle_mod.equivalence_suite(suite, inst, args.budget,
                                           args.seed, args.trials)
        sub = {
            "passed": rep.passed,
            "estimates": dict(rep.estimates),
            "ratio_bounds": list(rep.ratio_bounds),
            "violations": [_jsonable(list(vi)) for vi in rep.violations],
            "trials": rep.trials,
        }
        status = 0 if rep.passed else 1
    report.update(sub)
    return report, status


def _cmd_bridge(inst: Instance, args) -> tuple:
    rep = bridge_mod.bridge_check(inst, args.form, args.budget, args.seed)
    report = {
        "command": "bridge",
        **_bridge_doc(rep),
        "discrete_witness": _witness_doc(rep.discrete_witness),
        "continuous_witness": list(rep.continuous_witness),
    }
    return report, (0 if rep.factor_ok else 1)


@functools.lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process (parsing leaves it
    as it was)."""
    ap = argparse.ArgumentParser(
        prog="kernelineq",
        description="Characterizing constants, oracle search and equivalence "
                    "verification for weighted kernel-operator inequalities.")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("file", help="instance JSON document")
        sp.add_argument("--format", choices=("json", "table"), default="json")

    sp = sub.add_parser("check-kernel", help="monotonicity, regularity and "
                                             "chain checks")
    common(sp)
    sp.add_argument("--alpha", type=float, default=1.0)
    sp.add_argument("--c", type=float, default=None)
    sp.add_argument("--max-len", type=int, default=None)

    sp = sub.add_parser("constants", help="closed-form characterizing constants")
    common(sp)
    sp.add_argument("--set", choices=("A", "D", "all"), default="all")

    sp = sub.add_parser("characterize", help="regime selection and predictions")
    common(sp)

    sp = sub.add_parser("oracle", help="best-constant search")
    common(sp)
    sp.add_argument("--form", required=True, choices=tuple(oracle_mod.FORM_TABLE))
    sp.add_argument("--strategy", default="auto",
                    choices=(*oracle_mod.STRATEGIES, "auto"))
    sp.add_argument("--budget", type=int, default=2000)
    sp.add_argument("--seed", type=int, default=0)

    sp = sub.add_parser("discretize", help="covering-sequence construction")
    common(sp)
    sp.add_argument("--D", type=float, default=None)

    sp = sub.add_parser("verify", help="theorem-backed verification suites")
    common(sp)
    sp.add_argument("--suite", required=True,
                    choices=("six", "hux", "kernel-main", "supremalpge",
                             "scaling", "dual", "bridge", "discretize"))
    sp.add_argument("--trials", type=int, default=200)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--budget", type=int, default=2000)

    sp = sub.add_parser("bridge", help="discrete vs continuous factor bound")
    common(sp)
    sp.add_argument("--form", default="GOP_DUAL",
                    choices=("GOP_DUAL", "SUP_ITER"))
    sp.add_argument("--budget", type=int, default=2000)
    sp.add_argument("--seed", type=int, default=0)

    return ap


_HANDLERS = {
    "check-kernel": _cmd_check_kernel,
    "constants": _cmd_constants,
    "characterize": _cmd_characterize,
    "oracle": _cmd_oracle,
    "discretize": _cmd_discretize,
    "verify": _cmd_verify,
    "bridge": _cmd_bridge,
}


def run_command(argv: List[str]) -> int:
    ap = _build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        # argparse exits 2 on usage errors and 0 on --help
        return int(e.code or 0)
    try:
        inst = _load(args.file)
    except (InstanceError, OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    try:
        report, status = _HANDLERS[args.command](inst, args)
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    _emit(report, args.format)
    return status


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
