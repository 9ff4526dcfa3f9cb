"""Pin every search-backed output bit for bit to recorded data.

`data/search_reference.json` holds, for seeded conftest instances over
p, q in {0.5, 1, 2, inf} with windows of up to 12 indices (every third
instance with zero `v` entries):

- `best_constant` of every form under every strategy (row/sup kernels
  for the SB forms): the estimate, the witness, the evaluation count,
  the exact flag and the strategy used;
- `scaling_pair` for SCALE3 and SCALE4;
- the estimates, verdict and violations of every `equivalence_suite`;
- `bridge_check`: both constants, the factor verdict and both witnesses;
- `lemma_decompose` L1-L3.

Floats are stored as `repr` strings and compared for exact equality: a
search branches on `r > cur`, so a change in the last bit of one
evaluation can move the lower bound it reports.  Each entry stores its
inputs, so the test does not depend on the random builders staying the
same.  `python tests/test_search_reference.py` rewrites the file from
the code under test; only do that on a commit whose values are trusted.
"""

import itertools
import json
import math
import os
import random

from kernelineq import (FORMS, StepFunction, best_constant, bridge_check,
                        equivalence_suite, lemma_decompose, scaling_pair)
from kernelineq.cli import parse_instance, serialize

from conftest import random_instance

PATH = os.path.join(os.path.dirname(__file__), "data", "search_reference.json")
EXPONENTS = (0.5, 1.0, 2.0, math.inf)
STRATEGIES = ("auto", "vertex", "support_grid", "multistart_ascent")
INSTANCE_FORMS = tuple(f for f in FORMS if f not in ("SCALE3", "SCALE4"))
SB_FORMS = tuple(f for f in INSTANCE_FORMS if f.startswith("SB"))
GENERAL_FORMS = tuple(f for f in INSTANCE_FORMS if f not in SB_FORMS)
SIGMA_FORMS = ("CPRIME", "CDPRIME")  # need 1 <= p < inf
GENERAL_KINDS = ("constant", "sup", "tabulated")
SB_KINDS = ("row", "sup")
BUDGET = 40


def _r(x) -> str:
    return repr(float(x))


def _rs(xs) -> list:
    return [_r(x) for x in xs]


def _inst(entry):
    return parse_instance(json.dumps(entry["instance"]))


def _best_constant(entry) -> dict:
    res = best_constant(entry["form"], _inst(entry), entry["strategy"],
                        BUDGET, entry["seed"])
    return {"estimate": _r(res.estimate), "witness": _rs(res.witness.values),
            "evaluations": res.evaluations, "exact": res.exact,
            "strategy": res.strategy}


def _scaling_pair(entry) -> dict:
    inst = _inst(entry)
    res = scaling_pair(entry["side"], inst.w, inst.v, inst.exponents,
                       entry["strategy"], BUDGET, entry["seed"])
    return {"estimate": _r(res.estimate), "witness": _rs(res.witness.values),
            "evaluations": res.evaluations, "exact": res.exact,
            "strategy": res.strategy}


def _equivalence_suite(entry) -> dict:
    rep = equivalence_suite(entry["suite"], _inst(entry), BUDGET, entry["seed"],
                            trials=10)
    return {"estimates": {k: _r(x) for k, x in rep.estimates.items()},
            "passed": rep.passed, "ratio_bounds": _rs(rep.ratio_bounds),
            "violations": repr(rep.violations)}


def _bridge_check(entry) -> dict:
    rep = bridge_check(_inst(entry), entry["form"], BUDGET, entry["seed"])
    return {"C_discrete": _r(rep.C_discrete), "C_continuous": _r(rep.C_continuous),
            "factor_ok": rep.factor_ok, "slack": _r(rep.slack),
            "discrete_witness": _rs(rep.discrete_witness.values),
            "continuous_witness": _rs(rep.continuous_witness)}


def _lemma_decompose(entry) -> dict:
    inst = _inst(entry)
    f = StepFunction(inst.start, tuple(float(x) for x in entry["f"]))
    d = lemma_decompose(entry["which"], inst, f)
    return {"lhs": _r(d.lhs), "block_part": _r(d.block_part),
            "cross_part": _r(d.cross_part), "ratio": _r(d.ratio)}


OUTPUTS = {"best_constant": _best_constant, "scaling_pair": _scaling_pair,
           "equivalence_suite": _equivalence_suite,
           "bridge_check": _bridge_check, "lemma_decompose": _lemma_decompose}


def _cases() -> dict:
    """Inputs of every pinned call, drawn from one seeded generator."""
    rng = random.Random(20261018)
    made = itertools.count(1)

    def inst(p, q, kinds, max_length):
        # A zero v entry makes every vertex on it an infinite ratio, so
        # only every third instance has them.
        return json.loads(serialize(random_instance(
            rng, p, q, kinds=kinds, allow_zero_v=next(made) % 3 == 0,
            max_length=max_length)))

    cases = {name: [] for name in OUTPUTS}
    for p in EXPONENTS:
        for q in EXPONENTS:
            for kinds, forms in ((GENERAL_KINDS, GENERAL_FORMS), (SB_KINDS, SB_FORMS)):
                doc = inst(p, q, kinds, 12)
                for form in forms:
                    if form in SIGMA_FORMS and not 1 <= p < math.inf:
                        continue
                    for strategy in STRATEGIES:
                        cases["best_constant"].append(
                            {"instance": doc, "form": form, "strategy": strategy,
                             "seed": rng.randrange(100)})
            finite_q = not math.isinf(q)
            if 1 <= p < math.inf and finite_q:
                doc = inst(p, q, GENERAL_KINDS, 12)
                for side in ("SCALE3", "SCALE4"):
                    for strategy in ("auto", "multistart_ascent"):
                        cases["scaling_pair"].append(
                            {"instance": doc, "side": side, "strategy": strategy,
                             "seed": rng.randrange(100)})
            suites = ["dual"]
            if p <= 1:
                suites.append("kernel_main")
                if finite_q:
                    suites += ["six", "hux"]
            if 1 <= p < math.inf and finite_q:
                suites += ["supremalpge", "scaling"]
            for suite in suites:
                kinds = SB_KINDS if suite == "hux" else GENERAL_KINDS
                cases["equivalence_suite"].append(
                    {"instance": inst(p, q, kinds, 6), "suite": suite,
                     "seed": rng.randrange(100)})
            if p >= 1:
                for form in ("GOP_DUAL", "SUP_ITER"):
                    cases["bridge_check"].append(
                        {"instance": inst(p, q, GENERAL_KINDS, 12), "form": form,
                         "seed": rng.randrange(100)})
            if finite_q:
                which = ("L1", "L2", "L3") if 1 <= p < math.inf else ("L1",)
                doc = inst(p, q, GENERAL_KINDS, 12)
                for w in which:
                    f = [rng.choice((0.0, 10.0 ** rng.uniform(-1, 1)))
                         for _ in range(doc["window"]["length"])]
                    cases["lemma_decompose"].append(
                        {"instance": doc, "which": w, "f": f})
    return cases


def record() -> dict:
    """The reference file: each instance document once, entries by index."""
    docs, index, out = [], {}, {}
    for name, entries in _cases().items():
        out[name] = []
        for entry in entries:
            key = json.dumps(entry["instance"], sort_keys=True)
            if key not in index:
                index[key] = len(docs)
                docs.append(entry["instance"])
            out[name].append(dict(entry, instance=index[key],
                                  output=OUTPUTS[name](entry)))
    return dict(out, instances=docs)


def _load() -> dict:
    with open(PATH) as fh:
        ref = json.load(fh)
    docs = ref.pop("instances")
    return {name: [dict(entry, instance=docs[entry["instance"]]) for entry in entries]
            for name, entries in ref.items()}


def _check(name: str):
    entries = _load()[name]
    assert entries
    for entry in entries:
        want = entry["output"]
        got = OUTPUTS[name]({k: x for k, x in entry.items() if k != "output"})
        assert got == want, (name, entry)


def test_best_constant_matches_reference():
    _check("best_constant")
    pinned = {(e["form"], e["strategy"]) for e in _load()["best_constant"]}
    assert pinned == {(f, s) for f in INSTANCE_FORMS for s in STRATEGIES}


def test_scaling_pair_matches_reference():
    _check("scaling_pair")


def test_equivalence_suite_matches_reference():
    _check("equivalence_suite")


def test_bridge_check_matches_reference():
    _check("bridge_check")


def test_lemma_decompose_matches_reference():
    _check("lemma_decompose")


def test_reference_covers_zero_v_and_infinite_exponents():
    entries = [e for name in OUTPUTS for e in _load()[name]]
    assert any(0.0 in e["instance"]["v"] for e in entries)
    assert any(e["instance"]["p"] == "inf" and e["instance"]["q"] == "inf"
               for e in entries)
    assert max(e["instance"]["window"]["length"] for e in entries) >= 10


if __name__ == "__main__":
    data = record()
    with open(PATH, "w") as fh:
        # One entry per line keeps the file small and its diffs readable.
        fh.write("{\n" + ",\n".join(
            json.dumps(name) + ": [\n" + ",\n".join(json.dumps(e) for e in entries)
            + "\n]" for name, entries in data.items()) + "\n}\n")
