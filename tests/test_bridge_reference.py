"""Pin the continuous left-hand sides of the bridge bit for bit.

`data/bridge_reference.json` holds, for GOP_DUAL and SUP_ITER with
p in {1, 2, inf} and q in {0.5, 1, 2, 3, inf}:

- the continuous ratio that `bridge_check` searches (`bridge._ContRatio`)
  on half-grid vectors: random ones, the full-cell images of random
  sequences, vertices, and adversarial ones with 0, -0.0, subnormal,
  1e300 and 1.7e308 entries;
- on seeded conftest instances, on instances with zero `v` and `w` entries
  and subnormal `v` entries, and on the kernel [[1e200, x], [1e200]]
  squared (an infinite diagonal against zero cells);
- the error of a half-grid vector with a negative or NaN entry, or of the
  wrong length (its class and the message up to the first colon), where
  the recording code raised the entry's own message (it could also raise
  the NaN message of a derived inf - inf, or, at p = inf, return a value);
- the left-hand sides of `lemma_decompose` L1-L3 on the same adversarial
  step functions, which run the same loops on unit pieces;
- every `continuous_constant` whose regime covers the instance's (p, q),
  on each of the file's instances.

Floats are stored as `repr` strings and compared for exact equality: a
search branches on `r > cur`, so a change in the last bit of one
evaluation can move the lower bound it reports.  Each entry stores its
inputs.  `python tests/test_bridge_reference.py` rewrites the file from
the code under test; only do that on a commit whose values are trusted.
"""

import itertools
import json
import math
import os
import random

from kernelineq import (ExponentPair, Instance, StepFunction, WeightSeq,
                        continuous_constant, lemma_decompose, tabulated_kernel)
from kernelineq.bridge import _ContRatio
from kernelineq.cli import parse_instance, serialize

from conftest import random_instance

PATH = os.path.join(os.path.dirname(__file__), "data", "bridge_reference.json")
P_VALUES = (1.0, 2.0, math.inf)
Q_VALUES = (0.5, 1.0, 2.0, 3.0, math.inf)
FORMS = ("GOP_DUAL", "SUP_ITER")
CONSTANTS = ("calA_1", "calA_2", "calA_3", "calA_4", "calA_12", "calA_13")
KINDS = ("constant", "sup", "tabulated")
# Zeros of both signs, subnormals (odd last bits included), the smallest
# normal, and entries whose powers or sums overflow.
EDGES = (0.0, -0.0, 5e-324, 1.5e-323, 1e-310, 2.2250738585072014e-308,
         1e-160, 1.0, 3.0, 1e300, 1.7e308)
SUBNORMAL_V = (5e-324, 1.5e-323, 3e-320, 1e-310)


def _r(x) -> str:
    return repr(float(x))


def _floats(xs) -> list:
    return [float(x) for x in xs]


def _inst(entry):
    return parse_instance(json.dumps(entry["instance"]))


def _ratio(entry):
    r = _ContRatio(entry["form"], _inst(entry))(_floats(entry["g"]))
    return None if r is None else _r(r)


def _rejection(entry):
    try:
        _ContRatio(entry["form"], _inst(entry))(_floats(entry["g"]))
    except ValueError as e:
        return ["ValueError", str(e).split(":")[0]]
    return None


def _lemma(entry):
    inst = _inst(entry)
    d = lemma_decompose(entry["which"], inst,
                        StepFunction(inst.start, _floats(entry["f"])))
    return [_r(d.lhs), _r(d.block_part), _r(d.cross_part)]


def _constant(entry):
    try:
        return _r(continuous_constant(entry["name"], _inst(entry)))
    except ValueError as e:
        return ["ValueError", str(e)]


OUTPUTS = {"ratio": _ratio, "rejection": _rejection, "lemma": _lemma,
           "constant": _constant}


def _own_error(entry):
    """The error of a bad half-grid vector on its own account."""
    g = _floats(entry["g"])
    if any(map(math.isnan, g)):
        return ["ValueError", "NaN is not a valid extended real"]
    if min(g) < 0:
        return ["ValueError", "negative value not allowed"]
    return ["ValueError", "half-grid vector must have 2 * window length entries"]


def _squared_doc(p, q, rest):
    w = WeightSeq(0, (1.0, 1.0))
    return json.loads(serialize(Instance(
        ExponentPair(p, q), w, w,
        tabulated_kernel([[1e200, rest], [1e200]], 0, 2).power(2.0))))


def _instances(rng, p, q):
    """Instance documents for one (p, q): seeded, edge weights, squared."""
    docs = []
    for k in range(3):
        doc = json.loads(serialize(random_instance(
            rng, p, q, kinds=KINDS, allow_zero_v=k == 1,
            max_length=(4, 8, 12)[k])))
        docs.append(doc)
    doc = json.loads(serialize(random_instance(rng, p, q, kinds=KINDS,
                                               length=rng.randint(3, 6))))
    L = doc["window"]["length"]
    for j in rng.sample(range(L), 2):
        doc["v"][j] = rng.choice(SUBNORMAL_V)
    doc["v"][rng.randrange(L)] = 0.0
    doc["w"][rng.randrange(L)] = 0.0
    docs.append(doc)
    docs.append(_squared_doc(p, q, 1e200))
    docs.append(_squared_doc(p, q, 1.0))
    return docs


def _vectors(rng, L):
    """Half-grid vectors of length 2L."""
    out = []
    for _ in range(3):
        out.append([0.0 if rng.random() < 0.2 else 10.0 ** rng.uniform(-3, 3)
                    for _ in range(2 * L)])
    a = [10.0 ** rng.uniform(-2, 2) for _ in range(L)]
    out.append([x for x in a for _ in (0, 1)])
    for _ in range(4):
        out.append([rng.choice(EDGES) for _ in range(2 * L)])
    for value in (1.0, 5e-324, 1.5e-323, 1e300):
        g = [0.0] * (2 * L)
        g[rng.randrange(2 * L)] = value
        out.append(g)
    return out


def _cases() -> dict:
    """Inputs of every pinned call, drawn from one seeded generator."""
    rng = random.Random(20261018)
    cases = {name: [] for name in OUTPUTS}
    for p, q in itertools.product(P_VALUES, Q_VALUES):
        for doc in _instances(rng, p, q):
            L = doc["window"]["length"]
            for form in FORMS:
                for g in _vectors(rng, L):
                    cases["ratio"].append({"instance": doc, "form": form,
                                           "g": [_r(x) for x in g]})
                for bad in (-0.5, -1e-300, math.nan):
                    g = _vectors(rng, L)[rng.randrange(4)]
                    g[rng.randrange(2 * L)] = bad
                    cases["rejection"].append({"instance": doc, "form": form,
                                               "g": [_r(x) for x in g]})
                cases["rejection"].append({"instance": doc, "form": form,
                                           "g": [_r(1.0)] * (2 * L + 1)})
            if not math.isinf(q):
                which = ("L1", "L2", "L3") if not math.isinf(p) else ("L1",)
                for w in which:
                    f = [rng.choice(EDGES[:-1]) for _ in range(L)]
                    cases["lemma"].append({"instance": doc, "which": w,
                                           "f": [_r(x) for x in f]})
            for name in CONSTANTS:
                cases["constant"].append({"instance": doc, "name": name})
    return cases


def record() -> dict:
    """The reference file: each instance document once, entries by index.

    A rejection entry is kept only where the recording code raises the
    vector's own error, and a constant entry only where the constant's
    regime covers the instance (the recording code returns a value).
    """
    docs, index, out = [], {}, {}
    for name, entries in _cases().items():
        out[name] = []
        for entry in entries:
            got = OUTPUTS[name](entry)
            if name == "rejection" and got != _own_error(entry):
                continue
            if name == "constant" and not isinstance(got, str):
                continue
            key = json.dumps(entry["instance"], sort_keys=True)
            if key not in index:
                index[key] = len(docs)
                docs.append(entry["instance"])
            out[name].append(dict(entry, instance=index[key], output=got))
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


def test_continuous_ratio_matches_reference():
    _check("ratio")


def test_rejections_match_reference():
    _check("rejection")
    entries = _load()["rejection"]
    for entry in entries:
        assert entry["output"] == _own_error(entry), entry
    messages = {tuple(e["output"]) for e in entries}
    assert ("ValueError", "negative value not allowed") in messages
    assert ("ValueError", "NaN is not a valid extended real") in messages


def test_lemma_lhs_matches_reference():
    _check("lemma")


def test_continuous_constants_match_reference():
    _check("constant")
    entries = _load()["constant"]
    assert {e["name"] for e in entries} == set(CONSTANTS)
    assert any(e["output"] == "inf" for e in entries)


def test_reference_covers_the_edges():
    ref = _load()
    entries = ref["ratio"]
    pq = {(e["instance"]["p"], e["instance"]["q"]) for e in entries}
    assert len(pq) == len(P_VALUES) * len(Q_VALUES)
    assert {e["form"] for e in entries} == set(FORMS)
    values = {x for e in entries for x in e["g"]}
    assert {"-0.0", "5e-324", "1e+300"} <= values
    v = {x for e in entries for x in e["instance"]["v"]}
    assert 0.0 in v and 5e-324 in v
    assert any(0.0 in e["instance"]["w"] for e in entries)
    assert any(e["instance"]["kernel"]["type"] == "power" for e in entries)
    assert any(e["output"] == "inf" for e in entries)


if __name__ == "__main__":
    data = record()
    with open(PATH, "w") as fh:
        # One entry per line keeps the file small and its diffs readable.
        fh.write("{\n" + ",\n".join(
            json.dumps(name) + ": [\n" + ",\n".join(json.dumps(e) for e in entries)
            + "\n]" for name, entries in data.items()) + "\n}\n")
