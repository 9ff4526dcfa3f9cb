"""Pin the kernel diagnostics and the closed-form constants bit for bit.

`data/constants_reference.json` holds, for seeded conftest instances over
p, q in {0.5, 1, 1.5, 2, 3, inf} with windows of up to 40 indices (every
third instance with zero `v` entries) and constant, sup, tabulated
(monotone and rough, with zero entries), row and power kernels:

- `regularity_constant` of the kernel and of one power of it;
- the `monotonicity_check` and `chain_alpha_check` reports;
- every applicable `condition_A` and `condition_D`;
- `characterize`;
- `l24_decompose` on the default covering ratio (p <= 1, finite q).

Floats are stored as `repr` strings and compared for exact equality, so a
faster formula must perform the same float operations in the same order.
Each entry stores its inputs, so the test does not depend on the random
builders staying the same.  `python tests/test_constants_reference.py`
rewrites the file from the code under test; only do that on a commit
whose values are trusted.
"""

import itertools
import json
import math
import os
import random

from kernelineq import (Instance, TestSequence, characterize, condition_A,
                        condition_D, covering_sequence, default_ratio,
                        l24_decompose, tabulated_kernel)
from kernelineq.cli import parse_instance, serialize

from conftest import random_instance

PATH = os.path.join(os.path.dirname(__file__), "data", "constants_reference.json")
EXPONENTS = (0.5, 1.0, 1.5, 2.0, 3.0, math.inf)
KINDS = ("constant", "sup", "tabulated", "row", "power", "rough")


def _r(x) -> str:
    return repr(float(x))


def _rough(rng: random.Random, start: int, length: int):
    """Tabulated kernel with zero entries, neither monotone nor regular."""
    return tabulated_kernel([[rng.choice((0.0, 0.0, 0.5, 1.0, 3.0))
                              for _ in range(length - i)] for i in range(length)],
                            start, length)


def _constants(cond, ks, inst) -> dict:
    out = {}
    for k in ks:
        try:
            out[str(k)] = _r(cond(k, inst))
        except ValueError as e:
            out[str(k)] = f"ValueError: {e}"
    return out


def _outputs(entry) -> dict:
    inst = parse_instance(json.dumps(entry["instance"]))
    K = inst.kernel
    mono = K.monotonicity_check()
    out = {"regularity": _r(K.regularity_constant()),
           "power_regularity": _r(K.power(entry["r"]).regularity_constant()),
           "monotonicity": [mono.ok, [list(t) for t in mono.violations]]}
    if entry["max_len"] is not None:
        ch = K.chain_alpha_check(entry["alpha"], 1.0, entry["max_len"])
        out["chain"] = [ch.ok, list(ch.worst_chain), _r(ch.worst_ratio)]
    out["A"] = _constants(condition_A, range(1, 14), inst)
    out["D"] = _constants(condition_D, range(1, 7), inst)
    # A fresh instance, so that characterize runs the scans itself.
    rep = characterize(parse_instance(json.dumps(entry["instance"])))
    out["characterize"] = {
        "regime": [rep.regime.kernel_case, rep.regime.small_p_case,
                   rep.regime.sup_case],
        "constants": {k: _r(x) for k, x in rep.constants.items()},
        "predicted_kernel": None if rep.predicted_kernel is None
        else _r(rep.predicted_kernel),
        "predicted_sup": None if rep.predicted_sup is None
        else _r(rep.predicted_sup),
        "regularity": _r(rep.regularity), "advisories": list(rep.advisories)}
    p, q = inst.p, inst.q
    if p <= 1 and not math.isinf(q):
        c_star = K.power(p).regularity_constant()
        if math.isfinite(c_star):
            cs = covering_sequence(inst.w, default_ratio(p, q, c_star))
            d = l24_decompose(inst, TestSequence(inst.start, tuple(entry["a"])), cs)
            out["l24"] = [_r(cs.D), _r(d.lhs), _r(d.block_term),
                          _r(d.cross_term), _r(d.ratio)]
    return out


def _cases() -> list:
    """Inputs of every pinned call, drawn from one seeded generator."""
    rng = random.Random(20261019)
    made = itertools.count(1)
    kinds = itertools.cycle(KINDS)
    cases = []
    for p in EXPONENTS:
        for q in EXPONENTS:
            for length in (rng.randint(1, 12), rng.randint(13, 40)):
                kind = next(kinds)
                base = "tabulated" if kind in ("power", "rough") else kind
                inst = random_instance(rng, p, q, length=length, kinds=(base,),
                                       allow_zero_v=next(made) % 3 == 0)
                if kind == "power":
                    inst = Instance(inst.exponents, inst.v, inst.w,
                                    inst.kernel.power(rng.choice((0.5, 2.0, 3.0))))
                elif kind == "rough":
                    inst = Instance(inst.exponents, inst.v, inst.w,
                                    _rough(rng, inst.start, length))
                cases.append({
                    "instance": json.loads(serialize(inst)),
                    "r": rng.choice((0.5, 1.5, 2.0, 3.0)),
                    "alpha": rng.choice((0.5, 1.0)),
                    "max_len": min(length, rng.randint(3, 8)) if length > 1 else None,
                    "a": [rng.choice((0.0, 0.5, 1.0, 3.0)) for _ in range(length)]})
    return cases


def record() -> list:
    return [dict(entry, output=_outputs(entry)) for entry in _cases()]


def _load() -> list:
    with open(PATH) as fh:
        return json.load(fh)


def test_diagnostics_and_constants_match_reference():
    entries = _load()
    assert len(entries) == 2 * len(EXPONENTS) ** 2
    for entry in entries:
        want = entry["output"]
        got = _outputs({k: x for k, x in entry.items() if k != "output"})
        assert got == want, entry["instance"]


def test_reference_covers_kinds_zero_v_and_long_windows():
    entries = _load()
    kinds = {e["instance"]["kernel"]["type"] for e in entries}
    assert kinds == {"constant", "sup", "tabulated", "row", "power"}
    assert any(0.0 in e["instance"]["v"] for e in entries)
    assert max(e["instance"]["window"]["length"] for e in entries) >= 30
    assert sum("l24" in e["output"] for e in entries) >= 5
    assert any(e["output"]["regularity"] == "inf" for e in entries)


if __name__ == "__main__":
    with open(PATH, "w") as fh:
        # One entry per line keeps the diffs readable.
        fh.write("[\n" + ",\n".join(json.dumps(e) for e in record()) + "\n]\n")
