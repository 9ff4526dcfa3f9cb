"""Pin every instance form's left-hand side and derived flags to recorded data.

`data/forms_reference.json` holds, for seeded conftest instances over
p, q in {0.5, 1, 2, inf}:

- `functional_lhs` of every form in FORMS except the scaling displays,
  on row/sup kernels (all forms) and on constant/sup/tabulated kernels
  (the forms that take any kernel);
- the truth table of `vertex_exact`;
- the exit status of `kernelineq oracle` per form and p, and whether its
  report carries `estimate_classical`.

The data was recorded before the forms moved into one table, so these
tests compare the table against the hand-written evaluators it replaced.
`python tests/test_forms_reference.py` rewrites the file from the code
under test; only do that on a commit whose values are trusted.
"""

import contextlib
import io
import json
import math
import os
import random

from kernelineq import (FORMS, ExponentPair, Instance, TestSequence, WeightSeq,
                        functional_lhs, vertex_exact)
from kernelineq.cli import parse_instance, run_command, serialize
from kernelineq.kernels import Kernel, SupSequenceKernel

from conftest import close, random_instance

PATH = os.path.join(os.path.dirname(__file__), "data", "forms_reference.json")
EXPONENTS = (0.5, 1.0, 2.0, math.inf)
VERTEX_EXPONENTS = (0.5, 1.0, 2.0, 3.0, math.inf)
INSTANCE_FORMS = tuple(f for f in FORMS if f not in ("SCALE3", "SCALE4"))
GENERAL_FORMS = tuple(f for f in INSTANCE_FORMS if not f.startswith("SB"))
# The relative bound of the pinned left-hand sides (`conftest.close`), which
# `tests/reference_diff.py` reads to mark the moves inside it.
TOLERANCE = 1e-12


def _num(x):
    return "inf" if math.isinf(x) else x


def _from(x):
    return math.inf if x == "inf" else x


def _lhs_cases():
    rng = random.Random(20211005)
    cases = []
    for p in EXPONENTS:
        for q in EXPONENTS:
            for kinds, forms in ((("row", "sup"), INSTANCE_FORMS),
                                 (("constant", "sup", "tabulated"), GENERAL_FORMS)):
                for _ in range(2):
                    inst = random_instance(rng, p, q, kinds=kinds, max_length=5)
                    a = tuple(rng.choice((0.0, 0.25, 1.0, 3.0, 1e3))
                              for _ in range(inst.length))
                    cases.append((inst, a, forms))
    return cases


def _oracle_doc(p: float) -> str:
    u = WeightSeq(0, (1.0, 2.0))
    w = WeightSeq(0, (1.0, 0.5))
    return serialize(Instance(ExponentPair(p, 1.0), w, w,
                              Kernel(SupSequenceKernel(u), 0, 2)))


def _oracle_cli(path: str, form: str):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = run_command(["oracle", path, "--form", form, "--strategy",
                              "vertex", "--budget", "10"])
    return status, (status == 0 and "estimate_classical" in json.loads(out.getvalue()))


def record(tmpdir: str) -> dict:
    lhs = []
    for inst, a, forms in _lhs_cases():
        ts = TestSequence(inst.start, a)
        lhs.append({"instance": json.loads(serialize(inst)), "a": list(a),
                    "lhs": {f: _num(functional_lhs(f, inst, ts)) for f in forms}})
    vertex = {f: [[vertex_exact(f, ExponentPair(p, q)) for q in VERTEX_EXPONENTS]
                  for p in VERTEX_EXPONENTS] for f in FORMS}
    oracle = {}
    for p in EXPONENTS:
        path = os.path.join(tmpdir, f"oracle-{p}.json")
        with open(path, "w") as fh:
            fh.write(_oracle_doc(p))
        oracle[_num(p)] = {f: list(_oracle_cli(path, f)) for f in INSTANCE_FORMS}
    return {"exponents": [_num(x) for x in EXPONENTS],
            "vertex_exponents": [_num(x) for x in VERTEX_EXPONENTS],
            "lhs": lhs, "vertex_exact": vertex, "oracle_cli": oracle}


def _load():
    with open(PATH) as fh:
        return json.load(fh)


def test_lhs_matches_reference():
    ref = _load()
    assert len(ref["lhs"]) == 2 * 2 * len(EXPONENTS) ** 2
    for case in ref["lhs"]:
        inst = parse_instance(json.dumps(case["instance"]))
        ts = TestSequence(inst.start, tuple(case["a"]))
        for form, want in case["lhs"].items():
            got = functional_lhs(form, inst, ts)
            want = _from(want)
            if math.isinf(want) or math.isinf(got):
                assert got == want, (form, case)
            else:
                assert close(got, want, TOLERANCE), (form, got, want, case)


def test_every_instance_form_is_pinned():
    ref = _load()
    pinned = set()
    for case in ref["lhs"]:
        pinned.update(case["lhs"])
    assert pinned == set(INSTANCE_FORMS)
    assert set(ref["vertex_exact"]) == set(FORMS)


def test_vertex_exact_matches_reference():
    ref = _load()
    exps = [_from(x) for x in ref["vertex_exponents"]]
    for form, table in ref["vertex_exact"].items():
        for p, row in zip(exps, table):
            for q, want in zip(exps, row):
                assert vertex_exact(form, ExponentPair(p, q)) == want, (form, p, q)


def test_oracle_cli_matches_reference(tmp_path):
    ref = _load()
    for p_key, forms in ref["oracle_cli"].items():
        path = tmp_path / f"oracle-{p_key}.json"
        path.write_text(_oracle_doc(float(p_key)))
        for form, (status, classical) in forms.items():
            assert _oracle_cli(str(path), form) == (status, classical), (form, p_key)


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as d:
        data = record(d)
    with open(PATH, "w") as fh:
        json.dump(data, fh, indent=1)
        fh.write("\n")
