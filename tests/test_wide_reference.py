"""Each benchmark pipeline on every recorded instance, against its reference.

A benchmark run times only the variants its seed picks, so it checks
their outputs alone.  This test runs `pipelines.<workload>_task` on
every (slot, variant) of the wide, bridge and small workloads, the way
`perfbench/run.py` runs a task, and requires each output to agree with
the recorded reference in `perfbench/reference/<workload>.json` and
every failed check to be one of the known failures recorded there.  It
imports the benchmark's modules and changes nothing under `perfbench/`;
the instance files it writes go to a temporary directory.
"""

import json
import os
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "perfbench")
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

import instances  # noqa: E402
import pipelines  # noqa: E402
import run  # noqa: E402
from tracing import Recorder  # noqa: E402


@pytest.mark.parametrize("workload", ["wide", "bridge", "small"])
def test_every_instance_matches_its_reference(workload, tmp_path):
    with open(run.reference_path(workload)) as fh:
        reference = json.load(fh)
    slots = instances.WORKLOADS[workload]
    variants = list(range(reference["variants"]))
    rec = Recorder(traced=False)
    passes = pipelines.prepare(workload, slots, variants, rec, str(tmp_path))
    ran, bad = set(), {}
    for row in passes:
        for t in row:
            key = run.instance_key(t)
            ran.add(key)
            _, res = run.run_task(pipelines.TASKS[workload], rec, t)
            res.run_checks()
            ref = reference["entries"][key]
            new = sorted(set(res.failures) - set(ref["known_failures"]))
            found = pipelines.reference_mismatches(res.outputs, ref) + new
            if found:
                bad[key] = found
    assert ran == set(reference["entries"])
    assert not bad, bad
