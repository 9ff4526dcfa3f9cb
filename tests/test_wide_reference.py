"""The wide benchmark pipeline on every recorded instance, against its reference.

A benchmark run times only the variants its seed picks, so it checks
their outputs alone.  This test runs `pipelines.wide_task` on every
(slot, variant) of the wide workload, the way `perfbench/run.py` runs a
task, and requires each output to agree with the recorded reference in
`perfbench/reference/wide.json` and every failed check to be one of the
known failures recorded there.  It imports the benchmark's modules and
changes nothing under `perfbench/`; the instance files it writes go to a
temporary directory.
"""

import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "perfbench")
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

import instances  # noqa: E402
import pipelines  # noqa: E402
import run  # noqa: E402
from tracing import Recorder  # noqa: E402


def test_every_wide_instance_matches_its_reference(tmp_path):
    with open(run.reference_path("wide")) as fh:
        reference = json.load(fh)
    slots = instances.WORKLOADS["wide"]
    variants = list(range(reference["variants"]))
    rec = Recorder(traced=False)
    passes = pipelines.prepare("wide", slots, variants, rec, str(tmp_path))
    bad = {}
    for row in passes:
        for t in row:
            _, res = run.run_task(pipelines.TASKS["wide"], rec, t)
            res.run_checks()
            ref = reference["entries"][run.instance_key(t)]
            new = sorted(set(res.failures) - set(ref["known_failures"]))
            found = pipelines.reference_mismatches(res.outputs, ref) + new
            if found:
                bad[run.instance_key(t)] = found
    assert len(passes) * len(slots) == 120
    assert not bad, bad
