"""Smoke test of the benchmark at tiny size.

    python3 -m pytest -q perfbench/test_smoke.py

Runs every workload's pipeline on shrunken windows, exercises every
output check (including a deliberate reference mismatch), and runs the
benchmark command once end to end and once in a directory without the
package source, where it must fail without printing a result.
"""

import dataclasses
import json
import math
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import instances  # noqa: E402
import pipelines  # noqa: E402
import run  # noqa: E402
from tracing import Recorder  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    BENCHMARK = json.load(_fh)


def tiny(workload):
    """The workload's slots with windows cut to at most 4 cells."""
    return tuple(s if s.doc else dataclasses.replace(s, L=min(s.L, 4))
                 for s in instances.WORKLOADS[workload])


@pytest.mark.parametrize("workload", ["wide", "small", "bridge"])
def test_pipeline_and_checks(workload, tmp_path, monkeypatch):
    monkeypatch.setitem(instances.WORKLOADS, workload, tiny(workload))
    rec = Recorder(traced=True)
    passes = pipelines.prepare(workload, instances.WORKLOADS[workload], [0],
                               rec, str(tmp_path))
    for t in passes[0]:
        latency, res = run.run_task(pipelines.TASKS[workload], rec, t)
        res.run_checks()
        assert latency > 0
        assert not [f for f in res.failures if f.startswith("raised")], res.failures
        # Outputs agree with themselves as a reference ...
        ref = {"outputs": pipelines.jsonable(res.outputs)}
        assert pipelines.reference_mismatches(res.outputs, ref) == []
        # ... and a changed closed form or a lower search estimate is caught.
        for key, value in res.outputs.items():
            kind = key.split(":")[0]
            if kind in ("exact", "lower") and isinstance(value, float) \
                    and math.isfinite(value) and value > 0:
                changed = dict(res.outputs, **{key: value * 0.5})
                assert pipelines.reference_mismatches(changed, ref)
        for s in res.searches:
            if s.form == "GOP_DUAL" and t.inst.p == t.inst.q == 2.0:
                assert s.gap is not None and s.gap > -1e-9
    stats = rec.module_stats()
    assert sum(m["calls"] for m in stats.values()) > 0
    assert all(m["errors"] == 0 for m in stats.values())


def test_spectral_norm_bounds_the_search():
    doc = instances.instance_doc("small", 17, 0)
    inst = pipelines.parse_instance(doc)
    est = pipelines.best_constant("GOP_DUAL", inst, "multistart_ascent", 4000, 0)
    norm = pipelines.spectral_norm(inst)
    assert est.estimate <= norm * (1 + 1e-9)
    assert est.estimate > 0.5 * norm


def test_tail_ladder():
    lat = [float(i) for i in range(1, 101)]
    value, pct, beyond = run.tail(lat)
    assert (pct, beyond) == (90.0, 10)
    assert 90.0 <= value <= 91.0
    assert run.tail(lat[:30])[1] == 50.0


def test_pass_variants():
    args = run.parse_args(["--workload", "wide", "--seed", "4", "--seconds", "25"])
    order = instances.pass_order(4)
    assert run.pass_variants(args) == order[:4]
    args.trace = 1
    assert run.pass_variants(args) == [order[0], order[0], order[1], order[1]]
    args.seconds = 0.1
    assert run.pass_variants(args) == [order[0], order[0]]


def test_self_time_subtracts_children():
    rec = Recorder(traced=True)
    rec.call("task", lambda: rec.call("oracle.x", sum, range(10000)))
    task, child = sorted(rec.spans)
    assert child[4] == task[0]
    assert rec.self_times()["task"] == pytest.approx(
        (task[3] - task[2]) - (child[3] - child[2]))


def test_benchmark_json_matches_run():
    assert [m["name"] for m in BENCHMARK["per_layer"]] == [m[0] for m in run.PER_LAYER]
    assert [m["name"] for m in BENCHMARK["end_to_end"]] == [m[0] for m in run.END_TO_END]
    assert {w["name"] for w in BENCHMARK["workloads"]} == set(instances.WORKLOADS)


def _run(args, cwd):
    return subprocess.run([sys.executable, "perfbench/run.py"] + args, cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", ["0", "1"])
def test_command_prints_contract_json(trace):
    p = _run(["--workload", "small", "--seed", "3", "--seconds", "0.1",
              "--trace", trace], ROOT)
    assert p.returncode == 0, p.stderr
    result = json.loads(p.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1
    wanted = BENCHMARK["per_layer" if trace == "1" else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for m in wanted:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert isinstance(result["metrics"][m["name"]]["value"], (int, float))


def test_fails_without_package_source(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    p = _run(["--workload", "wide", "--seed", "1", "--seconds", "1",
              "--trace", "0"], str(tmp_path))
    assert p.returncode != 0
    assert not p.stdout.strip()
