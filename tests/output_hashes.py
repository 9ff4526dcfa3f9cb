"""Named sha256 hashes of the package's outputs on the benchmark's instances.

    python tests/output_hashes.py bridge300 lemmas150 suites530 wide120 small190 bridge150 ascents

Run from the root of a source checkout; it prints one line per name, the
name and its hash.  Each recipe is written out below.  A refactor that
must leave every output alone leaves every hash alone, so comparing the
hashes before and after a change checks far more calls than the tests do.
The instances, their step functions and their seeds are the benchmark's
(`perfbench/instances.py`, read only); each hash joins the reprs of its
outputs with no separator.

- bridge300: `bridge_check` on the bridge slots, variants 0-9, budget
  2000, each task's search seed; slot outer, then variant, then GOP_DUAL
  and SUP_ITER.
- lemmas150: per bridge instance, slot outer, then variant: calA_4, then
  `lemma_decompose` L1, L2 and L3 on the task's step function f; a
  ValueError counts as its repr.
- suites530: `equivalence_suite` on the small slots, in the order the
  benchmark prepares them (variant outer, then slot), each slot's
  admissible suites (`pipelines.regime_plan`), budget 2000, 100 trials,
  each task's search seed.
- wide120, small190, bridge150: the benchmark's own tasks of the
  workload, variants 0-9, prepared by `pipelines.prepare` into a
  temporary directory (variant outer, then slot), each task's outputs
  and failed checks after its checks have run, as the repr of
  (slot, variant, sorted outputs, sorted failures).
- ascents: `best_constant` by `multistart_ascent`, budget 1000, seed 3,
  at (p, q) = (2, 1.5) and (1, 0.5), L = 12 and 40, for GOP_DUAL,
  SUP_ITER, STRONG and WEAK on a constant, row, power-of-constant,
  tabulated and sup kernel, then SB3 on the row and sup kernels; the
  weights, sequences and tabulated entries are drawn from
  `random.Random(L)` over 1e-2..1e2 (`_ascent_instances`).  The
  benchmark's instances reach few ascents on the kernels with a diagonal
  (`oracle._diagonal`), whose moves resume the running reduction
  (`moves.RunningMoves`).
"""

from __future__ import annotations

import hashlib
import os
import random
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]
sys.dont_write_bytecode = True  # leave perfbench/ as it is

from kernelineq import (ExponentPair, Instance, Kernel, StepFunction,  # noqa: E402
                        WeightSeq, best_constant, bridge_check, constant_kernel,
                        continuous_constant, equivalence_suite, lemma_decompose,
                        tabulated_kernel)
from kernelineq.cli import parse_instance  # noqa: E402
from kernelineq.kernels import RowSequenceKernel, SupSequenceKernel  # noqa: E402

import instances  # noqa: E402
import pipelines  # noqa: E402
import tracing  # noqa: E402

VARIANTS = range(10)


def _task(workload, i, variant):
    slot = instances.WORKLOADS[workload][i]
    inst = parse_instance(instances.instance_doc(workload, i, variant))
    return slot, inst, instances.task_data(workload, i, variant, slot.L)


def _slots(workload):
    return range(len(instances.WORKLOADS[workload]))


def _repr_or_error(fn, *args):
    try:
        return repr(fn(*args))
    except ValueError as err:
        return repr(err)


def bridge300():
    for i in _slots("bridge"):
        for variant in VARIANTS:
            _, inst, data = _task("bridge", i, variant)
            for form in ("GOP_DUAL", "SUP_ITER"):
                yield repr(bridge_check(inst, form, pipelines.BRIDGE_BUDGET,
                                        data["search_seed"]))


def lemmas150():
    for i in _slots("bridge"):
        for variant in VARIANTS:
            _, inst, data = _task("bridge", i, variant)
            yield _repr_or_error(continuous_constant, "calA_4", inst)
            f = StepFunction(inst.start, tuple(data["f"]))
            for which in pipelines.LEMMAS:
                yield _repr_or_error(lemma_decompose, which, inst, f)


def suites530():
    plans = [pipelines.regime_plan("small", slot) for slot in instances.SMALL]
    for variant in VARIANTS:
        for i in _slots("small"):
            _, inst, data = _task("small", i, variant)
            for suite in plans[i]["suites"]:
                yield repr(equivalence_suite(suite, inst, pipelines.SUITE_BUDGET,
                                             data["search_seed"],
                                             pipelines.SUITE_TRIALS))


def _benchmark_tasks(workload):
    rec = tracing.Recorder(traced=False)
    with tempfile.TemporaryDirectory() as tmp:
        for row in pipelines.prepare(workload, instances.WORKLOADS[workload],
                                     list(VARIANTS), rec, tmp):
            for t in row:
                res = pipelines.TASKS[workload](rec, t)
                res.run_checks()
                yield repr((t.slot_index, t.variant, sorted(res.outputs.items()),
                            sorted(res.failures)))


def _ascent_instances(n, p, q):
    """Per kernel kind, the instance of the ascents recipe at L = n."""
    rng = random.Random(n)
    ent = lambda k: tuple(10.0 ** rng.uniform(-2, 2) for _ in range(k))
    v, w, u = WeightSeq(0, ent(n)), WeightSeq(0, ent(n)), WeightSeq(0, ent(n))
    kernels = {"constant": constant_kernel(2.0, 0, n),
               "row": Kernel(RowSequenceKernel(u), 0, n),
               "power": constant_kernel(2.0, 0, n).power(1.5),
               "tabulated": tabulated_kernel([ent(n - i) for i in range(n)], 0, n),
               "sup": Kernel(SupSequenceKernel(u), 0, n)}
    return {kind: Instance(ExponentPair(p, q), v, w, kernel)
            for kind, kernel in kernels.items()}


def ascents():
    for p, q in ((2.0, 1.5), (1.0, 0.5)):
        for n in (12, 40):
            insts = _ascent_instances(n, p, q)
            cases = [(form, kind) for kind in insts
                     for form in ("GOP_DUAL", "SUP_ITER", "STRONG", "WEAK")]
            for form, kind in cases + [("SB3", "row"), ("SB3", "sup")]:
                yield repr(best_constant(form, insts[kind], "multistart_ascent", 1000, 3))


RECIPES = {"bridge300": bridge300, "lemmas150": lemmas150, "suites530": suites530,
           "wide120": lambda: _benchmark_tasks("wide"),
           "small190": lambda: _benchmark_tasks("small"),
           "bridge150": lambda: _benchmark_tasks("bridge"), "ascents": ascents}


def main(argv):
    names = argv or list(RECIPES)
    unknown = [name for name in names if name not in RECIPES]
    if unknown:
        sys.exit(f"unknown hash: {', '.join(unknown)}; known: {', '.join(RECIPES)}")
    for name in names:
        digest = hashlib.sha256("".join(RECIPES[name]()).encode()).hexdigest()
        print(name, digest, flush=True)


if __name__ == "__main__":
    main(sys.argv[1:])
