"""One-off scaling report: layer time against window length.

    python3 perfbench/scaling.py [--repeats 3]

Not a gated workload.  It times, on seeded tabulated-kernel instances
(the conftest construction K(i, n) = sum of u_j, i <= j <= n):
Kernel.regularity_constant, characterize (K_VIII, p = 2, q = 1.5) and one
functional_lhs(GOP_DUAL) at L in {25, 50, 100, 200};
best_constant(GOP_DUAL, multistart_ascent, 2000) at L in {10, 40}; and
bridge_check(GOP_DUAL, budget 2000) at L in {5, 20}.  Each figure is the
median over --repeats runs of the CPU time of one call on a freshly
parsed instance, printed next to the single-run baseline recorded in
ROADMAP.md.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

from kernelineq import (TestSequence, best_constant, bridge_check,  # noqa: E402
                        characterize, functional_lhs)
from kernelineq.cli import parse_instance  # noqa: E402

from instances import W_CHOICES, POSITIVE_CHOICES, tabulated_rows  # noqa: E402
from tracing import clock  # noqa: E402

# Single runs from ROADMAP.md's baseline table, in seconds.
BASELINE = {
    ("regularity_constant", 25): 0.004, ("regularity_constant", 50): 0.030,
    ("regularity_constant", 100): 0.23, ("regularity_constant", 200): 1.96,
    ("characterize K_VIII", 25): 0.019, ("characterize K_VIII", 50): 0.11,
    ("characterize K_VIII", 100): 0.72, ("characterize K_VIII", 200): 5.2,
    ("functional_lhs GOP_DUAL", 25): 0.00037, ("functional_lhs GOP_DUAL", 50): 0.0011,
    ("functional_lhs GOP_DUAL", 100): 0.0034, ("functional_lhs GOP_DUAL", 200): 0.0148,
    ("best_constant multistart 2000", 10): 0.23, ("best_constant multistart 2000", 40): 1.47,
    ("bridge_check GOP_DUAL 2000", 5): 0.26, ("bridge_check GOP_DUAL 2000", 20): 1.44,
}


def document(L: int, seed: int = 0) -> str:
    rng = random.Random(f"scaling:{L}:{seed}")
    return json.dumps({
        "window": {"start": 0, "length": L}, "p": 2.0, "q": 1.5,
        "v": [rng.choice(POSITIVE_CHOICES) for _ in range(L)],
        "w": [rng.choice(W_CHOICES) for _ in range(L)],
        "kernel": {"type": "tabulated", "entries": tabulated_rows(rng, L)},
    })


def timed(fn, L: int, repeats: int) -> float:
    """Median CPU seconds of fn(instance) over fresh instances."""
    times = []
    for _ in range(repeats):
        inst = parse_instance(document(L))
        start = clock()
        fn(inst)
        times.append(clock() - start)
    return statistics.median(times)


CASES = (
    ("regularity_constant", (25, 50, 100, 200),
     lambda inst: inst.kernel.regularity_constant()),
    ("characterize K_VIII", (25, 50, 100, 200), characterize),
    ("functional_lhs GOP_DUAL", (25, 50, 100, 200),
     lambda inst: functional_lhs("GOP_DUAL", inst,
                                 TestSequence(0, (1.0,) * inst.length))),
    ("best_constant multistart 2000", (10, 40),
     lambda inst: best_constant("GOP_DUAL", inst, "multistart_ascent", 2000, 0)),
    ("bridge_check GOP_DUAL 2000", (5, 20),
     lambda inst: bridge_check(inst, "GOP_DUAL", 2000, 0)),
)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--repeats", type=int, default=3)
    args = ap.parse_args(argv)
    print("| layer / path | L | median CPU s | ROADMAP baseline s | ratio |")
    print("| --- | --- | --- | --- | --- |")
    for name, lengths, fn in CASES:
        for L in lengths:
            t = timed(fn, L, args.repeats)
            base = BASELINE[(name, L)]
            print(f"| {name} | {L} | {t:.4g} | {base:.4g} | {t / base:.2f} |",
                  flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
