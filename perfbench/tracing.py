"""Timing of layer calls made from the benchmark, with optional spans.

Every call the benchmark makes into a public function of the package
goes through Recorder.call, which times it and adds it to per-name
aggregates.  With tracing on, it also keeps a span (name, start, end,
parent span, task id) in memory; spans are written out once, at the end
of the run.  A span's self time is its duration minus the part of it
that its child spans cover.

Times are CPU time of the whole process (time.process_time), so CPU
that BLAS or OpenMP worker threads spend on a call counts towards it.
The benchmark is one client thread doing CPU-bound work, so this is the
time the call takes on cores of its own.  On a shared host CPU time
still drifts with what else runs there: the same task cost 101 ms in
one 15-second stretch and 209 ms in another.  calibration() times a
fixed pure-Python loop that shares no code with the package.  The
benchmark runs it between tasks and scales each task's times by
CALIBRATION_REF_S over the loop time measured around that task.  In the
same measurement the task/loop ratio stayed within 27 +- 0.5 % while
the raw task time doubled.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

MODULES = ("cli", "kernels", "constants", "oracle", "discretize", "bridge")
clock = time.process_time
# Loop time that scaled times are expressed against.  It only fixes the
# unit; the loop took 10-17 ms on the 2-core host the references were
# recorded on.
CALIBRATION_REF_S = 0.012


def calibration() -> float:
    """CPU seconds of a fixed loop of float arithmetic, calls and appends."""
    start = clock()
    acc, xs = 0.0, []
    for i in range(40000):
        x = (i % 97) * 0.5 + 1.0
        acc += x ** 0.5 if i % 3 else max(acc * 1e-9, x)
        if i % 5 == 0:
            xs.append(acc)
    sum(xs)
    return clock() - start


class Recorder:
    """Times layer calls; keeps spans only when ``traced`` is set."""

    def __init__(self, traced: bool):
        self.traced = traced
        self.spans: List[tuple] = []   # (id, name, start, end, parent, task)
        # name -> [(task id, CPU seconds)]
        self.durations: Dict[str, List[Tuple[Optional[int], float]]] = defaultdict(list)
        self.errors: Dict[str, int] = defaultdict(int)
        self.modules: Dict[str, str] = {}    # name -> module of the called function
        self.task_id: Optional[int] = None
        self._stack: List[int] = []

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn(*args, **kwargs) as the layer call ``name``."""
        span_id = len(self.spans)
        self.modules.setdefault(name, fn.__module__.rsplit(".", 1)[-1])
        if self.traced:
            parent = self._stack[-1] if self._stack else None
            self.spans.append(None)
            self._stack.append(span_id)
        start = clock()
        try:
            return fn(*args, **kwargs)
        except Exception:
            self.errors[name] += 1
            raise
        finally:
            end = clock()
            self.durations[name].append((self.task_id, end - start))
            if self.traced:
                self._stack.pop()
                self.spans[span_id] = (span_id, name, start, end, parent,
                                       self.task_id)

    def self_times(self, scale: Callable[[Optional[int]], float] = lambda t: 1.0
                   ) -> Dict[str, float]:
        """Scaled self time per span name, summed over the recorded spans."""
        child_cover: Dict[int, float] = defaultdict(float)
        for _sid, _name, start, end, parent, _task in self.spans:
            if parent is not None:
                child_cover[parent] += end - start
        out: Dict[str, float] = defaultdict(float)
        for sid, name, start, end, _parent, task in self.spans:
            out[name] += ((end - start) - child_cover[sid]) * scale(task)
        return out

    def module_stats(self, scale: Callable[[Optional[int]], float] = lambda t: 1.0
                     ) -> Dict[str, Dict[str, float]]:
        """calls, errors and busy (self) seconds per package module, by
        the module that defines the called function."""
        stats = {m: {"calls": 0, "errors": 0, "busy_s": 0.0} for m in MODULES}
        for field, values in (("calls", {n: len(d) for n, d in self.durations.items()}),
                              ("errors", self.errors),
                              ("busy_s", self.self_times(scale))):
            for name, value in values.items():
                module = self.modules[name]
                if module in stats:
                    stats[module][field] += value
        return stats

    def write_spans(self, path: str) -> None:
        """Write the spans as JSON lines, times relative to the first span."""
        t0 = self.spans[0][2] if self.spans else 0.0
        with open(path, "w") as fh:
            for sid, name, start, end, parent, task in self.spans:
                fh.write(json.dumps({"id": sid, "name": name,
                                     "start_us": round((start - t0) * 1e6, 3),
                                     "end_us": round((end - t0) * 1e6, 3),
                                     "parent": parent, "task": task}) + "\n")
