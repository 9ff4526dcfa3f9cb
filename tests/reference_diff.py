"""Print which pinned entries of the reference files the code under test moves.

For each `tests/data/<name>_reference.json`, rebuild the file with the
`record` of its reference test, `tests/test_<name>_reference.py` (the
forms file's `record` takes a temporary directory), and compare the two
entry by entry.  An entry is one element of a top-level list, named like
`lhs[0]`, or a top-level value that is not a list, named by its key.
Print each entry that differs, their count, and the largest relative
shift of a float among them.  A reference test may define `TOLERANCE`,
the relative bound its float assertions pass to `conftest.close`; a
moved entry whose floats are all within it by that rule, and that differs
in nothing else, is marked inside the test's tolerance.  Without
`TOLERANCE` every entry is compared exactly.  Nothing is written.

    PYTHONPATH=src python tests/reference_diff.py
"""

import glob
import importlib
import inspect
import json
import math
import os
import sys
import tempfile

from conftest import close

HERE = os.path.dirname(os.path.abspath(__file__))


def _entries(data) -> dict:
    """The entries of a reference structure by name, in order."""
    if isinstance(data, list):
        return {f"[{i}]": x for i, x in enumerate(data)}
    out = {}
    for key, value in data.items():
        if isinstance(value, list):
            out.update((f"{key}[{i}]", x) for i, x in enumerate(value))
        else:
            out[key] = value
    return out


def _same(a, b, shifts: list, tolerance: float = 0.0) -> bool:
    """Whether a and b are equal, two floats to within the tolerance
    (`conftest.close`), adding to shifts the relative shift of each pair
    of floats that differ (inf where one is not finite)."""
    if isinstance(a, float) and isinstance(b, float):
        if a == b or (math.isnan(a) and math.isnan(b)):
            return True
        finite = math.isfinite(a) and math.isfinite(b)
        shifts.append(abs(a - b) / max(abs(a), abs(b)) if finite else math.inf)
        return close(a, b, tolerance)
    if isinstance(a, dict) and isinstance(b, dict):
        same = [_same(a[k], b[k], shifts, tolerance) for k in a if k in b]
        return a.keys() == b.keys() and all(same)
    if isinstance(a, list) and isinstance(b, list):
        same = [_same(x, y, shifts, tolerance) for x, y in zip(a, b)]
        return len(a) == len(b) and all(same)
    return type(a) is type(b) and a == b


def moved(recorded, rebuilt):
    """The names of the entries that differ between two reference
    structures (an entry of one alone included), in order, and the largest
    relative shift of a float among them (0.0 where none moved)."""
    old, new = _entries(recorded), _entries(rebuilt)
    names, shifts = [], [0.0]
    for name, value in old.items():
        if name not in new or not _same(value, new[name], shifts):
            names.append(name)
    names += [name for name in new if name not in old]
    return names, max(shifts)


def inside(recorded, rebuilt, tolerance: float) -> list:
    """The moved entries, in order, whose floats are all within the
    tolerance (`conftest.close`) and that differ in nothing else."""
    old, new = _entries(recorded), _entries(rebuilt)
    return [name for name in moved(recorded, rebuilt)[0]
            if name in old and name in new and _same(old[name], new[name], [], tolerance)]


def main() -> None:
    sys.path.insert(0, HERE)
    for path in sorted(glob.glob(os.path.join(HERE, "data", "*_reference.json"))):
        name = os.path.basename(path)[:-len("_reference.json")]
        module = importlib.import_module(f"test_{name}_reference")
        with tempfile.TemporaryDirectory() as tmp:
            args = [tmp] if inspect.signature(module.record).parameters else []
            rebuilt = json.loads(json.dumps(module.record(*args)))
        with open(path) as fh:
            recorded = json.load(fh)
        names, shift = moved(recorded, rebuilt)
        tolerance = getattr(module, "TOLERANCE", None)
        within = [] if tolerance is None else inside(recorded, rebuilt, tolerance)
        tail = f", largest relative float shift {shift:.2g}" if names else ""
        print(f"{os.path.basename(path)}: {len(names)} moved entries{tail}")
        for entry in names:
            note = f" (inside the test's {tolerance:g})" if entry in within else ""
            print(f"  {entry}{note}")


if __name__ == "__main__":
    main()
