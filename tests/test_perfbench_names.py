"""Every name the benchmark imports from the package still exists.

The benchmark under `perfbench/` calls the package's public functions
and reads some of its result fields.  Importing its pipeline and its
scaling report, in a fresh interpreter, fails as soon as a name they
import from `kernelineq` is removed or renamed.  Neither import runs a
workload or writes a file.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_benchmark_imports_resolve():
    script = ("import sys; sys.path[:0] = sys.argv[1:]; "
              "import pipelines, scaling; print('ok')")
    proc = subprocess.run(
        [sys.executable, "-c", script, os.path.join(ROOT, "src"),
         os.path.join(ROOT, "perfbench")],
        capture_output=True, text=True, timeout=120, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "ok\n"
