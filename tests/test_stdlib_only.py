"""The library runs on the Python standard library alone."""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Run with -S (no site-packages): every command must still work, and
# afterwards every loaded top-level module must be a standard one.
SCRIPT = """
import contextlib, io, json, sys
sys.path.insert(0, sys.argv[1])
from kernelineq.cli import run_command
statuses = []
for ex in ("ex1", "ex2", "ex3"):
    path = f"{sys.argv[2]}/{ex}.json"
    for argv in (["characterize", path], ["oracle", path, "--form", "GOP_DUAL"],
                 ["bridge", path], ["verify", path, "--suite", "discretize"]):
        with contextlib.redirect_stdout(io.StringIO()):
            statuses.append(run_command(argv))
top = {name.partition(".")[0] for name in sys.modules}
print(json.dumps({"statuses": statuses, "modules": sorted(
    top - set(sys.stdlib_module_names) - {"kernelineq", "__main__"})}))
"""


def test_commands_load_only_standard_modules():
    proc = subprocess.run(
        [sys.executable, "-S", "-c", SCRIPT, os.path.join(ROOT, "src"),
         os.path.join(ROOT, "tests", "data")],
        capture_output=True, text=True, timeout=300, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out == {"statuses": [0] * 12, "modules": []}
