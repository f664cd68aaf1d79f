"""The benchmark's per-layer tracer still fits the program.

`perfbench/tracer.py` wraps layer entry points by name from outside the
program.  This runs one traced benchmark repetition (`perfbench/child.py
trace`) in a fresh process, so renaming a wrapped function fails here
instead of only when someone runs `perfbench/run.py --trace 1`.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")


def test_traced_graph_run(tmp_path):
    result = tmp_path / "result.json"
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"),
               PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "child.py"), "trace",
         str(result), os.path.join(ROOT, "sessions", "z2cubed.json"),
         "graph", "W12"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    with open(os.path.join(ROOT, "tests", "golden", "graph_W12.txt")) as fh:
        assert proc.stdout == fh.read()
    layers = {k: v[0] for k, v in json.loads(result.read_text())["layers"].items()}
    assert layers["weylgraph.vertices"] == 6
    assert layers["reflect.ad_power_module.calls"] > 0
    assert layers["ydcat.module_canonical_key.calls"] > 0
    # Graph closure is key lookups: no intertwiner search.
    assert layers["ydcat.iso_test.calls"] == 0
