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


def _traced(tmp_path, *argv):
    """Stdout and per-layer values of one traced run on the z2cubed session."""
    result = tmp_path / "result.json"
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"),
               PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "child.py"), "trace",
         str(result), os.path.join(ROOT, "sessions", "z2cubed.json"), *argv],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    layers = {k: v[0] for k, v in json.loads(result.read_text())["layers"].items()}
    return proc.stdout, layers


def _golden(name):
    with open(os.path.join(ROOT, "tests", "golden", name)) as fh:
        return fh.read()


def test_traced_graph_run(tmp_path):
    stdout, layers = _traced(tmp_path, "graph", "W12")
    assert stdout == _golden("graph_W12.txt")
    assert layers["weylgraph.vertices"] == 6
    assert layers["reflect.ad_power_module.calls"] > 0
    assert layers["ydcat.module_canonical_key.calls"] > 0
    # Graph closure is key lookups: no intertwiner search.
    assert layers["ydcat.iso_test.calls"] == 0
    # One dual per module class of the graph.
    assert layers["ydcat.dual.calls"] == 3


def test_traced_roots_run(tmp_path):
    stdout, layers = _traced(tmp_path, "roots", "W12")
    assert stdout == _golden("roots_W12.txt")
    # One closure serves every vertex and the finiteness line.
    assert layers["weylgraph.real_roots.calls"] == 1


def test_traced_nichols_run(tmp_path):
    stdout, layers = _traced(tmp_path, "nichols", "W1", "--max-degree", "3")
    assert stdout == _golden("nichols_W1_3.txt")
    # The tracer's input hook reads rref's dense list rows.
    assert layers["cyclo.rref.calls"] > 0
    assert layers["cyclo.rref.cells"] > 0
    # The tracer reads len(blk.words), the block's word count, which the
    # engine keeps for it alone: W1 at degree 3 has 2^3 words.
    assert layers["nichols.block.words_max"] == 8
