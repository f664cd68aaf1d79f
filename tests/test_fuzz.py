"""Seeded mutation fuzz of the shipped sessions through `validate`.

Each case mutates one shipped session once: it replaces a leaf by a value
of another type, deletes a key, or adds an unknown key.  Whatever the
mutation, `validate` must end in a documented exit code, never in an
exception.  Replacement integers are -1, 0 and 1, so no mutated group has a
larger order than the shipped one (at most 16).
"""

import copy
import json
import os
import random

from ydweyl.cli import main

SESSIONS = os.path.join(os.path.dirname(__file__), "..", "sessions")
# Cases per session.  A mutated z2z2z4 session that still parses pays the
# order-16 pentagon check (about 1 s), so it gets fewer cases.
CASES = {"z3twisted.json": 130, "z2cubed.json": 60, "z2z2z4.json": 12}
REPLACEMENTS = [-1, 0, 1, 2.5, True, False, None, "x", "zeta(3)", "",
                [], [1], {}, {"a": 1}]
DOCUMENTED_CODES = {0, 2, 3, 4, 5}


def _positions(node, path=()):
    """(path, value) for every node of a JSON tree, root included."""
    yield path, node
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _positions(value, path + (key,))
    elif isinstance(node, list):
        for key, value in enumerate(node):
            yield from _positions(value, path + (key,))


def _mutate(data, rng):
    """A mutated deep copy of data and a description of the mutation."""
    data = copy.deepcopy(data)
    positions = list(_positions(data))
    kind = rng.choice(("replace", "delete", "add"))
    if kind == "replace":
        path, value = rng.choice([(path, node) for path, node in positions
                                  if path and not isinstance(node, (dict, list))])
        new = rng.choice([x for x in REPLACEMENTS if type(x) is not type(value)])
        parent = data
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = new
        return data, f"replace {path} by {new!r}"
    path, node = rng.choice([(path, node) for path, node in positions
                             if isinstance(node, dict)
                             and (node or kind == "add")])
    if kind == "delete":
        key = rng.choice(sorted(node))
        del node[key]
        return data, f"delete {path + (key,)}"
    new = rng.choice(REPLACEMENTS)
    node["unknown_key"] = new
    return data, f"add {path + ('unknown_key',)} = {new!r}"


def test_mutated_sessions_exit_with_documented_codes(tmp_path, capsys):
    rng = random.Random(20250501)
    path = tmp_path / "session.json"
    seen = set()
    for name, cases in sorted(CASES.items()):
        with open(os.path.join(SESSIONS, name)) as fh:
            shipped = json.load(fh)
        for _ in range(cases):
            data, what = _mutate(shipped, rng)
            path.write_text(json.dumps(data))
            try:
                code = main(["--session", str(path), "validate"])
            except SystemExit as exc:    # argparse's own exit
                code = exc.code
            except Exception as exc:     # any other escape is the failure
                raise AssertionError(f"{name}: {what}: {exc!r}") from exc
            capsys.readouterr()
            assert code in DOCUMENTED_CODES, (name, what, code)
            seen.add(code)
    # The mutations reach both accepted and rejected sessions.
    assert {0, 2, 3} <= seen
