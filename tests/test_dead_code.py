"""Every function and class of the engine is referenced by engine code,
and the engine imports nothing outside the standard library.

A name counts as referenced when some module of src/ydweyl reads it, as a
bare name or as an attribute.  Dunder methods are called by the interpreter
and are skipped.  The one exception is iso_test, which perfbench/tracer.py
wraps by name and no engine code calls (ROADMAP item 4).

The README promises no runtime dependencies: every import of src/ydweyl
names a standard-library module or ydweyl itself.
"""

import ast
import os
import sys

ENGINE = os.path.join(os.path.dirname(__file__), os.pardir, "src", "ydweyl")
UNREFERENCED_BY_DESIGN = {"iso_test"}


def _engine_trees():
    for name in sorted(os.listdir(ENGINE)):
        if name.endswith(".py"):
            with open(os.path.join(ENGINE, name)) as fh:
                yield name, ast.parse(fh.read(), filename=name)


def test_every_engine_definition_is_referenced():
    defined, used = {}, set()
    for module, tree in _engine_trees():
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                defined.setdefault(node.name, f"{module}:{node.lineno}")
            elif isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    unused = sorted(f"{where} {name}" for name, where in defined.items()
                    if name not in used and name not in UNREFERENCED_BY_DESIGN
                    and not (name.startswith("__") and name.endswith("__")))
    assert not unused, unused


def test_engine_imports_only_the_standard_library():
    foreign = []
    for module, tree in _engine_trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                if top != "ydweyl" and top not in sys.stdlib_module_names:
                    foreign.append(f"{module}:{node.lineno} {name}")
    assert not foreign, foreign
