"""The benchmark's smoke run (perfbench/smoke.py) expects each workload to
reach, or not to reach, certain tplab functions, found by their
``module.function`` names.  Deleting or renaming one breaks only that run,
which takes over a minute, so the names are checked here against the
package."""

import ast
import importlib
import inspect
from pathlib import Path

SMOKE = Path(__file__).resolve().parent.parent / "perfbench" / "smoke.py"


def smoke_table(name: str) -> dict:
    """The literal dict assigned to ``name`` in smoke.py, read without
    importing it."""
    for node in ast.parse(SMOKE.read_text()).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == name for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{SMOKE} assigns no {name}")


def test_reached_functions_are_public_functions_of_tplab():
    # NOT_REACHED too: a renamed function would leave its "must not reach"
    # check passing without checking anything
    for table in ("REACHED", "NOT_REACHED"):
        names = sorted({n for names in smoke_table(table).values() for n in names})
        assert names, table
        for name in names:
            module, function = name.split(".")
            obj = getattr(importlib.import_module(f"tplab.{module}"), function, None)
            # the tracer keys each public function by its defining module and
            # its own name
            assert inspect.isfunction(obj) and not function.startswith("_"), name
            assert f"{obj.__module__}.{obj.__name__}" == f"tplab.{name}", name
