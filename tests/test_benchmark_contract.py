"""The benchmark's smoke run (perfbench/smoke.py) expects each workload to
reach, or not to reach, certain tplab functions, found by their
``module.function`` names.  Deleting or renaming one breaks only that run,
which takes over a minute, so the names are checked here against the
package.  The benchmark's worker unpacks ``run_experiment``'s return and
checks every repetition with its gate; a change that breaks either fails
every benchmark run, so each workload goes through that call path here, at
tiny size."""

import ast
import importlib
import inspect
import json
import sys
from pathlib import Path

import pytest

from conftest import load_perfbench

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


WORKLOADS = load_perfbench("workloads").WORKLOADS


@pytest.fixture(scope="module")
def worker():
    """perfbench/worker.py, with the gate, tracing and workloads modules it
    imports by name, all executed from their text."""
    saved = {name: sys.modules.get(name) for name in ("gate", "tracing", "workloads")}
    try:
        for name in saved:
            sys.modules[name] = load_perfbench(name)
        yield load_perfbench("worker")
    finally:
        for name, module in saved.items():
            if module is None:
                sys.modules.pop(name, None)
            else:
                sys.modules[name] = module


@pytest.mark.parametrize("workload", WORKLOADS)
def test_worker_run_once_passes_the_gate(worker, workload, tmp_path):
    # the benchmark's own call path at tiny size and the reference seed:
    # run_experiment's return, both writers and the gate against the stored
    # references, as worker.py runs them
    from tplab import cli, reports

    gate, seed = worker.gate, worker.gate.REFERENCE_SEED
    cfg = json.loads(json.dumps(worker.workloads.build_config(workload, seed, "tiny")))
    _, rows, counts, csv_text, json_text = worker.run_once(cli, reports, cfg, tmp_path)
    exit_code = 1 if counts["FAIL"] else 0
    assert gate.check(rows, gate.load_reference(workload, "tiny"), seed, exit_code,
                      json_text) == []
    assert (tmp_path / "report.csv").read_text() == csv_text
    assert (tmp_path / "report.json").read_text() == json_text
    assert sorted(p.name for p in tmp_path.iterdir()) == ["report.csv", "report.json"]
