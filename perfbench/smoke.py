"""Smoke test of the benchmark itself; takes about a minute.

    python3 perfbench/smoke.py

Runs every workload at its tiny size through run.py, the same code and
correctness gate as a full run: at the reference seed (exact gate), at
another seed (structural gate) and traced.  Checks that each result carries
exactly the metrics BENCHMARK.json names, with their units; that the gate
rejects altered rows; and that run.py refuses to run, printing no result,
where the tplab sources are missing.  Exits non-zero on the first problem.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import gate
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# Layer functions each workload must reach, and ones it must not.
REACHED = {
    "chain-large": ["energy.carre_table", "poincare.poincare_constant",
                    "poincare.equivalence_probe", "bounds.check_exp_moment",
                    "models.product_chain"],
    "chain-many-fields": ["energy.bivariate_symmetrized", "bounds.check_subadditivity",
                          "bounds.check_intdim_variant", "bounds.check_bivariate_poincare"],
    "series-mc": ["montecarlo.estimate_tail", "montecarlo.estimate_trace_moment"],
    "chaos-mc": ["bounds.check_chaos_matrix", "energy.chaos_gamma_batch",
                 "montecarlo.draw_standard_normal"],
}
NOT_REACHED = {
    "chain-large": ["montecarlo.estimate_statistic", "energy.bivariate_symmetrized",
                    "bounds.check_chain_rule"],
    "chain-many-fields": ["montecarlo.estimate_statistic"],
    "series-mc": ["energy.carre_table", "poincare.poincare_constant"],
    "chaos-mc": ["energy.carre_table", "montecarlo.estimate_tail"],
}


def run(args: list[str], cwd: Path = ROOT) -> tuple[int, list[str]]:
    proc = subprocess.run([sys.executable, "perfbench/run.py"] + args, cwd=cwd,
                          stdout=subprocess.PIPE, text=True, timeout=180)
    return proc.returncode, proc.stdout.strip().splitlines()


def expect(condition: bool, message: str):
    if not condition:
        raise SystemExit(f"smoke: {message}")


def check_result(workload: str, args: list[str], declared: list[dict]) -> dict:
    code, lines = run(["--workload", workload, "--size", "tiny", "--seconds", "0"] + args)
    expect(code == 0 and lines, f"{workload} {args}: exit code {code}")
    result = json.loads(lines[-1])
    expect(sorted(result) == ["attempted", "correct", "failed", "metrics"],
           f"{workload}: result keys {sorted(result)}")
    expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
           f"{workload} {args}: gate failed: {lines[-2] if len(lines) > 1 else ''}")
    units = {m["name"]: m["unit"] for m in declared}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    expect(got == units, f"{workload} {args}: metrics differ from BENCHMARK.json: "
                         f"{sorted(set(got) ^ set(units))}")
    return result["metrics"]


def check_gate_rejects():
    ref = gate.load_reference("chain-many-fields", "tiny")
    rows = []
    for r in ref["rows"]:
        ctx = {k: v for k, v in zip(gate.KEY_CONTEXT, r["key"][3:]) if v is not None}
        rows.append({"citation": r["key"][0], "suite": r["key"][1], "fixture": r["key"][2],
                     "lhs": r["lhs"], "rhs": r["rhs"], "verdict": r["verdict"], "context": ctx})
    seed = ref["seed"]
    text = json.dumps({"rows": rows})
    expect(gate.check(rows, ref, seed, 0, text) == [], "gate rejects the reference itself")

    def rejected(mutate, at_seed=seed, exit_code=0):
        bad = copy.deepcopy(rows)
        mutate(bad)
        return bool(gate.check(bad, ref, at_seed, exit_code, json.dumps({"rows": bad})))

    expect(rejected(lambda b: b[5].update(lhs=b[5]["lhs"] * (1 + 1e-7) + 1e-300)),
           "lhs off by 1e-7 passes")
    expect(rejected(lambda b: b[7].update(verdict="SKIPPED")), "changed verdict passes")
    expect(rejected(lambda b: b.pop()), "missing row passes")
    expect(rejected(lambda b: b[0]["context"].update(alpha=1.01), at_seed=seed + 1),
           "wrong alpha passes")
    expect(rejected(lambda b: b[3].update(verdict="FAIL"), at_seed=seed + 1),
           "FAIL verdict passes at another seed")
    expect(rejected(lambda b: None, exit_code=1), "exit code 1 passes")


def check_refuses_without_sources():
    bare = ROOT / ".perfbench_tmp" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        code, lines = run(["--workload", "series-mc", "--seed", "1", "--seconds", "1"], cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    expect(code != 0 and not lines, f"runs without tplab sources (exit code {code})")


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    expect([w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS),
           "BENCHMARK.json workloads differ from workloads.py")
    check_gate_rejects()
    check_refuses_without_sources()
    for workload in workloads.WORKLOADS:
        seed = str(gate.REFERENCE_SEED)
        check_result(workload, ["--seed", seed, "--trace", "0"], bench["end_to_end"])
        check_result(workload, ["--seed", str(gate.REFERENCE_SEED + 1), "--trace", "0"],
                     bench["end_to_end"])
        layers = check_result(workload, ["--seed", seed, "--trace", "1"], bench["per_layer"])
        for name in REACHED[workload]:
            expect(layers[f"{name}.calls"]["value"] > 0, f"{workload}: {name} not called")
        for name in NOT_REACHED[workload]:
            expect(layers[f"{name}.calls"]["value"] == 0, f"{workload}: {name} called")
        print(f"smoke: {workload} ok", file=sys.stderr)
    print("smoke: ok", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
