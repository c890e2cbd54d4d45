"""tplab benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload chain-large --seed 1 --seconds 20 --trace 0

Run from a checkout of the repository; tplab is imported from its `src`
directory, nothing is installed.  The workload runs in its own child
interpreter (worker.py), so its peak RSS and cold start are its own; a few
more fresh interpreters measure only the set-up (`import tplab` and building
the config).  Thread counts are fixed per workload and checked against the
core count before anything runs.

With `--trace 0` the last line of standard output reports the end-to-end
metrics (run_s and setup_s, medians over the run, and peak_rss_mb); with `--trace 1` it reports the
per-layer metrics of a traced run.  Either way it holds `correct`,
`attempted` and `failed`, from the correctness gate in gate.py.  The line
before it records the environment and the raw samples.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import gate
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# Set-up-only interpreters before and after the workload's own; spreading
# them over the run keeps one slow spell of a shared machine from moving
# every set-up sample at once.
SETUP_BEFORE = 1
SETUP_AFTER = 1
TIME_LIMIT_S = 170.0
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")


def thread_plan(workload: str, nproc: int) -> dict:
    """Monte Carlo workers and BLAS threads, within `nproc` threads in total."""
    want = workloads.THREADS[workload]
    blas = min(want["blas"], nproc)
    workers = min(want["mc_workers"], max(1, nproc // blas))
    return {"nproc": nproc, "blas_threads": blas, "mc_workers": workers,
            "thread_budget": blas * workers}


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def run_child(args: list[str], env: dict, deadline: float):
    """Run worker.py to completion; returns (payload or None, exit code)."""
    try:
        proc = subprocess.run([sys.executable, str(HERE / "worker.py")] + args, env=env,
                              stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        print(f"worker {args} timed out", file=sys.stderr)
        return None, -1
    lines = proc.stdout.strip().splitlines()
    try:
        payload = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        payload = None
    return payload, proc.returncode


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, default=0, choices=[0, 1])
    parser.add_argument("--size", default="full", choices=["full", "tiny"],
                        help="tiny shrinks the workload for the smoke test")
    parser.add_argument("--write-reference", action="store_true",
                        help="store this seed's rows as the gate's reference")
    args = parser.parse_args(argv)
    deadline = time.monotonic() + TIME_LIMIT_S

    src = ROOT / "src"
    if not (src / "tplab" / "__init__.py").is_file():
        print(f"tplab sources not found under {src}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    plan = thread_plan(args.workload, len(os.sched_getaffinity(0)))
    if plan["thread_budget"] > plan["nproc"]:
        print(f"thread budget {plan} exceeds the core count", file=sys.stderr)
        return 2

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    env["TPL_THREADS"] = str(plan["mc_workers"])
    for var in BLAS_VARS:
        env[var] = str(plan["blas_threads"])

    tmp = ROOT / ".perfbench_tmp" / f"{args.workload}-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    common = ["--workload", args.workload, "--seed", str(args.seed), "--size", args.size,
              "--tmp", str(tmp)]
    try:
        if args.write_reference:
            _, code = run_child(common + ["--write-reference"], env, deadline)
            return code
        setups, errors = [], []  # set-up samples: {"setup_s", "slowdown"}

        def setup_only():
            setup, setup_code = run_child(common + ["--setup-only"], env, deadline)
            if setup_code != 0 or setup is None:
                errors.append(f"set-up interpreter exited with code {setup_code}")
            else:
                setups.append(setup)

        for _ in range(SETUP_BEFORE):
            setup_only()
        payload, code = run_child(
            common + ["--seconds", str(args.seconds), "--trace", str(args.trace)], env, deadline)
        for _ in range(SETUP_AFTER):
            setup_only()
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp.parent.rmdir()
        except OSError:  # another run still uses it
            pass

    attempted = failed = len(errors)
    if payload is None or code != 0:
        attempted += 1
        failed += 1
        errors.append(f"workload interpreter exited with code {code}")
        payload = {}
    attempted += payload.get("attempted", 0)
    failed += payload.get("failed", 0)
    errors += payload.get("errors", [])
    slowdown = payload.get("slowdown")
    if "setup_s" in payload:
        setups.append({"setup_s": payload["setup_s"], "slowdown": slowdown})

    # Times are divided by the slowdown the speed probe measured in the same
    # interpreter, so they read in seconds of the probe's reference speed.
    metrics = {}
    run_s, traced_s = payload.get("run_s"), payload.get("traced_run_s")
    if args.trace:
        for name, (value, unit) in payload.get("layers", {}).items():
            metrics[name] = {"value": value / slowdown if unit == "s" else value, "unit": unit}
        if run_s and traced_s:
            traced = statistics.median(traced_s) / slowdown
            untraced = statistics.median(run_s) / slowdown
            metrics["trace.run_s"] = {"value": traced, "unit": "s"}
            metrics["trace.overhead_s"] = {"value": traced - untraced, "unit": "s"}
        metrics["error_rate"] = {"value": failed / max(attempted, 1), "unit": "ratio"}
    else:
        if run_s:
            metrics["run_s"] = {"value": statistics.median(run_s) / slowdown, "unit": "s"}
        if setups:
            setup_s = statistics.median(s["setup_s"] / s["slowdown"] for s in setups)
            metrics["setup_s"] = {"value": setup_s, "unit": "s"}
        if "peak_rss_mb" in payload:
            metrics["peak_rss_mb"] = {"value": payload["peak_rss_mb"], "unit": "MB"}

    environment = dict(payload.get("environment", {}), **plan, git_commit=git_commit())
    print(json.dumps({"workload": args.workload, "seed": args.seed, "size": args.size,
                      "reference_seed": gate.REFERENCE_SEED, "rows": payload.get("rows"),
                      "environment": environment, "slowdown": slowdown,
                      "run_s_samples": run_s,
                      "traced_run_s_samples": traced_s, "setup_samples": setups,
                      "errors": errors}))
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": max(attempted, 1), "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
