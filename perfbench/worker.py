"""Runs one workload in a fresh interpreter; started by run.py.

The interpreter's clock starts before `import tplab`, so the set-up time
covers the import and building the config, which every `tplab run` pays.
Then the experiment repeats, at least once and then while the next
repetition should end within `--seconds`, each time through the path of
`tplab run`: `run_experiment`, then `rows_to_csv` and `rows_to_json`
writing report.csv and report.json.  With `--trace 1` the
repetitions alternate between untraced and traced, so the tracing overhead
is measured in the same process.  The last line of standard output is one
JSON object for run.py.

The speed of a shared machine drifts by tens of percent over seconds and
minutes, for all code alike.  A fixed probe that does not use tplab runs
before the first repetition and after each one (and after the set-up), and
its mean time per unit, over PROBE_UNIT_S, is the machine's slowdown at
the time of the run; run.py divides the measured times by it.
"""

import time

START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import gate  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

# Time of one probe unit in the fast spells of a shared 2-core x86-64 virtual
# machine; its slow spells read 1.7 ms.
PROBE_UNIT_S = 0.0011
# Probe for this share of each repetition's time, and at least PROBE_MIN_S.
PROBE_SHARE = 0.2
PROBE_MIN_S = 0.3


class SpeedProbe:
    """Fixed single-threaded work (einsum, sort, a Python loop) that shares
    no code with tplab, timed to measure the machine's current speed."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self.x = rng.standard_normal((1024, 6))
        self.c = rng.standard_normal((6, 6, 3, 3))
        self.v = rng.standard_normal(20000)
        self.units = 0
        self.seconds = 0.0
        self._unit()

    def _unit(self):
        np.einsum("mi,mj,ijkl->mkl", self.x, self.x, self.c)
        np.sort(np.exp(np.abs(self.v)))
        total = 0
        for i in range(3000):
            total += i * i

    def measure(self, seconds: float):
        start = time.perf_counter()
        while True:
            self._unit()
            self.units += 1
            elapsed = time.perf_counter() - start
            if elapsed >= seconds:
                break
        self.seconds += elapsed

    def slowdown(self) -> float:
        return self.seconds / self.units / PROBE_UNIT_S


def environment(cfg: dict) -> dict:
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    requested = int(cfg.get("samples", {}).get("workers", 1))
    cap = os.environ.get("TPL_THREADS")
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "TPL_THREADS": cap,
        "mc_workers_config": requested,
        "mc_workers_effective": min(requested, int(cap)) if cap else requested,
    }


def run_once(cli, reports, cfg: dict, out_dir: Path):
    """One experiment, from the loaded config to both report files."""
    start = time.perf_counter()
    rows, energy, counts = cli.run_experiment(cfg)
    csv_text = reports.rows_to_csv(rows)
    (out_dir / "report.csv").write_text(csv_text)
    json_text = reports.rows_to_json(rows, energy)
    (out_dir / "report.json").write_text(json_text)
    return time.perf_counter() - start, rows, counts, csv_text, json_text


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", default="full", choices=["full", "tiny"])
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, default=0, choices=[0, 1])
    parser.add_argument("--tmp", required=True, help="scratch directory for config and reports")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args(argv)

    from tplab import cli, reports

    tmp = Path(args.tmp)
    cfg_path = tmp / f"config-{os.getpid()}.json"
    cfg_path.write_text(json.dumps(workloads.build_config(args.workload, args.seed, args.size)))
    cfg = cli.load_config(str(cfg_path))
    setup_s = time.perf_counter() - START
    probe = SpeedProbe()
    probe.measure(PROBE_MIN_S)
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "slowdown": probe.slowdown()}))
        return 0

    out_dir = tmp / "out"
    out_dir.mkdir(exist_ok=True)
    reference = None if args.write_reference else gate.load_reference(args.workload, args.size)
    tracer = tracing.Tracer() if args.trace else None
    times = {False: [], True: []}
    attempted = failed = 0
    errors = []
    first_csv = None
    n_rows = 0
    loop_start = time.perf_counter()
    while True:
        cycle_start = time.perf_counter()
        traced = tracer is not None and attempted % 2 == 1
        undo = tracer.install() if traced else None
        attempted += 1
        try:
            elapsed, rows, counts, csv_text, json_text = run_once(cli, reports, cfg, out_dir)
        except Exception:  # a raising experiment is a failed run, not a crash of the benchmark
            traceback.print_exc()
            failed += 1
            errors.append(traceback.format_exc(limit=1).strip().splitlines()[-1])
            break
        finally:
            if undo is not None:
                tracer.uninstall(undo)
        exit_code = 1 if counts["FAIL"] else 0
        if args.write_reference:
            ref = gate.make_reference(args.workload, args.size, args.seed, rows)
            path = gate.reference_path(args.workload, args.size)
            path.write_text(gate.dump_reference(ref))
            print(f"wrote {path} ({len(rows)} rows, exit code {exit_code})", file=sys.stderr)
            return exit_code
        rep_errors = gate.check(rows, reference, args.seed, exit_code, json_text)
        if first_csv is None:
            first_csv = csv_text
        elif csv_text != first_csv:
            rep_errors.append("report.csv differs from the first repetition")
        if rep_errors:
            failed += 1
            errors.extend(rep_errors)
            break
        times[traced].append(elapsed)
        n_rows = len(rows)
        probe.measure(max(PROBE_MIN_S, PROBE_SHARE * elapsed))
        # Start another repetition only if it should end within --seconds.
        now = time.perf_counter()
        done = (now - loop_start) + (now - cycle_start) > args.seconds
        if done and (tracer is None or times[True]):
            break

    payload = {
        "setup_s": setup_s,
        "slowdown": probe.slowdown(),
        "run_s": times[False],
        "traced_run_s": times[True],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": attempted,
        "failed": failed,
        "errors": errors[: gate.MAX_ERRORS],
        "rows": n_rows,
        "environment": environment(cfg),
    }
    if tracer is not None and times[True]:
        payload["layers"] = tracer.per_run(len(times[True]))
    print(json.dumps(payload))
    return 0


if __name__ == "__main__":
    sys.exit(main())
