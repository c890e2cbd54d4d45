"""Correctness gate: compares an experiment's rows with a stored reference.

At the reference seed the gate is exact: the row keys and verdicts must
match the reference and lhs/rhs must agree to REL_TOL.  The last digits of
some values move with the BLAS thread count (a refresh product's alpha is
1.000000000000016 on two OpenBLAS threads and 1.0000000000000062 on one), so
the gate compares values with a tolerance instead of CSV bytes.  At any
other seed the gate is structural: the same row keys and no FAIL verdict,
since a FAIL would be a counterexample to the paper.

At every seed the gate also requires finite lhs/rhs on every PASS row,
alpha = 1 wherever a row records it (every workload's chain is a product of
complete-refresh chains, whose spectral gap is exactly 1, or a Gaussian
model with the Ornstein-Uhlenbeck constant 1), the exit code `tplab run`
would return to be 0, the JSON report to hold every row, and every
repetition in one process to produce the same CSV bytes.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
REFERENCE_SEED = 1
REL_TOL = 1e-9
KEY_CONTEXT = ("field", "phi", "q", "lambda")
MAX_ERRORS = 5


def row_key(row: dict) -> list:
    """Identity of a row that does not depend on the seed."""
    ctx = row["context"]
    return [row["citation"], row["suite"], row["fixture"]] + [ctx.get(k) for k in KEY_CONTEXT]


def reference_path(workload: str, size: str) -> Path:
    return REFERENCE_DIR / f"{workload}-{size}.json"


def make_reference(workload: str, size: str, seed: int, rows: list[dict]) -> dict:
    return {
        "workload": workload,
        "size": size,
        "seed": seed,
        "rows": [{"key": row_key(r), "verdict": r["verdict"], "lhs": r["lhs"], "rhs": r["rhs"]}
                 for r in rows],
    }


def dump_reference(ref: dict) -> str:
    """The reference as JSON text with one row per line."""
    rows = ",\n".join(json.dumps(r) for r in ref["rows"])
    head = json.dumps({k: v for k, v in ref.items() if k != "rows"})[:-1]
    return f'{head}, "rows": [\n{rows}\n]}}\n'


def load_reference(workload: str, size: str) -> dict:
    return json.loads(reference_path(workload, size).read_text())


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=REL_TOL)


def check(rows: list[dict], reference: dict, seed: int, exit_code: int,
          json_text: str) -> list[str]:
    """Every way the rows fail the gate; an empty list means they pass."""
    errors = []
    if exit_code != 0:
        errors.append(f"exit code {exit_code}")
    ref_rows = reference["rows"]
    keys = [row_key(r) for r in rows]
    if keys != [r["key"] for r in ref_rows]:
        errors.append(f"row keys differ from the reference ({len(keys)} rows, "
                      f"reference {len(ref_rows)})")
    if len(json.loads(json_text)["rows"]) != len(rows):
        errors.append("report.json does not hold every row")
    for i, row in enumerate(rows):
        where = f"row {i} {keys[i]}"
        if row["verdict"] == "FAIL":
            errors.append(f"{where}: FAIL verdict")
        if row["verdict"] == "PASS" and not (math.isfinite(row["lhs"]) and math.isfinite(row["rhs"])):
            errors.append(f"{where}: PASS with non-finite lhs/rhs")
        alpha = row["context"].get("alpha")
        if alpha is not None and not _close(alpha, 1.0):
            errors.append(f"{where}: alpha {alpha!r}, expected 1")
    if seed == reference["seed"] and len(rows) == len(ref_rows):
        for i, (row, ref) in enumerate(zip(rows, ref_rows)):
            where = f"row {i} {keys[i]}"
            if row["verdict"] != ref["verdict"]:
                errors.append(f"{where}: verdict {row['verdict']}, reference {ref['verdict']}")
            for side in ("lhs", "rhs"):
                if not _close(row[side], ref[side]):
                    errors.append(f"{where}: {side} {row[side]!r}, reference {ref[side]!r}")
    return errors[:MAX_ERRORS]
