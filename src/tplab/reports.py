"""Check reports and their CSV/JSON serialization.

Every inequality check produces one CheckReport row: the two sides, the
margin rhs - lhs, a verdict, the tolerance used and a free-form context.
Verdicts: PASS/FAIL for deterministic comparisons (pass iff
margin >= -tolerance), SKIPPED for vacuous instances (e.g. an unbounded
right-hand side), INCONCLUSIVE for Monte Carlo comparisons violated only
within the confidence-interval width.  A comparison whose lhs, rhs or
margin is NaN (say inf against inf after an overflow) has no verdict and
raises NumericError: a FAIL must be a counterexample, never a NaN.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field

from .errors import NumericError

PASS = "PASS"
FAIL = "FAIL"
SKIPPED = "SKIPPED"
INCONCLUSIVE = "INCONCLUSIVE"

# One slack shared by every inequality checker: the absolute-relative
# hybrid tolerance DEFAULT_SLACK * (1 + |rhs|) of ``slack_for``.
DEFAULT_SLACK = 1e-9


def slack_for(rhs: float) -> float:
    return DEFAULT_SLACK * (1.0 + abs(rhs))


def _comparable(citation: str, lhs: float, rhs: float, margin: float):
    if math.isnan(lhs) or math.isnan(rhs) or math.isnan(margin):
        raise NumericError(f"{citation}: no verdict for lhs {lhs!r} against rhs {rhs!r} "
                           f"(margin {margin!r}); the values overflow or are undefined")


@dataclass(frozen=True)
class CheckReport:
    citation: str
    lhs: float
    rhs: float
    margin: float
    verdict: str
    tolerance: float
    context: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return self.verdict == PASS

    @classmethod
    def from_comparison(cls, citation: str, lhs: float, rhs: float,
                        tolerance: float, context: dict | None = None) -> "CheckReport":
        """PASS iff lhs <= rhs within tolerance (margin >= -tolerance);
        NumericError when lhs, rhs or the margin is NaN."""
        margin = rhs - lhs
        _comparable(citation, lhs, rhs, margin)
        verdict = PASS if margin >= -tolerance else FAIL
        return cls(citation, float(lhs), float(rhs), float(margin), verdict,
                   float(tolerance), dict(context or {}))

    @classmethod
    def skipped(cls, citation: str, lhs: float, rhs: float,
                context: dict | None = None) -> "CheckReport":
        return cls(citation, float(lhs), float(rhs), float(rhs) - float(lhs),
                   SKIPPED, 0.0, dict(context or {}))

    @classmethod
    def from_interval(cls, citation: str, ci_low: float, value: float, ci_high: float,
                      rhs: float, tolerance: float,
                      context: dict | None = None) -> "CheckReport":
        """Monte Carlo comparison: PASS when the upper confidence bound sits
        below the bound, FAIL when even the lower bound violates it, and
        INCONCLUSIVE in between (violated only within CI width)."""
        ctx = dict(context or {})
        ctx.setdefault("ci_low", float(ci_low))
        ctx.setdefault("ci_high", float(ci_high))
        margin = rhs - value
        _comparable(citation, value, rhs, margin)
        if ci_high <= rhs + tolerance:
            verdict = PASS
        elif ci_low > rhs + tolerance:
            verdict = FAIL
        else:
            verdict = INCONCLUSIVE
        return cls(citation, float(value), float(rhs), float(margin), verdict,
                   float(tolerance), ctx)

    def to_row(self, suite: str = "", fixture: str = "") -> dict:
        return {
            "citation": self.citation,
            "suite": suite,
            "fixture": fixture,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "margin": self.margin,
            "verdict": self.verdict,
            "tolerance": self.tolerance,
            "context": self.context,
        }

    def to_json_dict(self) -> dict:
        return {
            "citation": self.citation,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "margin": self.margin,
            "pass": self.passed,
            "verdict": self.verdict,
            "tolerance": self.tolerance,
            "context": self.context,
        }


CSV_COLUMNS = ["citation", "suite", "fixture", "lhs", "rhs", "margin",
               "verdict", "tolerance", "context"]


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _context_json(context: dict) -> str:
    return json.dumps(context, sort_keys=True, separators=(",", ":"))


def rows_to_csv(rows: list[dict]) -> str:
    """Deterministic CSV text for a list of report rows (byte-identical for
    identical inputs: repr floats, sorted compact context JSON, LF endings)."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for row in rows:
        writer.writerow([
            row["citation"], row["suite"], row["fixture"],
            _fmt(row["lhs"]), _fmt(row["rhs"]), _fmt(row["margin"]),
            row["verdict"], _fmt(row["tolerance"]),
            _context_json(row["context"]),
        ])
    return buf.getvalue()


def rows_to_json(rows: list[dict], energy_reports: list[dict] | None = None) -> str:
    doc = {"schema": "tplab-report-v1", "rows": rows}
    if energy_reports is not None:
        doc["energy_reports"] = energy_reports
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"
