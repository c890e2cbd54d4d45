"""Check reports and their CSV/JSON serialization.

Every inequality check produces one CheckReport row: the two sides, the
margin rhs - lhs, a verdict, the tolerance used and a free-form context.
Verdicts: PASS/FAIL for deterministic comparisons (pass iff
margin >= -tolerance), SKIPPED for vacuous instances (e.g. an unbounded
right-hand side), INCONCLUSIVE for Monte Carlo comparisons violated only
within the confidence-interval width.  A comparison whose lhs, rhs or
margin is NaN (say inf against inf after an overflow) has no verdict and
raises NumericError: a FAIL must be a counterexample, never a NaN.

report.json is byte-identical to ``json.dumps(doc, sort_keys=True,
indent=2)`` plus a newline, where doc has every numpy array replaced by its
``tolist()``, and reruns of one config and seed give byte-identical JSON as
well as CSV.  ``rows_to_json`` writes that text directly: json's C encoder
runs only without an indent, and its pure-Python path renders every float
of a Gamma table through generators.  The energy tables (Gamma, the
Dirichlet form, the variance) arrive as float64 arrays and are rendered
without ``tolist``: one skeleton of the array's brackets and indentation,
filled from one ``float.__repr__`` per distinct value.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field

import numpy as np

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


CSV_COLUMNS = ["citation", "suite", "fixture", "lhs", "rhs", "margin",
               "verdict", "tolerance", "context"]


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


_CONTEXT_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def _context_json(context: dict) -> str:
    return _CONTEXT_ENCODER.encode(context)


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
    """The text of json.dumps(doc, sort_keys=True, indent=2) plus a newline,
    for doc = {"schema", "rows"[, "energy_reports"]} with every numpy array
    in it replaced by its ``tolist()``; TypeError for a value json cannot
    serialize."""
    doc = {"schema": "tplab-report-v1", "rows": rows}
    if energy_reports is not None:
        doc["energy_reports"] = energy_reports
    out = []
    _write(doc, 0, out)
    out.append("\n")
    return "".join(out)


# What follows renders exactly the text of json.dumps(value, sort_keys=True,
# indent=2): the same separators, key order, escapes and number formats.
_INDENT = "  "
_quote = json.encoder.encode_basestring_ascii
_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}
_FLOAT64 = np.dtype(np.float64)  # native byte order only


def _float(x: float) -> str:
    text = float.__repr__(x)
    return _NONFINITE.get(text, text)


def _array_text(a: np.ndarray, depth: int) -> str:
    """The JSON text of ``a.tolist()`` for a non-empty float64 array of at
    least one axis.  Its skeleton of brackets and indentation is built
    innermost axis first, one %s per leaf (its whitespace and brackets hold
    no other %).  The leaves are keyed by their bit patterns, so -0.0 and
    0.0, and NaNs of different payloads, stay apart; each distinct value is
    rendered once and the leaves are gathered from those renderings."""
    text = "%s"
    for axis in reversed(range(a.ndim)):
        inner = "\n" + _INDENT * (depth + axis + 1)
        text = ("[" + inner + ("," + inner).join([text] * a.shape[axis])
                + "\n" + _INDENT * (depth + axis) + "]")
    bits, inverse = np.unique(a.reshape(-1).view(np.int64), return_inverse=True)
    values = bits.view(np.float64)
    reprs = list(map(float.__repr__, values.tolist()))
    if not np.isfinite(values).all():
        reprs = list(map(_NONFINITE.get, reprs, reprs))
    return text % tuple(np.array(reprs, dtype=object)[inverse].tolist())


def _key(key) -> str:
    if isinstance(key, str):
        return _quote(key)
    if isinstance(key, float):
        return _quote(_float(key))
    if key is True or key is False or key is None or isinstance(key, int):
        return _quote(_scalar(key))
    raise TypeError(f"keys must be str, int, float, bool or None, "
                    f"not {key.__class__.__name__}")


def _scalar(value) -> str:
    """JSON text of a value that spans one line: a scalar or an empty container."""
    if isinstance(value, str):
        return _quote(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        return _float(value)
    if isinstance(value, (list, tuple)) and not value:
        return "[]"
    if isinstance(value, dict) and not value:
        return "{}"
    raise TypeError(f"Object of type {value.__class__.__name__} is not JSON serializable")


def _write(value, depth: int, out: list[str]) -> None:
    """Append to out the JSON text of value nested depth levels deep: the
    lines inside its brackets are indented depth + 1 levels.  Each item is
    followed by a comma, and the last comma is replaced by the closing
    bracket.  An array is written as its ``tolist()``."""
    if isinstance(value, np.ndarray):
        if type(value) is np.ndarray and value.dtype == _FLOAT64 and value.ndim and value.size:
            out.append(_array_text(value, depth))
            return
        value = value.tolist()
    if isinstance(value, (list, tuple)) and value:
        inner = "\n" + _INDENT * (depth + 1)
        out.append("[")
        for item in value:
            out.append(inner)
            _write(item, depth + 1, out)
            out.append(",")
        out[-1] = "\n" + _INDENT * depth + "]"
    elif isinstance(value, dict) and value:
        inner = "\n" + _INDENT * (depth + 1)
        out.append("{")
        for key, item in sorted(value.items()):
            out.append(inner + _key(key) + ": ")
            _write(item, depth + 1, out)
            out.append(",")
        out[-1] = "\n" + _INDENT * depth + "}"
    else:
        out.append(_scalar(value))
