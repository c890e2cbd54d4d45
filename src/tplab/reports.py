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
through generators.  An energy report's (n, d, d) Gamma table is not in
report.json: the report holds a ``TableFile``, {"file": "gamma-<k>.npy",
"shape": [n, d, d]}, and ``write_tables`` saves the table to that file
beside report.json with ``np.save``, which keeps its exact bits and writes
the same bytes on every rerun.  Rows are rendered per shape, in both
writers: the rows whose context is flat and whose keys and value types
match share one ``%s`` skeleton (the indent-2 row text, or the whole CSV
line), filled from one rendering per distinct value in the call.
report.csv keeps the bytes of ``csv.writer``, which quotes a field holding
a bare CR as it quotes one holding a LF: its top-level floats are
``float.__repr__`` (``nan``, ``inf``; numpy's float64 too), its context
floats JSON (``NaN``, ``Infinity``).  Every other row takes the generic
path.
"""

from __future__ import annotations

import csv
import json
import math
import re
from dataclasses import dataclass, field
from pathlib import Path

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
                      rhs: tuple[float, float, float], tolerance: float,
                      context: dict | None = None) -> "CheckReport":
        """Monte Carlo comparison against an rhs given as (lo, value, hi):
        PASS when the lhs upper confidence bound sits below the rhs lower
        one, FAIL when even the lhs lower bound exceeds the rhs upper one,
        and INCONCLUSIVE in between, so a FAIL needs the two intervals
        apart.  An exact rhs has lo = hi = value; an estimated one (lo < hi)
        is recorded in the context as ``rhs_ci``."""
        rhs_lo, rhs, rhs_hi = rhs
        ctx = dict(context or {})
        if rhs_lo < rhs_hi:
            ctx.setdefault("rhs_ci", [float(rhs_lo), float(rhs_hi)])
        ctx.setdefault("ci_low", float(ci_low))
        ctx.setdefault("ci_high", float(ci_high))
        margin = rhs - value
        _comparable(citation, value, rhs, margin)
        if ci_high <= rhs_lo + tolerance:
            verdict = PASS
        elif ci_low > rhs_hi + tolerance:
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
    """A top-level number of a CSV row: a float, numpy's float64 included,
    by ``float.__repr__``, as report.json writes it; anything else by str."""
    if isinstance(value, float):
        return float.__repr__(value)
    return str(value)


_CONTEXT_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


class _Lines(list):
    """A file for csv.writer that keeps each row it writes as one item:
    ``writerow`` makes one call to ``write`` per row."""

    write = list.append


def rows_to_csv(rows: list[dict]) -> str:
    """Deterministic CSV text for a list of report rows (byte-identical for
    identical inputs: repr floats, sorted compact context JSON, LF endings).
    A row on the bulk path is written as one line of its shape's skeleton;
    any other row goes through csv.writer.

    The writer's line terminator is CRLF, cut to LF after each row: csv
    quotes a field holding a character of its terminator, and Python 3.11
    quotes for no other line break, so with LF alone a field holding a bare
    CR would go unquoted and ``csv.reader`` would refuse the file."""
    out = _Lines()
    writer = csv.writer(out, lineterminator="\r\n")

    def cell(text: str) -> str:
        # text as the writer writes it in a field that is not a row's only
        # one; a second writer would allocate another 128 KiB record buffer
        writer.writerow((text, ""))
        return out.pop()[:-3]

    def write(fields) -> None:
        writer.writerow(fields)
        out[-1] = out[-1][:-2] + "\n"

    lines = _bulk_texts(rows, cell)
    write(CSV_COLUMNS)
    for row, line in zip(rows, lines):
        if line is None:
            write([
                row["citation"], row["suite"], row["fixture"],
                _fmt(row["lhs"]), _fmt(row["rhs"]), _fmt(row["margin"]),
                row["verdict"], _fmt(row["tolerance"]),
                _CONTEXT_ENCODER.encode(row["context"]),
            ])
        else:
            out.append(line)
    return "".join(out)


# the files write_tables owns in a report directory: it removes any of them
# that the new report.json does not name
_TABLE_FILE = re.compile(r"gamma-[0-9]+\.npy")


class TableFile(dict):
    """The JSON object {"file": "gamma-<k>.npy", "shape": [n, d, d]} that
    stands in the k-th energy report for its (n, d, d) Gamma table.  It is
    a dict, so both ``rows_to_json`` and ``json.dumps`` write it as that
    object; the table itself is ``table``, which only ``write_tables``
    reads."""

    __slots__ = ("table",)

    def __init__(self, k: int, table: np.ndarray):
        super().__init__(file=f"gamma-{k}.npy", shape=list(table.shape))
        self.table = table


def write_tables(energy_reports: list[dict], out_dir: Path) -> list[Path]:
    """Save each energy report's Gamma table with ``np.save`` to the file
    its ``TableFile`` names, in out_dir beside report.json, and remove every
    other file named gamma-<int>.npy there, so a rerun leaves only the
    tables its report.json names.  ``np.load`` returns each table bit for
    bit, and reruns write the same bytes.  Returns the paths written."""
    written = []
    for entry in energy_reports:
        ref = entry["report"]["gamma"]
        path = out_dir / ref["file"]
        np.save(path, ref.table)
        written.append(path)
    names = {path.name for path in written}
    for path in out_dir.iterdir():
        if _TABLE_FILE.fullmatch(path.name) and path.name not in names and path.is_file():
            path.unlink()
    return written


def rows_to_json(rows: list[dict], energy_reports: list[dict] | None = None) -> str:
    """The text of json.dumps(doc, sort_keys=True, indent=2) plus a newline,
    for doc = {"schema", "rows"[, "energy_reports"]} with every numpy array
    in it replaced by its ``tolist()``; TypeError for a value json cannot
    serialize.  Rows on the bulk path are filled into their shape's
    skeleton; the energy reports and every other row go through _write.
    An energy report's Gamma is its ``TableFile``, written as the object
    {"file", "shape"}: the table itself goes to ``write_tables``."""
    out = ["{"]
    if energy_reports is not None:
        out.append('\n  "energy_reports": ')
        _write(energy_reports, 1, out)
        out.append(",")
    out.append('\n  "rows": ')
    out.append("[")
    for row, text in zip(rows, _bulk_texts(rows)):
        out.append("\n    ")
        if text is None:
            _write(row, 2, out)
        else:
            out.append(text)
        out.append(",")
    out[-1] = "\n  ]" if rows else "[]"
    out.append(',\n  "schema": "tplab-report-v2"\n}\n')
    return "".join(out)


# What follows renders exactly the text of json.dumps(value, sort_keys=True,
# indent=2): the same separators, key order, escapes and number formats.
_INDENT = "  "
_quote = json.encoder.encode_basestring_ascii
_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _float(x: float) -> str:
    text = float.__repr__(x)
    return _NONFINITE.get(text, text)


def _float_texts(a: np.ndarray) -> tuple[list[str], list[str]]:
    """The repr and the JSON text of each leaf of a float64 array, in C
    order.  The leaves are keyed by their bit patterns, so -0.0 and 0.0, and
    NaNs of different payloads, stay apart; each distinct value is rendered
    once and the leaves are gathered from those renderings."""
    bits, inverse = np.unique(a.reshape(-1).view(np.int64), return_inverse=True)
    values = bits.view(np.float64)
    reprs = np.array(list(map(float.__repr__, values.tolist())), dtype=object)
    leaves = reprs[inverse].tolist()
    if np.isfinite(values).all():
        return leaves, leaves
    return leaves, np.array(list(map(_NONFINITE.get, reprs, reprs)), dtype=object)[inverse].tolist()


# A row on the bulk path: a dict of exactly the CSV_COLUMNS keys whose fields,
# taken in json's key order with the context last, have the _TOP_TYPES, and
# whose context is flat: str keys, and values of exactly the _CONTEXT_TYPES.
# Its values are its fields, then the context's values in insertion order.
_TOP_TYPES = (str, str, float, float, float, str, float, str, dict)
_CONTEXT_TYPES = frozenset([str, float, int, bool, type(None)])
_CSV_ORDER = (0, 5, 1, 2, 4, 3, 7, 6)  # CSV_COLUMNS but the context, as field indices
_LITERALS = {True: "true", False: "false", None: "null"}
# the JSON text of each context type but float
_RENDER = {str: _quote, int: int.__repr__, bool: _LITERALS.__getitem__,
           type(None): _LITERALS.__getitem__}


def _shapes(rows) -> list[tuple]:
    """The rows on the bulk path, grouped by shape: one (context keys in
    insertion order, value types, row indices, value columns) per shape.
    Rows are grouped by their context keys; a group one of whose columns
    mixes types stays on the generic path."""
    by_keys = {}
    for i, row in enumerate(rows):
        if type(row) is not dict or len(row) != len(CSV_COLUMNS):
            continue
        try:
            fields = (row["citation"], row["fixture"], row["lhs"], row["margin"], row["rhs"],
                      row["suite"], row["tolerance"], row["verdict"], row["context"])
        except KeyError:
            continue
        if type(fields[-1]) is dict:
            keys = tuple(fields[-1])
            group = by_keys.get(keys)
            if group is None:
                group = by_keys[keys] = ([], [])
            group[0].append(i)
            group[1].append(fields)
    shapes = []
    for keys, (indices, fields) in by_keys.items():
        top = list(zip(*fields))
        columns = top + list(zip(*map(dict.values, top[-1])))
        kinds = [set(map(type, column)) for column in columns]
        types = tuple(kind.pop() for kind in kinds if len(kind) == 1)
        if (len(types) == len(columns) and types[:len(_TOP_TYPES)] == _TOP_TYPES
                and all(type(key) is str for key in keys)
                and _CONTEXT_TYPES.issuperset(types[len(_TOP_TYPES):])):
            shapes.append((keys, types, indices, columns))
    return shapes


def _csv_json(text: str) -> str:
    """A JSON string inside the quoted context cell of a CSV line."""
    return _quote(text).replace('"', '""')


def _distinct(render, memo: dict, column) -> list[str]:
    """render(value) for each value of column, one call per distinct value
    among all the columns that share memo."""
    distinct = set(column)
    for value in distinct.difference(memo):
        memo[value] = render(value)
    if len(distinct) == 1:
        return [memo[column[0]]] * len(column)
    return list(map(memo.__getitem__, column))


def _skeleton(keys, csv_line: bool) -> str:
    """One %s text for the rows of one shape, given its sorted context keys:
    a whole CSV line, with the context's compact JSON already in its quoted
    cell, or the row's JSON text two levels deep."""
    if csv_line:
        context = ('"{' + ",".join(_csv_json(key).replace("%", "%%") + ":%s" for key in keys)
                   + '}"' if keys else "{}")
        return "%s," * (len(CSV_COLUMNS) - 1) + context + "\n"
    inner = "\n" + _INDENT * 4
    context = ("{" + inner + ("," + inner).join(_quote(key).replace("%", "%%") + ": %s"
                                                for key in keys)
               + "\n" + _INDENT * 3 + "}" if keys else "{}")
    inner = "\n" + _INDENT * 3
    return ("{" + inner + ("," + inner).join(
        _quote(key) + ": " + (context if key == "context" else "%s")
        for key in sorted(CSV_COLUMNS)) + "\n" + _INDENT * 2 + "}")


def _bulk_texts(rows, csv_cell=None) -> list[str | None]:
    """Each row's text on the bulk path, and None for every other row.  A
    shape is rendered as one skeleton, filled column by column: each
    distinct float is rendered once over all the rows (``_float_texts``),
    and each other distinct value once per rendering.  With csv_cell, the
    rendering of a top-level string, each text is a CSV line, whose
    top-level floats are written by repr; otherwise it is the row's JSON
    text.  The context is compact JSON either way."""
    csv_line = csv_cell is not None
    texts = [None] * len(rows)
    shapes = _shapes(rows)
    if not shapes:
        return texts
    pool = []
    for _, types, _, columns in shapes:
        for kind, column in zip(types, columns):
            if kind is float:
                pool += column
    reprs, floats = _float_texts(np.array(pool, dtype=np.float64))
    start, memos = 0, {}
    for keys, types, indices, columns in shapes:
        rendered = []
        for j, (kind, column) in enumerate(zip(types, columns)):
            top = j < len(_TOP_TYPES)
            if kind is float:
                rendered.append((reprs if csv_line and top else floats)[start:start + len(column)])
                start += len(column)
            elif kind is dict:  # the context, filled from its values
                rendered.append(None)
            else:
                if kind is str and csv_line:
                    render = csv_cell if top else _csv_json
                else:
                    render = _RENDER[kind]
                rendered.append(_distinct(render, memos.setdefault(render, {}), column))
        perm = sorted(range(len(keys)), key=keys.__getitem__)
        context = [rendered[len(_TOP_TYPES) + p] for p in perm]
        if csv_line:
            slots = [rendered[j] for j in _CSV_ORDER] + context
        else:
            slots = rendered[:1] + context + rendered[1:len(_TOP_TYPES) - 1]
        skeleton = _skeleton([keys[p] for p in perm], csv_line)
        for i, text in zip(indices, map(skeleton.__mod__, zip(*slots))):
            texts[i] = text
    return texts


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
