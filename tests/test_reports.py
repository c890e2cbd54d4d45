import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tplab import CheckReport, NumericError, rows_to_csv, rows_to_json
from tplab.cli import run_experiment
from tplab.reports import slack_for


class TestCheckReport:
    def test_pass_fail_threshold(self):
        assert CheckReport.from_comparison("x", 1.0, 1.0, 1e-9).passed
        assert CheckReport.from_comparison("x", 1.0 + 1e-12, 1.0, 1e-9).passed
        assert not CheckReport.from_comparison("x", 1.1, 1.0, 1e-9).passed

    def test_margin_definition(self):
        r = CheckReport.from_comparison("x", 0.25, 1.0, 0.0)
        assert r.margin == 0.75
        assert r.passed == (r.margin >= -r.tolerance)

    def test_skipped(self):
        r = CheckReport.skipped("x", 1.0, float("inf"))
        assert r.verdict == "SKIPPED" and not r.passed

    @pytest.mark.parametrize("lhs, rhs", [
        (float("inf"), float("inf")), (float("nan"), 1.0), (0.0, float("nan"))])
    def test_nan_has_no_verdict(self, lhs, rhs):
        with pytest.raises(NumericError, match="^poly-moment: no verdict"):
            CheckReport.from_comparison("poly-moment", lhs, rhs, 1e-9)
        with pytest.raises(NumericError, match="^chaos-matrix: no verdict"):
            CheckReport.from_interval("chaos-matrix", lhs, lhs, lhs, rhs, 1e-9)

    def test_slack_is_absolute_relative_hybrid(self):
        assert slack_for(0.0) == pytest.approx(1e-9)
        assert slack_for(-100.0) == pytest.approx(1.01e-7)


class TestSerialization:
    def test_row_csv_deterministic(self):
        rows = [CheckReport.from_comparison("x", 1 / 3, 2 / 3, 1e-9,
                                            {"b": 2, "a": 1}).to_row("s", "f")]
        assert rows_to_csv(rows) == rows_to_csv(rows)
        assert '"{""a"":1,""b"":2}"' in rows_to_csv(rows)

    def test_json_mirror(self):
        rows = [CheckReport.from_comparison("x", 0.0, 1.0, 1e-9).to_row("s", "f")]
        doc = json.loads(rows_to_json(rows, [{"fixture": "f", "report": {}}]))
        assert doc["rows"][0]["citation"] == "x"
        assert doc["energy_reports"]


def _oracle(rows, energy_reports=None) -> str:
    doc = {"schema": "tplab-report-v1", "rows": rows}
    if energy_reports is not None:
        doc["energy_reports"] = energy_reports
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


_EDGE_FLOATS = [math.inf, -math.inf, math.nan, -0.0, 5e-324, 1e16]
_floats = st.sampled_from(_EDGE_FLOATS) | st.floats()


@st.composite
def _float_tables(draw):
    """A regular nested list of floats, depth 1-3, some levels tuples."""
    shape = draw(st.lists(st.integers(1, 4), min_size=1, max_size=3))
    table = draw(st.lists(_floats, min_size=math.prod(shape), max_size=math.prod(shape)))
    for n in reversed(shape):
        seq = draw(st.sampled_from([list, tuple]))
        table = [seq(table[i:i + n]) for i in range(0, len(table), n)]
    return table[0]


_leaves = (_floats | st.integers() | st.booleans() | st.none()
           | st.text() | st.just("é\"\n\t\u2028"))
_odd_lists = (st.lists(st.lists(_floats, max_size=3), max_size=3)  # ragged, [[]]
              | st.lists(st.sampled_from([1, 2.0, True, -0.0]), min_size=1, max_size=4))
_KEYS = [st.text(max_size=4), st.integers(-3, 3), _floats, st.booleans(), st.none()]


def _documents(refused=False):
    """JSON-able documents, each dict with keys of one kind.  With refused,
    also np.int64 and set leaves, and dicts whose keys mix kinds, which
    json cannot sort."""
    base = _leaves | _float_tables() | _odd_lists
    key_kinds = _KEYS
    if refused:
        base = base | st.sampled_from([np.int64(3), {1}])
        key_kinds = [st.one_of(_KEYS)]

    def containers(inner):
        dicts = st.sampled_from(key_kinds).flatmap(
            lambda keys: st.dictionaries(keys, inner, max_size=4))
        return st.lists(inner, max_size=4) | st.tuples(inner, inner) | dicts

    return st.recursive(base, containers, max_leaves=12)


class TestJsonWriter:
    """report.json is the text of json.dumps(doc, sort_keys=True, indent=2)."""

    @settings(max_examples=200, deadline=None)
    @given(rows=st.lists(_documents(), max_size=3),
           energy=st.none() | st.lists(_documents(), max_size=3))
    def test_matches_json_dumps(self, rows, energy):
        assert rows_to_json(rows, energy) == _oracle(rows, energy)

    @settings(max_examples=100, deadline=None)
    @given(rows=st.lists(_documents(refused=True), max_size=3))
    def test_refuses_what_json_refuses(self, rows):
        try:
            expected = _oracle(rows)
        except TypeError:
            with pytest.raises(TypeError):
                rows_to_json(rows)
        else:
            assert rows_to_json(rows) == expected

    @pytest.mark.parametrize("leaf", [np.int64(3), {1.0}, object()])
    def test_unserializable_leaf_raises_type_error(self, leaf):
        for doc in ([leaf], [[1.0, 2.0], [3.0, leaf]], {"a": {"b": (leaf,)}}):
            with pytest.raises(TypeError, match="is not JSON serializable"):
                rows_to_json([doc])

    def test_list_containing_itself_raises(self):
        loop = []
        loop.append(loop)
        with pytest.raises(RecursionError):
            rows_to_json([loop])

    def test_chain_run_does_not_use_json_indent_path(self, monkeypatch):
        cfg = {"seed": 3, "model": {"fixture": "two-state"}, "suites": ["poincare", "tail"],
               "fields": [{"type": "fixture", "name": "indicator-1"},
                          {"type": "table", "name": "d2",
                           "values": [[[1.0, 0.5], [0.5, -2.0]], [[0.0, 0.25], [0.25, 3.0]]]}]}
        rows, energy, _ = run_experiment(cfg)
        expected = _oracle(rows, energy)
        dumps, iterencode = json.dumps, json.JSONEncoder.iterencode

        def guarded_dumps(obj, *args, **kwargs):
            assert kwargs.get("indent") is None, "json.dumps called with an indent"
            return dumps(obj, *args, **kwargs)

        def guarded_iterencode(self, o, _one_shot=False):
            assert self.indent is None, "JSONEncoder.iterencode called with an indent"
            return iterencode(self, o, _one_shot)

        monkeypatch.setattr(json, "dumps", guarded_dumps)
        monkeypatch.setattr(json.JSONEncoder, "iterencode", guarded_iterencode)
        assert rows_to_json(rows, energy) == expected
