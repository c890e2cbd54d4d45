import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tplab import CheckReport, NumericError, reports, rows_to_csv, rows_to_json
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


def _oracle(rows, energy_reports=None, default=None) -> str:
    doc = {"schema": "tplab-report-v1", "rows": rows}
    if energy_reports is not None:
        doc["energy_reports"] = energy_reports
    return json.dumps(doc, sort_keys=True, indent=2, default=default) + "\n"


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
        expected = _oracle(rows, energy, default=np.ndarray.tolist)
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


def _bits(pattern: int) -> float:
    return float(np.array(pattern, dtype=np.uint64).view(np.float64))


# a small pool makes repeated values common; -nan and a payload NaN have
# other bit patterns than nan, and 5e-324 and 2.2e-308 are subnormal
_ARRAY_FLOATS = st.sampled_from(_EDGE_FLOATS + [0.0, 1.0, -1.5, 2.2e-308, 0.1,
                                                _bits(0xFFF8000000000000),
                                                _bits(0x7FF8000000000001)]) | st.floats()


@st.composite
def _float64_arrays(draw):
    """Float64 arrays of 1-3 axes, some of them non-contiguous views."""
    shape = tuple(draw(st.lists(st.integers(1, 4), min_size=1, max_size=3)))
    pool = draw(st.lists(_ARRAY_FLOATS, min_size=1, max_size=6))
    picks = draw(st.lists(st.integers(0, len(pool) - 1),
                          min_size=2 * math.prod(shape), max_size=2 * math.prod(shape)))
    base = np.array([pool[i] for i in picks]).reshape((2,) + shape)
    view = draw(st.sampled_from(["contiguous", "strided", "transposed", "reversed"]))
    if view == "strided":
        return base.reshape(-1)[::2].reshape(shape)
    if view == "transposed":
        return base[1].T
    if view == "reversed":
        return base[0][..., ::-1]
    return base[0]


class TestArrayWriter:
    """A float64 array is written as json.dumps writes its tolist()."""

    @settings(max_examples=300, deadline=None)
    @given(a=_float64_arrays())
    def test_matches_json_dumps_of_tolist(self, a):
        listed = a.tolist()
        assert rows_to_json([a], [{"gamma": a, "v_f": 1.0}]) == _oracle(
            [listed], [{"gamma": listed, "v_f": 1.0}])

    def test_signed_zeros_and_nans_keep_their_text(self):
        a = np.array([[0.0, -0.0], [-0.0, 0.0], [math.nan, _bits(0xFFF8000000000000)],
                      [math.inf, -math.inf]])
        assert rows_to_json([a]) == _oracle([a.tolist()])
        assert "-0.0" in rows_to_json([a]) and "NaN" in rows_to_json([a])

    def test_single_leaf(self):
        for a in (np.array([2.5]), np.array([[[-0.0]]])):
            assert rows_to_json([a]) == _oracle([a.tolist()])

    @pytest.mark.parametrize("a", [
        np.arange(6, dtype=np.float32).reshape(2, 3) / 3,
        np.arange(6).reshape(3, 2),
        np.array([[True, False], [False, False]]),
        np.array(0.25),
        np.array(1e300) * 10,
        np.zeros((0, 2)),
        np.zeros(0),
        (np.arange(4) / 3).astype(">f8"),
    ], ids=["float32", "int", "bool", "0-d", "0-d inf", "empty 2-d", "empty", "big-endian"])
    def test_other_arrays_take_the_generic_path(self, a, monkeypatch):
        def refused(*args):
            raise AssertionError("the float64 array path was taken")

        monkeypatch.setattr(reports, "_array_text", refused)
        assert rows_to_json([a], [{"t": a}]) == _oracle([a.tolist()], [{"t": a.tolist()}])

    def test_float64_arrays_take_the_array_path(self, monkeypatch):
        calls = []
        real = reports._array_text

        def counted(a, depth):
            calls.append(a.shape)
            return real(a, depth)

        monkeypatch.setattr(reports, "_array_text", counted)
        rows_to_json([np.ones((2, 3))], [{"gamma": np.ones((4, 2, 2)), "v": np.ones(1)}])
        assert sorted(calls) == [(1,), (2, 3), (4, 2, 2)]
