import csv
import io
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tplab import CheckReport, NumericError, bounds, reports, rows_to_csv, rows_to_json
from tplab.cli import run_experiment
from tplab.reports import slack_for

from conftest import load_perfbench


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
            CheckReport.from_interval("chaos-matrix", lhs, lhs, lhs, (rhs,) * 3, 1e-9)

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
    doc = {"schema": "tplab-report-v2", "rows": rows}
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
    def test_other_arrays_take_the_generic_path(self, a):
        # every array, float64 or not, is written as its tolist(): the writer
        # has no array path of its own since the Gamma tables left report.json
        assert not hasattr(reports, "_array_text")
        assert rows_to_json([a], [{"t": a}]) == _oracle([a.tolist()], [{"t": a.tolist()}])


def _csv_oracle(rows, terminator="\r\n") -> str:
    """The reference CSV writer: every row through its own csv.writer, the
    top-level floats by float.__repr__, anything else by str, and the
    context as compact sorted JSON; every row ends in LF.  csv quotes a
    field that holds a character of the line terminator, so the CRLF one
    quotes a bare CR as it quotes a LF; with LF alone, the plain
    ``csv.writer`` text, Python 3.11 leaves a bare CR unquoted."""
    def fmt(value):
        return float.__repr__(value) if isinstance(value, float) else str(value)

    encoder = json.JSONEncoder(sort_keys=True, separators=(",", ":"))
    lines = []
    for fields in [reports.CSV_COLUMNS] + [
            [row["citation"], row["suite"], row["fixture"],
             fmt(row["lhs"]), fmt(row["rhs"]), fmt(row["margin"]),
             row["verdict"], fmt(row["tolerance"]), encoder.encode(row["context"])]
            for row in rows]:
        buf = io.StringIO()
        csv.writer(buf, lineterminator=terminator).writerow(fields)
        lines.append(buf.getvalue()[:-len(terminator)] + "\n")
    return "".join(lines)


# strings a skeleton or a CSV cell could mishandle; a small pool makes
# shapes, strings and floats repeat across rows
_ROW_TEXTS = st.sampled_from(["", "PASS", "%s", "100%", 'say "hi"', "a,b", "two\nlines",
                              "cr\rx", "é", "\u2028", "%%d,\"\n"]) | st.text(max_size=4)
_ROW_FLOATS = st.sampled_from(_EDGE_FLOATS + [0.0, 0.5, 0.1]) | st.floats()
_CONTEXT_VALUES = (_ROW_FLOATS | st.integers() | st.booleans() | st.none() | _ROW_TEXTS
                   | _ROW_FLOATS.map(np.float64))
# values that send a row to the generic path
_NESTED = st.lists(_ROW_FLOATS, max_size=2) | st.dictionaries(_ROW_TEXTS, st.integers(),
                                                               max_size=2)
_ODD_TOP = st.sampled_from([None, 3, True, np.float64(0.25)])


@st.composite
def _report_rows(draw):
    """Row-shaped dicts: most on the bulk path, some with an empty, nested
    or int-keyed context, an odd top-level value, a missing column or an
    extra one."""
    keysets = draw(st.lists(st.lists(_ROW_TEXTS, max_size=4, unique=True),
                            min_size=1, max_size=3))
    rows = []
    for _ in range(draw(st.integers(0, 6))):
        context = {key: draw(_CONTEXT_VALUES) for key in draw(st.sampled_from(keysets))}
        row = {key: draw(_ROW_TEXTS) for key in ("citation", "suite", "fixture", "verdict")}
        row.update({key: draw(_ROW_FLOATS) for key in ("lhs", "rhs", "margin", "tolerance")})
        row["context"] = context
        variant = draw(st.sampled_from(["flat"] * 6 + ["nested", "int keys", "odd top",
                                                       "missing", "extra"]))
        if variant == "nested" and context:
            context[next(iter(context))] = draw(_NESTED)
        elif variant == "int keys":
            row["context"] = {i: value for i, value in enumerate(context.values())}
        elif variant == "odd top":
            row[draw(st.sampled_from(reports.CSV_COLUMNS[:-1]))] = draw(_ODD_TOP)
        elif variant == "missing":
            del row[draw(st.sampled_from(reports.CSV_COLUMNS))]
        elif variant == "extra":
            row[draw(_ROW_TEXTS)] = draw(_CONTEXT_VALUES)
        rows.append(row)
    return rows


class TestRowWriters:
    """Rows of one shape are written from one skeleton, with the bytes of
    json.dumps and of the csv.writer path."""

    @settings(max_examples=200, deadline=None)
    @given(rows=_report_rows())
    def test_json_matches_json_dumps(self, rows):
        assert rows_to_json(rows) == _oracle(rows)

    @settings(max_examples=200, deadline=None)
    @given(rows=_report_rows())
    def test_csv_matches_csv_writer(self, rows):
        try:
            expected = _csv_oracle(rows)
        except KeyError:
            with pytest.raises(KeyError):
                rows_to_csv(rows)
        else:
            assert rows_to_csv(rows) == expected

    def test_csv_floats_are_repr_at_top_and_json_in_context(self):
        row = {"citation": "c", "suite": "s", "fixture": "f", "lhs": math.nan,
               "rhs": math.inf, "margin": -math.inf, "verdict": "FAIL", "tolerance": -0.0,
               "context": {"x": math.nan, "y": math.inf, "z": -math.inf}}
        assert reports._bulk_texts([row], str) != [None]
        assert rows_to_csv([row]).splitlines()[1] == (
            'c,s,f,nan,inf,-inf,FAIL,-0.0,"{""x"":NaN,""y"":Infinity,""z"":-Infinity}"')
        assert rows_to_csv([row]) == _csv_oracle([row])
        assert rows_to_json([row]) == _oracle([row])

    def test_one_key_holding_values_of_several_types(self):
        # -0.0 and 0.0, 1 and True, 1.0 and np.float64(1.0) are equal keys
        # of a dict but differ in text
        base = {"citation": "c", "suite": "s", "fixture": "f", "lhs": 0.0, "rhs": 1.0,
                "margin": 1.0, "verdict": "PASS", "tolerance": 0.0}
        rows = [dict(base, lhs=lhs, context={"q": q, "z": z})
                for lhs, q, z in ((0.0, 1, 0.0), (-0.0, True, -0.0), (0.0, 1.0, 0.0),
                                  (-0.0, np.float64(1.0), 0.0), (0.0, None, -0.0))]
        assert rows_to_json(rows) == _oracle(rows)
        assert rows_to_csv(rows) == _csv_oracle(rows)
        # the column under "q" mixes types, so the group stays on the generic path
        assert reports._bulk_texts(rows, str) == [None] * len(rows)
        uniform = [dict(row, context={"q": 1, "z": row["context"]["z"]}) for row in rows]
        assert None not in reports._bulk_texts(uniform, str)
        assert rows_to_json(uniform) == _oracle(uniform)
        assert rows_to_csv(uniform) == _csv_oracle(uniform)

    def test_numpy_float_is_written_as_a_float(self):
        row = {"citation": "c", "suite": "s", "fixture": "f", "lhs": np.float64(0.25),
               "rhs": 1.0, "margin": 0.75, "verdict": "PASS", "tolerance": 0.0,
               "context": {}}
        text = rows_to_csv([row])
        assert text == _csv_oracle([row])
        assert text.splitlines()[1] == "c,s,f,0.25,1.0,0.75,PASS,0.0,{}"
        assert json.loads(rows_to_json([row]))["rows"][0]["lhs"] == 0.25

    @pytest.mark.parametrize("fixture", ["a\rb", "a\r\nb", "a\nb", "\r"])
    @pytest.mark.parametrize("context, bulk", [({"q": 1.0}, True), ({"q": [1.0]}, False)],
                             ids=["bulk", "generic"])
    def test_line_breaks_in_a_field_read_back_intact(self, fixture, context, bulk):
        row = {"citation": "c", "suite": "s", "fixture": fixture, "lhs": 1.0, "rhs": 2.0,
               "margin": 1.0, "verdict": "PASS", "tolerance": 0.0, "context": context}
        assert (reports._bulk_texts([row], str) != [None]) == bulk
        text = rows_to_csv([row, dict(row, citation="d")])
        assert text == _csv_oracle([row, dict(row, citation="d")])
        read = list(csv.reader(io.StringIO(text, newline="")))
        assert [r[2] for r in read[1:]] == [fixture, fixture]
        assert [r[0] for r in read] == ["citation", "c", "d"]

    def test_rows_outside_the_bulk_path(self):
        row = {"citation": "c", "suite": "s", "fixture": "f", "lhs": 1.0, "rhs": 2.0,
               "margin": 1.0, "verdict": "PASS", "tolerance": 0.0, "context": {"a": 1}}
        others = [dict(row, context={"dims": [1, 2]}), dict(row, context={1: 0.5}),
                  dict(row, lhs=np.float64(1.0)), dict(row, context={"a": np.int64(1)}),
                  dict(row, extra=0), {k: v for k, v in row.items() if k != "suite"}]
        assert reports._bulk_texts([row]) != [None]
        for other in others:
            assert reports._bulk_texts([other]) == [None]


@pytest.fixture(scope="module")
def tiny_runs():
    workloads = load_perfbench("workloads")
    return {(name, seed): run_experiment(workloads.build_config(name, seed, "tiny"))
            for name in workloads.WORKLOADS for seed in (1, 2)}


class TestRealRows:
    """The rows of the benchmark's workloads, at tiny size."""

    def test_writers_match_the_oracles(self, tiny_runs):
        for (rows, energy, _) in tiny_runs.values():
            # no field holds a CR, so quoting it leaves the plain csv.writer bytes
            assert rows_to_csv(rows) == _csv_oracle(rows) == _csv_oracle(rows, "\n")
            # the energy reports hold no array: json.dumps needs no default
            assert rows_to_json(rows, energy) == _oracle(rows, energy)

    def test_energy_reports_render_no_gamma_leaf(self, tiny_runs):
        # report.json names each Gamma table and its shape; the table itself
        # stays with the TableFile, for write_tables
        for (rows, energy, _) in tiny_runs.values():
            doc = json.loads(rows_to_json(rows, energy))
            for k, (entry, written) in enumerate(zip(energy, doc["energy_reports"])):
                ref = entry["report"]["gamma"]
                assert written["report"]["gamma"] == {"file": f"gamma-{k}.npy",
                                                      "shape": list(ref.table.shape)}
                assert ref.table.ndim == 3 and ref.table.dtype == np.float64
                assert {"dirichlet", "variance", "v_f", "mode"} <= set(written["report"])

    def test_seed_one_rows_pass_the_benchmark_gate(self, tiny_runs, monkeypatch):
        # the benchmark's correctness gate against its stored references;
        # a 1e-6 change to one bound is a moved row that it must catch
        gate = load_perfbench("gate")

        seed = gate.REFERENCE_SEED

        def errors(name, rows, energy, counts):
            return gate.check(rows, gate.load_reference(name, "tiny"), seed,
                              1 if counts["FAIL"] else 0, rows_to_json(rows, energy))

        names = sorted({name for name, _ in tiny_runs})
        assert len(names) == 4
        for name in names:
            assert errors(name, *tiny_runs[(name, seed)]) == [], name
        real = bounds.poly_moment_rhs
        monkeypatch.setattr(bounds, "poly_moment_rhs", lambda *a: real(*a) * (1.0 + 1e-6))
        workloads = load_perfbench("workloads")
        moved = errors("chain-large",
                       *run_experiment(workloads.build_config("chain-large", seed, "tiny")))
        assert moved and all("rhs" in e for e in moved)

    def test_write_runs_only_for_the_probe_row_and_energy_reports(self, tiny_runs, monkeypatch):
        rows, energy, _ = tiny_runs[("chain-many-fields", 1)]
        outermost, depth = [], [0]
        real = reports._write

        def traced(value, level, out):
            if not depth[0]:
                outermost.append(value)
            depth[0] += 1
            try:
                real(value, level, out)
            finally:
                depth[0] -= 1

        monkeypatch.setattr(reports, "_write", traced)
        rows_to_json(rows, energy)
        probe = [row for row in rows if row["citation"] == "poincare-equivalence"]
        assert len(probe) == 1
        assert sorted(map(id, outermost)) == sorted([id(energy), id(probe[0])])


class TestTableFiles:
    """Each energy report's Gamma table is saved beside report.json."""

    @staticmethod
    def entries(*tables):
        return [{"report": {"gamma": reports.TableFile(k, t)}} for k, t in enumerate(tables)]

    def test_tables_load_bit_for_bit(self, tmp_path):
        odd = np.array([0.0, -0.0, math.nan, _bits(0x7FF8000000000001), math.inf, 5e-324,
                        0.1, -1e308]).reshape(2, 2, 2)
        strided = np.arange(27.0).reshape(3, 3, 3)[:, ::2, ::2] / 3
        written = reports.write_tables(self.entries(odd, strided), tmp_path)
        assert written == [tmp_path / "gamma-0.npy", tmp_path / "gamma-1.npy"]
        for path, table in zip(written, (odd, strided)):
            loaded = np.load(path)
            assert loaded.dtype == np.float64 and loaded.shape == table.shape
            np.testing.assert_array_equal(loaded.view(np.int64), table.view(np.int64))

    def test_stale_tables_are_removed_and_nothing_else(self, tmp_path):
        kept = ["gamma-x.npy", "gamma-1.npz", "gamma-2.npy.bak", "Gamma-3.npy", "gamma--4.npy",
                "report.json", "notes.txt"]
        for name in kept + ["gamma-5.npy", "gamma-12.npy", "gamma-007.npy"]:
            (tmp_path / name).write_text("old")
        (tmp_path / "gamma-6.npy").mkdir()  # a directory is not a table file
        reports.write_tables(self.entries(np.ones((2, 1, 1))), tmp_path)
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
            kept + ["gamma-0.npy", "gamma-6.npy"])
        assert all((tmp_path / name).read_text() == "old" for name in kept)
        assert reports.write_tables([], tmp_path) == []
        assert not (tmp_path / "gamma-0.npy").exists()
