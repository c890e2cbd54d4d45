import json

import pytest

from tplab import CheckReport, NumericError, rows_to_csv, rows_to_json
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
