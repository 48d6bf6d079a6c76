"""Reporting helpers and result serialisation."""

import json

import pytest

from repro.harness.experiments import ExperimentResult
from repro.harness.report import format_rows, overhead_pct


class TestOverheadPct:
    def test_basic(self):
        assert overhead_pct(110.0, 100.0) == pytest.approx(10.0)

    def test_zero_baseline(self):
        assert overhead_pct(5.0, 0.0) == 0.0

    def test_negative(self):
        assert overhead_pct(90.0, 100.0) == pytest.approx(-10.0)


class TestFormatRows:
    def test_alignment(self):
        text = format_rows(["a", "long header"], [["x", 1.0], ["yy", 22.5]])
        lines = text.splitlines()
        assert len({line.index("long") if "long" in line else None
                    for line in lines[:1]}) == 1
        assert lines[1].startswith("-")

    def test_title(self):
        text = format_rows(["a"], [["x"]], title="My Table")
        assert text.splitlines()[0] == "My Table"

    def test_float_formats(self):
        text = format_rows(["v"], [[12345.0], [42.0], [0.1234]])
        assert "12,345" in text
        assert "42.0" in text
        assert "0.123" in text

    def test_tiny_floats_keep_their_digits(self):
        text = format_rows(["v"], [[1.32e-05], [0.0]])
        assert "1.32e-05" in text
        assert "0.000" in text

    def test_empty_rows(self):
        text = format_rows(["col"], [])
        assert "col" in text


class TestExperimentResultSerialisation:
    def make(self):
        return ExperimentResult(
            experiment="Fig. X",
            headers=["config", "value"],
            rows=[["native", 1.0], ["covirt", 1.02]],
            notes="a note",
        )

    def test_to_dict_records(self):
        data = self.make().to_dict()
        assert data["records"][0] == {"config": "native", "value": 1.0}
        assert data["experiment"] == "Fig. X"

    def test_to_json_parses(self):
        parsed = json.loads(self.make().to_json())
        assert len(parsed["records"]) == 2

    def test_save(self, tmp_path):
        path = self.make().save(tmp_path, "figx")
        assert path.name == "figx.json"
        assert json.loads(path.read_text())["notes"] == "a note"

    def test_column(self):
        assert self.make().column("value") == [1.0, 1.02]
