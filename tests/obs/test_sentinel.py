"""Perf-regression sentinel tests (repro.obs.sentinel + bench-compare)."""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

import pytest

from repro.cli import main
from repro.obs.sentinel import (
    ToleranceError,
    compare_sets,
    load_tolerances,
    render_markdown,
)
from repro.perf.costs import DEFAULT_COSTS

REPO_ROOT = Path(__file__).resolve().parent.parent.parent
TOLERANCES = REPO_ROOT / "benchmarks" / "tolerances.json"

sys.path.insert(0, str(REPO_ROOT / "benchmarks"))
from runner import run_scenario  # noqa: E402


def write_doc(directory: Path, doc: dict) -> Path:
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"BENCH_{doc['bench']}.json"
    path.write_text(json.dumps(doc, indent=1) + "\n")
    return path


@pytest.fixture(scope="module")
def quick_fig4() -> dict:
    return run_scenario("fig4", quick=True)


@pytest.fixture
def tolerances() -> dict:
    return load_tolerances(TOLERANCES)


class TestTolerances:
    def test_checked_in_tolerances_load(self, tolerances):
        assert "fig4" in tolerances["benches"]
        assert tolerances["benches"]["fig4"]["metric"] == "attach_us"

    def test_rejects_wrong_schema(self, tmp_path):
        bad = tmp_path / "t.json"
        bad.write_text(json.dumps({"schema": "nope", "schema_version": 1}))
        with pytest.raises(ToleranceError):
            load_tolerances(bad)

    def test_rejects_unknown_version(self, tmp_path):
        bad = tmp_path / "t.json"
        bad.write_text(
            json.dumps(
                {"schema": "covirt-bench-tolerances", "schema_version": 9}
            )
        )
        with pytest.raises(ToleranceError):
            load_tolerances(bad)

    def test_rejects_spec_without_metric(self, tmp_path):
        bad = tmp_path / "t.json"
        bad.write_text(
            json.dumps(
                {
                    "schema": "covirt-bench-tolerances",
                    "schema_version": 1,
                    "benches": {"fig3": {"key": ["workload"]}},
                }
            )
        )
        with pytest.raises(ToleranceError):
            load_tolerances(bad)


class TestCompare:
    def test_identical_sets_are_in_tolerance(
        self, tmp_path, quick_fig4, tolerances
    ):
        write_doc(tmp_path / "base", quick_fig4)
        write_doc(tmp_path / "cand", quick_fig4)
        report = compare_sets(
            tmp_path / "base", tmp_path / "cand", tolerances
        )
        assert report.ok
        assert report.benches_compared == ["fig4"]
        assert all(f.status == "ok" for f in report.findings)

    def test_missing_figure_fails(self, tmp_path, quick_fig4, tolerances):
        write_doc(tmp_path / "base", quick_fig4)
        (tmp_path / "cand").mkdir()
        other = dict(quick_fig4, bench="fig99")
        write_doc(tmp_path / "cand", other)
        report = compare_sets(
            tmp_path / "base", tmp_path / "cand", tolerances
        )
        assert not report.ok
        assert any("missing from candidate" in p for p in report.problems)
        assert any("missing from baseline" in p for p in report.problems)

    def test_quick_mode_mismatch_is_not_comparable(
        self, tmp_path, quick_fig4, tolerances
    ):
        write_doc(tmp_path / "base", quick_fig4)
        write_doc(tmp_path / "cand", dict(quick_fig4, quick=False))
        report = compare_sets(
            tmp_path / "base", tmp_path / "cand", tolerances
        )
        assert not report.ok
        assert any("quick-mode mismatch" in p for p in report.problems)

    def test_drifted_metric_trips_the_band(
        self, tmp_path, quick_fig4, tolerances
    ):
        write_doc(tmp_path / "base", quick_fig4)
        drifted = json.loads(json.dumps(quick_fig4))
        for row in drifted["results"]:
            row["attach_us"] = row["attach_us"] * 1.5
        write_doc(tmp_path / "cand", drifted)
        report = compare_sets(
            tmp_path / "base", tmp_path / "cand", tolerances
        )
        assert not report.ok
        bad = [f for f in report.regressions if f.metric == "attach_us"]
        assert bad and all(f.status == "out-of-band" for f in bad)

    def test_perturbed_cost_model_fails_bench_compare(
        self, tmp_path, quick_fig4, tolerances, capsys
    ):
        """The acceptance pin: a deliberately slowed cost model must make
        bench-compare exit non-zero against the stock baseline."""
        write_doc(tmp_path / "base", quick_fig4)
        slower = dataclasses.replace(
            DEFAULT_COSTS,
            xemem_control_rtt=DEFAULT_COSTS.xemem_control_rtt * 3,
            page_list_per_page=DEFAULT_COSTS.page_list_per_page * 3,
            guest_memmap_per_page=DEFAULT_COSTS.guest_memmap_per_page * 3,
        )
        write_doc(
            tmp_path / "cand",
            run_scenario("fig4", quick=True, costs=slower),
        )
        code = main(
            [
                "bench-compare",
                str(tmp_path / "base"),
                str(tmp_path / "cand"),
                "--tolerances", str(TOLERANCES),
            ]
        )
        out = capsys.readouterr().out
        assert code == 1
        assert "REGRESSION" in out
        assert "out-of-band" in out


class TestRendering:
    def test_markdown_is_deterministic(self, tmp_path, quick_fig4, tolerances):
        write_doc(tmp_path / "base", quick_fig4)
        write_doc(tmp_path / "cand", quick_fig4)
        report_a = compare_sets(tmp_path / "base", tmp_path / "cand", tolerances)
        report_b = compare_sets(tmp_path / "base", tmp_path / "cand", tolerances)
        assert render_markdown(report_a) == render_markdown(report_b)

    def test_markdown_has_summary_and_tables(
        self, tmp_path, quick_fig4, tolerances
    ):
        write_doc(tmp_path / "base", quick_fig4)
        write_doc(tmp_path / "cand", quick_fig4)
        report = compare_sets(tmp_path / "base", tmp_path / "cand", tolerances)
        text = render_markdown(report)
        assert "# bench-compare report" in text
        assert "verdict: OK" in text
        assert "| fig4 |" in text


class TestCli:
    def test_cli_writes_report_and_exits_zero(
        self, tmp_path, quick_fig4, capsys
    ):
        write_doc(tmp_path / "base", quick_fig4)
        write_doc(tmp_path / "cand", quick_fig4)
        out_md = tmp_path / "report.md"
        code = main(
            [
                "bench-compare",
                str(tmp_path / "base"),
                str(tmp_path / "cand"),
                "--tolerances", str(TOLERANCES),
                "--out", str(out_md),
            ]
        )
        assert code == 0
        assert out_md.read_text() == capsys.readouterr().out

    def test_cli_bad_tolerances_is_a_usage_error(self, tmp_path, capsys):
        bad = tmp_path / "t.json"
        bad.write_text("{}")
        code = main(
            [
                "bench-compare",
                str(tmp_path), str(tmp_path), "--tolerances", str(bad),
            ]
        )
        assert code == 2
        assert "bad tolerances" in capsys.readouterr().err

    def test_empty_directories_fail(self, tmp_path, capsys):
        (tmp_path / "a").mkdir()
        (tmp_path / "b").mkdir()
        code = main(
            [
                "bench-compare",
                str(tmp_path / "a"),
                str(tmp_path / "b"),
                "--tolerances", str(TOLERANCES),
            ]
        )
        assert code == 1
