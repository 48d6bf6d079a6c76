"""Tests for the BENCH_*.json pipeline (benchmarks/runner.py + schema)."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

from repro.obs import metric_names
from repro.obs.schema import (
    BENCH_SCHEMA_NAME,
    BENCH_SCHEMA_VERSION,
    validate_bench,
)

REPO_ROOT = Path(__file__).resolve().parents[2]


def _load_runner():
    spec = importlib.util.spec_from_file_location(
        "bench_runner", REPO_ROOT / "benchmarks" / "runner.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def runner():
    return _load_runner()


@pytest.fixture(scope="module")
def recovery_doc(runner):
    return runner.run_scenario("recovery", quick=True)


class TestRunner:
    def test_quick_scenario_is_schema_valid(self, recovery_doc):
        assert validate_bench(recovery_doc) == []
        assert recovery_doc["schema"] == BENCH_SCHEMA_NAME
        assert recovery_doc["schema_version"] == BENCH_SCHEMA_VERSION
        assert recovery_doc["quick"] is True

    def test_exit_counts_cover_the_protection_surface(self, recovery_doc):
        exits = recovery_doc["exits_by_reason"]
        assert exits  # never empty
        for reason in ("ept_violation", "msr_write", "io_instruction"):
            assert exits.get(reason, 0) > 0

    def test_latency_histograms_populated(self, recovery_doc):
        hists = recovery_doc["metrics"]["histograms"]
        for name in (metric_names.EXIT_CYCLES, metric_names.MTTR_CYCLES):
            assert any(s["count"] > 0 for s in hists[name]["samples"])

    def test_doc_is_json_serialisable_and_deterministic(self, runner, recovery_doc):
        again = runner.run_scenario("recovery", quick=True)
        assert json.dumps(recovery_doc, sort_keys=True) == json.dumps(
            again, sort_keys=True
        )

    def test_every_scenario_registered(self, runner):
        assert set(runner.SCENARIOS) == {
            "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "recovery",
            "fuzz", "sweep", "telemetry",
        }

    def test_fuzz_scenario_rows_cover_both_modes(self, runner):
        doc = runner.run_scenario("fuzz", quick=True)
        assert validate_bench(doc) == []
        by_mode = {row["mode"]: row for row in doc["results"]}
        assert set(by_mode) == {"guided", "random"}
        assert by_mode["guided"]["edges"] > 0
        assert (
            by_mode["guided"]["distilled_entries"]
            <= by_mode["guided"]["corpus_entries"]
        )

    def test_workload_scenario_rows_carry_config_and_fom(self, runner):
        doc = runner.run_scenario("fig5", quick=True)
        assert validate_bench(doc) == []
        rows = doc["results"]
        assert {row["workload"] for row in rows} == {"STREAM", "RandomAccess_OMP"}
        for row in rows:
            assert set(row) >= {"config", "fom", "elapsed_cycles"}

    def test_main_writes_and_validates(self, runner, tmp_path, capsys):
        rc = runner.main(
            ["--quick", "--only", "recovery", "--out-dir", str(tmp_path)]
        )
        assert rc == 0
        path = tmp_path / "BENCH_recovery.json"
        assert validate_bench(json.loads(path.read_text())) == []


class TestCommittedArtifacts:
    def test_repo_root_carries_schema_valid_artifacts(self):
        paths = sorted(REPO_ROOT.glob("BENCH_*.json"))
        assert len(paths) >= 5, "expected the committed BENCH_*.json set"
        for path in paths:
            doc = json.loads(path.read_text())
            assert validate_bench(doc) == [], f"{path.name} invalid"
            assert doc["bench"] in path.name

    @pytest.mark.parametrize(
        "name", ["fig3", "fig4", "fig5", "fig6", "fig7", "fig8"]
    )
    def test_figure_artifacts_match_the_code(self, runner, name):
        """The committed BENCH_fig*.json rows are what the figure's one
        definition in repro.harness.experiments produces today."""
        committed = json.loads((REPO_ROOT / f"BENCH_{name}.json").read_text())
        assert committed["quick"] is False
        doc = runner.run_scenario(name, quick=False)
        assert doc["results"] == committed["results"]


class TestBenchValidator:
    def _valid_doc(self, runner):
        return runner.run_scenario("recovery", quick=True)

    def test_missing_key_reported(self, recovery_doc):
        doc = dict(recovery_doc)
        del doc["exits_by_reason"]
        assert any("exits_by_reason" in p for p in validate_bench(doc))

    def test_wrong_schema_name_and_version(self, recovery_doc):
        doc = dict(recovery_doc, schema="other", schema_version=99)
        problems = validate_bench(doc)
        assert any("schema must be" in p for p in problems)
        assert any("schema_version" in p for p in problems)

    def test_empty_exits_rejected(self, recovery_doc):
        doc = dict(recovery_doc, exits_by_reason={})
        assert any("must not be empty" in p for p in validate_bench(doc))

    def test_unpopulated_histograms_rejected(self, recovery_doc):
        doc = dict(
            recovery_doc,
            metrics={"counters": {}, "gauges": {}, "histograms": {}},
        )
        assert any("populated" in p for p in validate_bench(doc))

    def test_bucket_count_mismatch_rejected(self, recovery_doc):
        doc = json.loads(json.dumps(recovery_doc))
        hist = doc["metrics"]["histograms"][metric_names.EXIT_CYCLES]
        hist["samples"][0]["counts"] = [1, 2, 3]
        assert any("len(bounds)+1" in p for p in validate_bench(doc))

    def test_non_object_document(self):
        assert validate_bench([1, 2]) != []

    def test_unknown_schema_version_message_names_the_supported_one(
        self, recovery_doc
    ):
        doc = dict(recovery_doc, schema_version=BENCH_SCHEMA_VERSION + 1)
        problems = validate_bench(doc)
        assert any(
            "unknown schema_version" in p and "understands" in p
            for p in problems
        )

    def test_unknown_bench_name_rejected(self, recovery_doc):
        doc = dict(recovery_doc, bench="fig99")
        assert any("unknown bench" in p for p in validate_bench(doc))

    def test_missing_figure_keys_rejected(self, runner):
        doc = runner.run_scenario("fig5", quick=True)
        broken = json.loads(json.dumps(doc))
        del broken["results"][0]["fom"]
        problems = validate_bench(broken)
        assert any("missing figure keys" in p and "fom" in p for p in problems)


class TestBenchValidateCli:
    def test_exit_1_and_clear_message_on_unknown_schema_version(
        self, recovery_doc, tmp_path, capsys
    ):
        from repro.cli import main as cli_main

        doc = dict(recovery_doc, schema_version=99)
        path = tmp_path / "BENCH_recovery.json"
        path.write_text(json.dumps(doc))
        assert cli_main(["bench-validate", str(path)]) == 1
        out = capsys.readouterr().out
        assert "INVALID" in out
        assert "unknown schema_version 99" in out

    def test_exit_1_on_missing_figure_keys(self, runner, tmp_path, capsys):
        from repro.cli import main as cli_main

        doc = runner.run_scenario("fig4", quick=True)
        del doc["results"][0]["attach_us"]
        path = tmp_path / "BENCH_fig4.json"
        path.write_text(json.dumps(doc))
        assert cli_main(["bench-validate", str(path)]) == 1
        out = capsys.readouterr().out
        assert "missing figure keys" in out

    def test_exit_0_on_the_committed_artifacts(self, capsys):
        from repro.cli import main as cli_main

        paths = [str(p) for p in sorted(REPO_ROOT.glob("BENCH_*.json"))]
        assert cli_main(["bench-validate", *paths]) == 0
        assert "ok" in capsys.readouterr().out
