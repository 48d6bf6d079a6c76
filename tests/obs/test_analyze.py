"""Trace analytics tests (repro.obs.analyze + the trace-analyze CLI)."""

from __future__ import annotations

import json

import pytest

from repro.cli import main as cli_main
from repro.hw.clock import Clock
from repro.obs.analyze import (
    critical_path,
    diff_traces,
    exit_attribution,
    load_chrome_trace,
    load_golden_transcript,
    load_trace,
    render_diff,
    render_report,
    rollups,
)
from repro.obs.export import chrome_trace
from repro.obs.scenario import run_canonical_scenario
from repro.obs.spans import SpanTracer


def make_tracer() -> SpanTracer:
    """outer(0..100) { inner(10..40) { leaf(20..30) }, hv.exit(50..90) }"""
    tracer = SpanTracer(Clock())
    outer = tracer.begin("outer", track="core0", now=0)
    inner = tracer.begin("inner", track="core0", now=10)
    tracer.complete("leaf", 20, 30, track="core0")
    tracer.end(inner, now=40)
    tracer.complete(
        "hv.exit.ept_violation", 50, 90, track="core0", enclave=1
    )
    tracer.end(outer, now=100)
    return tracer


@pytest.fixture
def model():
    return load_chrome_trace(chrome_trace(make_tracer().spans))


class TestLoaders:
    def test_chrome_roundtrip_rebuilds_nesting(self, model):
        assert [s.name for s in model.spans] == [
            "outer", "inner", "leaf", "hv.exit.ept_violation"
        ]
        outer = model.spans[0]
        assert outer.depth == 0
        assert [c.name for c in outer.children] == [
            "inner", "hv.exit.ept_violation"
        ]
        assert outer.children[0].children[0].name == "leaf"

    def test_chrome_durations_exact_in_cycles(self, model):
        by_name = {s.name: s for s in model.spans}
        assert by_name["outer"].duration == 100
        assert by_name["inner"].duration == 30
        assert by_name["hv.exit.ept_violation"].duration == 40

    def test_rejects_non_trace_document(self):
        with pytest.raises(ValueError):
            load_chrome_trace({"not": "a trace"})

    @pytest.mark.parametrize(
        "events, field",
        [
            ([{"ph": "X", "name": "a"}], "'ts'"),
            ([{"ph": "X", "name": "a", "ts": 0, "dur": 1}], "'tid'"),
            ([{"ph": "M", "name": "thread_name", "tid": 1}], "'args'"),
            ([{"ph": "X", "name": "a", "ts": "0", "dur": 1}], "'ts'"),
            ([{"ph": "X"}, 7], "event 1: not an object"),
        ],
        ids=["no-ts", "no-tid", "thread-name-no-args", "str-ts", "not-object"],
    )
    def test_malformed_event_names_its_index_and_field(self, events, field):
        with pytest.raises(ValueError, match=field) as info:
            load_chrome_trace({"traceEvents": events})
        assert "trace event" in str(info.value)

    def test_golden_transcript_loads_structure_only(self):
        model = load_golden_transcript(
            [
                "[scenario] scenario.boot",
                "  [core0] hv.launch",
                "  [core0] hv.exit.cpuid",
                "[scenario] scenario.fault",
            ]
        )
        assert not model.timed
        boot = model.spans[0]
        assert [c.name for c in boot.children] == [
            "hv.launch", "hv.exit.cpuid"
        ]
        assert model.spans[3].depth == 0

    def test_golden_transcript_rejects_malformed_line(self):
        with pytest.raises(ValueError):
            load_golden_transcript(["no track marker"])

    def test_load_trace_sniffs_format(self, tmp_path):
        doc = chrome_trace(make_tracer().spans)
        json_path = tmp_path / "t.json"
        json_path.write_text(json.dumps(doc))
        txt_path = tmp_path / "t.txt"
        txt_path.write_text("[a] x\n")
        assert load_trace(json_path).timed
        assert not load_trace(txt_path).timed


class TestAnalytics:
    def test_critical_path_descends_by_duration(self, model):
        path = critical_path(model, "core0")
        assert [s.name for s in path] == ["outer", "hv.exit.ept_violation"]

    def test_critical_path_empty_track(self, model):
        assert critical_path(model, "nope") == []

    def test_exit_attribution_by_reason_and_enclave(self, model):
        table = exit_attribution(model)
        assert set(table) == {"ept_violation"}
        row = table["ept_violation"]
        assert row["count"] == 1
        assert row["cycles"] == 40
        assert row["by_enclave"]["1"] == {"count": 1, "cycles": 40}

    def test_rollups_fold_paths_with_self_time(self, model):
        folds = rollups(model)
        assert folds["[core0];outer"]["cycles"] == 100
        # outer self = 100 - (30 + 40) = 30
        assert folds["[core0];outer"]["self"] == 30
        assert folds["[core0];outer;inner;leaf"]["count"] == 1


class TestDiff:
    def test_identical_traces_diff_empty(self, model):
        other = load_chrome_trace(chrome_trace(make_tracer().spans))
        assert diff_traces(model, other).empty

    def test_detects_added_and_removed_paths(self, model):
        tracer = make_tracer()
        tracer.complete("extra", 95, 99, track="core0")
        other = load_chrome_trace(chrome_trace(tracer.spans))
        diff = diff_traces(model, other)
        assert "[core0];outer;extra" in diff.added
        assert not diff.removed

    def test_detects_retiming_beyond_threshold(self, model):
        tracer = SpanTracer(Clock())
        outer = tracer.begin("outer", track="core0", now=0)
        inner = tracer.begin("inner", track="core0", now=10)
        tracer.complete("leaf", 20, 30, track="core0")
        tracer.end(inner, now=40)
        tracer.complete(
            "hv.exit.ept_violation", 50, 90, track="core0", enclave=1
        )
        tracer.end(outer, now=200)  # outer retimed 100 → 200
        other = load_chrome_trace(chrome_trace(tracer.spans))
        diff = diff_traces(model, other, threshold=0.05)
        assert diff.retimed["[core0];outer"] == (100, 200)
        # Below-threshold differences stay quiet.
        assert "[core0];outer;inner" not in diff.retimed

    def test_count_changes_reported_even_untimed(self):
        a = load_golden_transcript(["[t] x", "[t] x"])
        b = load_golden_transcript(["[t] x"])
        diff = diff_traces(a, b)
        assert diff.recounted["[t];x"] == (2, 1)


class TestRendering:
    def test_report_deterministic(self, model):
        again = load_chrome_trace(chrome_trace(make_tracer().spans))
        assert render_report(model) == render_report(again)

    def test_diff_render_mentions_each_kind(self, model):
        tracer = make_tracer()
        tracer.complete("extra", 95, 99, track="core0")
        other = load_chrome_trace(chrome_trace(tracer.spans))
        text = render_diff(diff_traces(model, other))
        assert "added    [core0];outer;extra" in text

    def test_identical_render_says_so(self, model):
        text = render_diff(diff_traces(model, model))
        assert "structurally identical" in text


class TestCli:
    def test_trace_analyze_report_is_deterministic(self, tmp_path, capsys):
        trace = tmp_path / "t.json"
        env = run_canonical_scenario()
        trace.write_text(
            json.dumps(chrome_trace(env.machine.obs.tracer.spans))
        )
        assert cli_main(["trace-analyze", str(trace)]) == 0
        first = capsys.readouterr().out
        assert cli_main(["trace-analyze", str(trace)]) == 0
        second = capsys.readouterr().out
        assert first == second
        assert "critical path" in first
        assert "exit latency attribution" in first

    def test_trace_analyze_diff_exit_codes(self, tmp_path, capsys):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        a.write_text(json.dumps(chrome_trace(make_tracer().spans)))
        tracer = make_tracer()
        tracer.complete("extra", 95, 99, track="core0")
        b.write_text(json.dumps(chrome_trace(tracer.spans)))
        assert cli_main(
            ["trace-analyze", str(a), "--diff", str(a), "--fail-on-diff"]
        ) == 0
        capsys.readouterr()
        assert cli_main(
            ["trace-analyze", str(a), "--diff", str(b), "--fail-on-diff"]
        ) == 1
        out = capsys.readouterr().out
        assert "added" in out

    @pytest.mark.parametrize(
        "events, field",
        [
            ([{"ph": "X", "name": "a"}], "'ts'"),
            ([{"ph": "X", "name": "a", "ts": 0, "dur": 1}], "'tid'"),
        ],
        ids=["no-ts", "no-tid"],
    )
    def test_malformed_trace_is_a_one_line_error(
        self, tmp_path, capsys, events, field
    ):
        trace = tmp_path / "trace.json"
        trace.write_text(json.dumps({"traceEvents": events}))
        assert cli_main(["trace-analyze", str(trace)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"trace-analyze: unreadable {trace}:")
        assert "trace event 0" in err and field in err
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("content", [None, "{not json"])
    def test_unreadable_trace_is_a_one_line_error(
        self, tmp_path, capsys, content
    ):
        # Exit 1 means "the traces differ"; unreadable input is 2.
        trace = tmp_path / "trace.json"
        if content is not None:
            trace.write_text(content)
        assert cli_main(["trace-analyze", str(trace)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("trace-analyze:")
        assert str(trace) in err
        assert len(err.strip().splitlines()) == 1
