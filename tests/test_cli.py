"""The command-line interface."""

import contextlib
import io
import json

import pytest

from repro.cli import EXPERIMENTS, main


@pytest.fixture(scope="module")
def run_all(tmp_path_factory):
    """``repro run all --json DIR``, once: its stdout, and every
    experiment's records keyed by experiment name."""
    out_dir = tmp_path_factory.mktemp("run-all")
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        assert main(["run", "all", "--json", str(out_dir)]) == 0
    records = {
        path.stem: json.loads(path.read_text())["records"]
        for path in out_dir.glob("*.json")
    }
    return stdout.getvalue(), records


class TestCli:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in EXPERIMENTS:
            assert name in out

    def test_run_single(self, capsys):
        assert main(["run", "table1"]) == 0
        assert "Benchmark Name" in capsys.readouterr().out

    def test_run_multiple(self, capsys):
        assert main(["run", "fig5a", "fig5b"]) == 0
        out = capsys.readouterr().out
        assert "STREAM" in out and "RandomAccess" in out

    def test_unknown_experiment(self, capsys):
        assert main(["run", "fig99"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_fault_demo(self, capsys):
        assert main(["fault-demo"]) == 0
        out = capsys.readouterr().out
        assert "FAULT DOSSIER" in out
        assert "host survived: True" in out

    def test_every_registered_experiment_runs(self, run_all):
        out, records = run_all
        assert "Fig. 8" in out and "Ablation" in out
        assert set(records) == set(EXPERIMENTS)


class TestRunAllRecords:
    """What each experiment beyond the figures must show, read from the
    one ``run all`` pass."""

    def test_sync_updates_service_more_commands_than_async(self, run_all):
        async_row, sync_row = run_all[1]["ablation-async"]
        assert sync_row["commands serviced"] > async_row["commands serviced"]

    def test_coalesced_ept_has_fewer_4k_entries(self, run_all):
        coalesced, flat = run_all[1]["ablation-coalescing"]
        assert coalesced["4K entries"] < flat["4K entries"]

    def test_both_ipi_modes_appear(self, run_all):
        modes = {row["mode"] for row in run_all[1]["ablation-ipi-mode"]}
        assert {"posted", "trap"} <= modes

    def test_isolation_rows(self, run_all):
        assert len(run_all[1]["isolation"]) == 6

    def test_delegation_cost_falls_with_integration(self, run_all):
        latencies = [
            row["syscall latency (us)"]
            for row in run_all[1]["integration-spectrum"]
            if row["config"] == "native"
        ]
        # Hobbes channel > IHK proxy > mOS trampoline.
        assert latencies[0] > latencies[1] > latencies[2]

    def test_sensitivity_ordering_holds_in_every_cell(self, run_all):
        cells = run_all[1]["sensitivity"]
        assert len(cells) == 9
        assert all(row["ordering holds"] == "yes" for row in cells)


class TestTraceExportPostmortemDir:
    def test_missing_directory_is_created(self, tmp_path, capsys):
        target = tmp_path / "not" / "yet" / "there"
        out = tmp_path / "trace.json"
        assert main([
            "trace-export", "--out", str(out),
            "--postmortem-dir", str(target),
        ]) == 0
        assert target.is_dir()
        # The canonical scenario's containment fault dumps a bundle.
        assert list(target.glob("postmortem_*.json"))
        assert "post-mortem" in capsys.readouterr().out

    def test_unwritable_path_is_a_one_line_error(self, tmp_path, capsys):
        # A path routed through an existing *file* can never become a
        # directory — even running as root (chmod tricks don't bite
        # root, this does).
        blocker = tmp_path / "blocker"
        blocker.write_text("i am a file")
        assert main([
            "trace-export", "--out", str(tmp_path / "trace.json"),
            "--postmortem-dir", str(blocker / "sub"),
        ]) == 2
        err = capsys.readouterr().err
        assert err.startswith("trace-export:")
        assert len(err.strip().splitlines()) == 1  # one line, no traceback


class TestServeCli:
    def test_serve_demo_transcript(self, capsys):
        assert main(["serve-demo", "--seed", "11"]) == 0
        out = capsys.readouterr().out
        for method in ("session.launch", "session.step", "session.run",
                       "session.inspect", "session.inject", "session.trace",
                       "session.kill"):
            assert f"--> {method}" in out
        assert "serve-demo: ok" in out

    def test_serve_help_routes_to_daemon_parser(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["serve", "--help"])
        assert exc.value.code == 0
        assert "covirt-serve" in capsys.readouterr().out
