"""The fuzz-family exit-code contract, pinned.

CI scripting (the nightly farm included) distinguishes three outcomes:

* ``0`` — clean: nothing found, nothing diverged;
* ``1`` — a finding: an oracle violation / unexpected exception was
  (re)produced, or a corpus replay diverged;
* ``2`` — internal error: bad arguments, unreadable or incompatible
  corpus entries, or a crash in the tool itself.

Everything runs in-process through :func:`repro.cli.main` so the pins
cover the real dispatch path.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro import cli
from repro.fuzz import FuzzEngine, save_run
from repro.fuzz.engine import FuzzEngine as EngineClass
from repro.fuzz.recorder import FuzzRun

CORPUS_DIR = Path(__file__).parent / "corpus"


@pytest.fixture(scope="module")
def tiny_sweep_spec(tmp_path_factory) -> Path:
    """A one-cell, one-seed pure sweep grid on disk (fast to run)."""
    from repro.sweep import SweepSpec

    spec = SweepSpec(
        schedules=("baseline",), enclaves=(0,), steps=8, seeds_per_cell=1
    )
    path = tmp_path_factory.mktemp("sweep") / "spec.json"
    path.write_text(json.dumps(spec.to_dict()))
    return path


@pytest.fixture(scope="module")
def clean_entry(tmp_path_factory) -> Path:
    """A small recorded clean run on disk."""
    run = FuzzEngine(seed=21, schedule="baseline").run(15)
    assert run.failure is None
    return save_run(run, tmp_path_factory.mktemp("corpus"))


def fabricate_failure(run: FuzzRun) -> FuzzRun:
    run.failure = {
        "step": 0,
        "kind": "oracle",
        "detail": "[fabricated] injected by test",
    }
    return run


class TestExitZero:
    def test_fuzz_clean_single_run(self, capsys):
        assert cli.main(["fuzz", "--steps", "10", "--seed", "3"]) == 0

    def test_fuzz_clean_campaign(self, capsys):
        rc = cli.main(
            ["fuzz", "--budget", "8", "--steps", "10", "--quiet"]
        )
        assert rc == 0

    def test_replay_committed_entry(self, capsys):
        entry = sorted(CORPUS_DIR.glob("*.json"))[0]
        assert cli.main(["replay", str(entry)]) == 0

    def test_shrink_clean_entry_is_a_noop(self, clean_entry, capsys):
        assert cli.main(["shrink", str(clean_entry)]) == 0

    def test_distill_corpus_dir(self, clean_entry, capsys):
        assert cli.main(["distill", str(clean_entry.parent)]) == 0

    def test_sweep_clean_grid(self, tiny_sweep_spec, capsys):
        rc = cli.main(["sweep", "--spec", str(tiny_sweep_spec), "--quiet"])
        assert rc == 0

    def test_sweep_list_cells(self, tiny_sweep_spec, capsys):
        rc = cli.main(
            ["sweep", "--spec", str(tiny_sweep_spec), "--list-cells"]
        )
        assert rc == 0
        assert "baseline/e0" in capsys.readouterr().out


class TestExitOneFinding:
    def test_fuzz_returns_1_on_oracle_violation(self, monkeypatch, capsys):
        real_run = EngineClass.run

        def failing_run(self, steps):
            return fabricate_failure(real_run(self, steps))

        monkeypatch.setattr(EngineClass, "run", failing_run)
        assert cli.main(["fuzz", "--steps", "5", "--seed", "3"]) == 1

    def test_replay_returns_1_on_divergence(self, tmp_path, capsys):
        entry = sorted(CORPUS_DIR.glob("*.json"))[0]
        doc = json.loads(entry.read_text())
        doc["steps"][0]["outcome"] = "tampered-by-test"
        bad = tmp_path / "diverges.json"
        bad.write_text(json.dumps(doc))
        assert cli.main(["replay", str(bad)]) == 1
        out = capsys.readouterr().out
        assert "DIVERGED" in out

    def test_shrink_returns_1_when_failure_reproduces(
        self, tmp_path, monkeypatch, capsys
    ):
        run = FuzzEngine(seed=21, schedule="baseline").run(6)
        path = save_run(fabricate_failure(run), tmp_path)

        # Patch replay so every candidate "reproduces" the failure —
        # ddmin then minimizes and the CLI must report the finding.
        def fake_replay(self, actions):
            mini = FuzzRun(
                seed=21,
                schedule="baseline",
                steps=[],
                fingerprint="0" * 64,
                final_clock=0,
                counters={},
            )
            return fabricate_failure(mini)

        monkeypatch.setattr(EngineClass, "replay", fake_replay)
        assert cli.main(["shrink", str(path), "--max-executions", "8"]) == 1

    def test_shrink_returns_0_when_failure_is_stale(
        self, tmp_path, capsys
    ):
        """A fabricated failure that the real engine does not reproduce:
        the bug is gone, so the exit is clean."""
        run = FuzzEngine(seed=21, schedule="baseline").run(6)
        path = save_run(fabricate_failure(run), tmp_path)
        assert cli.main(["shrink", str(path), "--max-executions", "8"]) == 0
        assert "no longer reproduces" in capsys.readouterr().out


    def test_sweep_returns_1_on_a_failing_cell(
        self, tiny_sweep_spec, monkeypatch, capsys
    ):
        import repro.sweep.runner as sweep_runner

        real_run_cell = sweep_runner.run_cell

        def failing_run_cell(cell, seed, env=None):
            run = real_run_cell(cell, seed, env=env)
            run.failure = {
                "step": 0,
                "kind": "oracle",
                "detail": "[fabricated] injected by test",
            }
            return run

        monkeypatch.setattr(sweep_runner, "run_cell", failing_run_cell)
        rc = cli.main(["sweep", "--spec", str(tiny_sweep_spec), "--quiet"])
        assert rc == 1
        assert "FINDING:" in capsys.readouterr().out


class TestExitTwoInternalError:
    def test_fuzz_unknown_schedule(self, capsys):
        assert cli.main(["fuzz", "--schedule", "nope", "--steps", "5"]) == 2

    def test_fuzz_campaign_unknown_schedule(self, capsys):
        rc = cli.main(["fuzz", "--budget", "4", "--schedules", "nope"])
        assert rc == 2

    def test_fuzz_campaign_without_budget(self, capsys):
        assert cli.main(["fuzz", "--workers", "2", "--budget", "0"]) == 2

    def test_replay_missing_path(self, capsys):
        assert cli.main(["replay", "/nonexistent/corpus.json"]) == 2

    def test_replay_rejects_old_format(self, tmp_path, capsys):
        old = tmp_path / "format1.json"
        old.write_text(json.dumps({"format": 1, "seed": 0}))
        assert cli.main(["replay", str(old)]) == 2
        err = capsys.readouterr().err
        assert "unsupported corpus format" in err
        assert "KeyError" not in err

    def test_shrink_unreadable_entry(self, tmp_path, capsys):
        bad = tmp_path / "garbage.json"
        bad.write_text("{not json")
        assert cli.main(["shrink", str(bad)]) == 2

    def test_distill_empty_dir(self, tmp_path, capsys):
        assert cli.main(["distill", str(tmp_path)]) == 2

    def test_sweep_missing_spec_file(self, capsys):
        rc = cli.main(["sweep", "--spec", "/nonexistent/spec.json"])
        assert rc == 2

    def test_sweep_rejects_unknown_spec_schema_version(
        self, tmp_path, capsys
    ):
        from repro.sweep import SweepSpec

        doc = dict(SweepSpec().to_dict(), schema_version=99)
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(doc))
        assert cli.main(["sweep", "--spec", str(path)]) == 2
        assert "schema_version" in capsys.readouterr().err

    def test_sweep_rejects_bad_grid_axis(self, tmp_path, capsys):
        from repro.sweep import SweepSpec

        doc = dict(SweepSpec().to_dict(), schedules=["nope"])
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(doc))
        assert cli.main(["sweep", "--spec", str(path)]) == 2
        assert "unknown schedule" in capsys.readouterr().err


def _crash(*args, **kwargs):
    raise RuntimeError("injected by test")


class TestExitTwoToolCrash:
    """A crash inside the tool itself: exit 2, a traceback, and one
    ``<tool>: internal error`` line on stderr."""

    def assert_internal_error(self, tool, argv, capsys):
        assert cli.main([tool, *argv]) == 2
        err = capsys.readouterr().err
        assert "Traceback" in err
        assert f"{tool}: internal error: injected by test" in err

    def test_fuzz(self, monkeypatch, capsys):
        monkeypatch.setattr(EngineClass, "run", _crash)
        self.assert_internal_error("fuzz", ["--steps", "5"], capsys)

    def test_replay(self, monkeypatch, capsys):
        import repro.fuzz

        monkeypatch.setattr(repro.fuzz, "replay_run", _crash)
        self.assert_internal_error("replay", [str(CORPUS_DIR)], capsys)

    def test_shrink(self, tmp_path, monkeypatch, capsys):
        import repro.fuzz

        run = FuzzEngine(seed=21, schedule="baseline").run(6)
        path = save_run(fabricate_failure(run), tmp_path)
        monkeypatch.setattr(repro.fuzz, "shrink_run", _crash)
        self.assert_internal_error("shrink", [str(path)], capsys)

    def test_distill(self, monkeypatch, capsys):
        import repro.fuzz

        monkeypatch.setattr(repro.fuzz, "distill_runs", _crash)
        self.assert_internal_error("distill", [str(CORPUS_DIR)], capsys)

    def test_sweep(self, tiny_sweep_spec, monkeypatch, capsys):
        import repro.sweep

        monkeypatch.setattr(repro.sweep.SweepExecutor, "run", _crash)
        self.assert_internal_error(
            "sweep", ["--spec", str(tiny_sweep_spec), "--quiet"], capsys
        )
