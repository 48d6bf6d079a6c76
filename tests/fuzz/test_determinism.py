"""Oracle-determinism: the engine's RNG is the only entropy, so two
runs of the same ``(seed, schedule, steps)`` must agree on *everything*
observable — step outcomes, recovery transcripts, hypervisor counts,
final clock, and the behavioural fingerprint."""

from __future__ import annotations

import pytest

from repro.fuzz import FuzzEngine, OracleViolation, SCHEDULES, replay_run

pytestmark = pytest.mark.slow

STEPS = 50


def trace_lines(engine: FuzzEngine) -> list[str]:
    return [
        f"{tsc} {kind} {detail}" for tsc, kind, detail in engine.env.recovery.trace
    ]


class TestDeterminism:
    @pytest.mark.parametrize("schedule", sorted(SCHEDULES))
    def test_identical_twin_runs(self, schedule):
        a = FuzzEngine(seed=11, schedule=schedule)
        b = FuzzEngine(seed=11, schedule=schedule)
        run_a = a.run(STEPS)
        run_b = b.run(STEPS)
        assert [s.describe() for s in run_a.steps] == [
            s.describe() for s in run_b.steps
        ]
        assert trace_lines(a) == trace_lines(b)  # identical recovery transcript
        assert run_a.counters == run_b.counters  # identical hypervisor counts
        assert run_a.final_clock == run_b.final_clock
        assert run_a.fingerprint == run_b.fingerprint

    def test_different_seeds_diverge(self):
        run_a = FuzzEngine(seed=1, schedule="baseline").run(STEPS)
        run_b = FuzzEngine(seed=2, schedule="baseline").run(STEPS)
        assert run_a.fingerprint != run_b.fingerprint

    @pytest.mark.parametrize("schedule", sorted(SCHEDULES))
    def test_replay_reproduces_recording(self, schedule):
        run = FuzzEngine(seed=3, schedule=schedule).run(STEPS)
        result = replay_run(run)
        assert result.matches, result.describe()
        assert result.diffs == []

    def test_replay_consumes_no_rng(self):
        run = FuzzEngine(seed=4, schedule="hostile").run(30)
        engine = FuzzEngine(seed=4, schedule="hostile")
        before = engine.rng.getstate()
        engine.replay(run.actions)
        assert engine.rng.getstate() == before


class TestMidRecoveryInjection:
    def test_injection_fires_during_recovery(self):
        engine = FuzzEngine(seed=1, schedule="recovery")
        engine.run(60)
        injects = [
            detail
            for _tsc, kind, detail in engine.env.recovery.trace
            if kind == "inject"
        ]
        assert injects, "recovery schedule never armed a mid-recovery fault"
        # The injected fault was contained: the run's oracles all held.
        assert engine.failure is None
        for detail in injects:
            assert "mid-recovery fault" in detail


class TestOracleIntegration:
    def test_custom_oracle_violation_recorded(self):
        engine = FuzzEngine(seed=5, schedule="baseline")

        def always_fails(env):
            raise OracleViolation("synthetic", "this machine is haunted")

        engine.oracles.add("synthetic", always_fails)
        run = engine.run(10)
        assert run.failure is not None
        assert run.failure["kind"] == "oracle"
        assert run.failure["step"] == 0  # checked after the very first step
        assert "[synthetic]" in run.failure["detail"]
        # The violation lands in the recovery transcript as an oracle entry.
        assert any(
            kind == "oracle" for _tsc, kind, _detail in engine.env.recovery.trace
        )
        # The engine stops at the failing step.
        assert len(run.steps) == 1

    def test_standing_oracles_named(self):
        engine = FuzzEngine(seed=6)
        names = engine.oracles.names()
        for expected in (
            "host-integrity",
            "ownership-disjoint",
            "ept-coverage",
            "vector-whitelist-closure",
            "scrub-clean",
            "clock-monotonic",
        ):
            assert expected in names
