"""The recovery state machine, policies in vivo, and MTTR metrics."""

from __future__ import annotations

import pytest

from repro.core.faults import EnclaveFaultError
from repro.core.features import CovirtConfig, Feature
from repro.hw.interrupts import ExceptionVector
from repro.pisces.enclave import EnclaveState
from repro.recovery.policy import (
    Quarantine,
    RestartAlways,
    RestartWithBackoff,
)
from repro.recovery.supervisor import RecoveryPhase
from repro.perf.trace import TraceKind

GiB = 1 << 30


def crash(enclave) -> None:
    bsp = enclave.assignment.core_ids[0]
    try:
        enclave.port.read(bsp, 50 * GiB, 8)
    except EnclaveFaultError:
        pass


def double_fault(enclave) -> None:
    bsp = enclave.assignment.core_ids[0]
    try:
        enclave.port.raise_exception(bsp, ExceptionVector.DOUBLE_FAULT)
    except EnclaveFaultError:
        pass


class TestStateMachine:
    def test_recovered_service_tracks_new_incarnation(self, env, small_layout):
        svc = env.launch_supervised(
            small_layout, CovirtConfig.full(), RestartAlways(), name="svc"
        )
        old_id = svc.enclave_id
        crash(svc.enclave)
        assert svc.phase is RecoveryPhase.RUNNING
        assert svc.incarnation == 2
        assert svc.enclave_id != old_id
        assert svc.past_enclave_ids == [old_id]
        assert svc.enclave.is_running
        assert svc.enclave.incarnation == 2

    def test_old_enclave_marked_recovered_with_successor(self, env, small_layout):
        svc = env.launch_supervised(
            small_layout, CovirtConfig.full(), RestartAlways(), name="svc"
        )
        old_id = svc.enclave_id
        crash(svc.enclave)
        old = env.mcp.kmod.enclaves[old_id]
        assert old.state is EnclaveState.RECOVERED
        assert old.successor_id == svc.enclave_id

    def test_crash_loop_keeps_recovering(self, env, small_layout):
        svc = env.launch_supervised(
            small_layout, CovirtConfig.full(),
            RestartWithBackoff(base_delay_cycles=1_000, max_retries=10),
            name="svc",
        )
        for expected in range(2, 6):
            crash(svc.enclave)
            assert svc.phase is RecoveryPhase.RUNNING
            assert svc.incarnation == expected
        assert len(svc.history) == 4

    def test_fault_history_accumulates_across_incarnations(self, env, small_layout):
        svc = env.launch_supervised(
            small_layout, CovirtConfig.full(), RestartAlways(), name="svc"
        )
        crash(svc.enclave)
        crash(svc.enclave)
        assert [k.kind for k in svc.history] == ["ept_violation"] * 2
        # Keys recorded against the incarnation that faulted.
        assert svc.history[0].enclave_id != svc.history[1].enclave_id
        assert svc.history[0].signature == svc.history[1].signature

    def test_trace_records_recovery_timeline(self, env, small_layout):
        svc = env.launch_supervised(
            small_layout, CovirtConfig.full(), RestartAlways(), name="svc"
        )
        crash(svc.enclave)
        records = env.recovery.trace.tail(env.recovery.trace.capacity)
        kinds = [r.kind for r in records]
        assert TraceKind.RECOVER in kinds
        assert TraceKind.CHECKPOINT in kinds
        details = " ".join(r.detail for r in records)
        assert "recovered as enclave" in details


class TestGiveUp:
    def test_backoff_gives_up_at_threshold(self, env, small_layout):
        svc = env.launch_supervised(
            small_layout, CovirtConfig.full(),
            RestartWithBackoff(base_delay_cycles=100, max_retries=2),
            name="svc",
        )
        crash(svc.enclave)
        assert svc.phase is RecoveryPhase.RUNNING
        crash(svc.enclave)
        assert svc.phase is RecoveryPhase.RUNNING
        crash(svc.enclave)  # third fault exceeds max_retries=2
        assert svc.phase is RecoveryPhase.GIVEN_UP
        assert not svc.enclave.is_running
        outcomes = [r.outcome for r in env.recovery.metrics.records]
        assert outcomes == ["recovered", "recovered", "gave-up"]


class TestQuarantineInVivo:
    def test_repeated_signature_parks_service(self, env, small_layout):
        svc = env.launch_supervised(
            small_layout, CovirtConfig.full(),
            Quarantine(inner=RestartAlways(), max_repeats=2),
            name="svc",
        )
        crash(svc.enclave)
        assert svc.phase is RecoveryPhase.RUNNING
        crash(svc.enclave)  # same signature, second strike
        assert svc.phase is RecoveryPhase.QUARANTINED
        assert not svc.enclave.is_running
        # The dossier of the quarantined incarnation is retained for
        # diagnosis — that's the point of stopping the restart loop.
        assert svc.enclave_id in env.controller.dossiers
        rec = env.recovery.metrics.records[-1]
        assert rec.outcome == "quarantined"

    def test_host_unharmed_after_quarantine(self, env, small_layout):
        svc = env.launch_supervised(
            small_layout, CovirtConfig.full(),
            Quarantine(inner=RestartAlways(), max_repeats=1),
            name="svc",
        )
        crash(svc.enclave)
        assert svc.phase is RecoveryPhase.QUARANTINED
        assert env.host.alive
        assert env.host.verify_integrity()


class TestMetrics:
    def test_mttr_is_nonzero_and_spans_detection_to_running(
        self, env, small_layout
    ):
        svc = env.launch_supervised(
            small_layout, CovirtConfig.full(),
            RestartWithBackoff(base_delay_cycles=5_000, jitter_fraction=0.0),
            name="svc",
        )
        crash(svc.enclave)
        rec = env.recovery.metrics.records[-1]
        assert rec.outcome == "recovered"
        assert rec.mttr_cycles > 5_000  # at least the backoff delay
        assert rec.backoff_cycles == 5_000
        assert rec.scrub_cycles > 0
        summary = env.recovery.metrics.by_fault_kind()["ept_violation"]
        assert summary.recovered == 1
        assert summary.mean_mttr_us > 0

    @pytest.mark.parametrize(
        "kind, config, inject",
        [
            ("ept_violation", CovirtConfig.full(), crash),
            ("abort_exception", CovirtConfig.full(), double_fault),
            ("triple_fault", CovirtConfig(features=Feature.MEMORY), double_fault),
        ],
        ids=["ept_violation", "abort_exception", "triple_fault"],
    )
    def test_every_fault_class_recovers_three_times(
        self, env, small_layout, kind, config, inject
    ):
        svc = env.launch_supervised(
            small_layout, config,
            RestartWithBackoff(base_delay_cycles=100_000, jitter_fraction=0.0),
            name=kind,
        )
        for _ in range(3):
            inject(svc.enclave)
            assert svc.phase is RecoveryPhase.RUNNING
        kinds = env.recovery.metrics.by_fault_kind()
        assert set(kinds) == {kind}
        assert kinds[kind].recovered == kinds[kind].attempts == 3
        assert kinds[kind].mean_mttr_cycles > 0

    def test_counters_fold_into_perf_counters(self, env, small_layout):
        svc = env.launch_supervised(
            small_layout, CovirtConfig.full(), RestartAlways(), name="svc"
        )
        crash(svc.enclave)
        counters = env.recovery.metrics.counters
        assert counters.recoveries == 1
        assert counters.recovery_cycles > 0
        assert counters.checkpoints_taken >= 2  # baseline + post-recovery
        merged = counters.merge(counters)
        assert merged.recoveries == 2

    def test_render_mentions_fault_kind(self, env, small_layout):
        svc = env.launch_supervised(
            small_layout, CovirtConfig.full(), RestartAlways(), name="svc"
        )
        crash(svc.enclave)
        out = env.recovery.metrics.render()
        assert "ept_violation" in out
        assert "MTTR" in out


class TestManualRecovery:
    def test_auto_off_leaves_service_terminated(self, env, small_layout):
        env.recovery.auto = False
        svc = env.launch_supervised(
            small_layout, CovirtConfig.full(), RestartAlways(), name="svc"
        )
        crash(svc.enclave)
        assert svc.phase is RecoveryPhase.TERMINATED
        assert svc.pending_key is not None
        env.recovery.recover("svc")
        assert svc.phase is RecoveryPhase.RUNNING
        assert svc.incarnation == 2

    def test_recover_running_service_rejected(self, env, small_layout):
        env.launch_supervised(
            small_layout, CovirtConfig.full(), RestartAlways(), name="svc"
        )
        with pytest.raises(ValueError, match="running"):
            env.recovery.recover("svc")
