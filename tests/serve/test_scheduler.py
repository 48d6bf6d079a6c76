"""Cooperative-scheduler unit tests: fairness, cancellation, crashes."""

from __future__ import annotations

import pytest

from repro.serve.protocol import (
    E_NO_SUCH_SESSION,
    E_SESSION_PARKED,
    ServeError,
)
from repro.serve.registry import SessionRegistry, TenantQuota
from repro.serve.scheduler import CooperativeScheduler, RunJob
from repro.serve.session import Session, SessionState

SLICE = 10_000_000


def _job(session, cycles, done, cancelled=None):
    return RunJob(
        session,
        cycles,
        slice_cycles=SLICE,
        on_done=lambda result, err: done.append((session.tenant, result, err)),
        is_cancelled=cancelled or (lambda: False),
    )


class TestFairness:
    def test_small_job_finishes_before_huge_job(self):
        sched = CooperativeScheduler()
        hog = Session("s1", "hog", "baseline", 1)
        small = Session("s2", "small", "baseline", 2)
        done = []
        sched.submit(_job(hog, 40 * SLICE, done))  # submitted FIRST
        sched.submit(_job(small, SLICE, done))
        sched.drain()
        finish_order = [tenant for tenant, _, _ in done]
        assert finish_order == ["small", "hog"]

    def test_jobs_interleave_slice_by_slice(self):
        sched = CooperativeScheduler()
        a = Session("s1", "a", "baseline", 1)
        b = Session("s2", "b", "baseline", 2)
        done = []
        sched.submit(_job(a, 3 * SLICE, done))
        sched.submit(_job(b, 3 * SLICE, done))
        # After two ticks each session has advanced exactly one slice.
        assert sched.tick() and sched.tick()
        assert a.slices_run == 1 and b.slices_run == 1

    def test_result_reports_totals(self):
        sched = CooperativeScheduler()
        session = Session("s1", "a", "baseline", 1)
        done = []
        sched.submit(_job(session, 2 * SLICE + 1, done))
        sched.drain()
        (_, result, err) = done[0]
        assert err is None
        assert result["cycles_advanced"] >= 2 * SLICE + 1
        # A slice may overshoot (fuzz actions are indivisible), so the
        # job can need anywhere from 1 to 3 slices — just not zero.
        assert result["slices"] >= 1
        assert result["clock"] == session.clock


class TestCancellation:
    def test_cancelled_job_dropped_without_reply(self):
        sched = CooperativeScheduler()
        session = Session("s1", "a", "baseline", 1)
        done = []
        gone = []
        sched.submit(_job(session, 10 * SLICE, done, cancelled=lambda: bool(gone)))
        assert sched.tick()
        gone.append(True)  # client disconnects after the first slice
        sched.drain()
        assert done == []  # nobody to answer
        assert sched.cancelled == 1
        # The session itself is untouched and still consistent.
        assert session.state.value == "running"
        session.step(1)


class TestCrashMidSlice:
    def test_crash_finishes_job_with_typed_error_and_queue_drains(self):
        sched = CooperativeScheduler()
        victim = Session("s1", "victim", "baseline", 1)
        bystander = Session("s2", "bystander", "baseline", 2)
        victim.step(3)
        victim.park("pre-parked by test")  # next slice hits the gate
        done = []
        sched.submit(_job(victim, 5 * SLICE, done))
        sched.submit(_job(bystander, SLICE, done))
        sched.drain()
        by_tenant = {tenant: (result, err) for tenant, result, err in done}
        result, err = by_tenant["victim"]
        assert result is None and isinstance(err, ServeError)
        assert err.code == E_SESSION_PARKED
        result, err = by_tenant["bystander"]
        assert err is None and result["cycles_advanced"] >= SLICE

    def test_empty_queue_tick_is_a_noop(self):
        sched = CooperativeScheduler()
        assert sched.tick() is False
        assert sched.idle


class TestKilledSession:
    def test_queued_run_ends_with_no_such_session(self):
        registry = SessionRegistry(TenantQuota(max_cycles_per_slice=5_000_000))
        session = registry.launch("t", "baseline", 7)
        session.step(2)
        sched = CooperativeScheduler()
        done = []
        sched.submit(
            RunJob(session, 2_000_000_000, 5_000_000,
                   on_done=lambda result, err: done.append((result, err)))
        )
        sched.tick()
        registry.kill("t", session.session_id)
        steps = session.steps_applied
        enclaves = sorted(session.env.mcp.kmod.enclaves)
        sched.drain()
        # The killed machine took no further step and launched nothing.
        assert session.steps_applied == steps
        assert sorted(session.env.mcp.kmod.enclaves) == enclaves
        ((result, err),) = done
        assert result is None
        assert err.code == E_NO_SUCH_SESSION

    def test_killed_session_refuses_work(self):
        session = Session("s1", "a", "baseline", 1)
        session.kill()
        assert session.state is SessionState.KILLED
        for work in (lambda: session.step(1), lambda: session.advance(SLICE)):
            with pytest.raises(ServeError) as exc:
                work()
            assert exc.value.code == E_NO_SUCH_SESSION


class TestValidation:
    def test_nonpositive_budgets_rejected(self):
        session = Session("s1", "a", "baseline", 1)
        with pytest.raises(ValueError):
            RunJob(session, 0, slice_cycles=SLICE, on_done=lambda r, e: None)
        with pytest.raises(ValueError):
            RunJob(session, SLICE, slice_cycles=0, on_done=lambda r, e: None)
