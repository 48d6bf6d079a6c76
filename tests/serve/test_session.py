"""Session unit tests: determinism, slicing, parking, post-mortems."""

from __future__ import annotations

import pytest

from repro.obs.schema import validate_postmortem
from repro.serve.protocol import E_INVALID_PARAMS, E_SESSION_PARKED, ServeError
from repro.serve.session import (
    MAX_STEPS_PER_SLICE,
    PARK_TRIGGER,
    SCENARIOS,
    Session,
    SessionState,
)


class TestDeterminism:
    def test_same_seed_same_outcomes(self):
        a = Session("s1", "alice", "baseline", 42)
        b = Session("s2", "bob", "baseline", 42)
        assert a.step(25) == b.step(25)
        assert a.clock == b.clock

    def test_different_seeds_diverge(self):
        a = Session("s1", "alice", "baseline", 1)
        b = Session("s2", "alice", "baseline", 2)
        # 30 steps of a seeded schedule virtually never coincide fully.
        assert a.step(30) != b.step(30)

    def test_scenarios_cover_every_schedule(self):
        assert set(SCENARIOS) == {"baseline", "hostile", "churn", "recovery"}
        with pytest.raises(ServeError) as exc:
            Session("s1", "alice", "nope", 1)
        assert exc.value.code == E_INVALID_PARAMS


class TestAdvance:
    def test_advance_honours_cycle_contract(self):
        session = Session("s1", "alice", "baseline", 7)
        out = session.advance(10_000_000)
        assert out["cycles"] >= 10_000_000
        assert out["steps"] <= MAX_STEPS_PER_SLICE
        assert out["clock"] == session.clock

    def test_advance_accumulates_slices(self):
        session = Session("s1", "alice", "baseline", 7)
        session.advance(5_000_000)
        session.advance(5_000_000)
        assert session.slices_run == 2


class TestParking:
    def _park(self, session: Session) -> ServeError:
        with pytest.raises(ServeError) as exc:
            session.inject("crash", {"reason": "test crash"})
        return exc.value

    def test_injected_crash_parks_with_typed_error(self):
        session = Session("s1", "alice", "baseline", 7)
        session.step(5)
        err = self._park(session)
        assert err.code == E_SESSION_PARKED
        assert session.state is SessionState.PARKED
        assert "test crash" in session.park_reason

    def test_park_freezes_a_valid_postmortem(self):
        session = Session("s1", "alice", "baseline", 7)
        session.step(5)
        before = len(session.env.machine.obs.flight.postmortems)
        self._park(session)
        bundles = session.env.machine.obs.flight.postmortems
        assert len(bundles) == before + 1
        bundle = bundles[-1]
        assert validate_postmortem(bundle) == []
        assert bundle["trigger"] == PARK_TRIGGER
        assert bundle["detail"]["session"] == "s1"
        assert bundle["detail"]["tenant"] == "alice"
        assert bundle["detail"]["seed"] == 7

    def test_parked_rejects_mutation_but_stays_inspectable(self):
        session = Session("s1", "alice", "baseline", 7)
        session.step(5)
        self._park(session)
        for mutate in (
            lambda: session.step(1),
            lambda: session.advance(1_000_000),
            lambda: session.inject("tick", {"cycles": 1_000_000}),
        ):
            with pytest.raises(ServeError) as exc:
                mutate()
            assert exc.value.code == E_SESSION_PARKED
        doc = session.inspect()
        assert doc["state"] == "parked"
        assert doc["park_reason"]
        trace = session.trace(cursor=0, limit=10)
        assert trace["events"]

    def test_park_is_idempotent(self):
        session = Session("s1", "alice", "baseline", 7)
        session.step(5)
        self._park(session)
        count = len(session.env.machine.obs.flight.postmortems)
        session.park("again")  # no-op: already parked
        assert len(session.env.machine.obs.flight.postmortems) == count

    def test_on_park_hook_fires_once(self):
        session = Session("s1", "alice", "baseline", 7)
        parked = []
        session.on_park = parked.append
        session.step(5)
        self._park(session)
        assert parked == [session]


class TestInject:
    def test_inject_preserves_scheduled_action_kinds(self):
        a = Session("s1", "alice", "baseline", 42)
        b = Session("s2", "bob", "baseline", 42)
        a.step(10)
        b.step(10)
        b.inject("tick", {"cycles": 1_000_000})
        # The injected TICK moves b's clock, so clocks diverge — but the
        # seeded action stream (kinds, order) must not.
        kinds_a = [r["kind"] for r in a.step(10)]
        kinds_b = [r["kind"] for r in b.step(10)]
        assert kinds_a == kinds_b

    def test_unknown_kind_is_invalid_params(self):
        session = Session("s1", "alice", "baseline", 7)
        with pytest.raises(ServeError) as exc:
            session.inject("frobnicate", {})
        assert exc.value.code == E_INVALID_PARAMS
        assert session.state is SessionState.RUNNING

    @pytest.mark.parametrize(
        "kind, params, problem",
        [
            ("touch_inside", {}, "touch_inside missing param 'slot'"),
            (
                "touch_inside",
                {"slot": "0", "page": 1, "write": False},
                "touch_inside.slot must be an int, got '0'",
            ),
            ("tick", {"cycles": 0}, "tick.cycles=0 outside [1, 90000000]"),
        ],
        ids=["missing", "wrong-type", "out-of-domain"],
    )
    def test_malformed_params_are_invalid_params_not_a_park(
        self, kind, params, problem
    ):
        session = Session("s1", "t", "baseline", 5)
        session.step(3)
        postmortems = len(session.env.machine.obs.flight.postmortems)
        with pytest.raises(ServeError) as exc:
            session.inject(kind, params)
        assert exc.value.code == E_INVALID_PARAMS
        assert problem in exc.value.message
        assert session.state is SessionState.RUNNING
        assert session.steps_applied == 3
        assert len(session.env.machine.obs.flight.postmortems) == postmortems
        # The session keeps serving: the next valid injection applies.
        assert session.inject("tick", {"cycles": 1_000_000})["index"] == 3


class TestKill:
    def test_kill_tears_down_enclaves(self):
        session = Session("s1", "alice", "baseline", 7)
        session.step(20)
        result = session.kill()
        assert session.state is SessionState.KILLED
        assert result["session_id"] == "s1"
        assert all(slot is None for slot in session.engine.slots)
