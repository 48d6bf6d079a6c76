"""The acceptance claim, end to end over the wire: a session crashed
via ``session.inject`` is parked and freezes a post-mortem bundle,
while every concurrent session keeps serving with results identical to
a solo same-seed run."""

from __future__ import annotations

import pytest

from repro.obs.schema import validate_postmortem
from repro.serve.protocol import E_SESSION_PARKED, ServeError
from repro.serve.session import PARK_TRIGGER, Session

REFERENCE_SEED = 424242
PHASE_ONE = 12
PHASE_TWO = 18


def _solo_reference() -> tuple[list, list]:
    """What a session with REFERENCE_SEED produces with nothing else on
    the machine: the ground truth the daemon run must reproduce."""
    solo = Session("solo", "ref", "baseline", REFERENCE_SEED)
    first = solo.step(PHASE_ONE)
    second = solo.step(PHASE_TWO)
    return first, second


class TestCrashContainment:
    def test_parked_session_freezes_postmortem_others_unaffected(
        self, daemon, make_client
    ):
        solo_first, solo_second = _solo_reference()

        alice = make_client("alice")
        mallory = make_client("mallory")
        carol = make_client("carol")

        sid_a = alice.launch(scenario="baseline",
                             seed=REFERENCE_SEED)["session_id"]
        sid_m = mallory.launch(scenario="hostile", seed=777)["session_id"]

        # Phase one: both tenants make progress concurrently.
        assert alice.step(sid_a, steps=PHASE_ONE)["steps"] == solo_first
        mallory.step(sid_m, steps=10)

        # Mallory's session crashes via session.inject.
        with pytest.raises(ServeError) as exc:
            mallory.inject(sid_m, "crash", {"reason": "chaos probe"})
        assert exc.value.code == E_SESSION_PARKED

        # The crashed session is parked with a frozen, valid post-mortem.
        doc = mallory.inspect(sid_m)
        assert doc["state"] == "parked"
        assert "chaos probe" in doc["park_reason"]
        assert doc["postmortems"] >= 1
        session = daemon.registry.get("mallory", sid_m)
        bundle = session.env.machine.obs.flight.postmortems[-1]
        assert validate_postmortem(bundle) == []
        assert bundle["trigger"] == PARK_TRIGGER
        assert bundle["detail"]["session"] == sid_m

        # Parked means parked: mutation is refused...
        with pytest.raises(ServeError) as exc:
            mallory.step(sid_m, steps=1)
        assert exc.value.code == E_SESSION_PARKED
        # ...but the wreck stays inspectable for debugging.
        assert mallory.trace(sid_m, cursor=0, limit=5)["events"]

        # Phase two: Alice's results are byte-identical to the solo
        # run — the crash next door changed nothing for her.
        assert alice.step(sid_a, steps=PHASE_TWO)["steps"] == solo_second

        # A session launched *after* the crash serves normally too.
        sid_c = carol.launch(scenario="baseline",
                             seed=REFERENCE_SEED)["session_id"]
        assert carol.step(sid_c, steps=PHASE_ONE)["steps"] == solo_first

        # Daemon bookkeeping saw exactly one park.
        stats = alice.stats()
        assert stats["registry"]["parked"] == 1
        assert stats["registry"]["sessions"] == 3

    def test_parked_session_can_still_be_killed(self, make_client):
        mallory = make_client("mallory")
        sid = mallory.launch(seed=9)["session_id"]
        mallory.step(sid, steps=5)
        with pytest.raises(ServeError):
            mallory.inject(sid, "crash", {})
        killed = mallory.kill(sid)
        assert killed["session_id"] == sid
        assert mallory.stats()["registry"]["sessions"] == 0

    def test_engine_failure_parks_too(self, daemon, make_client):
        # An invariant-oracle failure (not just a raised exception) must
        # park the session: force one by injecting a fake failure record
        # through the engine, then stepping.
        client = make_client("oracle-t")
        sid = client.launch(seed=13)["session_id"]
        client.step(sid, steps=3)
        session = daemon.registry.get("oracle-t", sid)
        session.engine.failure = {
            "kind": "oracle", "step": 3, "detail": "synthetic violation",
        }
        with pytest.raises(ServeError) as exc:
            client.step(sid, steps=1)
        assert exc.value.code == E_SESSION_PARKED
        assert client.inspect(sid)["state"] == "parked"

    def test_postmortem_provider_error_parks_without_killing_daemon(
        self, daemon, make_client
    ):
        # churn/1808926366 corrupts another enclave's command-queue header
        # at step 34; the controller's post-mortem summary then raises
        # while reading that queue.  The bundle records the error, the
        # session parks, and the daemon keeps serving its sibling.
        victim = make_client("churn-t")
        sibling = make_client("sibling-t")
        sid_v = victim.launch(scenario="churn", seed=1808926366)["session_id"]
        sid_s = sibling.launch(seed=REFERENCE_SEED)["session_id"]
        with pytest.raises(ServeError) as exc:
            victim.step(sid_v, steps=40)
        assert exc.value.code == E_SESSION_PARKED
        assert daemon._thread.is_alive()
        assert victim.inspect(sid_v)["state"] == "parked"
        session = daemon.registry.get("churn-t", sid_v)
        oracle, parked = list(session.env.machine.obs.flight.postmortems)[-2:]
        assert (oracle["trigger"], parked["trigger"]) == ("oracle", PARK_TRIGGER)
        for bundle in (oracle, parked):
            assert validate_postmortem(bundle) == []
            assert bundle["context"]["covirt"] == {
                "error": "ValueError: corrupt queue header"
            }
        assert len(sibling.step(sid_s, steps=PHASE_ONE)["steps"]) == PHASE_ONE
