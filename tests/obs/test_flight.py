"""Flight recorder + post-mortem bundle tests (repro.obs.flight)."""

from __future__ import annotations

import json

import pytest

from repro.fuzz.engine import FuzzEngine
from repro.fuzz.oracles import OracleViolation
from repro.hw.clock import Clock
from repro.obs import Observability, metric_names
from repro.obs.flight import (
    DEFAULT_FLIGHT_CAPACITY,
    FlightRecorder,
    MAX_RETAINED_POSTMORTEMS,
    POSTMORTEM_SCHEMA_NAME,
    POSTMORTEM_SCHEMA_VERSION,
)
from repro.obs.scenario import run_canonical_scenario
from repro.obs.schema import validate_postmortem


@pytest.fixture
def obs() -> Observability:
    return Observability(Clock())


class TestRing:
    def test_span_close_feeds_the_ring(self, obs):
        with obs.tracer.span("work", track="t"):
            obs.tracer.clock.advance(10)
        assert len(obs.flight) == 1
        event = obs.flight.tail()[0]
        assert event["type"] == "span"
        assert event["name"] == "work"
        assert event["end"] - event["start"] == 10

    def test_metric_updates_feed_the_ring(self, obs):
        obs.metrics.counter("c").inc(reason="x")
        obs.metrics.gauge("g").set(3)
        obs.metrics.histogram("h").observe(42)
        kinds = [e["kind"] for e in obs.flight.tail()]
        assert kinds == ["counter", "gauge", "histogram"]
        labels = obs.flight.tail()[0]["labels"]
        assert labels == {"reason": "x"}

    def test_notes_carry_extra_detail(self, obs):
        obs.flight.note("containment", "core 3 went down", fault_kind="ept")
        event = obs.flight.tail()[0]
        assert event["type"] == "note"
        assert event["extra"] == {"fault_kind": "ept"}

    def test_wraparound_keeps_only_last_capacity_events(self):
        clock = Clock()
        recorder = FlightRecorder(clock, capacity=8)
        for i in range(20):
            recorder.note("n", f"event {i}")
        assert len(recorder) == 8
        assert recorder.recorded == 20
        details = [e["detail"] for e in recorder.tail()]
        assert details == [f"event {i}" for i in range(12, 20)]

    def test_wraparound_through_the_wired_observability(self):
        obs = Observability(Clock())
        obs.flight._ring = type(obs.flight._ring)(maxlen=4)
        obs.flight.capacity = 4
        for i in range(10):
            obs.metrics.counter("c").inc(i=i)
        assert len(obs.flight) == 4
        assert obs.flight.recorded == 10

    def test_default_capacity(self, obs):
        assert obs.flight.capacity == DEFAULT_FLIGHT_CAPACITY

    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError):
            FlightRecorder(Clock(), capacity=0)

    def test_clear_resets_ring_and_bundles_but_keeps_providers(self, obs):
        obs.flight.register_context("x", lambda: {"a": 1})
        obs.flight.note("n", "e")
        obs.flight.postmortem("t")
        obs.flight.clear()
        assert len(obs.flight) == 0
        assert obs.flight.recorded == 0
        assert not obs.flight.postmortems
        assert "x" in obs.flight.context_providers

    def test_reset_rewires_the_feeds(self, obs):
        obs.reset()
        obs.metrics.counter("c").inc()
        with obs.tracer.span("s"):
            pass
        types = [e["type"] for e in obs.flight.tail()]
        assert types == ["metric", "span"]


class TestPostmortem:
    def test_bundle_shape_and_schema(self, obs):
        obs.flight.register_context("covirt", lambda: {"enclaves": {}})
        obs.metrics.counter("c").inc()
        bundle = obs.flight.postmortem(
            "containment", "wild read", core=3
        )
        assert bundle["schema"] == POSTMORTEM_SCHEMA_NAME
        assert bundle["schema_version"] == POSTMORTEM_SCHEMA_VERSION
        assert bundle["trigger"] == "containment"
        assert bundle["reason"] == "wild read"
        assert bundle["detail"] == {"core": 3}
        assert bundle["context"] == {"covirt": {"enclaves": {}}}
        assert validate_postmortem(bundle) == []

    def test_raising_provider_is_recorded_not_raised(self, obs):
        def broken():
            raise ValueError("corrupt queue header")

        obs.flight.register_context("covirt", broken)
        obs.flight.register_context("recovery", lambda: {"services": {}})
        obs.metrics.counter("c").inc()
        bundle = obs.flight.postmortem("oracle", "broken machine")
        assert bundle["context"] == {
            "covirt": {"error": "ValueError: corrupt queue header"},
            "recovery": {"services": {}},
        }
        assert validate_postmortem(bundle) == []

    def test_bundles_are_sequenced_and_bounded(self, obs):
        obs.metrics.counter("c").inc()
        for _ in range(MAX_RETAINED_POSTMORTEMS + 5):
            obs.flight.postmortem("t")
        assert len(obs.flight.postmortems) == MAX_RETAINED_POSTMORTEMS
        seqs = [b["seq"] for b in obs.flight.postmortems]
        assert seqs == sorted(seqs)

    def test_postmortem_increments_its_own_counter(self, obs):
        obs.metrics.counter("c").inc()  # ensure the ring is non-empty
        obs.flight.postmortem("oracle")
        counter = obs.metrics.get(metric_names.POSTMORTEMS)
        assert counter is not None
        assert counter.get(trigger="oracle") == 1

    def test_dump_dir_writes_sorted_key_json(self, obs, tmp_path):
        obs.flight.dump_dir = tmp_path
        obs.metrics.counter("c").inc()
        bundle = obs.flight.postmortem("containment", "r")
        (path,) = obs.flight.dumped_paths
        assert path.name == "postmortem_000_containment.json"
        loaded = json.loads(path.read_text())
        assert loaded["trigger"] == "containment"
        assert validate_postmortem(loaded) == []
        assert loaded["seq"] == bundle["seq"]


class TestValidatePostmortem:
    def test_rejects_non_object(self):
        assert validate_postmortem([]) != []

    def test_rejects_wrong_schema_version(self, obs):
        obs.metrics.counter("c").inc()
        bundle = obs.flight.postmortem("t")
        bundle["schema_version"] = 99
        assert any(
            "schema_version" in p for p in validate_postmortem(bundle)
        )

    def test_rejects_empty_event_tail(self, obs):
        bundle = obs.flight.postmortem("t")
        assert any("events" in p for p in validate_postmortem(bundle))

    def test_rejects_unknown_event_type(self, obs):
        obs.metrics.counter("c").inc()
        bundle = obs.flight.postmortem("t")
        bundle["events"][0]["type"] = "martian"
        assert validate_postmortem(bundle) != []


class TestWiredScenario:
    def test_containment_leaves_a_schema_valid_dump_on_disk(self, tmp_path):
        env = run_canonical_scenario(postmortem_dir=tmp_path)
        paths = env.machine.obs.flight.dumped_paths
        assert paths, "containment fault should have dumped a post-mortem"
        bundle = json.loads(paths[0].read_text())
        assert validate_postmortem(bundle) == []
        assert bundle["trigger"] == "containment"
        # The controller's context section reflects the machine.
        assert "covirt" in bundle["context"]
        assert "recovery" in bundle["context"]
        assert bundle["context"]["covirt"]["enclaves"]
        # The ring's lead-up includes the hypervisor's containment note.
        assert any(
            e.get("type") == "note" and e.get("kind") == "containment"
            for e in bundle["events"]
        )

    def test_same_seed_dumps_are_byte_identical(self, tmp_path):
        a_dir, b_dir = tmp_path / "a", tmp_path / "b"
        run_canonical_scenario(postmortem_dir=a_dir)
        run_canonical_scenario(postmortem_dir=b_dir)
        a_files = sorted(p.name for p in a_dir.iterdir())
        b_files = sorted(p.name for p in b_dir.iterdir())
        assert a_files == b_files and a_files
        for name in a_files:
            assert (a_dir / name).read_bytes() == (b_dir / name).read_bytes()

    def test_flight_recording_does_not_perturb_fuzz_fingerprints(self):
        # The recorder is passive: the fingerprint of a fuzz run must
        # not change because spans/metrics flowed into the ring.
        run_a = FuzzEngine(seed=99, schedule="baseline").run(30)
        engine_b = FuzzEngine(seed=99, schedule="baseline")
        engine_b.env.machine.obs.flight.note("noise", "extra ring traffic")
        run_b = engine_b.run(30)
        assert run_a.fingerprint == run_b.fingerprint

    def test_corrupt_queue_postmortem_ends_the_run_cleanly(self):
        # churn/1808926366 corrupts a command-queue header at step 34,
        # and the oracle post-mortem's controller summary then fails to
        # read that queue: the run must still return its failure.
        engine = FuzzEngine(seed=1808926366, schedule="churn")
        run = engine.run(200)
        assert run.failure["step"] == 34
        bundle = engine.env.machine.obs.flight.postmortems[-1]
        assert bundle["trigger"] == "oracle"
        assert bundle["context"]["covirt"] == {
            "error": "ValueError: corrupt queue header"
        }
        assert validate_postmortem(bundle) == []

    def test_oracle_violation_snapshots_a_postmortem(self):
        engine = FuzzEngine(seed=7, schedule="baseline")
        flight = engine.env.machine.obs.flight
        engine.env.machine.obs.metrics.counter("c").inc()

        def broken(env):
            raise AssertionError("forced for the test")

        engine.oracles.add("synthetic", broken)
        with pytest.raises(OracleViolation):
            engine.oracles.check_all()
        assert flight.postmortems
        assert flight.postmortems[-1]["trigger"] == "oracle"
        assert flight.postmortems[-1]["detail"]["oracle"] == "synthetic"


class TestIdentityStamping:
    def test_identity_stamped_into_bundles(self, obs):
        obs.flight.identity = {
            "tenant": "t-alice",
            "session_id": "s-1",
            "scenario": "baseline",
            "seed": 0x5EED,
        }
        obs.metrics.counter("c").inc()
        bundle = obs.flight.postmortem("containment", "wild read")
        assert bundle["identity"]["tenant"] == "t-alice"
        assert bundle["identity"]["seed"] == 0x5EED
        assert validate_postmortem(bundle) == []

    def test_unstamped_recorder_omits_nothing_required(self, obs):
        obs.metrics.counter("c").inc()
        bundle = obs.flight.postmortem("t")
        assert bundle["identity"] == {}
        assert validate_postmortem(bundle) == []

    def test_validator_rejects_non_object_identity(self, obs):
        obs.metrics.counter("c").inc()
        bundle = obs.flight.postmortem("t")
        bundle["identity"] = ["tenant", "t"]
        assert any("identity" in p for p in validate_postmortem(bundle))

    def test_validator_rejects_nested_identity_values(self, obs):
        obs.metrics.counter("c").inc()
        bundle = obs.flight.postmortem("t")
        bundle["identity"] = {"tenant": {"nested": True}}
        assert any("identity" in p for p in validate_postmortem(bundle))

    def test_served_session_park_stamps_slice_context(self):
        from repro.serve.session import Session

        session = Session("s-id", "t-id", "baseline", 0x5EED)
        session.step(4)
        session.park("test freeze")
        (bundle,) = session.env.machine.obs.flight.postmortems
        identity = bundle["identity"]
        assert identity["tenant"] == "t-id"
        assert identity["session_id"] == "s-id"
        assert identity["scenario"] == "baseline"
        assert identity["seed"] == 0x5EED
        assert identity["steps_applied"] == 4
        assert identity["slices_run"] == session.slices_run
        assert identity["clock"] == session.clock
        assert validate_postmortem(bundle) == []
