"""Flight recorder + post-mortem bundle tests (repro.obs.flight)."""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

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


#: Per-file SHA-256 of the post-mortem dumps of one fixed fuzz run, one
#: digest over every sorted file's name and bytes (``*``), and one of the
#: retained bundles as JSON with their key order kept (``postmortems``).
GOLDEN_DUMPS = Path(__file__).parent / "golden" / "postmortem_dumps.sha256"


@pytest.fixture
def obs() -> Observability:
    return Observability(Clock())


def _dump_digests(directory: Path, retained: str) -> str:
    total = hashlib.sha256()
    lines = []
    for path in sorted(directory.iterdir()):
        data = path.read_bytes()
        total.update(path.name.encode())
        total.update(data)
        lines.append(f"{hashlib.sha256(data).hexdigest()}  {path.name}")
    lines.append(f"{total.hexdigest()}  *")
    lines.append(f"{hashlib.sha256(retained.encode()).hexdigest()}  postmortems")
    return "\n".join(lines) + "\n"


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


class TestPostmortem:
    def test_bundle_shape_and_schema(self, obs):
        obs.flight.register_context("covirt", lambda: {"enclaves": {}})
        obs.metrics.counter("c").inc()
        obs.flight.postmortem("containment", "wild read", core=3)
        bundle = obs.flight.postmortems[-1]
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
        obs.flight.postmortem("oracle", "broken machine")
        bundle = obs.flight.postmortems[-1]
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
        obs.flight.postmortem("containment", "r")
        bundle = obs.flight.postmortems[-1]
        (path,) = obs.flight.dumped_paths
        assert path.name == "postmortem_000_containment.json"
        loaded = json.loads(path.read_text())
        assert loaded["trigger"] == "containment"
        assert validate_postmortem(loaded) == []
        assert loaded["seq"] == bundle["seq"]


class TestCaptureTime:
    """A bundle read long after its capture reads as it would have been
    rendered at capture, whatever the machine did in between."""

    @staticmethod
    def _drive(obs: Observability) -> None:
        state = {"phase": "running", "faults": ["ept"]}
        obs.flight.identity = {"tenant": "t-1", "steps_applied": 3}
        obs.flight.register_context(
            "svc",
            lambda: {"phase": state["phase"], "faults": list(state["faults"])},
        )
        with obs.tracer.span("hv.drain", track="core1", queue=2) as drain:
            obs.tracer.clock.advance(40)
            drain.args["serviced"] = 1
        obs.metrics.counter("c").inc(reason="ept", core=1)
        obs.metrics.gauge("g").set(7, tenant="t-1")
        obs.metrics.histogram("h").observe(300, op="attach")
        obs.flight.note("containment", "core 1 down", fault_kind="ept")
        obs.flight.postmortem("containment", "wild read", core=1, enclave=2)
        # Keep going: every part the capture saw moves on, and the ring
        # wraps far past its capacity.
        for i in range(DEFAULT_FLIGHT_CAPACITY + 100):
            with obs.tracer.span("hv.exit", track="core1", step=i):
                obs.tracer.clock.advance(3)
            obs.metrics.counter("c").inc(reason="ept", core=1)
            obs.metrics.histogram("h").observe(i * 7, op="attach")
        obs.metrics.gauge("g").set(8, tenant="t-1")
        obs.metrics.counter("late").inc()
        obs.flight.identity.update({"steps_applied": 9, "clock": 1})
        obs.flight.identity["tenant"] = "t-2"
        state["phase"] = "parked"
        state["faults"].append("nmi")

    def test_late_read_equals_the_render_at_capture(self, tmp_path):
        eager, late = Observability(Clock()), Observability(Clock())
        eager.flight.dump_dir = tmp_path  # renders at capture
        self._drive(eager)
        self._drive(late)
        assert late.flight.recorded > 2 * DEFAULT_FLIGHT_CAPACITY
        bundle = late.flight.postmortems[0]
        assert json.dumps(bundle) == json.dumps(eager.flight.postmortems[0])
        (path,) = eager.flight.dumped_paths
        assert path.read_text() == (
            json.dumps(bundle, indent=1, sort_keys=True) + "\n"
        )
        assert bundle["identity"] == {"steps_applied": 3, "tenant": "t-1"}
        assert bundle["context"]["svc"] == {
            "faults": ["ept"], "phase": "running"
        }
        assert "late" not in bundle["metrics"]["counters"]
        assert bundle["events_recorded"] == len(bundle["events"]) == 5
        assert bundle["events"][0]["args"] == {"queue": 2, "serviced": 1}
        assert validate_postmortem(bundle) == []

    def test_reading_twice_returns_the_same_bundle(self, obs):
        obs.metrics.counter("c").inc()
        obs.flight.postmortem("t")
        assert obs.flight.postmortems[0] is obs.flight.postmortems[-1]


class TestValidatePostmortem:
    def test_rejects_non_object(self):
        assert validate_postmortem([]) != []

    def test_rejects_wrong_schema_version(self, obs):
        obs.metrics.counter("c").inc()
        obs.flight.postmortem("t")
        bundle = obs.flight.postmortems[-1]
        bundle["schema_version"] = 99
        assert any(
            "schema_version" in p for p in validate_postmortem(bundle)
        )

    def test_rejects_empty_event_tail(self, obs):
        obs.flight.postmortem("t")
        bundle = obs.flight.postmortems[-1]
        assert any("events" in p for p in validate_postmortem(bundle))

    def test_rejects_unknown_event_type(self, obs):
        obs.metrics.counter("c").inc()
        obs.flight.postmortem("t")
        bundle = obs.flight.postmortems[-1]
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

    def test_corrupt_queue_postmortem_ends_the_run_cleanly(
        self, corrupt_queue_header
    ):
        # A corrupt command-queue header makes step 26 raise, and the
        # oracle post-mortem's controller summary then fails to read
        # that queue: the run must still return its failure.
        engine = FuzzEngine(seed=28, schedule="churn")
        engine.run(20)
        corrupt_queue_header(engine.env)
        run = engine.run(200)
        assert run.failure == {
            "step": 26,
            "kind": "exception",
            "detail": "ValueError: corrupt queue header",
        }
        assert len(run.steps) == 27
        bundle = engine.env.machine.obs.flight.postmortems[-1]
        assert bundle["trigger"] == "oracle"
        assert bundle["context"]["covirt"] == {
            "error": "ValueError: corrupt queue header"
        }
        assert validate_postmortem(bundle) == []

    def test_dumps_match_the_golden_digests(
        self, tmp_path, update_golden, corrupt_queue_header
    ):
        # Six bundles: four containment, one recovery-parked, and the
        # oracle bundle whose covirt section is the raising provider's
        # error (a corrupt command-queue header planted after step 20).
        # Regenerate with --update-golden.
        engine = FuzzEngine(seed=28, schedule="churn")
        flight = engine.env.machine.obs.flight
        flight.dump_dir = tmp_path
        engine.run(20)
        corrupt_queue_header(engine.env)
        engine.run(20)
        retained = json.dumps(list(flight.postmortems))
        digests = _dump_digests(tmp_path, retained)
        if update_golden:
            GOLDEN_DUMPS.write_text(digests)
        assert digests == GOLDEN_DUMPS.read_text(), (
            "post-mortem dumps diverged from tests/obs/golden/"
            "postmortem_dumps.sha256"
        )
        # The same run without a dump directory renders each bundle only
        # when it is read, after the run: it must read the same.
        late = FuzzEngine(seed=28, schedule="churn")
        late.run(20)
        corrupt_queue_header(late.env)
        late.run(20)
        captures = late.env.machine.obs.flight.postmortems
        assert len(captures) == 6
        assert all(c.rendered is None for c in captures._captures)
        assert json.dumps(list(captures)) == retained

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
        obs.flight.postmortem("containment", "wild read")
        bundle = obs.flight.postmortems[-1]
        assert bundle["identity"]["tenant"] == "t-alice"
        assert bundle["identity"]["seed"] == 0x5EED
        assert validate_postmortem(bundle) == []

    def test_unstamped_recorder_omits_nothing_required(self, obs):
        obs.metrics.counter("c").inc()
        obs.flight.postmortem("t")
        bundle = obs.flight.postmortems[-1]
        assert bundle["identity"] == {}
        assert validate_postmortem(bundle) == []

    def test_validator_rejects_non_object_identity(self, obs):
        obs.metrics.counter("c").inc()
        obs.flight.postmortem("t")
        bundle = obs.flight.postmortems[-1]
        bundle["identity"] = ["tenant", "t"]
        assert any("identity" in p for p in validate_postmortem(bundle))

    def test_validator_rejects_nested_identity_values(self, obs):
        obs.metrics.counter("c").inc()
        obs.flight.postmortem("t")
        bundle = obs.flight.postmortems[-1]
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
