"""The telemetry plane: streaming frames, rollups, exposition, top.

Everything here runs against a real daemon on a loopback socket (the
``daemon``/``client`` fixtures from conftest) except the pieces that
are pure functions — frame validation, the hub's queue accounting, the
``repro top`` renderer — which get direct unit tests.
"""

from __future__ import annotations

import json
import socket

import pytest

from repro.obs.schema import (
    TELEMETRY_FRAME_TYPES,
    TELEMETRY_ROLLUP_KEYS,
    TELEMETRY_SCHEMA_NAME,
    TELEMETRY_SCHEMA_VERSION,
    validate_telemetry_frame,
    validate_telemetry_snapshot,
)
from repro.serve.client import ServeClient
from repro.serve.daemon import Connection, ServeDaemon
from repro.serve.protocol import (
    E_INVALID_PARAMS,
    E_RESPONSE_TOO_LARGE,
    E_NO_SUCH_SESSION,
    MAX_LINE_BYTES,
    ServeError,
)
from repro.serve.telemetry import MAX_QUEUE_FRAMES, TelemetryHub
from repro.serve.top import render_top


def _drain(client: ServeClient, max_seconds: float = 3.0) -> list[dict]:
    return client.read_frames(count=1_000_000, max_seconds=max_seconds)


class TestSubscribe:
    def test_hello_is_the_first_frame(self, client):
        sub = client.subscribe()
        assert sub["protocol"] == TELEMETRY_SCHEMA_NAME
        assert sub["version"] == TELEMETRY_SCHEMA_VERSION
        (hello,) = client.read_frames(count=1)
        assert hello["type"] == "hello"
        assert hello["subscriber"] == sub["subscriber"]
        assert validate_telemetry_frame(hello) == []

    def test_live_session_traffic_arrives_schema_valid(
        self, client, make_client
    ):
        client.subscribe()
        driver = make_client("t-driver")
        sid = driver.launch(seed=3)["session_id"]
        driver.step(sid, steps=8)
        driver.kill(sid)
        frames = _drain(client)
        kinds = {f["type"] for f in frames}
        assert {"hello", "lifecycle", "span", "metric"} <= kinds
        for frame in frames:
            assert validate_telemetry_frame(frame) == [], frame
        events = [
            f["event"] for f in frames if f["type"] == "lifecycle"
        ]
        assert events.count("launch") == 1
        assert events.count("kill") == 1

    def test_seq_is_monotonic_per_subscriber(self, client, make_client):
        client.subscribe()
        driver = make_client("t-driver")
        sid = driver.launch(seed=3)["session_id"]
        driver.step(sid, steps=4)
        seqs = [f["seq"] for f in _drain(client)]
        assert seqs == sorted(seqs)
        assert len(set(seqs)) == len(seqs)

    def test_kind_filter(self, client, make_client):
        client.subscribe(kinds=["lifecycle"])
        driver = make_client("t-driver")
        sid = driver.launch(seed=3)["session_id"]
        driver.step(sid, steps=4)
        driver.kill(sid)
        frames = _drain(client)
        # hello bypasses filters; everything else must be lifecycle.
        assert frames[0]["type"] == "hello"
        assert {f["type"] for f in frames[1:]} == {"lifecycle"}

    def test_tenant_filter(self, client, make_client):
        client.subscribe(tenants=["t-a"], kinds=["lifecycle"])
        for tenant in ("t-a", "t-b"):
            driver = make_client(tenant)
            driver.kill(driver.launch(seed=1)["session_id"])
        frames = [f for f in _drain(client) if f["type"] == "lifecycle"]
        assert frames, "expected lifecycle frames from t-a"
        assert {f["tenant"] for f in frames} == {"t-a"}

    def test_unknown_kind_rejected(self, client):
        with pytest.raises(ServeError) as err:
            client.subscribe(kinds=["nonsense"])
        assert err.value.code == E_INVALID_PARAMS

    def test_max_queue_bounds_enforced(self, client):
        with pytest.raises(ServeError) as err:
            client.subscribe(max_queue=MAX_QUEUE_FRAMES + 1)
        assert err.value.code == E_INVALID_PARAMS
        with pytest.raises(ServeError):
            client.subscribe(max_queue=0)

    def test_unsubscribe_returns_stats_then_errors(self, client):
        client.subscribe()
        client.read_frames(count=1)
        stats = client.unsubscribe()
        assert stats["enqueued"] >= 1
        with pytest.raises(ServeError) as err:
            client.unsubscribe()
        assert err.value.code == E_INVALID_PARAMS

    def test_resubscribe_replaces_the_old_subscription(self, client, daemon):
        first = client.subscribe()
        second = client.subscribe(kinds=["lifecycle"])
        assert second["subscriber"] != first["subscriber"]
        # One subscription per connection: the stats list shows one.
        assert len(client.stats()["telemetry"]["subscribers"]) == 1


class TestZeroOverheadGate:
    def test_taps_detach_when_the_last_subscriber_leaves(
        self, client, make_client, daemon
    ):
        driver = make_client("t-driver")
        sid = driver.launch(seed=3)["session_id"]
        session = daemon.registry.sessions[sid]
        obs = session.env.machine.obs
        baseline_close = len(obs.tracer.on_close)
        baseline_hooks = len(obs.metrics.hooks)
        assert daemon.telemetry.tapped == 0
        client.subscribe()
        client.read_frames(count=1)
        # The subscribe round trip completed, so taps are attached
        # (daemon obs + the live session).
        assert daemon.telemetry.tapped >= 2
        assert len(obs.tracer.on_close) == baseline_close + 1
        assert len(obs.metrics.hooks) == baseline_hooks + 1
        client.unsubscribe()
        assert daemon.telemetry.tapped == 0
        # The session's own observer lists are back to their baseline
        # (flight recorder, fuzz coverage) — nothing of ours lingers.
        assert len(obs.tracer.on_close) == baseline_close
        assert len(obs.metrics.hooks) == baseline_hooks

    def test_sessions_launched_mid_subscription_get_tapped(
        self, client, make_client, daemon
    ):
        client.subscribe(kinds=["span"])
        client.read_frames(count=1)
        driver = make_client("t-driver")
        sid = driver.launch(seed=3)["session_id"]
        driver.step(sid, steps=4)
        frames = _drain(client)
        assert any(f["session_id"] == sid for f in frames)


class TestSlowSubscriber:
    def test_slow_client_drops_are_counted_not_stalling(
        self, client, make_client
    ):
        client.subscribe(max_queue=1)
        driver = make_client("t-driver")
        sid = driver.launch(seed=3)["session_id"]
        # One step request publishes a burst of span/metric frames
        # before the loop flushes, so a queue of 1 must drop.
        driver.step(sid, steps=16)
        frames = _drain(client)
        drops = [f for f in frames if f["type"] == "drops"]
        assert drops, "expected a drops frame from the size-1 queue"
        for frame in drops:
            assert validate_telemetry_frame(frame) == []
            assert frame["dropped"] >= 1
        assert drops[-1]["total_dropped"] >= drops[-1]["dropped"]
        # The driver was never stalled: its requests all completed.
        assert driver.inspect(sid)["steps_applied"] == 16

    def test_drop_accounting_reaches_daemon_metrics(
        self, client, make_client, daemon
    ):
        client.subscribe(max_queue=1)
        driver = make_client("t-driver")
        sid = driver.launch(seed=3)["session_id"]
        driver.step(sid, steps=16)
        _drain(client)
        stats = client.stats()["telemetry"]
        assert stats["total_dropped"] >= 1


class TestTraceStream:
    def test_stream_is_scoped_to_the_session(self, client, make_client):
        driver = make_client("t-main")
        sid_a = driver.launch(seed=1)["session_id"]
        sid_b = driver.launch(seed=2)["session_id"]
        sub = client.trace_stream(sid_a)
        assert sub["session_id"] == sid_a
        driver.step(sid_a, steps=4)
        driver.step(sid_b, steps=4)
        frames = _drain(client)
        ids = {f.get("session_id") for f in frames if f["type"] != "hello"}
        assert ids <= {sid_a}

    def test_stream_rejects_other_tenants_sessions(
        self, client, make_client
    ):
        other = make_client("t-other")
        sid = other.launch(seed=1)["session_id"]
        with pytest.raises(ServeError) as err:
            client.trace_stream(sid)
        assert err.value.code == E_NO_SUCH_SESSION


class TestSnapshot:
    def test_snapshot_is_schema_valid_and_rolls_up_tenants(
        self, client, make_client
    ):
        alice = make_client("t-alice")
        bob = make_client("t-bob")
        for drv, seed in ((alice, 1), (alice, 2), (bob, 3)):
            sid = drv.launch(seed=seed)["session_id"]
            drv.step(sid, steps=4)
        snap = client.snapshot()
        assert validate_telemetry_snapshot(snap) == []
        assert snap["tenants"]["t-alice"]["sessions"] == 2
        assert snap["tenants"]["t-bob"]["sessions"] == 1
        assert snap["tenants"]["t-alice"]["steps_applied"] == 8
        glob = snap["global"]
        assert glob["sessions"] == 3
        for key in TELEMETRY_ROLLUP_KEYS:
            assert glob[key] == sum(
                t[key] for t in snap["tenants"].values()
            )

    def test_snapshot_counts_parked_sessions(self, client, make_client):
        driver = make_client("t-driver")
        sid = driver.launch(seed=1)["session_id"]
        with pytest.raises(ServeError):
            driver.inject(sid, "crash", {"reason": "boom"})
        snap = client.snapshot()
        assert snap["tenants"]["t-driver"]["parked"] == 1
        assert snap["tenants"]["t-driver"]["postmortems"] == 1

    def test_daemon_section_tracks_the_request_plane(self, client):
        client.ping()
        snap = client.snapshot()
        daemon_doc = snap["daemon"]
        assert daemon_doc["requests_total"] >= 2  # hello + ping at least
        assert daemon_doc["connections"] >= 1
        assert daemon_doc["requests_per_sec"] > 0


class TestProm:
    def test_prom_exposition_carries_serve_and_tenant_series(
        self, client, make_client
    ):
        driver = make_client("t-alice")
        sid = driver.launch(seed=1)["session_id"]
        driver.step(sid, steps=4)
        text = client.prom()
        assert "# TYPE serve_requests_total counter" in text
        assert "# TYPE serve_request_us histogram" in text
        assert 'covirt_tenant_sessions{tenant="t-alice"} 1' in text
        assert "covirt_uptime_seconds" in text
        # Exposition is line-oriented text; every sample line is
        # name{labels} value.
        for line in text.splitlines():
            assert line.startswith("#") or " " in line


    def test_tenant_label_is_escaped(self, client, make_client):
        # hello accepts any 1-64 char tenant; an unescaped one could
        # forge a sample line in the exposition.
        make_client('evil"} x 1\nfoo').launch(seed=1)
        text = client.prom()
        assert 'covirt_tenant_sessions{tenant="evil"} x 1' not in text
        assert (
            'covirt_tenant_sessions{tenant="evil\\"} x 1\\nfoo"} 1'
            in text
        )


class TestResponseTooLarge:
    def test_oversized_reply_becomes_a_typed_error(self):
        daemon = ServeDaemon(tcp=("127.0.0.1", 0))
        ours, theirs = socket.socketpair()
        try:
            conn = Connection(ours, "test")
            daemon._reply_ok(
                conn, 7, "session.trace", None,
                {"blob": "x" * (MAX_LINE_BYTES + 1)},
            )
            theirs.settimeout(5.0)
            line = theirs.makefile("rb").readline()
            doc = json.loads(line)
            assert doc["id"] == 7
            assert doc["ok"] is False
            assert doc["error"]["code"] == E_RESPONSE_TOO_LARGE
            assert doc["error"]["data"]["cap"] == MAX_LINE_BYTES
            assert "since_cycle" in doc["error"]["message"]
            assert len(line) <= MAX_LINE_BYTES
        finally:
            ours.close()
            theirs.close()
            daemon._shutdown_sockets()


class TestTraceWindow:
    """session.trace limit/since_cycle semantics through the daemon."""

    def test_limit_windows_and_cursor_resumes(self, client):
        sid = client.launch(seed=3)["session_id"]
        client.step(sid, steps=8)
        first = client.trace(sid, cursor=0, limit=5)
        assert len(first["events"]) == 5
        rest = client.trace(sid, cursor=first["cursor"], limit=64)
        assert first["cursor"] == 5
        assert rest["cursor"] == rest["recorded"]
        total = client.trace(sid, cursor=0, limit=64)
        assert len(first["events"]) + len(rest["events"]) >= len(
            total["events"]
        )

    def test_since_cycle_filters_but_consumes(self, client):
        sid = client.launch(seed=3)["session_id"]
        client.step(sid, steps=8)
        everything = client.trace(sid, cursor=0, limit=64)
        cutoff = max(
            event.get("tsc", event.get("end", event.get("start", 0)))
            for event in everything["events"]
        )
        doc = client.request(
            "session.trace",
            {
                "session_id": sid,
                "cursor": 0,
                "limit": 64,
                "since_cycle": int(cutoff) + 1,
            },
        )
        # Every event is older than the cutoff: filtered out, but the
        # cursor still advanced past them (consumed, not deferred).
        assert doc["events"] == []
        assert doc["cursor"] == doc["recorded"]

    def test_bad_since_cycle_rejected(self, client):
        sid = client.launch(seed=3)["session_id"]
        with pytest.raises(ServeError) as err:
            client.request(
                "session.trace",
                {"session_id": sid, "since_cycle": "soon"},
            )
        assert err.value.code == E_INVALID_PARAMS


class TestHubUnit:
    """Direct hub tests (no daemon): queue bounds and filters."""

    def test_bounded_queue_drops_and_counts(self):
        hub = TelemetryHub()
        sub = hub.subscribe(None, max_queue=2)
        for i in range(5):
            hub.publish({"type": "lifecycle", "event": "launch",
                         "tenant": "t", "session_id": None})
        # hello took one slot; one lifecycle fit; three dropped.
        assert len(sub.queue) == 2
        assert sub.dropped == 4
        assert sub.pending_drops == 4

    def test_publish_without_subscribers_is_free(self):
        hub = TelemetryHub()
        hub.publish({"type": "lifecycle", "event": "launch", "tenant": "t"})
        assert hub._seq == 0  # no frame was even stamped

    def test_frame_types_constant_matches_validator(self):
        for kind in TELEMETRY_FRAME_TYPES:
            assert isinstance(kind, str)
        assert set(TELEMETRY_FRAME_TYPES) == {
            "hello", "span", "metric", "lifecycle", "drops",
        }


class TestTopRenderer:
    def _snapshot(self):
        return {
            "endpoint": "tcp:127.0.0.1:7717",
            "uptime_seconds": 12.34,
            "daemon": {
                "connections": 2,
                "requests_total": 100,
                "requests_per_sec": 8.1,
                "request_p50_us": 250.0,
                "request_p99_us": 5000.0,
                "shed": {"busy": 1, "quota": 2},
                "backlog": 0,
                "completed_jobs": 3,
                "subscribers": [{"subscriber": 0, "dropped": 7}],
            },
            "global": {key: 5 for key in sorted(TELEMETRY_ROLLUP_KEYS)},
            "tenants": {
                "alice": {key: 5 for key in sorted(TELEMETRY_ROLLUP_KEYS)},
            },
        }

    def test_render_top_is_pure_text(self):
        text = render_top(self._snapshot())
        assert "covirt-serve telemetry" in text
        assert "requests 100 (8.1 rps)" in text
        assert "shed busy=1 quota=2" in text
        assert "subscribers 1 (dropped 7)" in text
        assert "alice" in text and "(global)" in text
        header = [l for l in text.splitlines() if l.startswith("TENANT")][0]
        for column in ("SESS", "STEPS", "EXITS", "PM"):
            assert column in header

    def test_render_top_tolerates_empty_snapshot(self):
        text = render_top({})
        assert "covirt-serve telemetry" in text


class TestTopCli:
    def test_probe_mode_validates_frames(self, daemon, capsys):
        from repro.cli import main as cli_main

        rc = cli_main([
            "top", "--connect", daemon.endpoint,
            "--probe", "1.0", "--min-frames", "5",
        ])
        out = capsys.readouterr().out
        assert rc == 0, out
        assert "top --probe: ok" in out

    def test_once_mode_renders_a_dashboard(self, daemon, capsys):
        from repro.cli import main as cli_main

        rc = cli_main([
            "top", "--connect", daemon.endpoint, "--once", "--plain",
        ])
        assert rc == 0
        assert "covirt-serve telemetry" in capsys.readouterr().out

    def test_json_mode_emits_the_snapshot(self, daemon, capsys):
        from repro.cli import main as cli_main

        rc = cli_main(["top", "--connect", daemon.endpoint, "--json"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert validate_telemetry_snapshot(doc) == []

    def test_connect_failure_is_exit_2(self, capsys):
        from repro.cli import main as cli_main

        rc = cli_main([
            "top", "--connect", "tcp:127.0.0.1:1", "--once",
        ])
        assert rc == 2


class TestMetricsDumpProm:
    def test_cli_prom_flag(self, capsys):
        from repro.cli import main as cli_main

        rc = cli_main(["metrics-dump", "--prom"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "# TYPE covirt_exits_total counter" in out


class TestFrameValidator:
    def _span_frame(self):
        return {
            "seq": 4, "type": "span", "tenant": "t", "session_id": "s-1",
            "name": "n", "category": "", "track": "core0",
            "start": 10, "end": 20, "args": {},
        }

    def test_valid_span_frame(self):
        assert validate_telemetry_frame(self._span_frame()) == []

    def test_unknown_type_rejected(self):
        problems = validate_telemetry_frame({"seq": 0, "type": "nope"})
        assert any("type" in p for p in problems)

    def test_negative_seq_rejected(self):
        frame = dict(self._span_frame(), seq=-1)
        assert validate_telemetry_frame(frame) != []

    def test_span_end_before_start_rejected(self):
        frame = dict(self._span_frame(), end=5)
        assert any("end" in p for p in validate_telemetry_frame(frame))

    def test_missing_required_field_rejected(self):
        frame = self._span_frame()
        del frame["tenant"]
        assert any("tenant" in p for p in validate_telemetry_frame(frame))

    def test_lifecycle_event_membership(self):
        frame = {
            "seq": 0, "type": "lifecycle", "event": "exploded",
            "tenant": "t", "session_id": None,
        }
        assert any("event" in p for p in validate_telemetry_frame(frame))

    def test_drops_counts_must_be_consistent(self):
        frame = {
            "seq": 0, "type": "drops", "dropped": 5, "total_dropped": 3,
        }
        assert validate_telemetry_frame(frame) != []

    def test_non_object_rejected(self):
        assert validate_telemetry_frame([1, 2]) != []
