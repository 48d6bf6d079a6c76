"""End-to-end daemon tests over real sockets: lifecycle, transports,
observability, shutdown."""

from __future__ import annotations

import gc
import warnings

import pytest

from repro.obs import metric_names
from repro.serve.client import ServeClient, parse_endpoint
from repro.serve.daemon import ServeDaemon
from repro.serve.protocol import PROTOCOL_NAME, PROTOCOL_VERSION, ServeError


class TestLifecycle:
    def test_full_session_lifecycle(self, client):
        assert client.ping() == {
            "pong": True,
            "protocol": PROTOCOL_NAME,
            "version": PROTOCOL_VERSION,
            "scenarios": ["baseline", "churn", "hostile", "recovery"],
        }
        launched = client.launch(scenario="baseline", seed=11)
        sid = launched["session_id"]
        assert launched["tenant"] == "t-main"

        stepped = client.step(sid, steps=5)
        assert len(stepped["steps"]) == 5
        assert stepped["steps"][0]["kind"] == "launch"

        ran = client.run(sid, cycles=60_000_000)
        assert ran["cycles_advanced"] >= 60_000_000
        assert ran["slices"] >= 1

        doc = client.inspect(sid, metrics=True)
        assert doc["state"] == "running"
        assert doc["seed"] == 11
        assert doc["exits_by_reason"]
        assert "counters" in doc["metrics"]

        trace = client.trace(sid, cursor=0, limit=10)
        assert len(trace["events"]) == 10
        assert trace["recorded"] > 10

        # Cursor advances; replaying from the returned cursor yields the
        # next window, not the same events again.
        again = client.trace(sid, cursor=trace["cursor"], limit=10)
        assert again["events"] != trace["events"]

        killed = client.kill(sid)
        assert killed["session_id"] == sid
        assert client.stats()["registry"]["sessions"] == 0

    def test_two_tenants_interleaved(self, make_client):
        a = make_client("alice")
        b = make_client("bob")
        sa = a.launch(seed=3)["session_id"]
        sb = b.launch(seed=3)["session_id"]
        ra = a.step(sa, steps=10)
        rb = b.step(sb, steps=10)
        # Same seed, same scenario → identical outcomes, even though the
        # two sessions share a daemon.
        assert ra["steps"] == rb["steps"]

    def test_shutdown_request_stops_the_daemon(self):
        daemon = ServeDaemon(tcp=("127.0.0.1", 0))
        thread = daemon.start()
        with ServeClient(daemon.endpoint) as client:
            assert client.shutdown() == {"stopping": True}
        thread.join(timeout=10)
        assert not thread.is_alive()


class TestTransports:
    def test_unix_socket_transport(self, tmp_path):
        path = tmp_path / "covirt.sock"
        daemon = ServeDaemon(socket_path=path)
        daemon.start()
        try:
            assert daemon.endpoint == f"unix:{path}"
            with ServeClient(daemon.endpoint, tenant="ux") as client:
                sid = client.launch(seed=1)["session_id"]
                assert client.step(sid, steps=2)["steps"]
        finally:
            daemon.stop()
        assert not path.exists()  # cleaned up on shutdown

    @pytest.mark.parametrize("failing", ["connect", "hello"])
    def test_failed_client_closes_its_socket(self, daemon, failing):
        endpoint, tenant = {
            "connect": ("tcp:127.0.0.1:1", None),  # nothing listens there
            "hello": (daemon.endpoint, ""),  # the daemon rejects the tenant
        }[failing]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            with pytest.raises((OSError, ServeError)):
                ServeClient(endpoint, tenant=tenant)
            gc.collect()
        assert [w for w in caught if w.category is ResourceWarning] == []

    def test_exactly_one_transport_required(self, tmp_path):
        with pytest.raises(ValueError):
            ServeDaemon()
        with pytest.raises(ValueError):
            ServeDaemon(
                socket_path=tmp_path / "x.sock", tcp=("127.0.0.1", 0)
            )

    def test_parse_endpoint_rejects_garbage(self):
        assert parse_endpoint("unix:/tmp/x.sock") == ("unix", "/tmp/x.sock")
        assert parse_endpoint("tcp:127.0.0.1:80") == ("tcp", ("127.0.0.1", 80))
        for bad in ("tcp:nohost", "http://x", "unix:", "tcp:1.2.3.4:nan"):
            with pytest.raises(ValueError):
                parse_endpoint(bad)


class TestObservability:
    def test_daemon_metrics_track_requests_and_sessions(self, daemon, client):
        sid = client.launch(seed=1)["session_id"]
        client.step(sid, steps=2)
        stats = client.stats(metrics=True)
        counters = stats["metrics"]["counters"]
        requests = counters[metric_names.SERVE_REQUESTS]["samples"]
        launches = [
            s["value"] for s in requests
            if s["labels"] == {"method": "session.launch", "status": "ok"}
        ]
        assert launches == [1]
        hists = stats["metrics"]["histograms"]
        assert any(
            s["count"] > 0
            for s in hists[metric_names.SERVE_REQUEST_US]["samples"]
        )
        gauges = stats["metrics"]["gauges"]
        sessions = gauges[metric_names.SERVE_SESSIONS]["samples"]
        totals = [s for s in sessions if s["labels"].get("tenant") == "total"]
        assert totals and totals[0]["value"] == 1

    def test_request_spans_recorded_on_wall_clock(self, daemon, client):
        client.ping()
        spans = [s.name for s in daemon.obs.tracer.spans]
        assert "serve.request.ping" in spans

    def test_request_span_retention_is_bounded(self, daemon, client):
        bound = daemon.obs.flight.capacity
        for _ in range(bound + 20):
            client.ping()
        assert len(daemon.obs.tracer.spans) == bound
        newest = daemon.obs.flight.tail()[-1]
        assert newest["type"] == "span"
        assert newest["name"] == "serve.request.ping"
