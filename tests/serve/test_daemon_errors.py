"""Protocol error paths against a live daemon (satellite coverage):
malformed JSON, unknown methods, over-quota launches, oversized
payloads, and client disconnects mid-request — each must produce a
typed error (or a clean drop) and leave the registry consistent."""

from __future__ import annotations

import time

import pytest

from repro.serve.protocol import (
    E_BUSY,
    E_INVALID_PARAMS,
    E_INVALID_REQUEST,
    E_NO_SUCH_SESSION,
    E_PARSE,
    E_PAYLOAD_TOO_LARGE,
    E_QUOTA,
    E_UNKNOWN_METHOD,
    MAX_LINE_BYTES,
    ServeError,
    encode_request,
)


def _expect(client, method, params, code):
    with pytest.raises(ServeError) as exc:
        client.request(method, params)
    assert exc.value.code == code
    return exc.value


class TestMalformedInput:
    def test_malformed_json_gets_parse_error_with_null_id(self, client):
        response = client.send_raw(b"{this is not json}\n")
        assert response["ok"] is False
        assert response["id"] is None
        assert response["error"]["code"] == E_PARSE

    def test_non_object_line_is_invalid_request(self, client):
        response = client.send_raw(b"[1, 2, 3]\n")
        assert response["error"]["code"] == E_INVALID_REQUEST

    def test_string_id_is_invalid_request(self, client):
        response = client.send_raw(
            b'{"id": "seven", "method": "ping", "params": {}}\n'
        )
        assert response["error"]["code"] == E_INVALID_REQUEST

    def test_connection_survives_garbage(self, client):
        client.send_raw(b"\x00\x01garbage\n")
        assert client.ping()["pong"] is True


class TestUnknownMethod:
    def test_unknown_method_lists_the_real_ones(self, client):
        err = _expect(client, "session.teleport", {}, E_UNKNOWN_METHOD)
        assert "session.launch" in err.message


class TestInvalidParams:
    def test_bad_scenario(self, client):
        _expect(client, "session.launch", {"scenario": "nope"},
                E_INVALID_PARAMS)

    def test_bool_is_not_an_integer(self, client):
        _expect(client, "session.launch", {"seed": True}, E_INVALID_PARAMS)

    def test_missing_session_id(self, client):
        _expect(client, "session.step", {"steps": 1}, E_INVALID_PARAMS)

    def test_unknown_session(self, client):
        _expect(client, "session.step", {"session_id": "s999", "steps": 1},
                E_NO_SUCH_SESSION)

    @pytest.mark.parametrize(
        "kind, params",
        [
            ("touch_inside", {}),
            ("touch_inside", {"slot": 0, "page": 1, "write": "yes"}),
            ("ipi_foreign", {"slot": 0, "sender": 0, "dest": 0, "vector": 7}),
        ],
        ids=["missing", "wrong-type", "out-of-domain"],
    )
    def test_malformed_inject_leaves_session_running(
        self, client, kind, params
    ):
        sid = client.launch(scenario="baseline", seed=5)["session_id"]
        client.step(sid, steps=3)
        before = client.inspect(sid)
        err = _expect(
            client,
            "session.inject",
            {"session_id": sid, "kind": kind, "params": params},
            E_INVALID_PARAMS,
        )
        assert kind in err.message
        doc = client.inspect(sid)
        assert doc["state"] == "running"
        assert doc["steps_applied"] == 3
        assert doc["postmortems"] == before["postmortems"]
        assert client.step(sid, steps=1)["steps"][0]["index"] == 3


class TestQuotas:
    def test_over_quota_launch_sheds_and_registry_stays_consistent(
        self, client, quota
    ):
        for _ in range(quota.max_sessions):
            client.launch(seed=1)
        _expect(client, "session.launch", {"scenario": "baseline", "seed": 1},
                E_QUOTA)
        stats = client.stats()
        assert stats["registry"]["sessions"] == quota.max_sessions
        assert stats["registry"]["launched"] == quota.max_sessions

    def test_global_cap_sheds_busy(self, make_client, daemon, quota):
        # Fill the daemon-wide cap (5) across three tenants, then shed.
        a, b, c = (make_client(t) for t in ("qa", "qb", "qc"))
        for cl, count in ((a, 2), (b, 2), (c, 1)):
            for _ in range(count):
                cl.launch(seed=1)
        _expect(c, "session.launch", {"scenario": "baseline", "seed": 1},
                E_BUSY)

    def test_step_budget_quota(self, client, quota):
        sid = client.launch(seed=1)["session_id"]
        _expect(client, "session.step",
                {"session_id": sid, "steps": quota.max_steps_per_request + 1},
                E_QUOTA)

    def test_run_budget_quota(self, client, quota):
        sid = client.launch(seed=1)["session_id"]
        _expect(client, "session.run",
                {"session_id": sid,
                 "cycles": quota.max_cycles_per_request + 1},
                E_QUOTA)

    def test_pipelined_runs_past_pending_quota_shed_busy(
        self, client, quota
    ):
        sid = client.launch(seed=1)["session_id"]
        budget = quota.max_cycles_per_request  # many slices each
        for rid in (101, 102, 103):
            client._sock.sendall(encode_request(
                rid, "session.run", {"session_id": sid, "cycles": budget}
            ))
        # The shed answer arrives first: errors reply immediately while
        # admitted runs only answer when their whole budget completes.
        import json

        first = json.loads(client._recv_line())
        assert first["id"] == 103
        assert first["error"]["code"] == E_BUSY
        remaining = sorted(
            (json.loads(client._recv_line()) for _ in range(2)),
            key=lambda r: r["id"],
        )
        assert [r["id"] for r in remaining] == [101, 102]
        assert all(r["ok"] for r in remaining)


class TestKillWithQueuedRun:
    def test_queued_run_of_a_killed_session_ends_no_such_session(
        self, client, quota
    ):
        sid = client.launch(seed=1)["session_id"]
        # One write: the run is queued (it needs many slices), then the
        # kill lands before the scheduler could finish it.
        client._sock.sendall(
            encode_request(
                1, "session.run",
                {"session_id": sid, "cycles": quota.max_cycles_per_request},
            )
            + encode_request(2, "session.kill", {"session_id": sid})
        )
        import json

        replies = {}
        for _ in range(2):
            reply = json.loads(client._recv_line())
            replies[reply["id"]] = reply
        assert replies[2]["ok"] is True
        assert replies[1]["ok"] is False
        assert replies[1]["error"]["code"] == E_NO_SUCH_SESSION
        assert client.stats()["scheduler"]["pending_jobs"] == 0


class TestOversizedPayload:
    def test_oversized_line_typed_error_then_connection_usable(self, client):
        blob = b'{"id": 1, "method": "ping", "params": {"x": "' \
            + b"A" * (MAX_LINE_BYTES + 100) + b'"}}\n'
        response = client.send_raw(blob)
        assert response["ok"] is False
        assert response["error"]["code"] == E_PAYLOAD_TOO_LARGE
        # The oversized line was discarded through its newline: the same
        # connection keeps working.
        assert client.ping()["pong"] is True


class TestDisconnectMidRequest:
    def test_disconnect_mid_run_drops_job_and_keeps_registry_consistent(
        self, daemon, make_client, quota
    ):
        doomed = make_client("t-dc")
        sid = doomed.launch(seed=5)["session_id"]
        doomed._sock.sendall(encode_request(
            1, "session.run",
            {"session_id": sid, "cycles": quota.max_cycles_per_request},
        ))
        doomed.close()  # vanish without reading the reply
        deadline = time.monotonic() + 20
        survivor = make_client("t-dc")
        while time.monotonic() < deadline:
            stats = survivor.stats()
            if (stats["scheduler"]["cancelled_jobs"] >= 1
                    and stats["scheduler"]["pending_jobs"] == 0):
                break
            time.sleep(0.05)
        else:
            pytest.fail("job was never cancelled after disconnect")
        # The session is still registered, consistent, and drivable.
        assert stats["registry"]["sessions"] == 1
        doc = survivor.inspect(sid)
        assert doc["state"] == "running"
        survivor.step(sid, steps=1)
        survivor.kill(sid)
