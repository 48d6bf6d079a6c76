"""The blocking client library for ``covirt-serve``.

Used by the CLI (``python -m repro serve-demo``), the test suite, and
``benchmarks/bench_serve_throughput.py``.  One :class:`ServeClient` is
one connection: requests are matched to responses by id, server-side
typed errors re-raise locally as :class:`~repro.serve.protocol.ServeError`
(branch on ``err.code``, never on message text).

Endpoints are specs: ``unix:/path/to.sock`` or ``tcp:HOST:PORT`` —
exactly what :attr:`ServeDaemon.endpoint` hands out.

Telemetry: once :meth:`ServeClient.subscribe` (or
:meth:`~ServeClient.trace_stream`) succeeds, the daemon interleaves
``{"push": "telemetry", "frame": {...}}`` lines with responses on this
connection.  :meth:`~ServeClient.request` stashes any push line it
reads while waiting for its response; :meth:`~ServeClient.read_frames`
drains stashed frames and then blocks (up to a deadline) for live ones.
"""

from __future__ import annotations

import socket
import time
from typing import Any

from repro.serve.protocol import (
    MAX_LINE_BYTES,
    ServeError,
    decode_line,
    encode_request,
)


def parse_endpoint(spec: str) -> tuple[str, Any]:
    """``unix:PATH`` / ``tcp:HOST:PORT`` → (family, address)."""
    kind, _, rest = spec.partition(":")
    if kind == "unix" and rest:
        return "unix", rest
    if kind == "tcp" and rest:
        host, _, port = rest.rpartition(":")
        if host and port.isdigit():
            return "tcp", (host, int(port))
    raise ValueError(
        f"bad endpoint {spec!r}; want unix:PATH or tcp:HOST:PORT"
    )


class ServeClient:
    """One blocking connection to a covirt-serve daemon."""

    def __init__(
        self, endpoint: str, tenant: str | None = None, timeout: float = 30.0
    ) -> None:
        self.endpoint = endpoint
        kind, address = parse_endpoint(endpoint)
        if kind == "unix":
            self._sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        else:
            self._sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        # Hand-rolled line buffering: socket.makefile() readers wedge
        # permanently after one recv timeout, and read_frames() leans on
        # short timeouts to poll; a plain byte buffer survives them
        # (the partial line just stays buffered for the next read).
        self._buf = b""
        self._next_id = 0
        self._timeout = timeout
        #: Telemetry frames read off the wire but not yet consumed
        #: (push lines interleave with responses once subscribed).
        self.frames: list[dict[str, Any]] = []
        try:
            self._sock.settimeout(timeout)
            self._sock.connect(address)
            if tenant is not None:
                self.hello(tenant)
        except BaseException:
            self._sock.close()
            raise

    # -- transport -------------------------------------------------------

    def _recv_line(self) -> bytes:
        while True:
            newline = self._buf.find(b"\n")
            if newline >= 0:
                line = self._buf[: newline + 1]
                self._buf = self._buf[newline + 1:]
                return line
            if len(self._buf) > MAX_LINE_BYTES + 2:
                raise ConnectionError(
                    f"daemon at {self.endpoint} sent an unterminated "
                    f"line over {MAX_LINE_BYTES} bytes"
                )
            chunk = self._sock.recv(65536)
            if not chunk:
                raise ConnectionError(
                    f"daemon at {self.endpoint} closed the connection"
                )
            self._buf += chunk

    def _read_line(self) -> dict[str, Any]:
        return decode_line(self._recv_line())

    def request(self, method: str, params: dict[str, Any] | None = None) -> Any:
        """One round trip; returns ``result`` or raises ServeError.
        Push frames arriving before the response are stashed on
        :attr:`frames`, never lost."""
        self._next_id += 1
        request_id = self._next_id
        self._sock.sendall(encode_request(request_id, method, params))
        while True:
            response = self._read_line()
            if "push" in response:
                self.frames.append(response.get("frame") or {})
                continue
            break
        if response.get("id") not in (request_id, None):
            raise ConnectionError(
                f"response id {response.get('id')!r} does not match "
                f"request id {request_id}"
            )
        if response.get("ok"):
            return response.get("result")
        error = response.get("error") or {}
        raise ServeError(
            str(error.get("code", "internal")),
            str(error.get("message", "(no message)")),
            error.get("data"),
        )

    def read_frames(
        self, count: int = 1, max_seconds: float = 5.0
    ) -> list[dict[str, Any]]:
        """Consume up to ``count`` telemetry frames: stashed ones first,
        then live push lines until the deadline.  Returns what arrived
        (possibly fewer than ``count``); raises on a non-push line —
        with no request in flight the daemon only pushes."""
        taken = self.frames[:count]
        del self.frames[: len(taken)]
        deadline = time.monotonic() + max_seconds
        while len(taken) < count:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                break
            self._sock.settimeout(max(0.05, min(remaining, self._timeout)))
            try:
                response = self._read_line()
            except (TimeoutError, socket.timeout):
                break
            finally:
                self._sock.settimeout(self._timeout)
            if "push" not in response:
                raise ConnectionError(
                    f"expected a push line, got {response!r}"
                )
            taken.append(response.get("frame") or {})
        return taken

    def send_raw(self, payload: bytes) -> dict[str, Any]:
        """Ship raw bytes and read one response line (protocol tests)."""
        self._sock.sendall(payload)
        return self._read_line()

    def close(self) -> None:
        self._sock.close()

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- convenience methods ---------------------------------------------

    def ping(self) -> dict[str, Any]:
        return self.request("ping")

    def hello(self, tenant: str) -> dict[str, Any]:
        return self.request("hello", {"tenant": tenant})

    def stats(self, metrics: bool = False) -> dict[str, Any]:
        return self.request("stats", {"metrics": metrics})

    def shutdown(self) -> dict[str, Any]:
        return self.request("shutdown")

    def launch(
        self, scenario: str = "baseline", seed: int | None = None
    ) -> dict[str, Any]:
        params: dict[str, Any] = {"scenario": scenario}
        if seed is not None:
            params["seed"] = seed
        return self.request("session.launch", params)

    def step(self, session_id: str, steps: int = 1) -> dict[str, Any]:
        return self.request(
            "session.step", {"session_id": session_id, "steps": steps}
        )

    def run(self, session_id: str, cycles: int) -> dict[str, Any]:
        return self.request(
            "session.run", {"session_id": session_id, "cycles": cycles}
        )

    def inspect(self, session_id: str, metrics: bool = False) -> dict[str, Any]:
        return self.request(
            "session.inspect", {"session_id": session_id, "metrics": metrics}
        )

    def trace(
        self, session_id: str, cursor: int = 0, limit: int | None = None
    ) -> dict[str, Any]:
        params: dict[str, Any] = {"session_id": session_id, "cursor": cursor}
        if limit is not None:
            params["limit"] = limit
        return self.request("session.trace", params)

    def inject(
        self, session_id: str, kind: str, params: dict[str, Any] | None = None
    ) -> dict[str, Any]:
        return self.request(
            "session.inject",
            {"session_id": session_id, "kind": kind, "params": params or {}},
        )

    def kill(self, session_id: str) -> dict[str, Any]:
        return self.request("session.kill", {"session_id": session_id})

    # -- telemetry plane -------------------------------------------------

    def subscribe(
        self,
        tenants: list[str] | None = None,
        kinds: list[str] | None = None,
        session_id: str | None = None,
        max_queue: int | None = None,
    ) -> dict[str, Any]:
        params: dict[str, Any] = {}
        if tenants is not None:
            params["tenants"] = tenants
        if kinds is not None:
            params["kinds"] = kinds
        if session_id is not None:
            params["session_id"] = session_id
        if max_queue is not None:
            params["max_queue"] = max_queue
        return self.request("telemetry.subscribe", params)

    def unsubscribe(self) -> dict[str, Any]:
        return self.request("telemetry.unsubscribe")

    def trace_stream(
        self, session_id: str, max_queue: int | None = None
    ) -> dict[str, Any]:
        params: dict[str, Any] = {"session_id": session_id}
        if max_queue is not None:
            params["max_queue"] = max_queue
        return self.request("session.trace_stream", params)

    def snapshot(self) -> dict[str, Any]:
        return self.request("telemetry.snapshot")

    def prom(self) -> str:
        return self.request("telemetry.prom")["text"]
