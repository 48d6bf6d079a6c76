"""The ``covirt-serve`` daemon: one event loop, many machines.

A single-threaded ``selectors`` loop multiplexes every client
connection *and* the cooperative scheduler: socket readiness is
serviced first, then one scheduler slice advances the round-robin run
queue.  Single-threadedness is a feature — the simulated machines stay
strictly deterministic (no lock ordering, no interleaving races), and
fairness is the scheduler's explicit slice policy rather than an
accident of thread timing.

The daemon carries its own :class:`~repro.obs.Observability` bundle on
a wall-clock timeline (simulated machines keep their own simulated
clocks): every request is a ``serve.request.<method>`` span, counted in
``serve.requests`` and timed into the ``serve.request_us`` histogram;
admission sheds tick ``serve.shed``; session churn moves the
``serve.sessions`` gauge; crash containment ticks ``serve.parks``.

Embedding: tests and the throughput benchmark run the daemon on a
background thread via :meth:`ServeDaemon.start` / :meth:`stop`; the
``covirt-serve`` console script and ``python -m repro serve`` both
parse :func:`add_arguments` and run :func:`serve` in the foreground.
"""

from __future__ import annotations

import argparse
import selectors
import socket
import sys
import time
from pathlib import Path
from typing import Any, Callable

from repro.fuzz.rng import DEFAULT_SEED
from repro.obs import Observability, metric_names
from repro.obs.metrics import WALL_US_BUCKETS
from repro.obs.schema import (
    TELEMETRY_SCHEMA_NAME,
    TELEMETRY_SCHEMA_VERSION,
)
from repro.serve.protocol import (
    E_BUSY,
    E_INTERNAL,
    E_INVALID_PARAMS,
    E_PAYLOAD_TOO_LARGE,
    E_QUOTA,
    E_RESPONSE_TOO_LARGE,
    E_UNKNOWN_METHOD,
    MAX_LINE_BYTES,
    PROTOCOL_NAME,
    PROTOCOL_VERSION,
    LineBuffer,
    ServeError,
    decode_line,
    encode_error,
    encode_response,
    parse_request,
)
from repro.serve.registry import (
    DEFAULT_MAX_TOTAL_SESSIONS,
    SessionRegistry,
    TenantQuota,
)
from repro.serve.scheduler import CooperativeScheduler, RunJob
from repro.serve.session import SCENARIOS, Session
from repro.serve.telemetry import (
    DEFAULT_QUEUE_FRAMES,
    TelemetryHub,
    build_snapshot,
    render_prom,
)

#: Daemon-wide cap on queued run jobs, across all tenants.
DEFAULT_MAX_BACKLOG = 32

#: Tenant used by connections that never sent ``hello``.
DEFAULT_TENANT = "anon"

#: Sentinel a handler returns when the response will be sent later.
_ASYNC = object()


class _WallClock:
    """Monotonic nanosecond clock with the simulator's Clock interface,
    so the daemon can reuse the whole obs stack on wall time."""

    @property
    def now(self) -> int:
        return time.monotonic_ns()


class Connection:
    """Per-client state: framing buffer, write backlog, tenant."""

    def __init__(self, sock: socket.socket, peer: str) -> None:
        self.sock = sock
        self.peer = peer
        self.buf = LineBuffer()
        self.out = bytearray()
        self.tenant = DEFAULT_TENANT
        self.closed = False
        self.requests = 0


class ServeDaemon:
    """Owns the listening socket, the registry, and the scheduler."""

    def __init__(
        self,
        socket_path: str | Path | None = None,
        tcp: tuple[str, int] | None = None,
        quota: TenantQuota | None = None,
        max_total_sessions: int = DEFAULT_MAX_TOTAL_SESSIONS,
        max_backlog: int = DEFAULT_MAX_BACKLOG,
    ) -> None:
        if (socket_path is None) == (tcp is None):
            raise ValueError("exactly one of socket_path/tcp is required")
        self.registry = SessionRegistry(
            quota=quota, max_total_sessions=max_total_sessions
        )
        self.scheduler = CooperativeScheduler()
        self.max_backlog = max_backlog
        self.obs = Observability(_WallClock())
        # Nothing reads the daemon's request spans back: keep no more of
        # them than the flight ring does (which still sees every one).
        self.obs.tracer.capacity = self.obs.flight.capacity
        self.obs.flight.register_context(
            "serve.registry", self.registry.summary
        )
        self.started_at = time.monotonic()
        # The live observation plane: frames fan out to subscribers, the
        # aggregator folds session registries into telemetry.snapshot.
        self.telemetry = TelemetryHub(self.obs.metrics)
        self._socket_path: Path | None = None
        if socket_path is not None:
            self._socket_path = Path(socket_path)
            if self._socket_path.exists():
                self._socket_path.unlink()
            self._listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            self._listener.bind(str(self._socket_path))
        else:
            self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            self._listener.setsockopt(
                socket.SOL_SOCKET, socket.SO_REUSEADDR, 1
            )
            self._listener.bind(tcp)
        self._listener.listen(64)
        self._listener.setblocking(False)
        self._selector = selectors.DefaultSelector()
        self._selector.register(self._listener, selectors.EVENT_READ, "accept")
        # Cross-thread stop signal (stop() may be called from anywhere).
        self._wake_r, self._wake_w = socket.socketpair()
        self._wake_r.setblocking(False)
        self._selector.register(self._wake_r, selectors.EVENT_READ, "wake")
        self._stop = False
        self._thread = None
        self.connections: set[Connection] = set()
        self._methods: dict[str, Callable] = {
            "ping": self._m_ping,
            "hello": self._m_hello,
            "stats": self._m_stats,
            "shutdown": self._m_shutdown,
            "session.launch": self._m_launch,
            "session.step": self._m_step,
            "session.run": self._m_run,
            "session.inspect": self._m_inspect,
            "session.trace": self._m_trace,
            "session.trace_stream": self._m_trace_stream,
            "session.inject": self._m_inject,
            "session.kill": self._m_kill,
            "telemetry.subscribe": self._m_telemetry_subscribe,
            "telemetry.unsubscribe": self._m_telemetry_unsubscribe,
            "telemetry.snapshot": self._m_telemetry_snapshot,
            "telemetry.prom": self._m_telemetry_prom,
        }

    # -- addressing ------------------------------------------------------

    @property
    def endpoint(self) -> str:
        """The ``ServeClient`` connection spec for this daemon."""
        if self._socket_path is not None:
            return f"unix:{self._socket_path}"
        host, port = self._listener.getsockname()[:2]
        return f"tcp:{host}:{port}"

    # -- lifecycle -------------------------------------------------------

    def serve_forever(self) -> None:
        """Run the event loop until :meth:`stop` or a ``shutdown``
        request; flushes pending responses on the way out."""
        try:
            while not self._stop:
                busy = not self.scheduler.idle or self.telemetry.pending()
                timeout = 0.0 if busy else 0.5
                for key, _mask in self._selector.select(timeout):
                    if key.data == "accept":
                        self._accept()
                    elif key.data == "wake":
                        self._wake_r.recv(4096)
                    else:
                        self._service(key.data, key.events)
                self.scheduler.tick()
                # Drain telemetry queues once per turn, after both the
                # request wave and the scheduler slice that produced
                # frames — bounded per subscriber, never blocking.
                self.telemetry.flush(self._send)
        finally:
            self._shutdown_sockets()

    def start(self):
        """Run the loop on a daemon thread (tests / benches / demos)."""
        import threading

        self._thread = threading.Thread(
            target=self.serve_forever, name="covirt-serve", daemon=True
        )
        self._thread.start()
        return self._thread

    def stop(self) -> None:
        """Stop the loop from any thread and wait for it to exit."""
        self._stop = True
        try:
            self._wake_w.send(b"x")
        except OSError:  # pragma: no cover - already torn down
            pass
        if self._thread is not None:
            self._thread.join(timeout=10)
            self._thread = None

    def _shutdown_sockets(self) -> None:
        for conn in list(self.connections):
            if conn.out and not conn.closed:
                try:
                    conn.sock.setblocking(True)
                    conn.sock.settimeout(0.5)
                    conn.sock.sendall(bytes(conn.out))
                except OSError:
                    pass
            self._close(conn)
        for sock in (self._listener, self._wake_r, self._wake_w):
            try:
                self._selector.unregister(sock)
            except (KeyError, ValueError):
                pass
            sock.close()
        self._selector.close()
        if self._socket_path is not None and self._socket_path.exists():
            self._socket_path.unlink()

    # -- socket plumbing -------------------------------------------------

    def _accept(self) -> None:
        try:
            sock, addr = self._listener.accept()
        except OSError:  # pragma: no cover - raced close
            return
        sock.setblocking(False)
        conn = Connection(sock, str(addr))
        self.connections.add(conn)
        self._selector.register(sock, selectors.EVENT_READ, conn)

    def _service(self, conn: Connection, events: int) -> None:
        if events & selectors.EVENT_WRITE:
            self._flush(conn)
        if conn.closed or not events & selectors.EVENT_READ:
            return
        try:
            data = conn.sock.recv(262144)
        except BlockingIOError:  # pragma: no cover - spurious readiness
            return
        except OSError:
            self._close(conn)
            return
        if not data:
            # Client went away; any queued job for it is dropped at its
            # next slice (see CooperativeScheduler.tick).
            self._close(conn)
            return
        for kind, payload in conn.buf.feed(data):
            if kind == "overflow":
                err = ServeError(
                    E_PAYLOAD_TOO_LARGE,
                    f"request line of {payload} bytes exceeds the "
                    f"{conn.buf.limit}-byte cap",
                )
                self._reply_error(conn, None, "(oversized)", None, err)
            else:
                self._dispatch(conn, payload)
            if conn.closed or self._stop:
                break

    def _close(self, conn: Connection) -> None:
        if conn.closed:
            return
        conn.closed = True
        self.telemetry.drop_connection(conn)
        self._sync_taps()
        try:
            self._selector.unregister(conn.sock)
        except (KeyError, ValueError):  # pragma: no cover
            pass
        try:
            conn.sock.close()
        except OSError:  # pragma: no cover
            pass
        self.connections.discard(conn)

    def _send(self, conn: Connection, data: bytes) -> None:
        if conn.closed:
            return
        conn.out += data
        self._flush(conn)

    def _flush(self, conn: Connection) -> None:
        while conn.out:
            try:
                sent = conn.sock.send(bytes(conn.out))
            except BlockingIOError:
                break
            except OSError:
                self._close(conn)
                return
            del conn.out[:sent]
        events = selectors.EVENT_READ
        if conn.out:
            events |= selectors.EVENT_WRITE
        try:
            self._selector.modify(conn.sock, events, conn)
        except (KeyError, ValueError):  # pragma: no cover - raced close
            pass

    # -- request handling ------------------------------------------------

    def _dispatch(self, conn: Connection, line: bytes) -> None:
        t0 = time.monotonic_ns()
        request_id: int | None = None
        method = "(unparsed)"
        conn.requests += 1
        try:
            request_id, method, params = parse_request(decode_line(line))
            handler = self._methods.get(method)
            if handler is None:
                raise ServeError(
                    E_UNKNOWN_METHOD,
                    f"unknown method {method!r}; methods: "
                    f"{', '.join(sorted(self._methods))}",
                )
            result = handler(conn, request_id, params, t0)
            if result is _ASYNC:
                return
            self._reply_ok(conn, request_id, method, t0, result)
        except ServeError as err:
            self._reply_error(conn, request_id, method, t0, err)
        except Exception as exc:  # noqa: BLE001 - daemon must not die
            self._reply_error(
                conn, request_id, method, t0,
                ServeError(E_INTERNAL, f"{type(exc).__name__}: {exc}"),
            )

    def _observe(
        self, method: str, status: str, t0: int | None
    ) -> None:
        metrics = self.obs.metrics
        metrics.counter(
            metric_names.SERVE_REQUESTS, "serve requests handled"
        ).inc(method=method, status=status)
        if t0 is not None:
            t1 = time.monotonic_ns()
            metrics.histogram(
                metric_names.SERVE_REQUEST_US,
                "serve request latency (us, wall clock)",
                buckets=WALL_US_BUCKETS,
            ).observe((t1 - t0) / 1000.0, method=method)
            self.obs.tracer.complete(
                f"serve.request.{method}", t0, t1,
                category="serve", track="serve", status=status,
            )

    def _reply_ok(
        self, conn: Connection, request_id: int | None, method: str,
        t0: int | None, result: Any,
    ) -> None:
        data = encode_response(request_id, result)
        if len(data) > MAX_LINE_BYTES:
            # Never ship a line the client's framing would truncate —
            # answer with a typed error telling it to narrow the window.
            self._reply_error(
                conn, request_id, method, t0,
                ServeError(
                    E_RESPONSE_TOO_LARGE,
                    f"{method} response of {len(data)} bytes exceeds the "
                    f"{MAX_LINE_BYTES}-byte line cap; narrow the request "
                    f"window (e.g. 'limit' / 'since_cycle')",
                    data={"bytes": len(data), "cap": MAX_LINE_BYTES},
                ),
            )
            return
        self._observe(method, "ok", t0)
        self._send(conn, data)

    def _reply_error(
        self, conn: Connection, request_id: int | None, method: str,
        t0: int | None, err: ServeError,
    ) -> None:
        self._observe(method, err.code, t0)
        if err.code in (E_BUSY, E_QUOTA):
            self.obs.metrics.counter(
                metric_names.SERVE_SHED, "requests shed by admission control"
            ).inc(reason=err.code)
            self.telemetry.lifecycle(
                "shed", conn.tenant, reason=err.code, method=method
            )
        self._send(conn, encode_error(request_id, err))

    # -- param helpers ---------------------------------------------------

    @staticmethod
    def _int_param(
        params: dict[str, Any], name: str,
        default: int | None = None, minimum: int | None = None,
    ) -> int:
        value = params.get(name, default)
        if value is None or isinstance(value, bool) or not isinstance(value, int):
            raise ServeError(
                E_INVALID_PARAMS, f"param {name!r} must be an integer"
            )
        if minimum is not None and value < minimum:
            raise ServeError(
                E_INVALID_PARAMS, f"param {name!r} must be >= {minimum}"
            )
        return value

    def _session(self, conn: Connection, params: dict[str, Any]) -> Session:
        session_id = params.get("session_id")
        if not isinstance(session_id, str):
            raise ServeError(
                E_INVALID_PARAMS, "param 'session_id' must be a string"
            )
        return self.registry.get(conn.tenant, session_id)

    def _update_session_gauge(self) -> None:
        gauge = self.obs.metrics.gauge(
            metric_names.SERVE_SESSIONS, "live sessions"
        )
        gauge.set(len(self.registry), tenant="total")
        for tenant, count in self.registry.by_tenant().items():
            gauge.set(count, tenant=tenant)

    # -- methods ---------------------------------------------------------

    def _m_ping(self, conn, request_id, params, t0):
        return {
            "pong": True,
            "protocol": PROTOCOL_NAME,
            "version": PROTOCOL_VERSION,
            "scenarios": list(SCENARIOS),
        }

    def _m_hello(self, conn, request_id, params, t0):
        tenant = params.get("tenant", DEFAULT_TENANT)
        if not isinstance(tenant, str) or not tenant or len(tenant) > 64:
            raise ServeError(
                E_INVALID_PARAMS,
                "param 'tenant' must be a 1..64-char string",
            )
        conn.tenant = tenant
        return {"tenant": tenant}

    def _m_stats(self, conn, request_id, params, t0):
        doc = {
            "registry": self.registry.summary(),
            "scheduler": {
                "pending_jobs": self.scheduler.pending(),
                "completed_jobs": self.scheduler.completed,
                "cancelled_jobs": self.scheduler.cancelled,
            },
            "connections": len(self.connections),
            "telemetry": self.telemetry.stats(),
        }
        if params.get("metrics"):
            doc["metrics"] = self.obs.metrics.to_dict()
        return doc

    def _m_shutdown(self, conn, request_id, params, t0):
        self._stop = True
        return {"stopping": True}

    def _m_launch(self, conn, request_id, params, t0):
        scenario = params.get("scenario", "baseline")
        if not isinstance(scenario, str):
            raise ServeError(
                E_INVALID_PARAMS, "param 'scenario' must be a string"
            )
        seed = self._int_param(params, "seed", default=DEFAULT_SEED, minimum=0)
        session = self.registry.launch(conn.tenant, scenario, seed)
        session.on_park = self._on_park
        self._update_session_gauge()
        self._sync_taps()
        self.telemetry.lifecycle(
            "launch", session.tenant, session.session_id,
            scenario=session.scenario, seed=session.seed,
        )
        return {
            "session_id": session.session_id,
            "scenario": session.scenario,
            "seed": session.seed,
            "tenant": session.tenant,
        }

    def _on_park(self, session: Session) -> None:
        self.obs.metrics.counter(
            metric_names.SERVE_PARKS, "sessions parked by crash containment"
        ).inc(tenant=session.tenant)
        self.obs.flight.note(
            "serve-park",
            f"session {session.session_id} parked: {session.park_reason}",
            tenant=session.tenant,
        )
        self.telemetry.lifecycle(
            "park", session.tenant, session.session_id,
            reason=session.park_reason,
        )

    def _m_step(self, conn, request_id, params, t0):
        session = self._session(conn, params)
        steps = self._int_param(params, "steps", default=1, minimum=1)
        quota = self.registry.quota
        if steps > quota.max_steps_per_request:
            raise ServeError(
                E_QUOTA,
                f"steps {steps} exceeds the per-request quota of "
                f"{quota.max_steps_per_request}",
            )
        records = session.step(steps)
        return {
            "session_id": session.session_id,
            "steps": records,
            "clock": session.clock,
        }

    def _m_run(self, conn, request_id, params, t0):
        session = self._session(conn, params)
        session.require_running()
        cycles = self._int_param(params, "cycles", minimum=1)
        quota = self.registry.quota
        if cycles > quota.max_cycles_per_request:
            raise ServeError(
                E_QUOTA,
                f"cycles {cycles} exceeds the per-request quota of "
                f"{quota.max_cycles_per_request}",
            )
        if self.scheduler.pending() >= self.max_backlog:
            raise ServeError(
                E_BUSY,
                f"run backlog full ({self.max_backlog} jobs); retry later",
            )
        if self.scheduler.pending_for(conn.tenant) >= quota.max_pending_jobs:
            raise ServeError(
                E_BUSY,
                f"tenant {conn.tenant!r} already has "
                f"{quota.max_pending_jobs} runs queued; retry later",
            )
        method = "session.run"
        tenant = conn.tenant

        def on_done(result, err):
            self.obs.metrics.counter(
                metric_names.SERVE_SLICES, "scheduler slices executed"
            ).inc(
                amount=job.slices if job.slices else 1, tenant=tenant
            )
            if conn.closed:
                return
            if err is not None:
                self._reply_error(conn, request_id, method, t0, err)
            else:
                self._reply_ok(conn, request_id, method, t0, result)

        job = RunJob(
            session,
            cycles,
            slice_cycles=quota.max_cycles_per_slice,
            on_done=on_done,
            is_cancelled=lambda: conn.closed,
        )
        self.scheduler.submit(job)
        return _ASYNC

    def _m_inspect(self, conn, request_id, params, t0):
        session = self._session(conn, params)
        return session.inspect(include_metrics=bool(params.get("metrics")))

    def _m_trace(self, conn, request_id, params, t0):
        session = self._session(conn, params)
        cursor = self._int_param(params, "cursor", default=0, minimum=0)
        quota = self.registry.quota
        limit = self._int_param(
            params, "limit", default=quota.max_trace_events, minimum=1
        )
        since_cycle = None
        if params.get("since_cycle") is not None:
            since_cycle = self._int_param(params, "since_cycle", minimum=0)
        return session.trace(
            cursor=cursor,
            limit=min(limit, quota.max_trace_events),
            since_cycle=since_cycle,
        )

    def _m_inject(self, conn, request_id, params, t0):
        session = self._session(conn, params)
        kind = params.get("kind")
        if not isinstance(kind, str):
            raise ServeError(E_INVALID_PARAMS, "param 'kind' must be a string")
        action_params = params.get("params", {})
        if not isinstance(action_params, dict):
            raise ServeError(
                E_INVALID_PARAMS, "param 'params' must be an object"
            )
        record = session.inject(kind, action_params)
        return {"session_id": session.session_id, "step": record}

    def _m_kill(self, conn, request_id, params, t0):
        session = self._session(conn, params)
        self.telemetry.detach_obs(session.session_id)
        result = self.registry.kill(conn.tenant, session.session_id)
        self._update_session_gauge()
        self.telemetry.lifecycle("kill", session.tenant, session.session_id)
        return result

    # -- the telemetry plane ---------------------------------------------

    def _sync_taps(self) -> None:
        """Attach frame-building taps to every session (and the daemon's
        own obs) while subscribers exist; detach them all when the last
        subscriber leaves so idle emission stays on the fast path."""
        if self.telemetry.active:
            self.telemetry.attach_obs(
                "daemon", self.obs, tenant="_daemon", session_id=None
            )
            for session in self.registry.sessions.values():
                self.telemetry.attach_obs(
                    session.session_id,
                    session.env.machine.obs,
                    tenant=session.tenant,
                    session_id=session.session_id,
                )
        else:
            self.telemetry.detach_all()

    def _subscribe_params(
        self, params: dict[str, Any]
    ) -> tuple[list[str] | None, list[str] | None, int]:
        for name in ("tenants", "kinds"):
            value = params.get(name)
            if value is not None and (
                not isinstance(value, list)
                or not all(isinstance(v, str) for v in value)
            ):
                raise ServeError(
                    E_INVALID_PARAMS,
                    f"param {name!r} must be an array of strings",
                )
        max_queue = self._int_param(
            params, "max_queue", default=DEFAULT_QUEUE_FRAMES, minimum=1
        )
        return params.get("tenants"), params.get("kinds"), max_queue

    def _m_telemetry_subscribe(self, conn, request_id, params, t0):
        tenants, kinds, max_queue = self._subscribe_params(params)
        session_id = params.get("session_id")
        if session_id is not None:
            # Resolve tenant-scoped so another tenant's session id is
            # indistinguishable from a nonexistent one.
            session_id = self._session(conn, params).session_id
        sub = self.telemetry.subscribe(
            conn,
            session_id=session_id,
            tenants=tenants,
            kinds=kinds,
            max_queue=max_queue,
        )
        self._sync_taps()
        return {
            "subscriber": sub.sub_id,
            "protocol": TELEMETRY_SCHEMA_NAME,
            "version": TELEMETRY_SCHEMA_VERSION,
            "max_queue": sub.max_queue,
        }

    def _m_telemetry_unsubscribe(self, conn, request_id, params, t0):
        stats = self.telemetry.unsubscribe(conn)
        if stats is None:
            raise ServeError(
                E_INVALID_PARAMS,
                "this connection has no telemetry subscription",
            )
        self._sync_taps()
        return stats

    def _m_trace_stream(self, conn, request_id, params, t0):
        session = self._session(conn, params)
        _tenants, kinds, max_queue = self._subscribe_params(params)
        sub = self.telemetry.subscribe(
            conn,
            session_id=session.session_id,
            kinds=kinds,
            max_queue=max_queue,
        )
        self._sync_taps()
        return {
            "subscriber": sub.sub_id,
            "session_id": session.session_id,
            "protocol": TELEMETRY_SCHEMA_NAME,
            "version": TELEMETRY_SCHEMA_VERSION,
            "max_queue": sub.max_queue,
        }

    def _m_telemetry_snapshot(self, conn, request_id, params, t0):
        return build_snapshot(self)

    def _m_telemetry_prom(self, conn, request_id, params, t0):
        return {
            "content_type": "text/plain; version=0.0.4",
            "text": render_prom(self),
        }


# -- console entry point ------------------------------------------------


def _parse_tcp(spec: str) -> tuple[str, int]:
    host, _, port = spec.rpartition(":")
    if not host or not port.isdigit():
        raise argparse.ArgumentTypeError(
            f"--tcp wants HOST:PORT, got {spec!r}"
        )
    return host, int(port)


#: The daemon parser's name and description, shared by ``covirt-serve``
#: and ``repro serve`` so both print the same help.
PARSER_INFO = {
    "prog": "covirt-serve",
    "description": "Serve concurrent simulated Covirt machines over "
    "newline-delimited JSON-RPC (see docs/serving.md).",
}


def add_arguments(parser: argparse.ArgumentParser) -> None:
    """The daemon's options, declared once for ``covirt-serve`` and
    ``repro serve``."""
    group = parser.add_mutually_exclusive_group()
    group.add_argument(
        "--socket", metavar="PATH", default=None,
        help="listen on a Unix socket at PATH",
    )
    group.add_argument(
        "--tcp", metavar="HOST:PORT", type=_parse_tcp, default=None,
        help="listen on TCP (default: 127.0.0.1:7717)",
    )
    parser.add_argument(
        "--max-sessions", type=int, default=DEFAULT_MAX_TOTAL_SESSIONS,
        help="daemon-wide live-session cap",
    )
    parser.add_argument(
        "--tenant-sessions", type=int, default=TenantQuota.max_sessions,
        help="per-tenant live-session quota",
    )
    parser.add_argument(
        "--slice-cycles", type=int, default=TenantQuota.max_cycles_per_slice,
        help="sim-cycles per cooperative scheduler slice",
    )
    parser.add_argument(
        "--backlog", type=int, default=DEFAULT_MAX_BACKLOG,
        help="daemon-wide queued-run cap before shedding",
    )


def serve(args: argparse.Namespace) -> int:
    """Run a daemon with the options of :func:`add_arguments` in the
    foreground until it is shut down."""
    tcp = args.tcp
    if args.socket is None and tcp is None:
        tcp = ("127.0.0.1", 7717)
    quota = TenantQuota(
        max_sessions=args.tenant_sessions,
        max_cycles_per_slice=args.slice_cycles,
    )
    daemon = ServeDaemon(
        socket_path=args.socket,
        tcp=tcp,
        quota=quota,
        max_total_sessions=args.max_sessions,
        max_backlog=args.backlog,
    )
    print(f"covirt-serve listening on {daemon.endpoint}", flush=True)
    try:
        daemon.serve_forever()
    except KeyboardInterrupt:  # pragma: no cover - interactive only
        pass
    print("covirt-serve: bye")
    return 0


def main(argv: list[str] | None = None) -> int:
    """The ``covirt-serve`` console script."""
    parser = argparse.ArgumentParser(**PARSER_INFO)
    add_arguments(parser)
    return serve(parser.parse_args(argv))


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
