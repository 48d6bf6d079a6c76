"""repro.telemetry — the daemon's live observation plane.

Everything else in ``repro.obs`` is post-hoc: you learn what a served
machine did from ``session.trace`` or a post-mortem bundle, after the
fact.  The :class:`TelemetryHub` turns the same passive observer feeds
(``SpanTracer.on_close``, ``MetricsRegistry.hooks``) into **live
server-push frames** on subscribed connections, plus a daemon-wide
rollup (:func:`build_snapshot`) and a Prometheus-style exposition
(:func:`render_prom`).

Three invariants the whole design hangs on:

* **Zero overhead when nobody watches.**  Taps are attached to a
  session's observability bundle only while at least one subscriber
  exists; with none, emission stays on the obs layer's fast path (one
  predicate per span/metric, see ``repro/obs/spans.py``).
* **Subscribers are passive.**  A tap builds a frame and enqueues it —
  it never advances a clock, consumes randomness, or touches simulation
  state, so subscribing cannot perturb any session's fingerprint
  (pinned by ``tests/sweep/test_cross_determinism.py``).
* **Slow clients drop, never stall.**  Every subscriber owns a bounded
  frame queue; when it is full new frames are counted as dropped and a
  ``drops`` frame reports the gap at the next flush.  The event loop
  additionally skips draining into a connection whose unsent output
  backlog is large (:data:`BACKPRESSURE_BYTES`), so one wedged reader
  costs a bounded queue, not daemon memory or tick latency.

Frame and snapshot shapes are schema-checked by
:func:`repro.obs.schema.validate_telemetry_frame` /
:func:`~repro.obs.schema.validate_telemetry_snapshot`; the wire
envelope is ``{"push": "telemetry", "frame": {...}}`` (see
:func:`repro.serve.protocol.encode_push`).
"""

from __future__ import annotations

import time
from collections import deque
from typing import TYPE_CHECKING, Any, Callable

from repro.obs import metric_names
from repro.obs.flight import _jsonable
from repro.obs.metrics import prom_labels
from repro.obs.schema import (
    TELEMETRY_FRAME_TYPES,
    TELEMETRY_ROLLUP_KEYS,
    TELEMETRY_SCHEMA_NAME,
    TELEMETRY_SCHEMA_VERSION,
)
from repro.serve.protocol import E_INVALID_PARAMS, ServeError, encode_push

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs import Observability
    from repro.serve.daemon import ServeDaemon

#: Default per-subscriber frame-queue bound.
DEFAULT_QUEUE_FRAMES = 1024

#: Hard ceiling a subscriber may request for its queue.
MAX_QUEUE_FRAMES = 16384

#: Frames drained per subscriber per flush, so one deep backlog cannot
#: starve request servicing within a single event-loop turn.
MAX_FRAMES_PER_FLUSH = 256

#: Unsent-output threshold past which a subscriber's connection is
#: skipped at flush time (its bounded queue absorbs — and drops).
BACKPRESSURE_BYTES = 1 << 20

#: Metric-name prefix the daemon's own tap ignores, so accounting the
#: telemetry stream can never feed frames back into itself.
_SELF_METRIC_PREFIX = "serve.telemetry"


class TelemetrySubscriber:
    """One subscription: filters + a bounded frame queue + drop books."""

    def __init__(
        self,
        sub_id: int,
        conn: Any,
        *,
        session_id: str | None = None,
        tenants: frozenset[str] | None = None,
        kinds: frozenset[str] | None = None,
        max_queue: int = DEFAULT_QUEUE_FRAMES,
    ) -> None:
        self.sub_id = sub_id
        #: The owning connection (``None`` for in-process subscribers,
        #: e.g. the overhead benchmark).
        self.conn = conn
        self.session_id = session_id
        self.tenants = tenants
        self.kinds = kinds
        self.max_queue = max_queue
        self.queue: deque[dict[str, Any]] = deque()
        self.enqueued = 0
        self.sent = 0
        self.dropped = 0
        #: Drops not yet reported via a ``drops`` frame.
        self.pending_drops = 0

    def wants(self, frame: dict[str, Any]) -> bool:
        if self.kinds is not None and frame["type"] not in self.kinds:
            return False
        if (
            self.session_id is not None
            and frame.get("session_id") != self.session_id
        ):
            return False
        if (
            self.tenants is not None
            and frame.get("tenant") not in self.tenants
        ):
            return False
        return True

    def offer(self, frame: dict[str, Any]) -> bool:
        """Enqueue ``frame`` or count it dropped; never blocks."""
        if len(self.queue) >= self.max_queue:
            self.dropped += 1
            self.pending_drops += 1
            return False
        self.queue.append(frame)
        self.enqueued += 1
        return True

    def stats(self) -> dict[str, Any]:
        return {
            "subscriber": self.sub_id,
            "queued": len(self.queue),
            "enqueued": self.enqueued,
            "sent": self.sent,
            "dropped": self.dropped,
            "max_queue": self.max_queue,
            "session_id": self.session_id,
            "tenants": sorted(self.tenants) if self.tenants else None,
            "kinds": sorted(self.kinds) if self.kinds else None,
        }


class TelemetryHub:
    """Fan-out point between observability feeds and subscribers.

    The hub owns no sockets and runs no thread: the daemon's event loop
    calls :meth:`flush` with its own send function, and taps fire
    synchronously inside session work (they only append to bounded
    queues).  ``metrics`` is the daemon's *own* registry, used for the
    subscriber gauge and the drop counter — tap closures skip every
    ``serve.telemetry*`` metric so that accounting never feeds back.
    """

    def __init__(self, metrics: Any = None) -> None:
        self.metrics = metrics
        self.subscribers: dict[int, TelemetrySubscriber] = {}
        self._by_conn: dict[Any, TelemetrySubscriber] = {}
        self._taps: dict[Any, tuple] = {}
        self._next_sub = 0
        self._seq = 0

    # -- subscriptions ---------------------------------------------------

    @property
    def active(self) -> bool:
        return bool(self.subscribers)

    def _next_seq(self) -> int:
        seq = self._seq
        self._seq += 1
        return seq

    def subscribe(
        self,
        conn: Any,
        *,
        session_id: str | None = None,
        tenants: list[str] | None = None,
        kinds: list[str] | None = None,
        max_queue: int = DEFAULT_QUEUE_FRAMES,
    ) -> TelemetrySubscriber:
        """Register ``conn``; replaces its previous subscription if any.
        The first frame the new subscriber receives is a ``hello``."""
        if kinds is not None:
            unknown = set(kinds) - set(TELEMETRY_FRAME_TYPES)
            if unknown:
                raise ServeError(
                    E_INVALID_PARAMS,
                    f"unknown frame kinds {sorted(unknown)}; choose from "
                    f"{', '.join(TELEMETRY_FRAME_TYPES)}",
                )
        if not 1 <= max_queue <= MAX_QUEUE_FRAMES:
            raise ServeError(
                E_INVALID_PARAMS,
                f"max_queue must be 1..{MAX_QUEUE_FRAMES}, got {max_queue}",
            )
        previous = self._by_conn.pop(conn, None)
        if previous is not None:
            self.subscribers.pop(previous.sub_id, None)
        sub = TelemetrySubscriber(
            self._next_sub,
            conn,
            session_id=session_id,
            tenants=frozenset(tenants) if tenants else None,
            kinds=frozenset(kinds) if kinds else None,
            max_queue=max_queue,
        )
        self._next_sub += 1
        self.subscribers[sub.sub_id] = sub
        self._by_conn[conn] = sub
        sub.offer(
            {
                "seq": self._next_seq(),
                "type": "hello",
                "protocol": TELEMETRY_SCHEMA_NAME,
                "version": TELEMETRY_SCHEMA_VERSION,
                "subscriber": sub.sub_id,
            }
        )
        self._gauge()
        return sub

    def subscription_of(self, conn: Any) -> TelemetrySubscriber | None:
        return self._by_conn.get(conn)

    def unsubscribe(self, conn: Any) -> dict[str, Any] | None:
        """Drop ``conn``'s subscription; returns its final stats."""
        sub = self._by_conn.pop(conn, None)
        if sub is None:
            return None
        self.subscribers.pop(sub.sub_id, None)
        self._gauge()
        return sub.stats()

    def drop_connection(self, conn: Any) -> None:
        """A connection went away; forget its subscription silently."""
        self.unsubscribe(conn)

    def _gauge(self) -> None:
        if self.metrics is not None:
            self.metrics.gauge(
                metric_names.SERVE_TELEMETRY_SUBS,
                "live telemetry subscribers",
            ).set(len(self.subscribers))

    # -- taps ------------------------------------------------------------

    def attach_obs(
        self,
        key: Any,
        obs: "Observability",
        *,
        tenant: str,
        session_id: str | None,
    ) -> None:
        """Wire passive frame-building observers into ``obs``.  Idempotent
        per ``key``; the daemon attaches sessions only while subscribers
        exist, so an idle daemon keeps the obs fast path."""
        if key in self._taps:
            return

        def on_span(span) -> None:
            self.publish(
                {
                    "type": "span",
                    "tenant": tenant,
                    "session_id": session_id,
                    "name": span.name,
                    "category": span.category,
                    "track": span.track,
                    "start": span.start,
                    "end": span.end if span.end is not None else span.start,
                    "args": _jsonable(span.args),
                }
            )

        def on_metric(kind, name, labels, value) -> None:
            if name.startswith(_SELF_METRIC_PREFIX):
                return
            self.publish(
                {
                    "type": "metric",
                    "tenant": tenant,
                    "session_id": session_id,
                    "kind": kind,
                    "name": name,
                    "labels": {k: str(v) for k, v in sorted(labels.items())},
                    "value": value,
                }
            )

        obs.tracer.on_close.append(on_span)
        obs.metrics.hooks.append(on_metric)
        self._taps[key] = (obs, on_span, on_metric)

    def detach_obs(self, key: Any) -> None:
        tap = self._taps.pop(key, None)
        if tap is None:
            return
        obs, on_span, on_metric = tap
        try:
            obs.tracer.on_close.remove(on_span)
        except ValueError:  # pragma: no cover - reset() replaced the list
            pass
        try:
            obs.metrics.hooks.remove(on_metric)
        except ValueError:  # pragma: no cover
            pass

    def detach_all(self) -> None:
        for key in list(self._taps):
            self.detach_obs(key)

    @property
    def tapped(self) -> int:
        return len(self._taps)

    # -- publishing ------------------------------------------------------

    def publish(self, fields: dict[str, Any]) -> None:
        """Stamp a sequence number and offer the frame to every
        interested subscriber.  ``seq`` is hub-global, so a filtered
        subscriber legitimately sees gaps; *unreported* loss is what the
        per-subscriber drop counters and ``drops`` frames cover."""
        if not self.subscribers:
            return
        frame = {"seq": self._next_seq(), **fields}
        for sub in self.subscribers.values():
            if sub.wants(frame):
                sub.offer(frame)

    def lifecycle(
        self,
        event: str,
        tenant: str,
        session_id: str | None = None,
        **detail: Any,
    ) -> None:
        """Publish a session lifecycle transition (launch/park/shed/kill)."""
        if not self.subscribers:
            return
        fields: dict[str, Any] = {
            "type": "lifecycle",
            "event": event,
            "tenant": tenant,
            "session_id": session_id,
        }
        if detail:
            fields["detail"] = _jsonable(detail)
        self.publish(fields)

    # -- draining --------------------------------------------------------

    def pending(self) -> bool:
        return any(
            sub.queue or sub.pending_drops
            for sub in self.subscribers.values()
        )

    def flush(self, send: Callable[[Any, bytes], None]) -> None:
        """Drain bounded queues into connection output buffers.  Called
        once per event-loop turn by the daemon; never blocks."""
        for sub in list(self.subscribers.values()):
            conn = sub.conn
            if conn is None:
                continue
            if getattr(conn, "closed", False):
                self.drop_connection(conn)
                continue
            if len(getattr(conn, "out", b"")) > BACKPRESSURE_BYTES:
                continue
            out = bytearray()
            if sub.pending_drops:
                dropped_now = sub.pending_drops
                sub.pending_drops = 0
                out += encode_push(
                    "telemetry",
                    {
                        "seq": self._next_seq(),
                        "type": "drops",
                        "dropped": dropped_now,
                        "total_dropped": sub.dropped,
                    },
                )
                sub.sent += 1
                if self.metrics is not None:
                    self.metrics.counter(
                        metric_names.SERVE_TELEMETRY_DROPS,
                        "telemetry frames dropped at full queues",
                    ).inc(amount=dropped_now, reason="slow-subscriber")
            budget = MAX_FRAMES_PER_FLUSH
            while sub.queue and budget:
                out += encode_push("telemetry", sub.queue.popleft())
                sub.sent += 1
                budget -= 1
            if out:
                send(conn, bytes(out))

    def stats(self) -> dict[str, Any]:
        subs = [self.subscribers[k].stats() for k in sorted(self.subscribers)]
        return {
            "subscribers": subs,
            "tapped": self.tapped,
            "total_dropped": sum(s["dropped"] for s in subs),
        }


# -- the aggregator ------------------------------------------------------


def _zero_rollup() -> dict[str, int]:
    return {key: 0 for key in sorted(TELEMETRY_ROLLUP_KEYS)}


def build_snapshot(daemon: "ServeDaemon") -> dict[str, Any]:
    """Fold every session's registry into per-tenant and global rollups
    plus the daemon's own request-plane numbers — the ``telemetry.snapshot``
    RPC body and ``repro top``'s data source."""
    uptime = max(1e-9, time.monotonic() - daemon.started_at)
    metrics = daemon.obs.metrics

    req = metrics.get(metric_names.SERVE_REQUESTS)
    requests_total = int(req.total()) if req is not None else 0
    hist = metrics.get(metric_names.SERVE_REQUEST_US)
    shed = metrics.get(metric_names.SERVE_SHED)

    tenants: dict[str, dict[str, int]] = {}
    for session in daemon.registry.sessions.values():
        rollup = tenants.setdefault(session.tenant, _zero_rollup())
        obs = session.env.machine.obs
        rollup["sessions"] += 1
        rollup["parked"] += 1 if session.state.value == "parked" else 0
        rollup["steps_applied"] += session.steps_applied
        rollup["sim_cycles"] += session.sim_cycles()
        rollup["slices_run"] += session.slices_run
        rollup["oracle_violations"] += 1 if session.engine.failure else 0
        rollup["postmortems"] += obs.flight.captured
        rollup["exits"] += sum(
            obs.metrics.exit_counts_by_reason().values()
        )
    global_rollup = _zero_rollup()
    for rollup in tenants.values():
        for key, value in rollup.items():
            global_rollup[key] += value

    return {
        "schema": TELEMETRY_SCHEMA_NAME,
        "schema_version": TELEMETRY_SCHEMA_VERSION,
        "kind": "snapshot",
        "endpoint": daemon.endpoint,
        "uptime_seconds": uptime,
        "daemon": {
            "connections": len(daemon.connections),
            "requests_total": requests_total,
            "requests_per_sec": requests_total / uptime,
            "request_p50_us": hist.quantile(0.5) if hist else 0.0,
            "request_p99_us": hist.quantile(0.99) if hist else 0.0,
            "shed": {
                "busy": int(shed.get(reason="busy")) if shed else 0,
                "quota": int(shed.get(reason="quota")) if shed else 0,
            },
            "backlog": daemon.scheduler.pending(),
            "completed_jobs": daemon.scheduler.completed,
            "subscribers": daemon.telemetry.stats()["subscribers"],
        },
        "global": global_rollup,
        "tenants": {name: tenants[name] for name in sorted(tenants)},
    }


def render_prom(daemon: "ServeDaemon") -> str:
    """The daemon's Prometheus text exposition: its own request-plane
    registry plus synthetic per-tenant rollup gauges from the
    aggregator (``covirt_tenant_*``)."""
    snapshot = build_snapshot(daemon)
    lines = [daemon.obs.metrics.render_prom().rstrip("\n")]
    lines.append(
        "# HELP covirt_uptime_seconds daemon uptime\n"
        "# TYPE covirt_uptime_seconds gauge\n"
        f"covirt_uptime_seconds {snapshot['uptime_seconds']:.3f}"
    )
    for key in sorted(TELEMETRY_ROLLUP_KEYS):
        name = f"covirt_tenant_{key}"
        lines.append(f"# HELP {name} per-tenant rollup: {key}")
        lines.append(f"# TYPE {name} gauge")
        for tenant, rollup in snapshot["tenants"].items():
            labels = prom_labels({"tenant": tenant})
            lines.append(f"{name}{labels} {rollup[key]}")
    return "\n".join(line for line in lines if line) + "\n"
