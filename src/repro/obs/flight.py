"""The always-on flight recorder.

Production tracing stacks keep a cheap, bounded ring of recent activity
at all times so that when something goes wrong the *lead-up* is already
captured — no re-run needed.  :class:`FlightRecorder` is that ring for
the simulated machine: it subscribes to span completions and metric
updates on ``machine.obs`` and retains the last ``capacity`` events.

When a containment event fires — a hypervisor terminates a guest, a
fuzz oracle finds a broken invariant, the recovery supervisor parks a
service — the subsystem that detected it calls :meth:`postmortem`,
which freezes a schema-versioned bundle: the event tail, a full metric
snapshot, and a state summary from every registered context provider
(the controller contributes enclave/EPT/whitelist/queue state, the
supervisor contributes service phases).  With :attr:`dump_dir` set the
bundle is also written to disk as deterministic sorted-key JSON, so two
same-seed runs produce byte-identical dumps.

Like everything in ``repro.obs`` the recorder is strictly passive: it
never advances the clock, consumes randomness, or perturbs any
simulation state, so enabling it changes no result and no fuzz
fingerprint.
"""

from __future__ import annotations

import json
from collections import deque
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable

if TYPE_CHECKING:  # pragma: no cover
    from repro.hw.clock import Clock
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.spans import Span

#: Default event-ring depth; a post-mortem carries at most this tail.
DEFAULT_FLIGHT_CAPACITY = 512

#: In-memory bundles retained (disk dumps are unbounded by this).
MAX_RETAINED_POSTMORTEMS = 32

POSTMORTEM_SCHEMA_NAME = "covirt-postmortem"
POSTMORTEM_SCHEMA_VERSION = 1


def _jsonable(value: Any) -> Any:
    """Coerce span/metric args into a JSON-stable form."""
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in sorted(
            value.items(), key=lambda kv: str(kv[0])
        )}
    if isinstance(value, (list, tuple, set, frozenset)):
        items = list(value)
        if isinstance(value, (set, frozenset)):
            items = sorted(items, key=str)
        return [_jsonable(v) for v in items]
    return str(value)


class FlightRecorder:
    """Bounded ring of recent observability events + post-mortem dumps."""

    def __init__(
        self, clock: "Clock", capacity: int = DEFAULT_FLIGHT_CAPACITY
    ) -> None:
        if capacity <= 0:
            raise ValueError("flight-recorder capacity must be positive")
        self.clock = clock
        self.capacity = capacity
        self._ring: deque[dict[str, Any]] = deque(maxlen=capacity)
        #: Total events ever recorded (``recorded - len(tail())`` is the
        #: number that wrapped out of the ring).
        self.recorded = 0
        #: Who this recorder is recording *for*: stable identity stamped
        #: into every post-mortem bundle (the serving layer fills in
        #: tenant / session_id / scenario / seed plus scheduler-slice
        #: context at park time) so a bundle pulled off a busy daemon's
        #: disk is attributable without grepping the daemon log.
        self.identity: dict[str, Any] = {}
        #: State summarizers snapshotted into every bundle, by name.
        self.context_providers: dict[str, Callable[[], Any]] = {}
        #: Set by :class:`~repro.obs.Observability`; snapshotted whole.
        self.metrics: "MetricsRegistry | None" = None
        #: When set, every post-mortem is also written here as
        #: ``postmortem_<seq>_<trigger>.json``.
        self.dump_dir: str | Path | None = None
        #: The most recent bundles (bounded), newest last.
        self.postmortems: deque[dict[str, Any]] = deque(
            maxlen=MAX_RETAINED_POSTMORTEMS
        )
        #: Paths written so far (when :attr:`dump_dir` is set).
        self.dumped_paths: list[Path] = []
        self._seq = 0

    # -- feeds -----------------------------------------------------------

    def record_span(self, span: "Span") -> None:
        """``SpanTracer.on_close`` observer: retain the completed span."""
        self._append(
            {
                "type": "span",
                "name": span.name,
                "track": span.track,
                "category": span.category,
                "start": span.start,
                "end": span.end if span.end is not None else span.start,
                "args": _jsonable(span.args),
            }
        )

    def record_metric(
        self, kind: str, name: str, labels: dict[str, Any], value: float
    ) -> None:
        """``MetricsRegistry.hooks`` observer: retain the update delta."""
        self._append(
            {
                "type": "metric",
                "kind": kind,
                "name": name,
                "labels": {k: str(v) for k, v in sorted(labels.items())},
                "value": value,
                "tsc": self.clock.now,
            }
        )

    def note(self, kind: str, detail: str, **extra: Any) -> None:
        """Record a free-form marker (e.g. a containment trigger)."""
        self._append(
            {
                "type": "note",
                "kind": kind,
                "detail": detail,
                "tsc": self.clock.now,
                **({"extra": _jsonable(extra)} if extra else {}),
            }
        )

    def _append(self, event: dict[str, Any]) -> None:
        self._ring.append(event)
        self.recorded += 1

    # -- context ---------------------------------------------------------

    def register_context(self, name: str, provider: Callable[[], Any]) -> None:
        """Register a state summarizer included in every bundle.  The
        provider must return JSON-ready, deterministically-ordered data
        and must not mutate simulation state."""
        self.context_providers[name] = provider

    def _context(self, name: str) -> Any:
        """One provider's section.  A provider that raises must not stop
        the bundle: it runs on a machine already known to be broken, so
        its section records the error instead."""
        try:
            return _jsonable(self.context_providers[name]())
        except Exception as exc:  # noqa: BLE001 — freezing must never raise
            return {"error": f"{type(exc).__name__}: {exc}"}

    # -- introspection ---------------------------------------------------

    def tail(self, n: int | None = None) -> list[dict[str, Any]]:
        events = list(self._ring)
        return events if n is None else events[-n:]

    def __len__(self) -> int:
        return len(self._ring)

    def clear(self) -> None:
        """Forget ring contents and retained bundles (providers stay)."""
        self._ring.clear()
        self.recorded = 0
        self.postmortems.clear()
        self._seq = 0

    # -- post-mortem capture ---------------------------------------------

    def postmortem(
        self, trigger: str, reason: str = "", **detail: Any
    ) -> dict[str, Any]:
        """Freeze a post-mortem bundle right now.

        ``trigger`` names the event class (``containment``, ``oracle``,
        ``recovery-parked``); ``reason`` is its one-line description.
        Returns the bundle (also retained on :attr:`postmortems` and,
        with :attr:`dump_dir` set, written to disk).
        """
        bundle: dict[str, Any] = {
            "schema": POSTMORTEM_SCHEMA_NAME,
            "schema_version": POSTMORTEM_SCHEMA_VERSION,
            "seq": self._seq,
            "trigger": trigger,
            "reason": reason,
            "identity": _jsonable(self.identity),
            "detail": _jsonable(detail),
            "clock_now": self.clock.now,
            "events_recorded": self.recorded,
            "events": self.tail(),
            "metrics": self.metrics.to_dict() if self.metrics else {},
            "context": {
                name: self._context(name)
                for name in sorted(self.context_providers)
            },
        }
        self._seq += 1
        self.postmortems.append(bundle)
        if self.dump_dir is not None:
            directory = Path(self.dump_dir)
            directory.mkdir(parents=True, exist_ok=True)
            path = directory / f"postmortem_{bundle['seq']:03d}_{trigger}.json"
            path.write_text(
                json.dumps(bundle, indent=1, sort_keys=True) + "\n"
            )
            self.dumped_paths.append(path)
        if self.metrics is not None:
            from repro.obs import metric_names

            self.metrics.counter(
                metric_names.POSTMORTEMS, "post-mortem bundles captured"
            ).inc(trigger=trigger)
        return bundle
