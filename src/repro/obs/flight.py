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

Recording is by reference: the ring keeps each closed :class:`Span` as
it is and a plain tuple per metric update or note, and a capture keeps
its raw parts (the ring's records, a metric snapshot, the providers'
fresh output).  Only this module reads that raw form; it renders event
dicts and bundles when something reads them (:meth:`tail`,
:meth:`window`, :attr:`postmortems`, a dump).  Nothing a capture
references is mutated afterwards, so a bundle rendered late reads byte
for byte as one rendered at capture.

Like everything in ``repro.obs`` the recorder is strictly passive: it
never advances the clock, consumes randomness, or perturbs any
simulation state, so enabling it changes no result and no fuzz
fingerprint.
"""

from __future__ import annotations

import json
from collections import deque
from collections.abc import Sequence
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable

from repro.obs.metrics import POSTMORTEMS, MetricsRegistry
from repro.obs.spans import Span

if TYPE_CHECKING:  # pragma: no cover
    from repro.hw.clock import Clock

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


#: One ring record: a closed :class:`Span`, a metric update
#: ``(kind, name, labels, value, tsc)`` or a note
#: ``(kind, detail, tsc, extra)``.
Record = Any


def _render(record: Record) -> dict[str, Any]:
    """One ring record as its event dict."""
    if isinstance(record, Span):
        return {
            "type": "span",
            "name": record.name,
            "track": record.track,
            "category": record.category,
            "start": record.start,
            "end": record.end if record.end is not None else record.start,
            "args": _jsonable(record.args),
        }
    if len(record) == 5:
        kind, name, labels, value, tsc = record
        return {
            "type": "metric",
            "kind": kind,
            "name": name,
            "labels": {k: str(v) for k, v in sorted(labels.items())},
            "value": value,
            "tsc": tsc,
        }
    kind, detail, tsc, extra = record
    event = {"type": "note", "kind": kind, "detail": detail, "tsc": tsc}
    if extra:
        event["extra"] = _jsonable(extra)
    return event


def _cycle(record: Record) -> int:
    """A record's simulated-time stamp: a span's end, else its ``tsc``."""
    if isinstance(record, Span):
        return record.end if record.end is not None else record.start
    return record[4] if len(record) == 5 else record[2]


class _Capture:
    """One post-mortem's raw parts; :meth:`bundle` renders them once."""

    __slots__ = ("parts", "rendered")

    def __init__(self, *parts: Any) -> None:
        self.parts: tuple | None = parts
        self.rendered: dict[str, Any] | None = None

    def bundle(self) -> dict[str, Any]:
        if self.rendered is None:
            (seq, trigger, reason, identity, detail, clock_now, recorded,
             records, metrics, context) = self.parts
            self.rendered = {
                "schema": POSTMORTEM_SCHEMA_NAME,
                "schema_version": POSTMORTEM_SCHEMA_VERSION,
                "seq": seq,
                "trigger": trigger,
                "reason": reason,
                "identity": identity,
                "detail": _jsonable(detail),
                "clock_now": clock_now,
                "events_recorded": recorded,
                "events": [_render(record) for record in records],
                "metrics": (
                    MetricsRegistry.render(metrics) if metrics is not None
                    else {}
                ),
                "context": {
                    name: _jsonable(section) for name, section in context
                },
            }
            self.parts = None
        return self.rendered


class Postmortems(Sequence):
    """The retained post-mortem bundles, newest last.  Each renders the
    first time it is read and stays rendered."""

    def __init__(self) -> None:
        self._captures: deque[_Capture] = deque(
            maxlen=MAX_RETAINED_POSTMORTEMS
        )

    def __len__(self) -> int:
        return len(self._captures)

    def __getitem__(self, index: int) -> dict[str, Any]:
        return self._captures[index].bundle()

    def append(self, capture: _Capture) -> None:
        self._captures.append(capture)

    def clear(self) -> None:
        self._captures.clear()


class FlightRecorder:
    """Bounded ring of recent observability events + post-mortem dumps."""

    def __init__(
        self, clock: "Clock", capacity: int = DEFAULT_FLIGHT_CAPACITY
    ) -> None:
        if capacity <= 0:
            raise ValueError("flight-recorder capacity must be positive")
        self.clock = clock
        self.capacity = capacity
        self._ring: deque[Record] = deque(maxlen=capacity)
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
        #: The most recent bundles (bounded), newest last, each rendered
        #: on first read.
        self.postmortems = Postmortems()
        #: Paths written so far (when :attr:`dump_dir` is set).
        self.dumped_paths: list[Path] = []
        self._seq = 0

    # -- feeds -----------------------------------------------------------

    def record_span(self, span: Span) -> None:
        """``SpanTracer.on_close`` observer: retain the completed span
        (its args are final once it closes)."""
        self._ring.append(span)
        self.recorded += 1

    def record_metric(
        self, kind: str, name: str, labels: dict[str, Any], value: float
    ) -> None:
        """``MetricsRegistry.hooks`` observer: retain the update delta
        (``labels`` is the update's own keyword dict)."""
        self._ring.append((kind, name, labels, value, self.clock.now))
        self.recorded += 1

    def note(self, kind: str, detail: str, **extra: Any) -> None:
        """Record a free-form marker (e.g. a containment trigger)."""
        self._ring.append((kind, detail, self.clock.now, extra))
        self.recorded += 1

    # -- context ---------------------------------------------------------

    def register_context(self, name: str, provider: Callable[[], Any]) -> None:
        """Register a state summarizer included in every bundle.  The
        provider must return fresh (bundles keep the returned object and
        may render it later), JSON-ready, deterministically-ordered data
        and must not mutate simulation state."""
        self.context_providers[name] = provider

    def _context(self, name: str) -> Any:
        """One provider's section.  A provider that raises must not stop
        the bundle: it runs on a machine already known to be broken, so
        its section records the error instead."""
        try:
            return self.context_providers[name]()
        except Exception as exc:  # noqa: BLE001 — freezing must never raise
            return {"error": f"{type(exc).__name__}: {exc}"}

    # -- introspection ---------------------------------------------------

    def tail(self, n: int | None = None) -> list[dict[str, Any]]:
        """The ring's last ``n`` events (all of them for ``None``)."""
        records = list(self._ring)
        if n is not None:
            records = records[-n:]
        return [_render(record) for record in records]

    def window(
        self, cursor: int, limit: int, since_cycle: int | None = None
    ) -> tuple[list[dict[str, Any]], int, int]:
        """Events past ``cursor`` (an index over every event ever
        recorded), at most ``limit`` of them, as ``(events, next_cursor,
        dropped)``.  ``dropped`` counts events that wrapped out of the
        ring before the cursor reached them.  ``since_cycle`` skips
        events stamped before that simulated time; skipped events still
        advance the cursor."""
        records = list(self._ring)
        first = self.recorded - len(records)
        cursor = max(0, int(cursor))
        dropped = max(0, first - cursor)
        limit = max(0, int(limit))
        window: list[Record] = []
        next_cursor = max(cursor, first)
        skip = min(next_cursor - first, len(records))
        for index, record in enumerate(records[skip:], start=first + skip):
            if len(window) >= limit:
                break
            next_cursor = index + 1
            if since_cycle is not None and _cycle(record) < since_cycle:
                continue
            window.append(record)
        else:
            next_cursor = self.recorded
        return [_render(record) for record in window], next_cursor, dropped

    def __len__(self) -> int:
        return len(self._ring)

    @property
    def captured(self) -> int:
        """Post-mortems frozen since the last :meth:`clear`;
        :attr:`postmortems` retains only the newest
        ``MAX_RETAINED_POSTMORTEMS`` of them."""
        return self._seq

    def clear(self) -> None:
        """Forget ring contents and retained bundles (providers stay)."""
        self._ring.clear()
        self.recorded = 0
        self.postmortems.clear()
        self._seq = 0

    # -- post-mortem capture ---------------------------------------------

    def postmortem(self, trigger: str, reason: str = "", **detail: Any) -> None:
        """Freeze a post-mortem bundle right now.

        ``trigger`` names the event class (``containment``, ``oracle``,
        ``recovery-parked``); ``reason`` is its one-line description.
        The capture keeps references: the identity (copied), the
        ``detail`` values, the ring's records, a metric snapshot and
        each context provider's return value.  It is retained on
        :attr:`postmortems`, which renders it on first read, and with
        :attr:`dump_dir` set it is rendered and written to disk at once.
        """
        capture = _Capture(
            self._seq,
            trigger,
            reason,
            _jsonable(self.identity),
            detail,
            self.clock.now,
            self.recorded,
            list(self._ring),
            self.metrics.snapshot() if self.metrics else None,
            [(name, self._context(name))
             for name in sorted(self.context_providers)],
        )
        self._seq += 1
        self.postmortems.append(capture)
        if self.dump_dir is not None:
            bundle = capture.bundle()
            directory = Path(self.dump_dir)
            directory.mkdir(parents=True, exist_ok=True)
            path = directory / f"postmortem_{bundle['seq']:03d}_{trigger}.json"
            path.write_text(
                json.dumps(bundle, indent=1, sort_keys=True) + "\n"
            )
            self.dumped_paths.append(path)
        if self.metrics is not None:
            self.metrics.counter(
                POSTMORTEMS, "post-mortem bundles captured"
            ).inc(trigger=trigger)
