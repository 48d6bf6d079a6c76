"""repro.obs — the unified observability layer.

One :class:`Observability` bundle hangs off every simulated
:class:`~repro.hw.machine.Machine` (``machine.obs``): a machine-wide
:class:`~repro.obs.spans.SpanTracer` plus a
:class:`~repro.obs.metrics.MetricsRegistry`.  Both are strictly
**passive** — they never advance the clock, consume randomness, or
otherwise perturb the simulation — so enabling them changes no
experiment result and no fuzz fingerprint.

See ``docs/observability.md`` for the span model, metric naming
conventions, and the ``BENCH_*.json`` schema.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.obs import metrics as metric_names
from repro.obs.export import chrome_trace, write_chrome_trace
from repro.obs.flight import (
    FlightRecorder,
    POSTMORTEM_SCHEMA_NAME,
    POSTMORTEM_SCHEMA_VERSION,
)
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs.schema import (
    BENCH_SCHEMA_NAME,
    BENCH_SCHEMA_VERSION,
    SWEEP_SCHEMA_NAME,
    SWEEP_SCHEMA_VERSION,
    TELEMETRY_SCHEMA_NAME,
    TELEMETRY_SCHEMA_VERSION,
    validate_bench,
    validate_chrome_trace,
    validate_postmortem,
    validate_sweep,
    validate_telemetry_frame,
    validate_telemetry_snapshot,
)
from repro.obs.spans import NULL_SPAN, Span, SpanTracer

if TYPE_CHECKING:  # pragma: no cover
    from repro.hw.clock import Clock


class Observability:
    """Per-machine bundle: span tracer + metrics registry + flight
    recorder (the always-on ring feeding post-mortem dumps)."""

    def __init__(self, clock: "Clock") -> None:
        self.tracer = SpanTracer(clock)
        self.metrics = MetricsRegistry()
        self.flight = FlightRecorder(clock)
        self.flight.metrics = self.metrics
        self.tracer.on_close.append(self.flight.record_span)
        self.metrics.hooks.append(self.flight.record_metric)

    def close(self) -> None:
        """Detach the metric observers and each metric's link to its
        registry, and the context providers (they point at the layers
        that own this bundle through the machine).  Spans, metric
        values, the ring and the post-mortems already captured stay
        readable."""
        self.metrics.close()
        self.flight.context_providers.clear()

    def quiesce(self) -> None:
        """Drop to the zero-overhead fast path: disable the span tracer
        and detach every observer (flight feed included), so emission
        collapses to a cheap predicate.  Counters and gauges still
        accumulate; only recording and fan-out stop.  One-way: nothing
        rewires the flight recorder afterwards."""
        self.tracer.enabled = False
        self.tracer.on_close = []
        self.metrics.hooks = []


__all__ = [
    "BENCH_SCHEMA_NAME",
    "BENCH_SCHEMA_VERSION",
    "Counter",
    "FlightRecorder",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_SPAN",
    "Observability",
    "POSTMORTEM_SCHEMA_NAME",
    "POSTMORTEM_SCHEMA_VERSION",
    "SWEEP_SCHEMA_NAME",
    "SWEEP_SCHEMA_VERSION",
    "TELEMETRY_SCHEMA_NAME",
    "TELEMETRY_SCHEMA_VERSION",
    "Span",
    "SpanTracer",
    "chrome_trace",
    "metric_names",
    "validate_bench",
    "validate_chrome_trace",
    "validate_postmortem",
    "validate_sweep",
    "validate_telemetry_frame",
    "validate_telemetry_snapshot",
    "write_chrome_trace",
]
