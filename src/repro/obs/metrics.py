"""The metrics registry: counters, gauges, cycle-bucketed histograms.

One :class:`MetricsRegistry` lives on each :class:`~repro.hw.machine.Machine`
(``machine.obs.metrics``) — **instance-scoped, never module-global** —
so concurrent experiments on separate machines can never cross-
contaminate counts (see ``tests/perf/test_counters_isolation.py``).

Metric naming follows ``<subsystem>.<what>[_<unit>]`` with labels for
the dimensions (``reason``, ``core``, ``enclave``, ``kind``); the full
conventions live in ``docs/observability.md``.  All label values are
coerced to strings so samples sort deterministically, which keeps every
rendering — text, JSON, BENCH_*.json — byte-stable for a given run.
"""

from __future__ import annotations

import bisect
from typing import Any

# -- canonical metric names (grep-ability + typo-proof tests) -----------

#: VM exits, by ``reason`` / ``core`` / ``enclave``.
EXITS = "covirt.exits"
#: Exit round-trip latency histogram (cycles), by ``reason``.
EXIT_CYCLES = "covirt.exit_cycles"
#: Commands drained from per-core queues, by ``type`` / ``core`` / ``enclave``.
COMMANDS = "covirt.commands"
#: IPIs a hypervisor handled, by ``outcome`` (``forwarded``, ``filtered``
#: or ``posted``) / ``core`` / ``enclave``.
IPIS = "covirt.ipis"
#: Guest terminations, by fault ``kind``.
TERMINATIONS = "covirt.terminations"
#: Controller configuration rewrites, by ``kind`` (ept-map, ...).
CONFIG_UPDATES = "controller.config_updates"
#: Cores interrupted per MEMORY_UPDATE drain (TLB-shootdown fan-out).
SHOOTDOWN_FANOUT = "controller.shootdown_fanout"
#: Detection → RUNNING recovery latency (cycles), by fault ``kind``.
MTTR_CYCLES = "recovery.mttr_cycles"
#: Per-checkpoint cost (cycles).
CHECKPOINT_CYCLES = "recovery.checkpoint_cycles"
#: Approximate serialized checkpoint size (bytes).
CHECKPOINT_BYTES = "recovery.checkpoint_bytes"
#: Fuzz steps applied, by action ``kind`` and ``outcome`` class.
FUZZ_STEPS = "fuzz.steps"
#: Workload executions, by ``workload`` and ``config``.
WORKLOAD_RUNS = "workload.runs"
#: XEMEM control-path operations, by ``op`` (grant | attach | detach | ...).
XEMEM_OPS = "xemem.ops"
#: XEMEM control-path latency histogram (cycles), by ``op``.
XEMEM_OP_CYCLES = "xemem.op_cycles"
#: Hobbes command-channel messages, by ``direction`` and ``kind``.
HOBBES_MSGS = "hobbes.channel_msgs"
#: Post-mortem bundles captured by the flight recorder, by ``trigger``.
POSTMORTEMS = "obs.postmortems"
#: Serving-daemon requests handled, by ``method`` and ``status``
#: (``ok`` or the typed error code).
SERVE_REQUESTS = "serve.requests"
#: Serving-daemon request latency histogram (microseconds, wall clock),
#: by ``method``.
SERVE_REQUEST_US = "serve.request_us"
#: Live sessions gauge, by ``tenant`` (and the ``total`` pseudo-tenant).
SERVE_SESSIONS = "serve.sessions"
#: Requests shed by admission control, by ``reason`` (busy | quota).
SERVE_SHED = "serve.shed"
#: Scheduler slices executed, by ``tenant``.
SERVE_SLICES = "serve.slices"
#: Sessions parked by crash containment, by ``tenant``.
SERVE_PARKS = "serve.parks"
#: Live telemetry subscribers gauge (the streaming plane).
SERVE_TELEMETRY_SUBS = "serve.telemetry_subscribers"
#: Telemetry frames dropped at full subscriber queues, by ``reason``.
#: The daemon's own telemetry tap skips every ``serve.telemetry*``
#: metric so accounting the stream can never feed back into it.
SERVE_TELEMETRY_DROPS = "serve.telemetry_drops"

#: The counts :meth:`MetricsRegistry.hypervisor_counts` reads: its key,
#: the metric, and the label it breaks down by.  A fixed set: the fuzz
#: fingerprint hashes it, so a metric added later never moves one.
HYPERVISOR_COUNTS: tuple[tuple[str, str, str], ...] = (
    ("exits", EXITS, "reason"),
    ("commands", COMMANDS, "type"),
    ("ipis", IPIS, "outcome"),
)

#: Microsecond buckets for wall-clock request latency (serving daemon).
WALL_US_BUCKETS: tuple[int, ...] = (
    10, 25, 50, 100, 250, 500, 1_000, 2_500, 5_000, 10_000, 25_000,
    50_000, 100_000, 250_000, 500_000, 1_000_000, 5_000_000,
)

#: Geometric cycle buckets spanning a posted delivery (~80 cyc) to a
#: slow recovery (~10^8 cyc); upper bounds, +Inf implied.
DEFAULT_CYCLE_BUCKETS: tuple[int, ...] = (
    100, 250, 500, 1_000, 2_000, 4_000, 8_000, 16_000, 32_000,
    64_000, 128_000, 256_000, 512_000, 1_000_000, 4_000_000,
    16_000_000, 64_000_000, 256_000_000,
)

LabelKey = tuple[tuple[str, str], ...]


def _labelkey(labels: dict[str, Any]) -> LabelKey:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


class Metric:
    """Common bookkeeping for all metric kinds."""

    kind = "metric"
    #: Set by the owning registry: called ``(kind, name, labels, value)``
    #: on every update so passive observers (the flight recorder) can
    #: keep a delta trail.  ``None`` when the metric is free-standing.
    _notify = None

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help

    def _event(self, labels: dict[str, Any], value: float) -> None:
        if self._notify is not None:
            self._notify(self.kind, self.name, labels, value)

    def snapshot(self) -> Any:  # pragma: no cover
        """This metric's values as of now, in a copy later updates
        cannot reach; :meth:`samples` reads it back."""
        raise NotImplementedError

    def samples(
        self, state: Any = None
    ) -> list[tuple[dict[str, str], Any]]:  # pragma: no cover
        """Sorted ``(labels, value)`` pairs, live or of a
        :meth:`snapshot`."""
        raise NotImplementedError


class _Scalar(Metric):
    """One number per label set (the counter and gauge storage)."""

    def __init__(self, name: str, help: str = "") -> None:
        super().__init__(name, help)
        self._values: dict[LabelKey, float] = {}

    def get(self, **labels: Any) -> float:
        return self._values.get(_labelkey(labels), 0)

    def snapshot(self) -> dict[LabelKey, float]:
        return dict(self._values)

    def samples(
        self, state: dict[LabelKey, float] | None = None
    ) -> list[tuple[dict[str, str], float]]:
        values = self._values if state is None else state
        return [(dict(k), v) for k, v in sorted(values.items())]


class Counter(_Scalar):
    """A monotonically increasing count per label set."""

    kind = "counter"

    def inc(self, amount: int | float = 1, **labels: Any) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease")
        key = _labelkey(labels)
        self._values[key] = self._values.get(key, 0) + amount
        self._event(labels, amount)

    def total(self) -> float:
        return sum(self._values.values())

    def sum_by(self, label: str, **match: Any) -> dict[str, float]:
        """Collapse the samples carrying every ``match`` label (all of
        them by default) onto one label dimension."""
        wanted = set(_labelkey(match))
        out: dict[str, float] = {}
        for key, value in self._values.items():
            if wanted and not wanted.issubset(key):
                continue
            bucket = dict(key).get(label, "")
            out[bucket] = out.get(bucket, 0) + value
        return dict(sorted(out.items()))


class Gauge(_Scalar):
    """A set-to-current-value metric per label set."""

    kind = "gauge"

    def set(self, value: int | float, **labels: Any) -> None:
        self._values[_labelkey(labels)] = value
        self._event(labels, value)


class Histogram(Metric):
    """Bucketed distribution (cycle-bucketed by default)."""

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str = "",
        buckets: tuple[int, ...] | None = None,
    ) -> None:
        super().__init__(name, help)
        bounds = tuple(sorted(buckets or DEFAULT_CYCLE_BUCKETS))
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        self.bounds = bounds
        #: label key → per-bucket counts (len(bounds)+1: last is +Inf).
        self._buckets: dict[LabelKey, list[int]] = {}
        self._sum: dict[LabelKey, float] = {}
        self._count: dict[LabelKey, int] = {}

    def observe(self, value: int | float, **labels: Any) -> None:
        key = _labelkey(labels)
        counts = self._buckets.setdefault(key, [0] * (len(self.bounds) + 1))
        counts[bisect.bisect_left(self.bounds, value)] += 1
        self._sum[key] = self._sum.get(key, 0) + value
        self._count[key] = self._count.get(key, 0) + 1
        self._event(labels, value)

    def count(self, **labels: Any) -> int:
        return self._count.get(_labelkey(labels), 0)

    def total_count(self) -> int:
        return sum(self._count.values())

    def total_sum(self) -> float:
        return sum(self._sum.values())

    def sum(self, **labels: Any) -> float:
        return self._sum.get(_labelkey(labels), 0)

    def mean(self, **labels: Any) -> float:
        n = self.count(**labels)
        return self.sum(**labels) / n if n else 0.0

    def quantile(self, q: float, **labels: Any) -> float:
        """Upper-bound estimate of the ``q``-quantile (0 < q <= 1) from
        bucket counts — aggregated across every label set unless one is
        given.  Returns the bound of the bucket where the cumulative
        count crosses the target; observations past the last bound clamp
        to it (a bucketed histogram cannot resolve further)."""
        if not 0.0 < q <= 1.0:
            raise ValueError(f"quantile must be in (0, 1], got {q}")
        keys = [_labelkey(labels)] if labels else list(self._buckets)
        total = sum(self._count.get(key, 0) for key in keys)
        if total == 0:
            return 0.0
        target = q * total
        cumulative = 0
        for i in range(len(self.bounds) + 1):
            cumulative += sum(
                self._buckets[key][i] for key in keys if key in self._buckets
            )
            if cumulative >= target:
                return float(self.bounds[min(i, len(self.bounds) - 1)])
        return float(self.bounds[-1])  # pragma: no cover - loop covers total

    def snapshot(self) -> tuple[dict, dict, dict]:
        return (
            {key: list(counts) for key, counts in self._buckets.items()},
            dict(self._sum),
            dict(self._count),
        )

    def samples(
        self, state: tuple | None = None
    ) -> list[tuple[dict[str, str], dict[str, Any]]]:
        buckets, sums, counts = (
            (self._buckets, self._sum, self._count) if state is None else state
        )
        return [
            (
                dict(key),
                {
                    "counts": list(buckets[key]),
                    "sum": sums[key],
                    "count": counts[key],
                },
            )
            for key in sorted(buckets)
        ]


class MetricsRegistry:
    """Get-or-create home for every metric on one machine."""

    def __init__(self) -> None:
        self._metrics: dict[str, Metric] = {}
        #: Passive update observers, called ``(kind, name, labels, value)``
        #: on every counter increment / gauge set / histogram observation.
        self.hooks: list = []

    def _dispatch_event(
        self, kind: str, name: str, labels: dict[str, Any], value: float
    ) -> None:
        # Fast path: with no observer attached (no flight feed, no
        # telemetry tap) an update costs one truthiness test here —
        # counts still accumulate, only the fan-out is skipped.
        hooks = self.hooks
        if not hooks:
            return
        for hook in hooks:
            hook(kind, name, labels, value)

    def close(self) -> None:
        """Detach the update observers and each metric's notify link
        (a method of this registry, so a reference cycle).  Values stay
        readable; later updates no longer fan out."""
        self.hooks = []
        for metric in self._metrics.values():
            metric._notify = None

    def _get_or_create(self, cls, name: str, help: str, **kwargs) -> Metric:
        metric = self._metrics.get(name)
        if metric is None:
            metric = cls(name, help, **kwargs)
            metric._notify = self._dispatch_event
            self._metrics[name] = metric
        elif not isinstance(metric, cls):
            raise TypeError(
                f"metric {name!r} already registered as {metric.kind}"
            )
        return metric

    def counter(self, name: str, help: str = "") -> Counter:
        return self._get_or_create(Counter, name, help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._get_or_create(Gauge, name, help)

    def histogram(
        self, name: str, help: str = "", buckets: tuple[int, ...] | None = None
    ) -> Histogram:
        return self._get_or_create(Histogram, name, help, buckets=buckets)

    def get(self, name: str) -> Metric | None:
        return self._metrics.get(name)

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def __len__(self) -> int:
        return len(self._metrics)

    # -- convenience views ----------------------------------------------

    def hypervisor_counts(self, **labels: Any) -> dict[str, Any]:
        """Every hypervisor count, read from the one place it is kept.

        ``exits``, ``commands`` and ``ipis`` map each reason, command
        type and outcome (:data:`HYPERVISOR_COUNTS`) to its count;
        ``exit_cycles`` is the sum of :data:`EXIT_CYCLES`.  ``enclave=``
        and ``core=`` keep only the samples with those labels; the cycle
        histogram is labelled by reason alone, so a filtered view leaves
        ``exit_cycles`` out.  Every call returns new dicts.
        """
        counts: dict[str, Any] = {}
        for key, name, label in HYPERVISOR_COUNTS:
            metric = self._metrics.get(name)
            by = metric.sum_by(label, **labels) if metric is not None else {}
            counts[key] = {k: int(v) for k, v in by.items()}
        if not labels:
            cycles = self._metrics.get(EXIT_CYCLES)
            counts["exit_cycles"] = int(cycles.total_sum()) if cycles else 0
        return counts

    def exit_counts_by_reason(self) -> dict[str, int]:
        """The paper's first question — exits, by reason, machine-wide."""
        return self.hypervisor_counts()["exits"]

    # -- rendering -------------------------------------------------------

    def snapshot(self) -> list[tuple[Metric, Any]]:
        """Every metric's values as of now, by name: shallow copies of
        each value dict and histogram bucket list, so later updates do
        not reach them.  Cheap to take; :meth:`render` turns one into
        the :meth:`to_dict` form."""
        return [
            (metric, metric.snapshot())
            for _, metric in sorted(self._metrics.items())
        ]

    @staticmethod
    def render(snapshot: list[tuple[Metric, Any]]) -> dict[str, Any]:
        """The deterministic JSON-ready form of a :meth:`snapshot`."""
        out: dict[str, Any] = {"counters": {}, "gauges": {}, "histograms": {}}
        for metric, state in snapshot:
            samples = metric.samples(state)
            if isinstance(metric, Histogram):
                out["histograms"][metric.name] = {
                    "help": metric.help,
                    "bounds": list(metric.bounds),
                    "samples": [
                        {"labels": labels, **stats} for labels, stats in samples
                    ],
                }
            else:
                section = "counters" if isinstance(metric, Counter) else "gauges"
                out[section][metric.name] = {
                    "help": metric.help,
                    "samples": [
                        {"labels": labels, "value": value}
                        for labels, value in samples
                    ],
                }
        return out

    def to_dict(self) -> dict[str, Any]:
        """Deterministic JSON-ready dump of every metric."""
        return self.render(self.snapshot())

    def render_text(self) -> str:
        """The ``metrics-dump`` CLI's human-readable form."""
        lines: list[str] = []
        for name in sorted(self._metrics):
            metric = self._metrics[name]
            lines.append(f"# {metric.kind} {name}" + (
                f" — {metric.help}" if metric.help else ""
            ))
            if isinstance(metric, Histogram):
                for labels, stats in metric.samples():
                    label_str = ",".join(f"{k}={v}" for k, v in labels.items())
                    mean = stats["sum"] / stats["count"] if stats["count"] else 0
                    lines.append(
                        f"  {{{label_str}}} count={stats['count']} "
                        f"sum={stats['sum']:.0f} mean={mean:.1f}"
                    )
            else:
                for labels, value in metric.samples():
                    label_str = ",".join(f"{k}={v}" for k, v in labels.items())
                    lines.append(f"  {{{label_str}}} {value:g}")
        return "\n".join(lines) if lines else "(no metrics recorded)"

    def render_prom(self) -> str:
        """Prometheus text exposition (v0.0.4) of every metric.

        Dotted names become underscore names (``serve.requests`` →
        ``serve_requests``), counters get the conventional ``_total``
        suffix, histograms expand to cumulative ``_bucket``/``_sum``/
        ``_count`` series with a ``+Inf`` bound.  Output is sorted and
        deterministic for a given registry state."""
        lines: list[str] = []
        for name in sorted(self._metrics):
            metric = self._metrics[name]
            base = prom_name(name)
            if isinstance(metric, Counter):
                lines.append(f"# HELP {base}_total {metric.help or name}")
                lines.append(f"# TYPE {base}_total counter")
                for labels, value in metric.samples():
                    lines.append(
                        f"{base}_total{prom_labels(labels)} {_prom_num(value)}"
                    )
            elif isinstance(metric, Gauge):
                lines.append(f"# HELP {base} {metric.help or name}")
                lines.append(f"# TYPE {base} gauge")
                for labels, value in metric.samples():
                    lines.append(
                        f"{base}{prom_labels(labels)} {_prom_num(value)}"
                    )
            elif isinstance(metric, Histogram):
                lines.append(f"# HELP {base} {metric.help or name}")
                lines.append(f"# TYPE {base} histogram")
                for labels, stats in metric.samples():
                    cumulative = 0
                    for bound, count in zip(metric.bounds, stats["counts"]):
                        cumulative += count
                        le = dict(labels, le=_prom_num(bound))
                        lines.append(
                            f"{base}_bucket{prom_labels(le)} {cumulative}"
                        )
                    le = dict(labels, le="+Inf")
                    lines.append(
                        f"{base}_bucket{prom_labels(le)} {stats['count']}"
                    )
                    lines.append(
                        f"{base}_sum{prom_labels(labels)} "
                        f"{_prom_num(stats['sum'])}"
                    )
                    lines.append(
                        f"{base}_count{prom_labels(labels)} {stats['count']}"
                    )
        return "\n".join(lines) + ("\n" if lines else "")


# -- Prometheus exposition helpers --------------------------------------


def prom_name(name: str) -> str:
    """A metric name in Prometheus' ``[a-zA-Z_:][a-zA-Z0-9_:]*`` set."""
    out = "".join(c if c.isalnum() or c in "_:" else "_" for c in name)
    if not out or not (out[0].isalpha() or out[0] in "_:"):
        out = "_" + out
    return out


def prom_labels(labels: dict[str, str]) -> str:
    """``{k="v",...}`` with sorted keys and escaped values (backslash,
    double quote, newline), or ``""`` for no labels."""
    if not labels:
        return ""
    pairs = []
    for key in sorted(labels):
        value = str(labels[key]).replace("\\", "\\\\")
        value = value.replace('"', '\\"').replace("\n", "\\n")
        pairs.append(f'{prom_name(key)}="{value}"')
    return "{" + ",".join(pairs) + "}"


def _prom_num(value: float) -> str:
    number = float(value)
    if number == int(number) and abs(number) < 1e15:
        return str(int(number))
    return repr(number)
