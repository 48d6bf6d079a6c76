"""Offline trace analytics for exported span streams.

``python -m repro trace-analyze`` (and the tests) load either a
Chrome-trace JSON produced by ``trace-export`` or a timestamp-free
golden transcript, rebuild the span tree, and compute:

* the **critical path** per track — the greedy longest-duration descent
  from that track's dominant root span;
* **exit-latency attribution** — ``hv.exit.<reason>`` spans aggregated
  by reason and by enclave, rendered as a top-k table;
* **flamegraph-style rollups** — folded ``parent;child`` name paths
  with call counts, total and self cycles;
* a **structural diff** between two traces — paths added, removed, or
  retimed beyond a relative threshold.

Everything renders deterministically (sorted keys, stable tie-breaks),
so same-seed traces produce byte-identical reports.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable

from repro.hw.clock import CYCLES_PER_US

#: Span-name prefix whose suffix names the VM-exit reason.
EXIT_PREFIX = "hv.exit."


@dataclass
class TraceSpan:
    """One reconstructed span (timing optional for golden transcripts)."""

    name: str
    track: str
    start: int
    end: int
    depth: int
    args: dict[str, Any] = field(default_factory=dict)
    children: list["TraceSpan"] = field(default_factory=list)

    @property
    def duration(self) -> int:
        return self.end - self.start

    @property
    def self_cycles(self) -> int:
        """Duration not covered by (non-overlapping) children."""
        return max(0, self.duration - sum(c.duration for c in self.children))


@dataclass
class TraceModel:
    """A span forest, grouped per track, ready for analytics."""

    spans: list[TraceSpan]
    timed: bool = True

    @property
    def tracks(self) -> list[str]:
        return sorted({span.track for span in self.spans})

    def roots(self, track: str) -> list[TraceSpan]:
        return [s for s in self.spans if s.track == track and s.depth == 0]

    def by_track(self, track: str) -> list[TraceSpan]:
        return [s for s in self.spans if s.track == track]


# -- loading ------------------------------------------------------------


def _nest(flat: list[TraceSpan]) -> None:
    """Rebuild parent/child links per track by interval containment.

    Spans arrive in start order (the exporter preserves it); a span is
    a child of the innermost still-open span on its track whose
    interval contains it.  Zero-duration spans (instants) are always
    leaves — a chain of instants at one timestamp is a sibling run, not
    a nest.
    """
    stacks: dict[str, list[TraceSpan]] = {}
    for span in flat:
        stack = stacks.setdefault(span.track, [])
        while stack and not (
            stack[-1].start <= span.start and span.end <= stack[-1].end
        ):
            stack.pop()
        if stack:
            span.depth = stack[-1].depth + 1
            stack[-1].children.append(span)
        else:
            span.depth = 0
        if span.duration > 0:
            stack.append(span)


_NUMBER = (int, float)


def _field(
    obj: dict, index: int, key: str, kinds: tuple[type, ...], label: str = ""
) -> Any:
    """``obj[key]`` if it is one of ``kinds``; otherwise a ValueError
    naming the event and the field."""
    value = obj.get(key)
    if not isinstance(value, kinds) or isinstance(value, bool):
        raise ValueError(
            f"trace event {index}: missing or malformed {label or key!r}"
        )
    return value


def load_chrome_trace(source: str | Path | dict) -> TraceModel:
    """Load a ``trace-export`` document (path or already-parsed dict).
    A document without the fields read here raises ValueError."""
    doc = (
        source
        if isinstance(source, dict)
        else json.loads(Path(source).read_text())
    )
    events = doc.get("traceEvents") if isinstance(doc, dict) else None
    if not isinstance(events, list):
        raise ValueError("not a Chrome-trace document (no traceEvents)")
    other = doc.get("otherData", {})
    if not isinstance(other, dict):
        raise ValueError("otherData is not an object")
    cycles_per_us = other.get("cycles_per_us", CYCLES_PER_US)
    if not isinstance(cycles_per_us, _NUMBER):
        raise ValueError("otherData.cycles_per_us is not a number")
    for index, ev in enumerate(events):
        if not isinstance(ev, dict):
            raise ValueError(f"trace event {index}: not an object")
    tid_names: dict[int | str, str] = {}
    for index, ev in enumerate(events):
        if ev.get("ph") == "M" and ev.get("name") == "thread_name":
            tid = _field(ev, index, "tid", (int, str))
            args = _field(ev, index, "args", (dict,))
            tid_names[tid] = _field(args, index, "name", (str,), "args.name")
    flat: list[TraceSpan] = []
    for index, ev in enumerate(events):
        if ev.get("ph") != "X":
            continue
        args = dict(_field(ev, index, "args", (dict,)) if "args" in ev else {})
        start = round(_field(ev, index, "ts", _NUMBER) * cycles_per_us)
        dur = round(_field(ev, index, "dur", _NUMBER) * cycles_per_us)
        if "cycles" in args:
            dur = _field(args, index, "cycles", _NUMBER, "args.cycles")
        tid = _field(ev, index, "tid", (int, str))
        flat.append(
            TraceSpan(
                name=_field(ev, index, "name", (str,)),
                track=tid_names.get(tid, f"tid{tid}"),
                start=start,
                end=start + int(dur),
                depth=0,
                args=args,
            )
        )
    _nest(flat)
    return TraceModel(flat, timed=True)


def load_golden_transcript(source: str | Path | Iterable[str]) -> TraceModel:
    """Load a golden transcript (``indent [track] name`` lines).

    Golden transcripts carry structure but no timing, so the resulting
    model supports rollups and diffs (by count) but not latency
    analytics.
    """
    if isinstance(source, (str, Path)):
        lines = Path(source).read_text().splitlines()
    else:
        lines = list(source)
    flat: list[TraceSpan] = []
    stack: list[TraceSpan] = []
    for line in lines:
        if not line.strip():
            continue
        stripped = line.lstrip(" ")
        depth = (len(line) - len(stripped)) // 2
        if not stripped.startswith("["):
            raise ValueError(f"malformed transcript line: {line!r}")
        track, _, name = stripped[1:].partition("] ")
        span = TraceSpan(name=name, track=track, start=0, end=0, depth=depth)
        while stack and stack[-1].depth >= depth:
            stack.pop()
        if stack:
            stack[-1].children.append(span)
        stack.append(span)
        flat.append(span)
    return TraceModel(flat, timed=False)


def load_trace(path: str | Path) -> TraceModel:
    """Sniff the format: ``.json`` → Chrome trace, else transcript."""
    path = Path(path)
    text = path.read_text()
    if text.lstrip().startswith("{"):
        return load_chrome_trace(json.loads(text))
    return load_golden_transcript(text.splitlines())


# -- analytics ----------------------------------------------------------


def critical_path(model: TraceModel, track: str) -> list[TraceSpan]:
    """Greedy longest-duration descent from the track's dominant root."""
    roots = model.roots(track)
    if not roots:
        return []
    path: list[TraceSpan] = []
    # Stable tie-break on (duration, start, name) keeps reports
    # deterministic even when durations collide.
    node = max(roots, key=lambda s: (s.duration, -s.start, s.name))
    while node is not None:
        path.append(node)
        node = max(
            node.children,
            key=lambda s: (s.duration, -s.start, s.name),
            default=None,
        )
    return path


def exit_attribution(model: TraceModel) -> dict[str, dict[str, Any]]:
    """Aggregate ``hv.exit.*`` spans by reason (and enclave within)."""
    table: dict[str, dict[str, Any]] = {}
    for span in model.spans:
        if not span.name.startswith(EXIT_PREFIX):
            continue
        reason = span.name[len(EXIT_PREFIX):]
        row = table.setdefault(
            reason, {"count": 0, "cycles": 0, "by_enclave": {}}
        )
        row["count"] += 1
        row["cycles"] += span.duration
        enclave = str(span.args.get("enclave", "?"))
        per = row["by_enclave"].setdefault(enclave, {"count": 0, "cycles": 0})
        per["count"] += 1
        per["cycles"] += span.duration
    return table


def _fold(span: TraceSpan, prefix: str, folds: dict[str, dict[str, int]]) -> None:
    path = f"{prefix};{span.name}" if prefix else span.name
    row = folds.setdefault(path, {"count": 0, "cycles": 0, "self": 0})
    row["count"] += 1
    row["cycles"] += span.duration
    row["self"] += span.self_cycles
    for child in span.children:
        _fold(child, path, folds)


def rollups(model: TraceModel, track: str | None = None) -> dict[str, dict[str, int]]:
    """Flamegraph-style folded name-paths → {count, cycles, self}."""
    folds: dict[str, dict[str, int]] = {}
    for span in model.spans:
        if span.depth != 0:
            continue
        if track is not None and span.track != track:
            continue
        _fold(span, f"[{span.track}]", folds)
    return folds


@dataclass
class TraceDiff:
    """Structural diff between two traces' folded paths."""

    added: list[str]
    removed: list[str]
    #: path → (cycles_a, cycles_b) for paths retimed beyond threshold.
    retimed: dict[str, tuple[int, int]]
    #: path → (count_a, count_b) for paths whose call count changed.
    recounted: dict[str, tuple[int, int]]

    @property
    def empty(self) -> bool:
        return not (
            self.added or self.removed or self.retimed or self.recounted
        )


def diff_traces(
    a: TraceModel, b: TraceModel, *, threshold: float = 0.05
) -> TraceDiff:
    """Compare folded paths: membership, call counts, and (for timed
    traces) total cycles retimed beyond ``threshold`` (relative)."""
    fa, fb = rollups(a), rollups(b)
    added = sorted(set(fb) - set(fa))
    removed = sorted(set(fa) - set(fb))
    retimed: dict[str, tuple[int, int]] = {}
    recounted: dict[str, tuple[int, int]] = {}
    for path in sorted(set(fa) & set(fb)):
        ra, rb = fa[path], fb[path]
        if ra["count"] != rb["count"]:
            recounted[path] = (ra["count"], rb["count"])
        if a.timed and b.timed:
            base = max(ra["cycles"], 1)
            if abs(rb["cycles"] - ra["cycles"]) / base > threshold:
                retimed[path] = (ra["cycles"], rb["cycles"])
    return TraceDiff(added, removed, retimed, recounted)


# -- rendering ----------------------------------------------------------


def _fmt_cycles(cycles: int) -> str:
    return f"{cycles:,}"


def render_report(
    model: TraceModel, *, source: str = "", top_k: int = 10
) -> str:
    """The deterministic ``trace-analyze`` report."""
    lines = ["# trace-analyze report"]
    if source:
        lines.append(f"source: {source}")
    lines.append(
        f"spans: {len(model.spans)}  tracks: {len(model.tracks)}"
        f"  timed: {'yes' if model.timed else 'no'}"
    )
    if model.timed:
        lines.append("")
        lines.append("## critical path (per track)")
        for track in model.tracks:
            path = critical_path(model, track)
            if not path:
                continue
            lines.append(f"[{track}] root={_fmt_cycles(path[0].duration)} cycles")
            for span in path:
                lines.append(
                    f"{'  ' * (span.depth + 1)}{span.name}"
                    f"  {_fmt_cycles(span.duration)}"
                )
        lines.append("")
        lines.append(f"## exit latency attribution (top {top_k})")
        table = exit_attribution(model)
        if table:
            ranked = sorted(
                table.items(), key=lambda kv: (-kv[1]["cycles"], kv[0])
            )[:top_k]
            lines.append(
                f"{'reason':24s} {'count':>6s} {'cycles':>12s} {'mean':>8s}"
                "  by-enclave"
            )
            for reason, row in ranked:
                per = " ".join(
                    f"e{eid}:{d['count']}"
                    for eid, d in sorted(row["by_enclave"].items())
                )
                mean = row["cycles"] // max(row["count"], 1)
                lines.append(
                    f"{reason:24s} {row['count']:>6d}"
                    f" {_fmt_cycles(row['cycles']):>12s}"
                    f" {_fmt_cycles(mean):>8s}  {per}"
                )
        else:
            lines.append("(no hv.exit.* spans)")
    lines.append("")
    lines.append("## rollups (folded paths)")
    folds = rollups(model)
    header = f"{'count':>6s} {'cycles':>12s} {'self':>12s}  path"
    lines.append(header)
    for path in sorted(folds):
        row = folds[path]
        lines.append(
            f"{row['count']:>6d} {_fmt_cycles(row['cycles']):>12s}"
            f" {_fmt_cycles(row['self']):>12s}  {path}"
        )
    return "\n".join(lines) + "\n"


def render_diff(
    diff: TraceDiff, *, source_a: str = "a", source_b: str = "b"
) -> str:
    """The deterministic ``trace-analyze --diff`` report."""
    lines = [
        "# trace-diff report",
        f"a: {source_a}",
        f"b: {source_b}",
        "",
    ]
    if diff.empty:
        lines.append("traces are structurally identical")
        return "\n".join(lines) + "\n"
    for path in diff.added:
        lines.append(f"added    {path}")
    for path in diff.removed:
        lines.append(f"removed  {path}")
    for path, (ca, cb) in sorted(diff.recounted.items()):
        lines.append(f"recount  {path}  {ca} → {cb}")
    for path, (ca, cb) in sorted(diff.retimed.items()):
        base = max(ca, 1)
        delta = 100.0 * (cb - ca) / base
        lines.append(
            f"retimed  {path}  {_fmt_cycles(ca)} → {_fmt_cycles(cb)}"
            f" ({delta:+.1f}%)"
        )
    return "\n".join(lines) + "\n"
