#!/usr/bin/env python3
"""Telemetry-plane overhead microbenchmark: ``BENCH_telemetry.json``.

Pins the zero-overhead contract the serving daemon's telemetry plane
makes: instrumentation left in hot simulation loops must cost (almost)
nothing when nobody is watching.  Four modes run the same hot
span-close + counter-inc loop:

* ``off``          — the observability bundle is quiesced
  (:meth:`repro.obs.Observability.quiesce`): the span tracer's
  ``enabled`` gate is clear and no metric hooks are installed, so each
  op collapses to a predicate test plus a counter bump;
* ``flight``       — the default serving configuration: the flight
  recorder observes every span close and metric delta (**the
  denominator**: every ratio is relative to this mode);
* ``subscribed``   — a telemetry subscriber is attached through a real
  :class:`~repro.serve.telemetry.TelemetryHub` tap, so every op also
  builds and enqueues wire frames;
* ``slow-subscriber`` — same, but the subscriber's bounded queue is
  tiny, so most frames drop.  The drop count is **deterministic**
  (frames generated minus queue capacity) — drops are accounted, never
  a stall.

The regression sentinel is ``ratio_vs_flight``: wall-clock ns/op is
machine-speed noise, but the *ratio* between modes is stable, and a
broken fast-path gate moves ``off`` from ~0.1x to ~1x — far outside
the tolerance band in ``benchmarks/tolerances.json``, so
``repro bench-compare`` trips.

Usage::

    PYTHONPATH=src python benchmarks/bench_telemetry_overhead.py
        [--quick] [--out FILE]
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import Any

REPO_ROOT = Path(__file__).resolve().parent.parent

try:
    import repro  # noqa: F401
except ImportError:  # pragma: no cover - direct invocation convenience
    sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.fuzz.rng import DEFAULT_SEED
from repro.harness.env import CovirtEnvironment
from repro.hw.clock import Clock
from repro.obs import MetricsRegistry, Observability
from repro.obs.bench import build_bench_doc, run_probe
from repro.obs.schema import validate_bench
from repro.serve.telemetry import MAX_QUEUE_FRAMES, TelemetryHub

#: Ops per timed loop.  Sized so the ``subscribed`` mode's frame volume
#: (2 frames per op, warmup included, + hello) stays inside one
#: maximum-size subscriber queue — the subscribed row measures tap
#: cost, not drop cost.
OPS_FULL = 6_000
OPS_QUICK = 2_000

#: The slow subscriber's queue; everything beyond it must drop.
SLOW_QUEUE = 256


def _hot_loop(obs: Observability, ops: int) -> float:
    """The measured op: one completed span + one counter increment —
    the instrumentation shape of the simulator's exit path.  Returns
    ns/op (wall clock)."""
    tracer = obs.tracer
    counter = obs.metrics.counter("bench.telemetry_ops", "bench ops")
    # Warm caches and code paths outside the timed window.
    for i in range(ops // 10 + 1):
        tracer.complete("bench.warm", i, i + 10, track="bench")
        counter.inc(kind="warm")
    t0 = time.perf_counter_ns()
    for i in range(ops):
        tracer.complete("bench.op", i, i + 10, category="bench", track="bench")
        counter.inc(kind="op")
    elapsed = time.perf_counter_ns() - t0
    return elapsed / ops


def _fresh_obs() -> Observability:
    return Observability(Clock())


def measure_rows(quick: bool) -> list[dict[str, Any]]:
    """One row per mode; ``ratio_vs_flight`` is the sentinel metric."""
    ops = OPS_QUICK if quick else OPS_FULL

    timings: dict[str, float] = {}
    frame_stats: dict[str, dict[str, int]] = {}
    elapsed_s: dict[str, float] = {}

    # -- off: quiesced bundle, the fast path ----------------------------
    obs = _fresh_obs()
    obs.quiesce()
    t0 = time.perf_counter()
    timings["off"] = _hot_loop(obs, ops)
    elapsed_s["off"] = time.perf_counter() - t0
    assert len(obs.tracer) == 0, "quiesced tracer must record nothing"

    # -- flight: the default serving configuration (denominator) --------
    obs = _fresh_obs()
    t0 = time.perf_counter()
    timings["flight"] = _hot_loop(obs, ops)
    elapsed_s["flight"] = time.perf_counter() - t0

    # -- subscribed / slow-subscriber: a real hub tap -------------------
    for mode, max_queue in (
        ("subscribed", MAX_QUEUE_FRAMES),  # roomy: no drops, pure tap cost
        ("slow-subscriber", SLOW_QUEUE),
    ):
        obs = _fresh_obs()
        hub = TelemetryHub(MetricsRegistry())
        hub.subscribe(None, max_queue=max_queue)
        hub.attach_obs("bench", obs, tenant="bench", session_id="bench-0")
        t0 = time.perf_counter()
        timings[mode] = _hot_loop(obs, ops)
        elapsed_s[mode] = time.perf_counter() - t0
        stats = hub.unsubscribe(None)
        frame_stats[mode] = {
            "frames": stats["enqueued"] + stats["dropped"],
            "dropped": stats["dropped"],
        }

    rows = []
    for mode in ("off", "flight", "subscribed", "slow-subscriber"):
        frames = frame_stats.get(mode, {}).get("frames", 0)
        dropped = frame_stats.get(mode, {}).get("dropped", 0)
        rows.append(
            {
                "mode": mode,
                "ops": ops,
                "ns_per_op": round(timings[mode], 1),
                "ratio_vs_flight": round(
                    timings[mode] / timings["flight"], 4
                ),
                "frames": frames,
                "frames_per_sec": round(frames / elapsed_s[mode], 1)
                if frames
                else 0.0,
                "dropped": dropped,
                "drop_rate": round(dropped / frames, 4) if frames else 0.0,
            }
        )
    return rows


def build_doc(quick: bool, seed: int = DEFAULT_SEED) -> dict[str, Any]:
    """The standalone covirt-bench artifact (no ``wall_seconds``: the
    rows carry wall-clock figures already, and the runner stamps its
    own when it wraps this scenario)."""
    rows = measure_rows(quick)
    # A probe env supplies the simulator-side schema fields (exit
    # counts, populated histograms) every covirt-bench doc must carry.
    env = CovirtEnvironment()
    run_probe(env)
    return build_bench_doc(
        env,
        "telemetry",
        "Telemetry-plane overhead: off / flight / subscribed",
        quick=quick,
        seed=seed,
        results=rows,
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Benchmark telemetry-plane overhead; "
        "write BENCH_telemetry.json."
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="smaller op counts for the CI smoke job",
    )
    parser.add_argument(
        "--out", default=str(REPO_ROOT / "BENCH_telemetry.json")
    )
    parser.add_argument(
        "--seed", type=lambda s: int(s, 0), default=DEFAULT_SEED
    )
    args = parser.parse_args(argv)

    doc = build_doc(args.quick, args.seed)
    problems = validate_bench(doc)
    path = Path(args.out)
    path.write_text(json.dumps(doc, indent=1, sort_keys=False) + "\n")
    by_mode = {row["mode"]: row for row in doc["results"]}
    print(
        f"[telemetry] {path.name}: off {by_mode['off']['ratio_vs_flight']}x, "
        f"subscribed {by_mode['subscribed']['ratio_vs_flight']}x vs flight "
        f"({by_mode['flight']['ns_per_op']} ns/op); "
        f"slow-subscriber dropped {by_mode['slow-subscriber']['dropped']}"
        f"/{by_mode['slow-subscriber']['frames']} frames"
    )
    if problems:
        for problem in problems:
            print(f"[telemetry]   INVALID: {problem}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
