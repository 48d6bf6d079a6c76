#!/usr/bin/env python3
"""Serving-layer throughput: ``BENCH_serve.json``.

Boots a covirt-serve daemon (or targets an external one with
``--connect``), drives it with N concurrent client threads — each owning
one session and issuing a fixed step/run/inspect/trace request mix — and
reports requests/sec plus p50/p99 request latency in the same
schema-versioned covirt-bench artifact the figure benchmarks use.

The latency distribution here is *wall clock* (a real daemon, real
sockets, real scheduling), unlike the figure benchmarks' simulated
cycles; that is the point — this artifact tracks the serving layer's
own overhead, not the simulator's cost model.

Usage::

    PYTHONPATH=src python benchmarks/bench_serve_throughput.py [--quick]
        [--clients N] [--requests N] [--out FILE] [--connect SPEC]
"""

from __future__ import annotations

import argparse
import json
import sys
import threading
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

try:
    import repro  # noqa: F401
except ImportError:  # pragma: no cover - direct invocation convenience
    sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.fuzz.rng import DEFAULT_SEED
from repro.obs.bench import bench_header
from repro.obs.schema import validate_bench
from repro.serve.client import ServeClient
from repro.serve.daemon import ServeDaemon
from repro.serve.registry import TenantQuota


def _percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile over an already-sorted sample."""
    if not sorted_values:
        return 0.0
    rank = max(0, min(len(sorted_values) - 1,
                      round(q * (len(sorted_values) - 1))))
    return sorted_values[rank]


def _client_worker(
    endpoint: str,
    tenant: str,
    seed: int,
    requests: int,
    latencies: list[float],
    errors: list[str],
) -> None:
    """One tenant: launch a session, drive the request mix, kill it."""
    try:
        with ServeClient(endpoint, tenant=tenant) as client:
            sid = client.launch(scenario="baseline", seed=seed)["session_id"]
            for i in range(requests):
                t0 = time.perf_counter()
                mix = i % 4
                if mix == 0:
                    client.step(sid, steps=2)
                elif mix == 1:
                    client.run(sid, cycles=20_000_000)
                elif mix == 2:
                    client.inspect(sid)
                else:
                    client.trace(sid, cursor=0, limit=16)
                latencies.append(time.perf_counter() - t0)
            client.kill(sid)
    except Exception as exc:  # noqa: BLE001 - reported, fails the bench
        errors.append(f"{tenant}: {type(exc).__name__}: {exc}")


def run_bench(
    clients: int,
    requests: int,
    seed: int,
    endpoint: str | None = None,
    quick: bool = False,
) -> dict:
    """Drive the bench; return the covirt-bench document."""
    daemon = None
    if endpoint is None:
        daemon = ServeDaemon(
            tcp=("127.0.0.1", 0),
            quota=TenantQuota(max_sessions=2),
            max_total_sessions=max(16, clients + 2),
        )
        daemon.start()
        endpoint = daemon.endpoint
    try:
        per_client: list[list[float]] = [[] for _ in range(clients)]
        errors: list[str] = []
        threads = [
            threading.Thread(
                target=_client_worker,
                args=(endpoint, f"bench-{i}", seed + i, requests,
                      per_client[i], errors),
                daemon=True,
            )
            for i in range(clients)
        ]
        wall0 = time.perf_counter()
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=300)
        wall = time.perf_counter() - wall0
        if errors:
            raise RuntimeError("bench clients failed: " + "; ".join(errors))

        # One more (unmeasured) probe session supplies the simulator-side
        # schema fields: exit counts and the machine metrics registry.
        with ServeClient(endpoint, tenant="bench-probe") as probe:
            sid = probe.launch(scenario="baseline", seed=seed)["session_id"]
            probe.step(sid, steps=40)
            inspected = probe.inspect(sid, metrics=True)
            probe.kill(sid)
    finally:
        if daemon is not None:
            daemon.stop()

    latencies = sorted(lat for bucket in per_client for lat in bucket)
    total_requests = len(latencies)
    rps = total_requests / wall if wall > 0 else 0.0
    return {
        **bench_header(
            "serve", "covirt-serve request throughput and latency",
            quick=quick, seed=seed,
        ),
        "sim_cycles": int(inspected["sim_cycles"]),
        "exits_by_reason": inspected["exits_by_reason"],
        "metrics": inspected["metrics"],
        "wall_seconds": round(wall, 3),
        "results": [
            {
                "clients": clients,
                "requests": total_requests,
                "requests_per_sec": round(rps, 1),
                "p50_ms": round(1e3 * _percentile(latencies, 0.50), 3),
                "p99_ms": round(1e3 * _percentile(latencies, 0.99), 3),
                "requests_per_client": requests,
            }
        ],
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Benchmark covirt-serve throughput; write BENCH_serve.json."
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="small fleet for the CI smoke job",
    )
    parser.add_argument("--clients", type=int, default=None)
    parser.add_argument("--requests", type=int, default=None,
                        help="requests per client")
    parser.add_argument("--out", default=str(REPO_ROOT / "BENCH_serve.json"))
    parser.add_argument(
        "--connect", metavar="SPEC", default=None,
        help="benchmark an external daemon (unix:PATH or tcp:HOST:PORT) "
        "instead of self-hosting one",
    )
    parser.add_argument("--seed", type=lambda s: int(s, 0), default=DEFAULT_SEED)
    args = parser.parse_args(argv)

    clients = args.clients or (2 if args.quick else 4)
    requests = args.requests or (12 if args.quick else 60)
    doc = run_bench(
        clients, requests, args.seed, endpoint=args.connect, quick=args.quick
    )
    problems = validate_bench(doc)
    path = Path(args.out)
    path.write_text(json.dumps(doc, indent=1, sort_keys=False) + "\n")
    row = doc["results"][0]
    print(
        f"[serve] {path.name}: {row['clients']} clients, "
        f"{row['requests']} requests, {row['requests_per_sec']} req/s, "
        f"p50 {row['p50_ms']}ms, p99 {row['p99_ms']}ms, "
        f"{doc['wall_seconds']}s wall"
    )
    if problems:
        for problem in problems:
            print(f"[serve]   INVALID: {problem}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
