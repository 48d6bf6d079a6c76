"""``repro top`` — a curses-free live dashboard for covirt-serve.

Polls ``telemetry.snapshot`` at a fixed interval and redraws a compact
text dashboard (plain ANSI clear, no curses, safe over ssh and in CI
logs with ``--plain``).  Also home of the ``--probe`` mode the CI
telemetry-smoke job runs: subscribe to the live frame stream, stir some
traffic, and fail unless every received frame validates against the
covirt-telemetry schema.

Rendering is a pure function of the snapshot document
(:func:`render_top`), so the tests pin the dashboard without a daemon.
"""

from __future__ import annotations

import json
import sys
import time
from typing import Any

from repro.fuzz.rng import DEFAULT_SEED
from repro.obs.schema import (
    validate_telemetry_frame,
    validate_telemetry_snapshot,
)
from repro.serve.client import ServeClient

#: Columns of the per-tenant table, in order: (header, rollup key).
_COLUMNS: tuple[tuple[str, str], ...] = (
    ("SESS", "sessions"),
    ("PARK", "parked"),
    ("STEPS", "steps_applied"),
    ("SIM-CYCLES", "sim_cycles"),
    ("SLICES", "slices_run"),
    ("EXITS", "exits"),
    ("ORACLE", "oracle_violations"),
    ("PM", "postmortems"),
)


def render_top(snapshot: dict[str, Any]) -> str:
    """One dashboard frame from one ``telemetry.snapshot`` document."""
    daemon = snapshot.get("daemon", {})
    shed = daemon.get("shed", {})
    subs = daemon.get("subscribers", [])
    dropped = sum(s.get("dropped", 0) for s in subs)
    lines = [
        f"covirt-serve telemetry — {snapshot.get('endpoint', '?')} — "
        f"up {snapshot.get('uptime_seconds', 0):.1f}s",
        f"requests {daemon.get('requests_total', 0)} "
        f"({daemon.get('requests_per_sec', 0):.1f} rps)   "
        f"p50 {daemon.get('request_p50_us', 0):.0f}us   "
        f"p99 {daemon.get('request_p99_us', 0):.0f}us   "
        f"shed busy={shed.get('busy', 0)} quota={shed.get('quota', 0)}",
        f"connections {daemon.get('connections', 0)}   "
        f"subscribers {len(subs)} (dropped {dropped})   "
        f"backlog {daemon.get('backlog', 0)}   "
        f"completed jobs {daemon.get('completed_jobs', 0)}",
        "",
    ]
    header = f"{'TENANT':<12}" + "".join(
        f"{title:>12}" for title, _key in _COLUMNS
    )
    lines.append(header)
    tenants = dict(snapshot.get("tenants", {}))
    tenants["(global)"] = snapshot.get("global", {})
    for name, rollup in tenants.items():
        row = f"{name:<12}" + "".join(
            f"{rollup.get(key, 0):>12}" for _title, key in _COLUMNS
        )
        lines.append(row)
    return "\n".join(lines)


def _probe(client: ServeClient, seconds: float, min_frames: int) -> int:
    """CI smoke: subscribe, stir traffic, schema-check every frame."""
    sub = client.subscribe()
    print(
        f"top --probe: subscriber {sub['subscriber']} "
        f"(protocol {sub['protocol']} v{sub['version']})"
    )
    # Stir a session of our own so the probe never depends on external
    # traffic; concurrent serve-demo frames ride along if present.
    launched = client.launch(scenario="baseline", seed=DEFAULT_SEED)
    client.step(launched["session_id"], steps=8)
    client.kill(launched["session_id"])
    frames = client.read_frames(count=1_000_000, max_seconds=seconds)
    stats = client.unsubscribe()
    invalid = 0
    for frame in frames:
        problems = validate_telemetry_frame(frame)
        if problems:
            invalid += 1
            print(f"top --probe: INVALID frame {frame!r}: {problems}")
    kinds: dict[str, int] = {}
    for frame in frames:
        kinds[str(frame.get("type"))] = kinds.get(str(frame.get("type")), 0) + 1
    print(
        f"top --probe: {len(frames)} frames "
        f"({', '.join(f'{k}={v}' for k, v in sorted(kinds.items()))}); "
        f"sent={stats['sent']} dropped={stats['dropped']}"
    )
    snapshot = client.snapshot()
    snap_problems = validate_telemetry_snapshot(snapshot)
    for problem in snap_problems:
        print(f"top --probe: INVALID snapshot: {problem}")
    if invalid or snap_problems:
        return 1
    if len(frames) < min_frames:
        print(
            f"top --probe: only {len(frames)} frames, wanted >= {min_frames}"
        )
        return 1
    print("top --probe: ok")
    return 0


def run_top(args) -> int:
    """The ``repro top`` subcommand body (args from repro.cli)."""
    try:
        client = ServeClient(args.connect, tenant=args.tenant)
    except (OSError, ValueError) as exc:
        print(f"top: cannot connect to {args.connect}: {exc}", file=sys.stderr)
        return 2
    try:
        if args.probe is not None:
            return _probe(client, args.probe, args.min_frames)
        iterations = 1 if args.once or args.json else args.iterations
        shown = 0
        while iterations is None or shown < iterations:
            snapshot = client.snapshot()
            if args.json:
                print(json.dumps(snapshot, indent=1, sort_keys=True))
            else:
                if not args.plain:
                    # ANSI clear + home; cheap, curses-free.
                    sys.stdout.write("\x1b[2J\x1b[H")
                print(render_top(snapshot))
            sys.stdout.flush()
            shown += 1
            if iterations is not None and shown >= iterations:
                break
            time.sleep(args.interval)
        return 0
    except KeyboardInterrupt:  # pragma: no cover - interactive only
        return 0
    except ConnectionError as exc:
        print(f"top: connection lost: {exc}", file=sys.stderr)
        return 2
    finally:
        client.close()
