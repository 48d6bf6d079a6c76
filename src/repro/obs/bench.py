"""Building covirt-bench documents (``BENCH_*.json``).

Every producer — ``benchmarks/runner.py``, the sweep's
``BENCH_sweep.json``, and the telemetry and serve benchmarks — starts
its document with :func:`bench_header`; all but the serve benchmark
(which reads its machine sections from an inspected session) build the
whole document with :func:`build_bench_doc`.
:func:`repro.obs.schema.validate_bench` checks the result.
"""

from __future__ import annotations

from typing import Any

from repro.core.features import CovirtConfig
from repro.harness.env import CovirtEnvironment, Layout
from repro.obs.scenario import protection_probe
from repro.obs.schema import BENCH_SCHEMA_NAME, BENCH_SCHEMA_VERSION

#: Small fully protected enclave a producer probes once, so its
#: document's ``exits_by_reason`` covers the whole protection surface.
PROBE_LAYOUT = Layout("probe-1c/1n", {0: 1}, {0: 256 << 20})


def run_probe(env: CovirtEnvironment) -> None:
    """Launch the probe enclave, take every non-fatal protection path
    once (:func:`~repro.obs.scenario.protection_probe`), tear it down."""
    enclave = env.launch(PROBE_LAYOUT, CovirtConfig.full(), name="probe")
    protection_probe(env, enclave)
    env.teardown(enclave)


def bench_header(
    bench: str, title: str, *, quick: bool, seed: int
) -> dict[str, Any]:
    """The fields every covirt-bench document starts with."""
    return {
        "schema": BENCH_SCHEMA_NAME,
        "schema_version": BENCH_SCHEMA_VERSION,
        "bench": bench,
        "title": title,
        "quick": bool(quick),
        "seed": seed,
    }


def build_bench_doc(
    env: CovirtEnvironment,
    bench: str,
    title: str,
    *,
    quick: bool,
    seed: int,
    results: list[dict[str, Any]],
) -> dict[str, Any]:
    """The header, ``env``'s machine sections (simulated extent, exit
    counts by reason, metrics registry), then ``results``."""
    registry = env.machine.obs.metrics
    return {
        **bench_header(bench, title, quick=quick, seed=seed),
        "sim_cycles": env.machine.furthest_tsc(),
        "exits_by_reason": registry.exit_counts_by_reason(),
        "metrics": registry.to_dict(),
        "results": results,
    }
