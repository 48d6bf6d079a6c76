#!/usr/bin/env python3
"""The BENCH_*.json pipeline.

Runs each paper scenario on its own instrumented
:class:`~repro.harness.env.CovirtEnvironment`, collects the machine's
metrics registry (``env.machine.obs.metrics``), and writes one
schema-versioned ``BENCH_<name>.json`` per scenario at the repo root.

Every artifact carries the machine-wide exit counts by reason plus at
least one populated latency histogram (the probe's ``covirt.exit_cycles``
at minimum), and validates against
:func:`repro.obs.schema.validate_bench` — the same validator
``python -m repro bench-validate`` and CI's ``bench-smoke`` job run.

Usage::

    PYTHONPATH=src python benchmarks/runner.py [--quick] [--only fig3 ...]

``--quick`` trims sweeps (fewer configs / layouts / sizes) for the CI
smoke job; the artifact schema is identical either way.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import Any, Callable

REPO_ROOT = Path(__file__).resolve().parent.parent

try:
    import repro  # noqa: F401
except ImportError:  # pragma: no cover - direct invocation convenience
    sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.core.features import CovirtConfig
from repro.fuzz.rng import DEFAULT_SEED
from repro.harness import experiments as ex
from repro.harness.env import CovirtEnvironment, Layout
from repro.hw.clock import CYCLES_PER_US
from repro.obs import metric_names
from repro.obs.bench import build_bench_doc, run_probe
from repro.obs.scenario import WILD_ADDR, protection_probe
from repro.obs.schema import validate_bench

GiB = 1 << 30


def _figure(*panels: Callable[..., list[dict[str, Any]]]) -> Callable:
    """A paper-figure scenario: each panel's rows in turn on the one
    env (:mod:`repro.harness.experiments` defines them), then the probe."""

    def scenario(env: CovirtEnvironment, quick: bool) -> list[dict[str, Any]]:
        rows = []
        for panel in panels:
            rows += panel(env, quick)
        run_probe(env)
        return rows

    return scenario


# -- scenarios --------------------------------------------------------------


def bench_recovery(env: CovirtEnvironment, quick: bool) -> list[dict[str, Any]]:
    """Fault-containment MTTR: wild reads -> terminate -> recover."""
    from repro.core.faults import EnclaveFaultError
    from repro.recovery.policy import RestartWithBackoff

    faults = 2 if quick else 4
    service = env.launch_supervised(
        Layout("bench-2c/2n", {0: 1, 1: 1}, {0: GiB, 1: GiB}),
        CovirtConfig.full(),
        RestartWithBackoff(base_delay_cycles=100_000),
        name="bench-recovery",
    )
    protection_probe(env, service.enclave)
    for _ in range(faults):
        bsp = service.enclave.assignment.core_ids[0]
        try:
            service.enclave.port.read(bsp, WILD_ADDR, 8)
        except EnclaveFaultError:
            pass
    env.recovery.checkpoint_now("bench-recovery")

    rows: list[dict[str, Any]] = [{"faults_injected": faults}]
    mttr = env.machine.obs.metrics.get(metric_names.MTTR_CYCLES)
    if mttr is not None:
        for labels, stats in mttr.samples():
            rows.append(
                {
                    "fault_kind": labels.get("kind", ""),
                    "recoveries": stats["count"],
                    "mean_mttr_us": round(
                        stats["sum"] / stats["count"] / CYCLES_PER_US, 2
                    ),
                }
            )
    return rows


def bench_fuzz(env: CovirtEnvironment, quick: bool) -> list[dict[str, Any]]:
    """Coverage-guided vs pure-random fuzzing throughput and reach.

    One row per mode with the campaign's deterministic outputs (edge
    count, corpus size, distilled size).  Wall-clock figures are *not*
    row data — the scenario body must stay a pure function of
    (quick, seed); throughput lands in the artifact's ``wall_seconds``.
    """
    from repro.fuzz import FuzzCampaign, replay_run

    budget, steps = (16, 30) if quick else (48, 60)
    rows = []
    for mode, guided in (("guided", True), ("random", False)):
        result = FuzzCampaign(
            budget, workers=1, steps=steps, guided=guided
        ).run()
        distilled = result.distilled()
        rows.append(
            {
                "mode": mode,
                "executions": result.executions,
                "edges": result.edges,
                "corpus_entries": len(result.corpus),
                "distilled_entries": len(distilled.kept),
                "findings": len(result.findings),
            }
        )
        if guided:
            # Replay one distilled entry end-to-end: the corpus the
            # nightly farm uploads must actually reproduce.
            entry = distilled.kept[0]
            assert replay_run(entry).matches, "distilled entry diverged"
    run_probe(env)
    return rows


def bench_sweep(env: CovirtEnvironment, quick: bool) -> list[dict[str, Any]]:
    """Scenario sweep: per-cell medians across the adaptation grid.

    The sweep itself runs on worker-private environments (workers=1
    here, so inline); this scenario's own env carries one
    representative cell re-run plus the probe, so the artifact's exit
    counts and metrics describe the same machine surface the sweep
    exercises.  Rows are the per-cell aggregate stats — identical to
    what ``repro sweep`` emits in its BENCH_sweep.json.
    """
    from repro.sweep import SweepExecutor, aggregate, full_spec, quick_spec
    from repro.sweep.runner import run_cell

    spec = quick_spec() if quick else full_spec()
    result = SweepExecutor(spec, workers=1).run()
    if result.failures:
        cell_id, run = result.failures[0]
        raise AssertionError(
            f"sweep cell {cell_id} seed={run.seed} failed: {run.failure}"
        )
    cells = spec.cells()
    run_cell(cells[0], spec.seed_for(cells[0], 0), env=env)
    run_probe(env)
    return aggregate(result)


def bench_telemetry(env: CovirtEnvironment, quick: bool) -> list[dict[str, Any]]:
    """Telemetry-plane overhead: off / flight / subscribed / slow-subscriber.

    Delegates to ``benchmarks/bench_telemetry_overhead.py`` (the
    standalone artifact and the runner row set must be the same code
    path).  The sentinel metric is ``ratio_vs_flight`` — wall-clock
    ns/op is machine noise, the between-mode ratio is not, and a broken
    fast-path gate moves the ``off`` row far outside its band.
    """
    import importlib.util

    spec = importlib.util.spec_from_file_location(
        "bench_telemetry_overhead",
        Path(__file__).resolve().parent / "bench_telemetry_overhead.py",
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    rows = module.measure_rows(quick)
    run_probe(env)
    return rows


SCENARIOS: dict[str, tuple[str, Callable]] = {
    "fig3": ("Fig. 3: Selfish-Detour noise profile", _figure(ex.fig3)),
    "fig4": ("Fig. 4: XEMEM attach delay", _figure(ex.fig4)),
    "fig5": (
        "Fig. 5: STREAM / RandomAccess microbenchmarks",
        _figure(ex.fig5a, ex.fig5b),
    ),
    "fig6": ("Fig. 6: MiniFE scaling over layouts", _figure(ex.fig6)),
    "fig7": ("Fig. 7: HPCG scaling over layouts", _figure(ex.fig7)),
    "fig8": ("Fig. 8: LAMMPS loop times (8c/2n)", _figure(ex.fig8)),
    "recovery": ("Fault-containment MTTR and checkpoint costs", bench_recovery),
    "fuzz": ("Coverage-guided vs random fuzzing reach", bench_fuzz),
    "sweep": ("Scenario sweep: per-cell medians across the grid", bench_sweep),
    "telemetry": (
        "Telemetry-plane overhead: off / flight / subscribed",
        bench_telemetry,
    ),
}


def run_scenario(
    name: str, quick: bool, seed: int = DEFAULT_SEED, costs: Any = None
) -> dict[str, Any]:
    """Run one scenario on a fresh environment; return its BENCH doc.

    ``costs`` overrides the environment's :class:`CostModel` — the
    regression-sentinel tests use a perturbed model to prove
    ``bench-compare`` actually trips on drift.
    """
    title, fn = SCENARIOS[name]
    env = CovirtEnvironment() if costs is None else CovirtEnvironment(costs=costs)
    with env:
        results = fn(env, quick)
    return build_bench_doc(
        env, name, title, quick=quick, seed=seed, results=results
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Run bench scenarios and write BENCH_*.json artifacts."
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="trimmed sweeps for the CI smoke job",
    )
    parser.add_argument(
        "--out-dir", default=str(REPO_ROOT),
        help="directory for BENCH_*.json (default: repo root)",
    )
    parser.add_argument(
        "--only", nargs="*", choices=sorted(SCENARIOS), metavar="NAME",
        help="run a subset of scenarios",
    )
    parser.add_argument("--seed", type=lambda s: int(s, 0), default=DEFAULT_SEED)
    args = parser.parse_args(argv)

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    names = args.only or sorted(SCENARIOS)
    failures = 0
    for name in names:
        # Wall time is stamped here, not in run_scenario(): the scenario
        # body must stay a deterministic function of (name, quick, seed)
        # — the pipeline tests byte-compare repeated run_scenario() docs.
        t0 = time.perf_counter()
        doc = run_scenario(name, args.quick, args.seed)
        doc["wall_seconds"] = round(time.perf_counter() - t0, 3)
        problems = validate_bench(doc)
        path = out_dir / f"BENCH_{name}.json"
        path.write_text(json.dumps(doc, indent=1, sort_keys=False) + "\n")
        exits = sum(doc["exits_by_reason"].values())
        print(
            f"[{name}] {path.name}: {len(doc['results'])} results, "
            f"{exits} exits over {len(doc['exits_by_reason'])} reasons, "
            f"{doc['sim_cycles']} sim cycles, {doc['wall_seconds']}s wall"
        )
        if problems:
            failures += 1
            for problem in problems:
                print(f"[{name}]   INVALID: {problem}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
