"""Schema-versioned sweep artifacts.

``write_artifacts`` emits four files, all derived purely from the
folded :class:`~repro.sweep.executor.SweepResult` (plus one
representative inline re-run for the BENCH doc's machine-level
sections):

* ``sweep.json`` — the full covirt-sweep document (spec + per-cell
  stats + per-run records), validated by
  :func:`repro.obs.schema.validate_sweep`;
* ``tables.md`` — the markdown summary table;
* ``boxplot.json`` — per-seed raw points grouped by cell;
* ``BENCH_sweep.json`` — a covirt-bench artifact (per-cell stat rows
  as results) that ``repro bench-validate`` accepts and
  ``bench-compare`` bands against the committed baseline.

Nothing here embeds the worker count or wall-clock time, so the files
are byte-identical for any ``--workers`` value — CI's sweep-smoke job
diffs a 1-worker and a 2-worker run to prove it.  The BENCH doc's
exit counts and metrics come from one representative (first cell,
first seed) re-run on a fresh environment in the calling process —
again independent of how the sweep itself was parallelised.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import TYPE_CHECKING, Any

from repro.harness.env import CovirtEnvironment
from repro.obs.bench import build_bench_doc, run_probe
from repro.obs.schema import SWEEP_SCHEMA_NAME, SWEEP_SCHEMA_VERSION
from repro.sweep.runner import run_cell
from repro.sweep.stats import aggregate, boxplot_doc, render_markdown

if TYPE_CHECKING:  # pragma: no cover
    from repro.sweep.executor import SweepResult

#: The title both the CLI's BENCH doc and benchmarks/runner.py use.
BENCH_TITLE = "Scenario sweep: per-cell medians across the grid"


def sweep_doc(result: "SweepResult", *, quick: bool) -> dict[str, Any]:
    """The covirt-sweep stats document (``sweep.json``)."""
    cells = []
    rows = aggregate(result)
    for cell, row in zip(result.spec.cells(), rows):
        cells.append(
            {
                "cell": cell.to_dict(),
                "cell_id": cell.cell_id(),
                "stats": row,
                "runs": [
                    r.to_dict() for r in result.runs[cell.cell_id()]
                ],
            }
        )
    return {
        "schema": SWEEP_SCHEMA_NAME,
        "schema_version": SWEEP_SCHEMA_VERSION,
        "quick": bool(quick),
        "base_seed": result.spec.base_seed,
        "spec": result.spec.to_dict(),
        "total_runs": result.total_runs,
        "failures": len(result.failures),
        "cells": cells,
    }


def representative_env(result: "SweepResult") -> CovirtEnvironment:
    """A fresh environment carrying one representative cell run plus
    the protection probe — the worker-count-independent source for the
    BENCH doc's exit counts, metrics, and sim_cycles.  It comes back
    closed; what it recorded stays readable."""
    with CovirtEnvironment() as env:
        cells = result.spec.cells()
        run_cell(cells[0], result.spec.seed_for(cells[0], 0), env=env)
        run_probe(env)
    return env


def bench_doc(
    result: "SweepResult",
    *,
    quick: bool,
    env: CovirtEnvironment | None = None,
) -> dict[str, Any]:
    """The covirt-bench artifact (``BENCH_sweep.json``)."""
    return build_bench_doc(
        env if env is not None else representative_env(result),
        "sweep",
        BENCH_TITLE,
        quick=quick,
        seed=result.spec.base_seed,
        results=aggregate(result),
    )


def _dump(doc: dict[str, Any]) -> str:
    return json.dumps(doc, indent=1, sort_keys=True) + "\n"


def write_artifacts(
    result: "SweepResult", out_dir: str | Path, *, quick: bool
) -> dict[str, Path]:
    """Write all four artifacts under ``out_dir``; returns the paths."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = {
        "sweep": out / "sweep.json",
        "tables": out / "tables.md",
        "boxplot": out / "boxplot.json",
        "bench": out / "BENCH_sweep.json",
    }
    paths["sweep"].write_text(_dump(sweep_doc(result, quick=quick)))
    paths["tables"].write_text(render_markdown(result))
    paths["boxplot"].write_text(_dump(boxplot_doc(result)))
    paths["bench"].write_text(_dump(bench_doc(result, quick=quick)))
    return paths
