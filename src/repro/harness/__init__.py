"""Experiment harness: one driver per paper table/figure."""

from repro.harness.env import CovirtEnvironment, EVALUATION_LAYOUTS
from repro.harness.experiments import (
    run_table1,
    fig3,
    fig4,
    fig5a,
    fig5b,
    fig6,
    fig7,
    fig8,
)
from repro.harness.report import format_rows, overhead_pct

__all__ = [
    "CovirtEnvironment",
    "EVALUATION_LAYOUTS",
    "run_table1",
    "fig3",
    "fig4",
    "fig5a",
    "fig5b",
    "fig6",
    "fig7",
    "fig8",
    "format_rows",
    "overhead_pct",
]
