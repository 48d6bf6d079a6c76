"""One-shot reproduction verification.

Runs every figure's rows (:mod:`repro.harness.experiments`) on a fresh
environment and checks the paper's *shape claims* against them as
explicit bands — the same bands the test suite pins, but packaged as a
single report a reader can run (``python -m repro verify``) to see
paper-vs-measured at a glance.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from repro.harness import experiments as ex
from repro.harness.env import CovirtEnvironment
from repro.harness.report import format_rows, overhead_pct

Rows = list[dict[str, Any]]


@dataclass
class Claim:
    """One paper claim with an acceptance band."""

    figure: str
    claim: str
    band: str
    measure: Callable[[Rows], float]
    low: float
    high: float

    def evaluate(self, rows: Rows) -> tuple[float, bool]:
        value = self.measure(rows)
        return value, self.low <= value <= self.high


def _worst_overhead_pct(rows: Rows, **match: str) -> float:
    """The largest overhead (%) among the rows whose fields equal ``match``."""
    return 100 * max(
        overhead
        for row, overhead in zip(rows, ex.overheads(rows))
        if all(row[key] == value for key, value in match.items())
    )


def _attach_delta_pct(rows: Rows, region_mb: int) -> float:
    latency = {
        row["mode"]: row["attach_us"]
        for row in rows
        if row["region_mb"] == region_mb
    }
    return overhead_pct(latency["covirt-on"], latency["covirt-off"])


def _on_fresh_env(
    figure: Callable[[CovirtEnvironment], Rows],
) -> Callable[[], Rows]:
    """A claim driver: ``figure``'s rows on a fresh environment, which
    is closed once they are taken."""

    def driver() -> Rows:
        with CovirtEnvironment() as env:
            return figure(env)

    return driver


CLAIMS: list[tuple[str, Callable[[], Rows], list[Claim]]] = [
    (
        "fig3",
        _on_fresh_env(ex.fig3),
        [
            Claim(
                "Fig. 3", "noise profiles show little variation",
                "detour-count spread = 0",
                lambda rows: float(
                    max(row["detours"] for row in rows)
                    - min(row["detours"] for row in rows)
                ),
                0.0, 0.0,
            )
        ],
    ),
    (
        "fig4",
        _on_fresh_env(ex.fig4),
        [
            Claim(
                "Fig. 4", "attach overhead little-to-none, shrinking",
                "delta at 1 GB < 1 %",
                lambda rows: _attach_delta_pct(rows, 1024),
                -1.0, 1.0,
            )
        ],
    ),
    (
        "fig5a",
        _on_fresh_env(ex.fig5a),
        [
            Claim(
                "Fig. 5a", "STREAM: no noticeable overhead",
                "worst config < 0.5 %",
                _worst_overhead_pct,
                0.0, 0.5,
            )
        ],
    ),
    (
        "fig5b",
        _on_fresh_env(ex.fig5b),
        [
            Claim(
                "Fig. 5b", "memory protection adds ~1.8 %",
                "1.0–2.5 %",
                lambda rows: _worst_overhead_pct(rows, config="covirt-mem"),
                1.0, 2.5,
            ),
            Claim(
                "Fig. 5b", "worst case (mem+IPI) ~3.1 %",
                "2.5–4.0 %",
                lambda rows: _worst_overhead_pct(rows, config="covirt-mem+ipi"),
                2.5, 4.0,
            ),
        ],
    ),
    (
        "fig6",
        _on_fresh_env(ex.fig6),
        [
            Claim(
                "Fig. 6", "MiniFE: little to no overhead, all layouts",
                "worst < 0.75 %",
                _worst_overhead_pct,
                0.0, 0.75,
            )
        ],
    ),
    (
        "fig7",
        _on_fresh_env(ex.fig7),
        [
            Claim(
                "Fig. 7", "HPCG worst case ~1.4 %",
                "0.8–2.0 %",
                _worst_overhead_pct,
                0.8, 2.0,
            )
        ],
    ),
    (
        "fig8",
        _on_fresh_env(ex.fig8),
        [
            Claim(
                "Fig. 8", "lj/eam/chain similar across configs",
                "worst of the three < 2 %",
                lambda rows: max(
                    _worst_overhead_pct(rows, workload=f"LAMMPS-{problem}")
                    for problem in ("lj", "eam", "chain")
                ),
                0.0, 2.0,
            ),
            Claim(
                "Fig. 8", "chute most sensitive, still minimal",
                "2–8 %",
                lambda rows: _worst_overhead_pct(rows, workload="LAMMPS-chute"),
                2.0, 8.0,
            ),
        ],
    ),
]


def run_verification() -> tuple[str, bool]:
    """Run all claims; returns (report text, all passed)."""
    rows = []
    all_ok = True
    for _name, driver, claims in CLAIMS:
        figure_rows = driver()
        for claim in claims:
            value, ok = claim.evaluate(figure_rows)
            all_ok &= ok
            rows.append(
                [
                    claim.figure,
                    claim.claim,
                    claim.band,
                    f"{value:.2f}",
                    "PASS" if ok else "FAIL",
                ]
            )
    report = format_rows(
        ["figure", "paper claim", "accepted band", "measured", "verdict"],
        rows,
        title="Reproduction verification (paper shape claims)",
    )
    return report, all_ok
