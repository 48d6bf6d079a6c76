"""Recovery metrics: MTTR accounting and reporting.

Every recovery attempt produces one :class:`RecoveryRecord` spanning
fault detection (the TSC at which the supervisor saw the failure) to
the service being back in RUNNING.  The aggregator groups records by
fault kind so the recovery demo can print a per-fault-class MTTR table.
Its totals are not kept a second time: recoveries and replayed commands
are sums over the records, and checkpoints are read from each machine's
``recovery.checkpoint_cycles`` histogram.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.faults import FaultKey
from repro.hw.clock import cycles_to_us


@dataclass
class RecoveryRecord:
    """One fault → recovery (or terminal parking) episode."""

    service: str
    key: FaultKey
    policy: str
    outcome: str  # "recovered", "quarantined", "gave-up", "scrub-failed"
    detection_tsc: int
    completion_tsc: int
    incarnation: int
    backoff_cycles: int = 0
    scrub_cycles: int = 0
    replay_length: int = 0
    replay_cycles: int = 0
    checkpoint_cycles: int = 0
    commands_replayed: int = 0

    @property
    def recovered(self) -> bool:
        return self.outcome == "recovered"

    @property
    def mttr_cycles(self) -> int:
        return self.completion_tsc - self.detection_tsc


@dataclass
class MttrSummary:
    """Aggregate over one fault kind (or everything)."""

    kind: str
    attempts: int = 0
    recovered: int = 0
    total_mttr_cycles: int = 0
    total_backoff_cycles: int = 0
    total_replay_length: int = 0

    @property
    def mean_mttr_cycles(self) -> float:
        return self.total_mttr_cycles / self.recovered if self.recovered else 0.0

    @property
    def mean_mttr_us(self) -> float:
        return cycles_to_us(self.mean_mttr_cycles)


class RecoveryMetrics:
    """Collects :class:`RecoveryRecord`\\ s and renders summaries.

    ``registries`` are the :class:`~repro.obs.metrics.MetricsRegistry`\\ s
    whose checkpoints the report counts: the supervisor's machine, or
    several machines when one report covers them all (the recovery
    demo)."""

    def __init__(self, *registries) -> None:
        self.records: list[RecoveryRecord] = []
        self.registries = list(registries)

    @property
    def recoveries(self) -> int:
        return sum(1 for rec in self.records if rec.recovered)

    @property
    def recovery_cycles(self) -> int:
        return sum(rec.mttr_cycles for rec in self.records if rec.recovered)

    @property
    def commands_replayed(self) -> int:
        return sum(rec.commands_replayed for rec in self.records)

    def _checkpoint_histograms(self) -> list:
        from repro.obs.metrics import CHECKPOINT_CYCLES

        return [
            hist
            for hist in (r.get(CHECKPOINT_CYCLES) for r in self.registries)
            if hist is not None
        ]

    @property
    def checkpoints_taken(self) -> int:
        return sum(h.total_count() for h in self._checkpoint_histograms())

    @property
    def checkpoint_cycles(self) -> int:
        return int(sum(h.total_sum() for h in self._checkpoint_histograms()))

    # -- aggregation -----------------------------------------------------

    def by_fault_kind(self) -> dict[str, MttrSummary]:
        summaries: dict[str, MttrSummary] = {}
        for rec in self.records:
            summary = summaries.setdefault(rec.key.kind, MttrSummary(rec.key.kind))
            summary.attempts += 1
            if rec.recovered:
                summary.recovered += 1
                summary.total_mttr_cycles += rec.mttr_cycles
                summary.total_backoff_cycles += rec.backoff_cycles
                summary.total_replay_length += rec.replay_length
        return summaries

    # -- rendering -------------------------------------------------------

    def render(self) -> str:
        if not self.records:
            return "recovery metrics: no recoveries recorded"
        lines = [
            "recovery metrics (MTTR = detection → back to RUNNING):",
            f"  {'fault kind':<24s} {'n':>3s} {'recovered':>9s} "
            f"{'mean MTTR (cyc)':>16s} {'mean MTTR (µs)':>15s}",
        ]
        for kind in sorted(self.by_fault_kind()):
            s = self.by_fault_kind()[kind]
            lines.append(
                f"  {kind:<24s} {s.attempts:>3d} {s.recovered:>9d} "
                f"{s.mean_mttr_cycles:>16,.0f} {s.mean_mttr_us:>15,.1f}"
            )
        lines.append(
            f"  checkpoints: {self.checkpoints_taken} "
            f"({self.checkpoint_cycles:,} cycles); "
            f"commands replayed: {self.commands_replayed}"
        )
        return "\n".join(lines)
