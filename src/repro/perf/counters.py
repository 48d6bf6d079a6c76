"""Performance counters shared by the hypervisor and the harness."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field, fields


@dataclass
class PerfCounters:
    """Event counts + cycle attribution for one core's hypervisor.

    The hypervisor never writes six of these fields: ``cycles_in_guest``
    and the five recovery ones (the supervisor keeps its own totals in
    :class:`~repro.recovery.metrics.RecoveryMetrics`).  They stay because
    :func:`repro.fuzz.engine.flatten_counters` renders every field into
    each fuzz fingerprint and committed corpus entry, so dropping one
    changes them all.
    """

    exits: Counter = field(default_factory=Counter)
    cycles_in_vmm: int = 0
    cycles_in_guest: int = 0
    commands_serviced: int = 0
    tlb_flushes: int = 0
    ipis_filtered: int = 0
    ipis_forwarded: int = 0
    interrupts_injected: int = 0
    posted_deliveries: int = 0
    # -- recovery: never written, see the docstring --------------------
    checkpoints_taken: int = 0
    checkpoint_cycles: int = 0
    recoveries: int = 0
    recovery_cycles: int = 0
    commands_replayed: int = 0

    def record_exit(self, reason_name: str, cycles: int) -> None:
        self.exits[reason_name] += 1
        self.cycles_in_vmm += cycles

    @property
    def total_exits(self) -> int:
        return sum(self.exits.values())

    def merge(self, other: "PerfCounters") -> "PerfCounters":
        merged = PerfCounters()
        for f in fields(self):
            setattr(merged, f.name, getattr(self, f.name) + getattr(other, f.name))
        return merged
