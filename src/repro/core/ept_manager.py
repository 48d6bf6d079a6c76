"""EPT lifecycle management for one enclave.

Wraps :class:`repro.vmx.ept.ExtendedPageTable` with Covirt's policy:
identity maps only, full permissions (violations mean *outside the
enclave*, Section IV-C), greedy 2 MiB / 1 GiB coalescing, and update
statistics the ablation benchmarks read.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.hw.memory import MemoryRegion
from repro.vmx.ept import EptPermissions, ExtendedPageTable


@dataclass
class EptUpdateStats:
    maps: int = 0
    unmaps: int = 0
    entries_written: int = 0

    def reset(self) -> None:
        self.maps = self.unmaps = self.entries_written = 0


class EptManager:
    """Builds and incrementally maintains an enclave's identity EPT."""

    def __init__(self, coalesce: bool = True) -> None:
        self.table = ExtendedPageTable()
        self.coalesce = coalesce
        self.stats = EptUpdateStats()

    def build_identity(self, regions: list[MemoryRegion]) -> int:
        """Initial-population at enclave init: identity map every
        assigned region with full access.  Returns entries created."""
        return sum(self.map_region(region) for region in regions)

    def map_region(self, region: MemoryRegion) -> int:
        """Identity-map ``region``; returns the entries written."""
        entries = self.table.map_region(
            region.start,
            region.size,
            host_start=region.start,  # identity — zero abstraction
            perms=EptPermissions.full(),
            coalesce=self.coalesce,
        )
        self.stats.maps += 1
        self.stats.entries_written += entries
        return entries

    def unmap_region(self, region: MemoryRegion) -> int:
        removed = self.table.unmap_region(region.start, region.size)
        self.stats.unmaps += 1
        return removed

    @property
    def mapped_bytes(self) -> int:
        return self.table.mapped_bytes

    def entry_counts(self) -> dict[int, int]:
        return self.table.count_by_size()
