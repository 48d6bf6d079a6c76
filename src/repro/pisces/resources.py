"""Enclave resource specifications and assignments."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.hw.memory import MemoryRegion, page_align_up


def enclave_owner(enclave_id: int) -> str:
    """Physical-memory owner label for an enclave."""
    return f"enclave:{enclave_id}"


@dataclass(frozen=True)
class ResourceSpec:
    """What an enclave should be given, before placement.

    ``mem_per_zone`` maps zone id → bytes, mirroring the paper's
    evaluation where 14 GB is split across NUMA zones as the core count
    scales.  ``cores_per_zone`` maps zone id → number of cores.
    """

    cores_per_zone: dict[int, int]
    mem_per_zone: dict[int, int]
    name: str = "enclave"
    #: Which co-kernel OS/R boots in the enclave ("kitten", "nautilus",
    #: "mckernel" or "mos-lwk"; see ``kernel_class_for``).
    kernel_type: str = "kitten"

    def __post_init__(self) -> None:
        if not self.cores_per_zone or all(
            n == 0 for n in self.cores_per_zone.values()
        ):
            raise ValueError("enclave needs at least one core")
        if not self.mem_per_zone or all(n == 0 for n in self.mem_per_zone.values()):
            raise ValueError("enclave needs memory")
        for zone, n in self.cores_per_zone.items():
            if n < 0:
                raise ValueError(f"negative core count for zone {zone}")

    @property
    def total_cores(self) -> int:
        return sum(self.cores_per_zone.values())

    @property
    def total_memory(self) -> int:
        return sum(self.mem_per_zone.values())

    @classmethod
    def evaluation_layout(
        cls, num_cores: int, num_zones: int, total_mem: int, name: str = "enclave"
    ) -> "ResourceSpec":
        """The paper's hardware layouts: N cores split evenly over Z
        zones, memory kept constant and split evenly over those zones."""
        if num_cores % num_zones:
            raise ValueError("cores must divide evenly across zones")
        per_zone_mem = page_align_up(total_mem // num_zones)
        return cls(
            cores_per_zone={z: num_cores // num_zones for z in range(num_zones)},
            mem_per_zone={z: per_zone_mem for z in range(num_zones)},
            name=name,
        )


@dataclass
class ResourceAssignment:
    """Concrete placement of a spec onto the machine."""

    core_ids: list[int] = field(default_factory=list)
    regions: list[MemoryRegion] = field(default_factory=list)

    @property
    def total_memory(self) -> int:
        return sum(r.size for r in self.regions)

    @property
    def num_cores(self) -> int:
        return len(self.core_ids)

    def owns_addr(self, addr: int) -> bool:
        return any(r.contains(addr) for r in self.regions)

    def owns_core(self, core_id: int) -> bool:
        return core_id in self.core_ids

    def add_region(self, region: MemoryRegion) -> None:
        self.regions.append(region)

    def remove_region(self, region: MemoryRegion) -> None:
        self.regions.remove(region)
