"""The simulated machine: cores, memory, NUMA, APIC fabric, devices.

Defaults mirror the paper's testbed: two Xeon E5-2603 v4 sockets (six
cores each) in two NUMA zones with 64 GiB of DDR4 split evenly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.hw.apic import IpiMessage, LocalApic
from repro.hw.clock import Clock, EventQueue
from repro.hw.cpu import Core
from repro.hw.ioports import IoPortSpace
from repro.hw.memory import PhysicalMemory
from repro.hw.msr import MsrFile
from repro.hw.numa import NumaTopology
from repro.hw.tlb import DEFAULT_TLB_ENTRIES, Tlb

GiB = 1 << 30


@dataclass(frozen=True)
class MachineConfig:
    """Shape of the machine to build."""

    num_zones: int = 2
    cores_per_zone: int = 6
    mem_per_zone: int = 32 * GiB
    tlb_entries: int = DEFAULT_TLB_ENTRIES

    @property
    def num_cores(self) -> int:
        return self.num_zones * self.cores_per_zone

    @property
    def total_memory(self) -> int:
        return self.num_zones * self.mem_per_zone

    @classmethod
    def paper_testbed(cls) -> "MachineConfig":
        """The dual-socket E5-2603 v4 node from the evaluation."""
        return cls(num_zones=2, cores_per_zone=6, mem_per_zone=32 * GiB)

    @classmethod
    def small(cls) -> "MachineConfig":
        """A small machine for fast unit tests."""
        return cls(num_zones=2, cores_per_zone=2, mem_per_zone=GiB // 4)


class Machine:
    """A booted machine with all devices wired together."""

    def __init__(self, config: MachineConfig | None = None) -> None:
        self.config = config or MachineConfig()
        self.topology = NumaTopology.symmetric(
            self.config.num_zones,
            self.config.cores_per_zone,
            self.config.mem_per_zone,
        )
        self.memory = PhysicalMemory(self.config.total_memory)
        self.clock = Clock()
        self.events = EventQueue(self.clock)
        # Imported here to keep hw/ free of package-level cycles
        # (repro.obs imports hw.clock for the cycle/µs conversion).
        from repro.obs import Observability

        #: Machine-wide observability: span tracer + metrics registry.
        #: Instance-scoped by construction — two machines never share
        #: a counter.  Strictly passive: recording never advances time.
        self.obs = Observability(self.clock)
        self.ioports = IoPortSpace()
        self.cores: list[Core] = []
        for zone in self.topology.zones:
            for core_id in zone.core_ids:
                core = Core(core_id, zone.zone_id)
                core.apic = LocalApic(core_id)
                core.apic.attach(self)
                core.msrs = MsrFile(core_id)
                core.tlb = Tlb(self.config.tlb_entries)
                self.cores.append(core)
        self.cores.sort(key=lambda c: c.core_id)
        #: IPIs dropped because the destination core does not exist.
        self.misrouted_ipis: list[IpiMessage] = []

    # -- lookup helpers ------------------------------------------------

    @property
    def num_cores(self) -> int:
        return len(self.cores)

    def core(self, core_id: int) -> Core:
        if not 0 <= core_id < len(self.cores):
            raise KeyError(f"no core {core_id}")
        return self.cores[core_id]

    def cores_in_zone(self, zone_id: int) -> list[Core]:
        return [c for c in self.cores if c.zone == zone_id]

    # -- interconnect ------------------------------------------------------

    def route_ipi(self, msg: IpiMessage) -> bool:
        """Deliver an IPI through the interconnect.

        Returns False (and records the message) when the destination is
        not a valid core — the hardware analogue of an IPI disappearing
        into the void.
        """
        if not 0 <= msg.dest_core < len(self.cores):
            self.misrouted_ipis.append(msg)
            return False
        target = self.cores[msg.dest_core]
        assert target.apic is not None
        target.apic.deliver(msg.as_interrupt())
        return True

    def broadcast_ipi(self, msg_template: IpiMessage) -> int:
        """Send the IPI to every core except the source; returns count."""
        sent = 0
        for core in self.cores:
            if core.core_id == msg_template.source_core:
                continue
            self.route_ipi(
                IpiMessage(
                    msg_template.source_core,
                    core.core_id,
                    msg_template.vector,
                    msg_template.mode,
                )
            )
            sent += 1
        return sent

    # -- time ----------------------------------------------------------

    def furthest_tsc(self) -> int:
        """How far simulated time got: cores run ahead of the global
        clock while executing workloads, so this is the furthest of
        ``clock.now`` and every core's TSC."""
        return max(self.clock.now, max(core.read_tsc() for core in self.cores))

    def elapse(self, cycles: int) -> None:
        """Advance global time, firing any due events, and drag every
        core's TSC forward (idle cores still observe time passing)."""
        deadline = self.clock.now + cycles
        self.events.run_until(deadline)
        for core in self.cores:
            core.sync_tsc(self.clock.now)

    def close(self) -> None:
        """End the machine's life: detach every core's APIC and software
        context (the kernels and hypervisors installed there refer back
        to the machine) and close its observability bundle, so nothing
        the machine holds refers back up the stack and reference
        counting frees it with its owner.  Everything recorded stays
        readable."""
        for core in self.cores:
            core.context = None
            if core.apic is not None:
                core.apic.detach()
        self.obs.close()

    def reset(self) -> None:
        """Warm-reset every core and device; memory ownership survives."""
        for core in self.cores:
            core.reset()
            assert core.apic is not None and core.msrs is not None
            core.apic.reset()
            core.msrs.reset()
        self.ioports.reset()
        self.misrouted_ipis.clear()

    def __repr__(self) -> str:
        return (
            f"Machine({self.num_cores} cores / {self.topology.num_zones} zones,"
            f" {self.memory.size >> 30} GiB)"
        )
