"""Host-owned MMIO devices.

Section IV names device memory-mapped I/O regions as one of the things
nothing stops a misbehaving co-kernel from scribbling on.  This module
provides a concrete victim: a NIC whose descriptor rings live in a
host-owned MMIO window.  A stray write corrupts the rings and the
device stops working for the *host* — the cross-OS/R blast radius in
its most tangible form.  Under Covirt the window is simply absent from
every enclave's EPT.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

from repro.hw.machine import Machine
from repro.hw.memory import MemoryRegion, PAGE_SIZE

#: Owner label for device MMIO windows.
def device_owner(name: str) -> str:
    return f"device:{name}"


_DESC = struct.Struct("<IIQ")  # magic, length, buffer address
DESC_MAGIC = 0x4E494331  # 'NIC1'
RING_ENTRIES = 16


@dataclass
class NicStats:
    tx_packets: int = 0
    rx_packets: int = 0
    ring_errors: int = 0


class MmioNic:
    """A NIC with descriptor rings in an MMIO window.

    The window is carved from physical address space and owned by
    ``device:<name>``; the host driver (methods here) reads and writes
    descriptors through ordinary memory accesses, exactly like real
    hardware DMA rings.
    """

    def __init__(self, machine: Machine, name: str = "nic0") -> None:
        self.machine = machine
        self.name = name
        # One page of MMIO at the top of zone 0 (the host keeps it).
        zone0 = machine.topology.zones[0]
        self.window = MemoryRegion(
            zone0.mem_end - 16 * PAGE_SIZE, PAGE_SIZE, zone0.zone_id
        )
        self.stats = NicStats()
        self._initialise_rings()

    @property
    def owner(self) -> str:
        return device_owner(self.name)

    def _desc_addr(self, ring: str, index: int) -> int:
        base = self.window.start + (0 if ring == "tx" else PAGE_SIZE // 2)
        return base + index * _DESC.size

    def _initialise_rings(self) -> None:
        ring = _DESC.pack(DESC_MAGIC, 0, 0) * RING_ENTRIES
        for name in ("tx", "rx"):
            self.machine.memory.write(self._desc_addr(name, 0), ring)

    # -- host driver -----------------------------------------------------

    def check_ring_integrity(self) -> bool:
        """The driver's sanity pass: every descriptor must carry the
        device magic.  A co-kernel scribble trips this."""
        for name in ("tx", "rx"):
            ring = self.machine.memory.read(
                self._desc_addr(name, 0), RING_ENTRIES * _DESC.size
            )
            for magic, _length, _addr in _DESC.iter_unpack(ring):
                if magic != DESC_MAGIC:
                    self.stats.ring_errors += 1
                    return False
        return True

    def transmit(self, payload_len: int) -> bool:
        """Queue one TX descriptor; fails if the rings are corrupt."""
        if not self.check_ring_integrity():
            return False
        index = self.stats.tx_packets % RING_ENTRIES
        self.machine.memory.write(
            self._desc_addr("tx", index),
            _DESC.pack(DESC_MAGIC, payload_len, 0x1000),
        )
        self.stats.tx_packets += 1
        return True

    def receive(self) -> bool:
        if not self.check_ring_integrity():
            return False
        self.stats.rx_packets += 1
        return True
