"""Dedicated tests for hw/devices.py: the MMIO NIC victim device.

Enclave-facing containment of NIC-ring scribbles lives in
tests/core/test_device_protection.py; these tests cover the device
model itself — window placement and ownership, ring layout, and the
driver's corruption detection.
"""

from __future__ import annotations

import pytest

from repro.hw.devices import (
    DESC_MAGIC,
    MmioNic,
    RING_ENTRIES,
    _DESC,
    device_owner,
)
from repro.hw.machine import Machine, MachineConfig
from repro.hw.memory import PAGE_SIZE


@pytest.fixture
def machine() -> Machine:
    return Machine(MachineConfig.small())


@pytest.fixture
def nic(machine: Machine) -> MmioNic:
    return MmioNic(machine)


class TestWindowOwnership:
    def test_owner_label(self, nic):
        assert nic.owner == device_owner(nic.name) == f"device:{nic.name}"

    def test_window_is_one_page_in_zone0(self, machine, nic):
        zone0 = machine.topology.zones[0]
        assert nic.window.size == PAGE_SIZE
        assert nic.window.zone == zone0.zone_id
        assert zone0.mem_start <= nic.window.start < zone0.mem_end
        assert nic.window.start + nic.window.size <= zone0.mem_end


class TestRings:
    def test_rings_initialised_with_device_magic(self, machine, nic):
        for ring in ("tx", "rx"):
            for index in range(RING_ENTRIES):
                data = machine.memory.read(
                    nic._desc_addr(ring, index), _DESC.size
                )
                magic, length, addr = _DESC.unpack(data)
                assert magic == DESC_MAGIC
                assert length == 0 and addr == 0

    def test_tx_and_rx_rings_occupy_separate_halves(self, nic):
        tx_last = nic._desc_addr("tx", RING_ENTRIES - 1) + _DESC.size
        rx_first = nic._desc_addr("rx", 0)
        assert tx_last <= rx_first
        assert rx_first == nic.window.start + PAGE_SIZE // 2

    def test_transmit_wraps_around_the_ring(self, nic):
        for _ in range(RING_ENTRIES + 1):
            assert nic.transmit(64)
        assert nic.stats.tx_packets == RING_ENTRIES + 1
        assert nic.check_ring_integrity()


class TestCorruptionDetection:
    def test_healthy_device_moves_packets(self, nic):
        assert nic.check_ring_integrity()
        assert nic.transmit(1500)
        assert nic.receive()
        assert nic.stats.ring_errors == 0

    def test_scribble_on_descriptor_detected(self, machine, nic):
        machine.memory.write(nic._desc_addr("tx", 3), b"\x00" * _DESC.size)
        assert not nic.check_ring_integrity()
        assert nic.stats.ring_errors == 1

    def test_corrupt_rings_stop_traffic_in_both_directions(self, machine, nic):
        machine.memory.write(nic._desc_addr("rx", 0), b"\xff" * _DESC.size)
        tx_before, rx_before = nic.stats.tx_packets, nic.stats.rx_packets
        assert not nic.transmit(64)
        assert not nic.receive()
        assert nic.stats.tx_packets == tx_before
        assert nic.stats.rx_packets == rx_before
        assert nic.stats.ring_errors >= 2

    @pytest.mark.parametrize("ring", ["tx", "rx"])
    @pytest.mark.parametrize("index", [0, RING_ENTRIES - 1])
    def test_scribble_on_any_descriptor_counts_one_error(
        self, machine, nic, ring, index
    ):
        machine.memory.write(nic._desc_addr(ring, index), b"\x00" * 4)
        assert not nic.check_ring_integrity()
        assert nic.stats.ring_errors == 1

    def test_bytes_past_each_ring_are_not_descriptors(self, machine, nic):
        for ring in ("tx", "rx"):
            machine.memory.write(
                nic._desc_addr(ring, RING_ENTRIES), b"\xff" * _DESC.size
            )
        assert nic.check_ring_integrity()
        assert nic.stats.ring_errors == 0
