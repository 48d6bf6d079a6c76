"""The guest-kernel surface, pinned for each of the four co-kernels.

Kitten (Pisces), McKernel (IHK), Nautilus (Pisces) and the mOS LWK boot
through the same boot / interrupt / hotplug / XEMEM surface.  What each
kernel does differently is pinned here: its banner, the timer period it
arms, the byte a kernel-mode write leaves, the error an unmapped access
raises, and where its allocator starts (the reserved kernel image).
The boot, IRQ and touch checks also run under Covirt.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import pytest

from repro.core.features import CovirtConfig
from repro.harness.env import CovirtEnvironment
from repro.hw.interrupts import Interrupt, InterruptKind
from repro.ihk.module import IhkModule
from repro.kitten.kernel import GuestPageFault
from repro.kitten.syscalls import ENOMEM, SyscallError
from repro.mos import MosStack
from repro.pisces.enclave import Enclave, EnclaveState
from repro.pisces.resources import ResourceSpec

GiB = 1 << 30
MiB = 1 << 20
PAGE = 4096

#: Two cores in two zones, so every kernel has a BSP and one AP.
CORES = {0: 1, 1: 1}
MEMORY = {0: GiB, 1: GiB}


def _pisces(kernel_type: str):
    def boot(env: CovirtEnvironment, config: CovirtConfig | None) -> Enclave:
        spec = ResourceSpec(
            cores_per_zone=CORES,
            mem_per_zone=MEMORY,
            name="guest",
            kernel_type=kernel_type,
        )
        return env.controller.launch(spec, config)

    return boot


def _ihk(env: CovirtEnvironment, config: CovirtConfig | None) -> Enclave:
    ihk = IhkModule(env.machine, env.host)
    env.controller.interpose_on(ihk)
    os_index = ihk.reserve(CORES, MEMORY)
    return env.controller.launch_via(lambda: ihk.boot(os_index), config)


def _mos(env: CovirtEnvironment, config: CovirtConfig | None) -> Enclave:
    mos = MosStack(env.machine, env.host)
    env.controller.interpose_on(mos)
    return env.controller.launch_via(
        lambda: mos.designate(CORES, MEMORY), config
    )


@dataclass(frozen=True)
class Guest:
    """What one kernel does differently, as observed from outside."""

    name: str
    boot: Callable[[CovirtEnvironment, CovirtConfig | None], Enclave]
    banner: Callable[[Enclave], str]
    timer_period: int | None
    fill: int
    unmapped: type[Exception]
    unmapped_errno: int | None
    #: First address the kernel's own allocator hands out.
    first_alloc: Callable[[object], int]
    reserved: int


GUESTS = [
    Guest(
        "kitten",
        _pisces("kitten"),
        lambda e: f"Kitten booting: enclave {e.enclave_id}, 2 cores, 2048 MiB",
        170_000_000,
        0xAB,
        GuestPageFault,
        None,
        lambda k: k.kmalloc(PAGE).start,
        1 * MiB,
    ),
    Guest(
        "mckernel",
        _ihk,
        lambda e: f"McKernel booting on IHK: os instance {e.enclave_id}, 2 cpus",
        1_700_000_000,
        0xCC,
        SyscallError,
        ENOMEM,
        lambda k: k.spawn_process("p", mem_bytes=PAGE).ranges[0][0],
        1 * MiB,
    ),
    Guest(
        "nautilus",
        _pisces("nautilus"),
        lambda e: (
            f"Nautilus aerokernel booting: enclave {e.enclave_id}, "
            "2 cores, timer masked"
        ),
        None,
        0xAA,
        MemoryError,
        None,
        lambda k: k.kmalloc_bytes(PAGE),
        2 * MiB,
    ),
    Guest(
        "mos-lwk",
        _mos,
        lambda e: "mOS LWK online: 2 designated cores",
        None,
        0x05,
        SyscallError,
        ENOMEM,
        lambda k: k.spawn_process("p", mem_bytes=PAGE).ranges[0][0],
        1 * MiB,
    ),
]

CONFIGS = {"native": None, "memory_only": CovirtConfig.memory_only()}


@pytest.fixture(params=GUESTS, ids=[g.name for g in GUESTS])
def guest(request) -> Guest:
    return request.param


def boot(guest: Guest, config: CovirtConfig | None = None):
    env = CovirtEnvironment()
    enclave = guest.boot(env, config)
    assert enclave.state is EnclaveState.RUNNING
    return env, enclave, enclave.kernel


def scratch_region(env: CovirtEnvironment):
    """4 MiB carved out of Linux, owned by no kernel yet."""
    return env.host.offline_memory(4 * MiB, 0)


@pytest.mark.parametrize("config", CONFIGS.values(), ids=CONFIGS.keys())
class TestBootIrqTouch:
    def test_banner_and_cores(self, guest, config):
        _env, enclave, kernel = boot(guest, config)
        assert kernel.console[0] == guest.banner(enclave)
        assert sorted(kernel.online_cores) == sorted(enclave.assignment.core_ids)

    def test_irq_dispatch_and_log(self, guest, config):
        _env, enclave, kernel = boot(guest, config)
        seen = []
        kernel.register_irq_handler(77, lambda core, irq: seen.append((core, irq)))
        for core_id in enclave.assignment.core_ids:
            irq = Interrupt(77, InterruptKind.IPI, source_core=0)
            kernel.inject_interrupt(core_id, irq)
            assert seen[-1] == (core_id, irq)
            assert kernel.irq_log[core_id][-1] is irq
        assert len(seen) == 2

    def test_touch_fill_byte_and_unmapped_error(self, guest, config):
        env, enclave, kernel = boot(guest, config)
        bsp = enclave.assignment.core_ids[0]
        addr = enclave.assignment.regions[0].start + 4 * MiB
        assert kernel.touch(bsp, addr, 8, write=True) is None
        assert env.machine.memory.read(addr, 8) == bytes([guest.fill]) * 8
        assert kernel.touch(bsp, addr, 8) == bytes([guest.fill]) * 8
        with pytest.raises(guest.unmapped) as info:
            kernel.touch(bsp, 63 * GiB, 8)
        assert type(info.value) is guest.unmapped
        if guest.unmapped_errno is not None:
            assert info.value.errno == guest.unmapped_errno
        assert enclave.state is EnclaveState.RUNNING


class TestNativeSurface:
    def test_timer_period_on_bsp_and_ap(self, guest):
        env, enclave, _kernel = boot(guest)
        bsp, ap = enclave.assignment.core_ids
        assert env.machine.core(bsp).apic.timer_period == guest.timer_period
        assert env.machine.core(ap).apic.timer_period == guest.timer_period

    def test_allocator_skips_reserved_image(self, guest):
        _env, enclave, kernel = boot(guest)
        first = enclave.assignment.regions[0]
        assert guest.first_alloc(kernel) == first.start + guest.reserved

    @pytest.mark.parametrize("buggy", [False, True], ids=["clean", "buggy"])
    def test_hotplug_add_then_remove(self, guest, buggy):
        env, enclave, kernel = boot(guest)
        bsp = enclave.assignment.core_ids[0]
        region = scratch_region(env)
        with pytest.raises(guest.unmapped):
            kernel.touch(bsp, region.start, 8)
        kernel.memory_hotplug_add(region)
        assert region in kernel.params.regions
        assert kernel.memmap.contains(region.start, region.size)
        kernel.touch(bsp, region.start + region.size - 8, 8, write=True)
        kernel.buggy_cleanup = buggy
        assert kernel.memory_hotplug_remove(region) is True
        assert region not in kernel.params.regions
        # The stale mapping survives exactly when cleanup is buggy.
        assert kernel.memmap.contains(region.start, region.size) is buggy
        if buggy:
            assert kernel.touch(bsp, region.start, 8) == bytes(8)
        else:
            with pytest.raises(guest.unmapped):
                kernel.touch(bsp, region.start, 8)

    def test_map_and_unmap_shared(self, guest):
        env, enclave, kernel = boot(guest)
        bsp = enclave.assignment.core_ids[0]
        region = scratch_region(env)
        kernel.map_shared(region)
        assert kernel.memmap.contains(region.start, region.size)
        assert kernel.touch(bsp, region.start, 8) == bytes(8)
        assert region not in kernel.params.regions
        kernel.unmap_shared(region)
        assert not kernel.memmap.contains(region.start, 1)
        with pytest.raises(guest.unmapped):
            kernel.touch(bsp, region.start, 8)

    def test_join_online_core_rejected(self, guest):
        _env, enclave, kernel = boot(guest)
        for core_id in enclave.assignment.core_ids:
            with pytest.raises(ValueError):
                kernel.join_secondary_core(core_id)
        assert sorted(kernel.online_cores) == sorted(enclave.assignment.core_ids)

    def test_native_delivery_reaches_the_kernel(self, guest):
        env, enclave, kernel = boot(guest)
        bsp, ap = enclave.assignment.core_ids
        seen = []
        kernel.register_irq_handler(99, lambda core, irq: seen.append(core))
        enclave.port.send_ipi(bsp, ap, 99)
        assert seen == [ap]
        assert kernel.irq_log[ap][-1].vector == 99

    def test_nothing_dispatched_after_shutdown(self, guest):
        _env, enclave, kernel = boot(guest)
        bsp = enclave.assignment.core_ids[0]
        seen = []
        kernel.register_irq_handler(77, lambda core, irq: seen.append(core))
        before = len(kernel.irq_log[bsp])
        kernel.shutdown()
        assert kernel.running is False
        kernel.inject_interrupt(bsp, Interrupt(77, InterruptKind.IPI, source_core=0))
        assert seen == []
        assert len(kernel.irq_log[bsp]) == before
