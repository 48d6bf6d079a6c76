"""The mOS stack: boot-time LWK cores embedded in Linux.

Both halves sit on the shared bases
(:class:`~repro.pisces.kmod.CoKernelFramework` and
:class:`~repro.pisces.guest.GuestKernel`).  Differences from Pisces/IHK,
each load-bearing for the tests:

* **No dynamic enclaves.**  LWK cores are designated once, "at boot";
  there is no create/destroy churn (``designate`` can be called once).
* **Shared kernel state.**  A window of *Linux-owned* memory (task
  structs, the syscall machinery) is legitimately shared with the LWK.
  Under Covirt it is mapped into the partition's EPT even though Linux
  keeps owning it — the high-integration adaptation.
* **Syscalls are function calls.**  Delegation costs a trampoline into
  host-kernel code (~hundreds of cycles), not a channel round trip —
  the integration benefit mOS buys with its weaker isolation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Any

from repro.hobbes.forwarding import SyscallForwarder
from repro.hw.machine import Machine
from repro.hw.memory import MemoryRegion, PAGE_SIZE, page_align_up
from repro.kitten.syscalls import (
    DELEGATED_SYSCALLS,
    ENOMEM,
    ENOSYS,
    Syscall,
    SyscallError,
)
from repro.linuxhost.host import LinuxHost
from repro.pisces.bootparams import PiscesBootParams
from repro.pisces.enclave import Enclave
from repro.pisces.guest import GuestKernel
from repro.pisces.kmod import CoKernelFramework, ControlHooks
from repro.pisces.resources import ResourceSpec

#: mOS partitions get their own id range.
MOS_ID = 2000

#: In-kernel syscall trampoline cost (a function call plus mode fixup,
#: not a cross-enclave channel).
MOS_SYSCALL_TRAMPOLINE_CYCLES = 400

#: Size of the shared Linux kernel-state window the LWK legitimately
#: touches (task structs, runqueues, the syscall path).
SHARED_WINDOW_BYTES = 64 << 20


class MosError(Exception):
    pass


@dataclass
class LwkProcess:
    pid: int
    name: str
    ranges: list[tuple[int, int]] = field(default_factory=list)

    def owns(self, addr: int, length: int = 1) -> bool:
        return any(
            s <= addr and addr + length <= s + n for s, n in self.ranges
        )


class MosLwk(GuestKernel):
    """The embedded LWK half of mOS, on the shared guest-kernel surface."""

    BANNER = "mOS LWK online: {ncores} designated cores"
    TIMER_PERIOD = None  # LWK cores run tickless
    TOUCH_FILL = b"\x05"
    UNMAPPED_ERROR = staticmethod(partial(SyscallError, ENOMEM))
    UNMAPPED_MESSAGE = "mos: {addr:#x} unmapped"

    def __init__(
        self, machine: Machine, enclave: "Enclave", params: PiscesBootParams
    ) -> None:
        super().__init__(machine, enclave, params)
        #: Wired by the stack: direct (in-kernel) Linux services.
        self.linux_services: SyscallForwarder | None = None
        self.shared_window: MemoryRegion | None = None
        self.processes: dict[int, LwkProcess] = {}
        self._next_pid = 1
        self._alloc = params.regions[0].start + (1 << 20)
        #: Cycles spent in syscall trampolines (integration-cost metric).
        self.trampoline_cycles = 0

    # -- processes ---------------------------------------------------------

    def spawn_process(self, name: str, mem_bytes: int = PAGE_SIZE) -> LwkProcess:
        process = LwkProcess(self._next_pid, name)
        self._next_pid += 1
        size = page_align_up(mem_bytes)
        region = self.params.regions[0]
        if self._alloc + size > region.end:
            raise SyscallError(ENOMEM, "mos: partition exhausted")
        process.ranges.append((self._alloc, size))
        self._alloc += size
        self.processes[process.pid] = process
        return process

    def syscall(self, process: LwkProcess, nr: int, *args: Any) -> Any:
        """mOS syscalls trampoline straight into host-kernel code: no
        channel, no proxy — a function call with a fixed small cost.
        This is the payoff of extreme integration."""
        try:
            syscall = Syscall(nr)
        except ValueError:
            raise SyscallError(ENOSYS, f"unknown syscall {nr}") from None
        core = self.machine.core(self.online_cores[0])
        core.advance(MOS_SYSCALL_TRAMPOLINE_CYCLES)
        self.trampoline_cycles += MOS_SYSCALL_TRAMPOLINE_CYCLES
        if syscall is Syscall.GETPID:
            return process.pid
        if syscall is Syscall.UNAME:
            return "Linux + mOS LWK (repro)"
        if syscall in DELEGATED_SYSCALLS:
            # The shared window *is* the host kernel's state: touching it
            # is part of every trampolined call (and must be mapped).
            if self.shared_window is not None:
                self.touch(self.online_cores[0], self.shared_window.start, 8)
            assert self.linux_services is not None
            return self.linux_services.execute(syscall, args)
        raise SyscallError(ENOSYS, f"{syscall.name} not modelled on mOS")


class MosStack(CoKernelFramework):
    """The host-side half: boot-time designation of LWK resources.

    A failed partition is only halted: mOS cannot reclaim into a fresh
    partition — the designation was at boot — but the *host* keeps
    running, which is the point.
    """

    MODULE_NAME = "mos"
    ERROR = MosError

    def __init__(self, machine: Machine, host: LinuxHost) -> None:
        super().__init__(machine, host)
        self.partition: Enclave | None = None
        self.shared_window: MemoryRegion | None = None
        self.linux_services = SyscallForwarder()

    # -- boot-time designation -------------------------------------------

    def designate(
        self, cores_per_zone: dict[int, int], mem_per_zone: dict[int, int]
    ) -> Enclave:
        """One-shot, boot-time: carve the LWK partition out of Linux and
        bring the designated cores up running the embedded LWK."""
        if self.partition is not None:
            raise MosError("mOS designates LWK cores once, at boot")
        spec = ResourceSpec(
            cores_per_zone=dict(cores_per_zone),
            mem_per_zone={z: page_align_up(m) for z, m in mem_per_zone.items()},
            name="mos-lwk",
            kernel_type="mos-lwk",
        )
        self.partition = self._create(MOS_ID, spec)
        return self._boot(self.partition)

    def _wire(self, partition: Enclave) -> None:
        # Wire the embedded-kernel integration: direct Linux services
        # plus the shared kernel-state window, mapped through the grant
        # path so a Covirt EPT (if any) learns about it first.
        lwk = partition.kernel
        assert isinstance(lwk, MosLwk)
        lwk.linux_services = self.linux_services
        # The shared window sits at the top of zone 0, just under the
        # device MMIO region — Linux-owned kernel text/data the LWK
        # cores legitimately reach into.
        zone0 = self.machine.topology.zones[0]
        window_start = zone0.mem_end - 16 * PAGE_SIZE - SHARED_WINDOW_BYTES
        self.shared_window = MemoryRegion(window_start, SHARED_WINDOW_BYTES, 0)
        ControlHooks._fire(self.hooks.pre_memory_add, partition, self.shared_window)
        lwk.map_shared(self.shared_window)
        lwk.shared_window = self.shared_window
