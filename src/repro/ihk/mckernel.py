"""McKernel: IHK's lightweight kernel, with proxy-process delegation.

McKernel offloads nearly every system call to Linux through a *proxy
process*: a host-side twin of each McKernel process whose address space
mirrors (a replica of) the LWK process's mappings, so the host kernel
can dereference syscall arguments directly.  The replica must be kept
in sync as the LWK process maps and unmaps memory — one more piece of
cross-OS/R shared state that can (and in the paper's experience, does)
go stale.

Boot, interrupts, hotplug and XEMEM mappings are the shared
:class:`~repro.pisces.guest.GuestKernel` surface; this module adds the
processes, their proxies and the delegation path.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import TYPE_CHECKING, Any

from repro.hw.machine import Machine
from repro.hw.memory import PAGE_SIZE, page_align_up
from repro.kitten.syscalls import (
    DELEGATED_SYSCALLS,
    ENOMEM,
    ENOSYS,
    Syscall,
    SyscallError,
)
from repro.pisces.bootparams import PiscesBootParams
from repro.pisces.guest import GuestKernel

if TYPE_CHECKING:  # pragma: no cover
    from repro.hobbes.forwarding import SyscallForwarder
    from repro.pisces.enclave import Enclave

#: McKernel's image + early allocations.
KERNEL_RESERVED_BYTES = 1 << 20

#: Cost of waking the proxy, switching it in on the host, and returning
#: the result — cheaper than a Hobbes channel round trip (the replica
#: lets the host dereference arguments directly) but far costlier than
#: mOS's in-kernel trampoline.
PROXY_DELEGATION_CYCLES = 3_400


@dataclass
class ProxyProcess:
    """The host-side twin of one McKernel process."""

    pid: int
    mck_pid: int
    #: Replicated address-space view: (start, size) ranges the proxy
    #: believes the LWK process has mapped.
    replica: list[tuple[int, int]] = field(default_factory=list)
    delegations: int = 0

    def covers(self, addr: int, length: int) -> bool:
        return any(
            start <= addr and addr + length <= start + size
            for start, size in self.replica
        )

    def replicate(self, start: int, size: int) -> None:
        self.replica.append((start, size))

    def unreplicate(self, start: int, size: int) -> None:
        self.replica.remove((start, size))


@dataclass
class MckProcess:
    """One McKernel process."""

    pid: int
    name: str
    ranges: list[tuple[int, int]] = field(default_factory=list)
    proxy: ProxyProcess | None = None

    def owns(self, addr: int, length: int = 1) -> bool:
        return any(
            start <= addr and addr + length <= start + size
            for start, size in self.ranges
        )


class McKernel(GuestKernel):
    """The LWK half of IHK/McKernel."""

    BANNER = "McKernel booting on IHK: os instance {enclave_id}, {ncores} cpus"
    #: McKernel also minimises timer noise (1 Hz housekeeping).
    TIMER_PERIOD = 1_700_000_000
    TOUCH_FILL = b"\xcc"
    UNMAPPED_ERROR = staticmethod(partial(SyscallError, ENOMEM))
    UNMAPPED_MESSAGE = "mckernel: {addr:#x} unmapped"

    def __init__(
        self, machine: Machine, enclave: "Enclave", params: PiscesBootParams
    ) -> None:
        super().__init__(machine, enclave, params)
        #: Host-side services, wired by the IHK module.
        self.forwarder: "SyscallForwarder | None" = None
        self.processes: dict[int, MckProcess] = {}
        self._next_pid = 1
        self._next_proxy_pid = 20_000
        self._alloc = params.regions[0].start + KERNEL_RESERVED_BYTES

    # -- processes & the proxy mechanism --------------------------------

    def spawn_process(self, name: str, mem_bytes: int = PAGE_SIZE) -> MckProcess:
        """Create an LWK process *and its host-side proxy twin* — the
        IHK/McKernel signature (Section III-A: "a 'proxy process' on the
        host OS that requires address space replication")."""
        process = MckProcess(self._next_pid, name)
        self._next_pid += 1
        proxy = ProxyProcess(self._next_proxy_pid, process.pid)
        self._next_proxy_pid += 1
        process.proxy = proxy
        self.processes[process.pid] = process
        if mem_bytes:
            self.mmap_process(process, mem_bytes)
        return process

    def mmap_process(self, process: MckProcess, size: int) -> int:
        """Map memory into an LWK process and replicate into its proxy."""
        size = page_align_up(size)
        region = self.params.regions[0]
        if self._alloc + size > region.end:
            raise SyscallError(ENOMEM, "mckernel: out of memory")
        start = self._alloc
        self._alloc += size
        process.ranges.append((start, size))
        assert process.proxy is not None
        process.proxy.replicate(start, size)  # keep the twin in sync
        return start

    def munmap_process(
        self, process: MckProcess, start: int, size: int, *, buggy: bool = False
    ) -> None:
        """Unmap; with ``buggy`` the proxy replica is *not* updated —
        the replication-desync bug class."""
        process.ranges.remove((start, size))
        if not buggy:
            assert process.proxy is not None
            process.proxy.unreplicate(start, size)

    def syscall(self, process: MckProcess, nr: int, *args: Any) -> Any:
        """McKernel handles almost nothing locally; everything else goes
        to the proxy."""
        try:
            syscall = Syscall(nr)
        except ValueError:
            raise SyscallError(ENOSYS, f"unknown syscall {nr}") from None
        if syscall is Syscall.GETPID:
            return process.pid
        if syscall is Syscall.UNAME:
            return "McKernel on IHK (repro)"
        if syscall in DELEGATED_SYSCALLS or syscall in (
            Syscall.WRITE, Syscall.STAT
        ):
            return self._delegate(process, syscall, args)
        raise SyscallError(ENOSYS, f"{syscall.name} unsupported on McKernel")

    def _delegate(self, process: MckProcess, syscall: Syscall, args: tuple) -> Any:
        """Ship the syscall to the proxy process.

        Argument buffers must be resident in the proxy's replicated
        address space — a desynced replica fails here, exactly how real
        IHK/McKernel delegation breaks.
        """
        if self.forwarder is None:
            raise SyscallError(ENOSYS, "no host proxy service")
        proxy = process.proxy
        assert proxy is not None
        self.machine.core(self.online_cores[0]).advance(PROXY_DELEGATION_CYCLES)
        # Pointer-carrying syscalls validate their buffers against the
        # replica (modelled: WRITE's buffer address argument).
        if syscall is Syscall.WRITE and isinstance(args[1], int):
            addr, length = args[1], args[2]
            if not proxy.covers(addr, length):
                raise SyscallError(
                    14, f"proxy replica desync: {addr:#x} not replicated"
                )  # EFAULT
            assert self.enclave.port is not None
            data = self.enclave.port.read(
                self.online_cores[0], addr, length
            )
            proxy.delegations += 1
            self.console.append(data.decode(errors="replace"))
            return length
        proxy.delegations += 1
        return self.forwarder.execute(syscall, args)
