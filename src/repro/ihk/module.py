"""The IHK host module: reserve / boot / destroy OS instances.

IHK's idioms on the shared partition lifecycle
(:class:`repro.pisces.kmod.CoKernelFramework`): resources are
*reserved* from Linux, kernels are *OS instances* addressed by index,
the host side carries the proxy syscall service, and a failed instance
gives its reservation back at once.  The integration surface Covirt
needs comes with the base.
"""

from __future__ import annotations

import enum
from typing import Any

from repro.hobbes.forwarding import SyscallForwarder
from repro.hw.machine import Machine
from repro.hw.memory import page_align_up
from repro.linuxhost.host import LinuxHost
from repro.pisces.enclave import Enclave, EnclaveState, FaultRecord
from repro.pisces.kmod import CoKernelFramework
from repro.pisces.resources import ResourceSpec

#: OS-instance enclave ids live in their own range so a Covirt
#: controller can protect Pisces enclaves and IHK instances side by side.
IHK_ID_BASE = 1000


class IhkError(Exception):
    pass


class IhkIoctl(enum.IntEnum):
    RESERVE = 150
    BOOT = 151
    DESTROY = 152
    QUERY_STATUS = 153


class IhkModule(CoKernelFramework):
    """The IHK driver stack loaded into the host."""

    MODULE_NAME = "ihk"
    ERROR = IhkError

    def __init__(self, machine: Machine, host: LinuxHost) -> None:
        super().__init__(machine, host)
        self._next_index = 0
        #: The host-side proxy syscall service shared by all instances.
        self.proxy_service = SyscallForwarder()

    # -- ioctl ABI ---------------------------------------------------------

    def ioctl(self, cmd: int, arg: Any = None) -> Any:
        if cmd == IhkIoctl.RESERVE:
            cpus, mem = arg
            return self.reserve(cpus, mem)
        if cmd == IhkIoctl.BOOT:
            return self.boot(arg)
        if cmd == IhkIoctl.DESTROY:
            return self.destroy(arg)
        if cmd == IhkIoctl.QUERY_STATUS:
            return self.instance(arg).state
        return super().ioctl(cmd, arg)

    # -- lifecycle -----------------------------------------------------

    def instance(self, os_index: int) -> Enclave:
        try:
            return self.enclaves[IHK_ID_BASE + os_index]
        except KeyError:
            raise IhkError(f"no OS instance {os_index}") from None

    def reserve(
        self, cpus_per_zone: dict[int, int], mem_per_zone: dict[int, int]
    ) -> int:
        """``ihk reserve``: carve CPUs and memory out of Linux.  The
        index advances only when the reservation succeeds."""
        os_index = self._next_index
        spec = ResourceSpec(
            cores_per_zone=dict(cpus_per_zone),
            mem_per_zone={z: page_align_up(m) for z, m in mem_per_zone.items()},
            name=f"mcos{os_index}",
            kernel_type="mckernel",
        )
        self._create(IHK_ID_BASE + os_index, spec)
        self._next_index += 1
        return os_index

    def boot(self, os_index: int) -> Enclave:
        """``ihk os boot``: bring the reserved instance up."""
        enclave = self.instance(os_index)
        if enclave.state is not EnclaveState.CREATED:
            raise IhkError(f"mcos{os_index} already booted")
        return self._boot(enclave)

    def _wire(self, enclave: Enclave) -> None:
        # Wire the proxy syscall service into the kernel.
        assert enclave.kernel is not None
        enclave.kernel.forwarder = self.proxy_service

    def terminate_enclave(self, enclave_id: int, fault: FaultRecord) -> bool:
        """Fault-path termination, which also releases the reservation."""
        halted = super().terminate_enclave(enclave_id, fault)
        if halted:
            self._reclaim(self.enclaves[enclave_id])
        return halted

    def destroy(self, os_index: int) -> None:
        """``ihk os destroy``: shutdown + release the reservation, then
        forget the instance."""
        self._destroy(self.instance(os_index))
