"""Enclave objects and the native (unprotected) execution port.

An :class:`Enclave` is a hardware partition running one co-kernel
OS/R.  Every architectural operation the enclave's software performs —
memory access, IPI transmission, MSR/port access, exception raising —
goes through its :class:`AccessPort`.

The :class:`NativeAccessPort` implements the *status quo ante* the
paper describes: a native co-kernel has full access to the underlying
hardware and **nothing** checks what it touches.  Its memory operations
deliberately bypass ownership enforcement; its IPIs go straight to the
physical fabric; its abort-class exceptions take the whole node down.
Covirt replaces this port with a virtualized one
(:class:`repro.core.execution.VirtualizedAccessPort`).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, NoReturn, Protocol

from repro.hw.apic import DeliveryMode
from repro.hw.interrupts import ExceptionClass, exception_class
from repro.hw.machine import Machine
from repro.pisces.bootparams import PiscesBootParams
from repro.pisces.resources import ResourceAssignment, ResourceSpec

if TYPE_CHECKING:  # pragma: no cover
    from repro.linuxhost.host import LinuxHost
    from repro.pisces.guest import GuestKernel


class EnclaveState(enum.Enum):
    CREATED = "created"
    BOOTING = "booting"
    RUNNING = "running"
    #: Cleanly shut down; resources reclaimed.
    DESTROYED = "destroyed"
    #: Terminated by Covirt after a contained fault.
    FAILED = "failed"
    #: Terminated by Covirt, but the recovery subsystem restored the
    #: service in a successor enclave (see ``Enclave.successor_id``).
    RECOVERED = "recovered"


class EnclaveDead(Exception):
    """An operation was attempted on a terminated enclave."""


@dataclass
class FaultRecord:
    """Why an enclave was terminated (written by the Covirt fault path)."""

    reason: str
    detail: str
    core_id: int
    tsc: int


class AccessPort(Protocol):
    """Architectural operations available to an enclave's software."""

    def read(self, core_id: int, addr: int, length: int) -> bytes: ...

    def write(self, core_id: int, addr: int, data: bytes) -> None: ...

    def send_ipi(
        self, core_id: int, dest_core: int, vector: int,
        mode: DeliveryMode = DeliveryMode.FIXED,
    ) -> bool: ...

    def rdmsr(self, core_id: int, index: int) -> int: ...

    def wrmsr(self, core_id: int, index: int, value: int) -> None: ...

    def io_in(self, core_id: int, port: int) -> int: ...

    def io_out(self, core_id: int, port: int, value: int) -> None: ...

    def raise_exception(self, core_id: int, vector: int) -> None: ...


@dataclass
class Enclave:
    """One hardware partition + the OS/R running in it."""

    enclave_id: int
    name: str
    spec: ResourceSpec
    assignment: ResourceAssignment
    state: EnclaveState = EnclaveState.CREATED
    boot_params: PiscesBootParams | None = None
    kernel: "GuestKernel | None" = None
    #: The execution port all enclave software uses; native by default,
    #: swapped by Covirt at boot interposition time.
    port: AccessPort | None = None
    fault: FaultRecord | None = None
    #: Opaque slot for Covirt's per-enclave virtualization context; it
    #: is released with the enclave (its ``release()``).
    virt_context: object = None
    #: How many times this *service* has been (re)launched; 1 for a
    #: fresh enclave, bumped by the recovery supervisor on relaunch.
    incarnation: int = 1
    #: Enclave id of the successor that took over after recovery.
    successor_id: int | None = None

    @property
    def owner_label(self) -> str:
        from repro.pisces.resources import enclave_owner

        return enclave_owner(self.enclave_id)

    @property
    def is_running(self) -> bool:
        return self.state is EnclaveState.RUNNING

    def require_running(self) -> None:
        if self.state is not EnclaveState.RUNNING:
            raise EnclaveDead(
                f"enclave {self.enclave_id} is {self.state.value}"
            )

    def release(self) -> None:
        """Free the partition's software once it is gone for good, or
        its environment is closed.  The kernel, the port and the
        virtualization context each refer back to the enclave, so until
        these links go a dead partition is one reference cycle that only
        the cycle collector frees.  The enclave stays a record (id,
        state, spec, assignment, fault) whose port refuses every
        operation, as a dead enclave's port does."""
        if self.virt_context is not None:
            self.virt_context.release()
        self.kernel = None
        self.virt_context = None
        self.port = ReleasedPort(self)


class NativeAccessPort:
    """Unprotected native execution — the co-kernel baseline.

    Memory reads/writes are issued directly against physical DRAM with
    no ownership check: a buggy co-kernel *will* corrupt other OS/Rs.
    This is not a simulation shortcut; it is the precise behaviour the
    paper's Section IV opens with.
    """

    def __init__(self, machine: Machine, enclave: Enclave, host: "LinuxHost") -> None:
        self.machine = machine
        self.enclave = enclave
        self.host = host

    def read(self, core_id: int, addr: int, length: int) -> bytes:
        self.enclave.require_running()
        return self.machine.memory.read(addr, length)

    def write(self, core_id: int, addr: int, data: bytes) -> None:
        self.enclave.require_running()
        self.machine.memory.write(addr, data)

    def send_ipi(
        self,
        core_id: int,
        dest_core: int,
        vector: int,
        mode: DeliveryMode = DeliveryMode.FIXED,
    ) -> bool:
        self.enclave.require_running()
        apic = self.machine.core(core_id).apic
        assert apic is not None
        apic.write_icr(dest_core, vector, mode)
        return True

    def rdmsr(self, core_id: int, index: int) -> int:
        self.enclave.require_running()
        msrs = self.machine.core(core_id).msrs
        assert msrs is not None
        return msrs.read(index)

    def wrmsr(self, core_id: int, index: int, value: int) -> None:
        self.enclave.require_running()
        msrs = self.machine.core(core_id).msrs
        assert msrs is not None
        msrs.write(index, value)

    def io_in(self, core_id: int, port: int) -> int:
        self.enclave.require_running()
        return self.machine.ioports.read(port, core_id)

    def io_out(self, core_id: int, port: int, value: int) -> None:
        self.enclave.require_running()
        self.machine.ioports.write(port, value, core_id)

    def raise_exception(self, core_id: int, vector: int) -> None:
        """A native abort-class exception is a node-level event: with no
        hypervisor underneath, a double fault in any co-kernel halts the
        machine."""
        self.enclave.require_running()
        if exception_class(vector) is ExceptionClass.ABORT:
            self.host.panic(
                f"abort-class exception {vector} in native enclave "
                f"{self.enclave.enclave_id} on core {core_id}"
            )
        # Non-abort exceptions are the co-kernel's own problem; Kitten
        # handles them internally (or kills the faulting task).

    def cpuid(self, core_id: int, leaf: int) -> tuple[int, int, int, int]:
        """Native CPUID: the real processor, unfiltered."""
        from repro.hw.cpu import host_cpuid

        self.enclave.require_running()
        return host_cpuid(leaf, core_id)


class ReleasedPort:
    """The port of a released enclave: every operation raises
    :class:`EnclaveDead`.  It keeps only the enclave's id, so it closes
    no reference cycle."""

    def __init__(self, enclave: Enclave) -> None:
        self.enclave_id = enclave.enclave_id

    def _refuse(self, *args: object, **kwargs: object) -> NoReturn:
        raise EnclaveDead(f"enclave {self.enclave_id} was released")

    read = write = send_ipi = rdmsr = wrmsr = io_in = io_out = _refuse
    raise_exception = cpuid = xsetbv = hlt = _refuse
