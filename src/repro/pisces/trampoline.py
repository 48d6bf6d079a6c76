"""Pisces trampoline: the enclave CPU boot path.

On hardware, Pisces kexec-launches a trampoline on each offlined core
that switches to 64-bit mode with identity page tables and jumps to the
co-kernel entry point with the boot-parameter address in a register.

Covirt interposes here (see ``repro.core.boot``): instead of jumping to
the co-kernel, the trampoline enters the Covirt hypervisor, which sets
up VMX and *launches the co-kernel as a guest at the same entry point
with the same register state* — the co-kernel cannot tell the
difference.  To make that interposition a first-class seam, the native
path is expressed as a :class:`BootProtocol` the kernel module calls.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Protocol

from repro.hw.cpu import CpuMode
from repro.hw.machine import Machine

if TYPE_CHECKING:  # pragma: no cover
    from repro.pisces.enclave import Enclave


#: Conventional guest-physical offset (within the enclave's first
#: region) at which the boot-parameter structure is written.
BOOT_PARAMS_OFFSET = 0x1000
#: Where the co-kernel image notionally begins (its entry point).
KERNEL_ENTRY_OFFSET = 0x10000


class BootProtocol(Protocol):
    """How enclave cores get from offlined to running a co-kernel."""

    def boot_core(self, enclave: "Enclave", core_id: int, is_bsp: bool) -> None:
        """Bring one core up into the enclave's OS/R."""

    def describe(self) -> str: ...


def kernel_class_for(enclave: "Enclave"):
    """Resolve the co-kernel class an enclave's spec asks for.

    Pisces is kernel-agnostic: any OS/R exposing the guest-kernel
    surface (:class:`repro.pisces.guest.GuestKernel`: boot / memmap /
    hotplug / interrupt injection) can be trampolined into an enclave —
    which is exactly what lets Covirt protect all four kernels alike
    without changes.
    """
    kernel_type = enclave.spec.kernel_type
    if kernel_type == "kitten":
        from repro.kitten.kernel import KittenKernel

        return KittenKernel
    if kernel_type == "nautilus":
        from repro.nautilus.kernel import NautilusKernel

        return NautilusKernel
    if kernel_type == "mckernel":
        from repro.ihk.mckernel import McKernel

        return McKernel
    if kernel_type == "mos-lwk":
        from repro.mos.stack import MosLwk

        return MosLwk
    raise ValueError(f"unknown co-kernel type {kernel_type!r}")


class NativeBootProtocol:
    """Direct trampoline-to-kernel boot (no hypervisor)."""

    def __init__(self, machine: Machine) -> None:
        self.machine = machine

    def boot_core(self, enclave: "Enclave", core_id: int, is_bsp: bool) -> None:
        core = self.machine.core(core_id)
        # Mode switch + jump: a few microseconds of real time.
        core.advance(5_000)
        core.mode = CpuMode.NATIVE_GUEST
        if is_bsp:
            assert enclave.boot_params is not None and enclave.boot_params.address
            kernel = kernel_class_for(enclave).boot(self.machine, enclave)
            enclave.kernel = kernel
        else:
            assert enclave.kernel is not None, "BSP must boot first"
            enclave.kernel.join_secondary_core(core_id)
        core.context = enclave.kernel

    def describe(self) -> str:
        return "native (no protection layer)"


def entry_point_for(enclave: "Enclave") -> int:
    """Guest-physical address of the co-kernel entry point."""
    first = enclave.assignment.regions[0]
    return first.start + KERNEL_ENTRY_OFFSET


def boot_params_address_for(enclave: "Enclave") -> int:
    first = enclave.assignment.regions[0]
    return first.start + BOOT_PARAMS_OFFSET
