"""The guest-kernel surface: what a framework needs of any co-kernel.

Pisces, IHK and mOS trampoline whichever kernel class
:func:`~repro.pisces.trampoline.kernel_class_for` names into a
partition, and Covirt protects it without knowing which one it got.
They all need the same things of it: parse the boot parameters out of
guest memory, bring cores up, dispatch interrupts, take memory hot-add
and hot-remove and XEMEM attach and detach into its own mappings, and
issue kernel-mode accesses.  :class:`GuestKernel` implements that once.
A kernel subclasses it, sets the class constants for what differs, and
adds its own execution model (tasks, processes, fibers, syscalls).

Two aspects are load-bearing for the reproduction:

* **Every architectural access goes through the enclave's port.** The
  kernel never touches ``machine.memory`` directly after boot; whether
  the access is policed (Covirt) or not (native) is entirely the port's
  business, and the kernel is bit-for-bit oblivious to which one it got
  — the transparency property the paper claims.
* **The kernel acts on its own mappings, not on ground truth.**  The
  ``buggy_cleanup`` knob makes hot-remove "forget" to retire mappings,
  reproducing the stale-XEMEM-segment bug from Section V's anecdote.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, ClassVar

from repro.hw.cpu import CpuMode
from repro.hw.interrupts import Interrupt, InterruptKind
from repro.hw.machine import Machine
from repro.hw.memory import MemoryRegion
from repro.kitten.memmap import GuestMemoryMap
from repro.kitten.pagetable import GuestPageTable
from repro.pisces.bootparams import PiscesBootParams

if TYPE_CHECKING:  # pragma: no cover
    from repro.pisces.enclave import Enclave


class GuestKernel:
    """One co-kernel instance managing one partition's resources."""

    #: First console line, formatted with ``enclave_id``, ``ncores`` and
    #: ``mib`` (total boot memory).
    BANNER: ClassVar[str]
    #: Local APIC timer period armed on every core; None masks it.
    TIMER_PERIOD: ClassVar[int | None]
    #: The byte a kernel-mode ``touch(write=True)`` stores.
    TOUCH_FILL: ClassVar[bytes]
    #: What ``touch`` raises outside the kernel's own mappings: called
    #: with :attr:`UNMAPPED_MESSAGE` formatted with ``addr``.
    UNMAPPED_ERROR: ClassVar[Callable[[str], Exception]]
    UNMAPPED_MESSAGE: ClassVar[str]
    #: Whether the kernel keeps page tables.  A kernel without them
    #: checks accesses against its memory map alone.
    PAGE_TABLES: ClassVar[bool] = True

    def __init__(
        self, machine: Machine, enclave: "Enclave", params: PiscesBootParams
    ) -> None:
        self.machine = machine
        self.enclave = enclave
        self.params = params
        self.memmap = GuestMemoryMap()
        #: The kernel's real 4-level identity page tables (huge pages
        #: where alignment allows, as LWKs do).
        self.pgtable = GuestPageTable() if self.PAGE_TABLES else None
        for region in params.regions:
            self._map(region)
        self.online_cores: list[int] = [params.core_ids[0]]
        self.irq_log: dict[int, list[Interrupt]] = {c: [] for c in params.core_ids}
        self._irq_handlers: dict[int, Callable[[int, Interrupt], None]] = {}
        self.console: list[str] = []
        self.running = True
        #: Fault-injection knob: skip memory-map retirement on hot-remove.
        self.buggy_cleanup = False
        #: Hobbes runtime attach point (set by the runtime when present).
        self.hobbes_client: Any = None
        self._configure_core(params.core_ids[0])

    # -- boot ------------------------------------------------------------

    @classmethod
    def boot(cls, machine: Machine, enclave: "Enclave") -> "GuestKernel":
        """BSP entry point: parse boot params out of guest memory."""
        assert enclave.boot_params is not None
        params = PiscesBootParams.read_from(
            machine.memory, enclave.boot_params.address
        )
        kernel = cls(machine, enclave, params)
        kernel.console.append(
            cls.BANNER.format(
                enclave_id=params.enclave_id,
                ncores=len(params.core_ids),
                mib=sum(r.size for r in params.regions) >> 20,
            )
        )
        return kernel

    def _configure_core(self, core_id: int) -> None:
        core = self.machine.core(core_id)
        assert core.apic is not None
        core.apic.configure_timer(self.TIMER_PERIOD)
        # Under native execution the kernel owns the physical delivery
        # hook; under Covirt the hypervisor owns it and calls
        # inject_interrupt.
        if core.mode is not CpuMode.GUEST:
            core.apic.delivery_hook = lambda irq, c=core_id: self.inject_interrupt(
                c, irq
            )

    def join_secondary_core(self, core_id: int) -> None:
        if core_id in self.online_cores:
            raise ValueError(f"core {core_id} already online in enclave")
        self.online_cores.append(core_id)
        self.irq_log.setdefault(core_id, [])
        self._configure_core(core_id)

    def shutdown(self) -> None:
        self.running = False

    # -- interrupts --------------------------------------------------------

    def register_irq_handler(
        self, vector: int, handler: Callable[[int, Interrupt], None]
    ) -> None:
        self._irq_handlers[vector] = handler

    def inject_interrupt(self, core_id: int, interrupt: Interrupt) -> None:
        """IRQ dispatch: called by the APIC hook (native) or by the
        Covirt delivery engine (virtualized)."""
        if not self.running:
            return
        self.irq_log.setdefault(core_id, []).append(interrupt)
        handler = self._irq_handlers.get(interrupt.vector)
        if handler is not None:
            handler(core_id, interrupt)
        apic = self.machine.core(core_id).apic
        if apic is not None and interrupt.kind is not InterruptKind.NMI:
            apic.ack(interrupt.vector)

    # -- memory ------------------------------------------------------------

    def _map(self, region: MemoryRegion) -> None:
        self.memmap.add_region(region)
        if self.pgtable is not None:
            self.pgtable.map(region.start, region.start, region.size)

    def _unmap(self, region: MemoryRegion) -> None:
        self.memmap.remove_region(region)
        if self.pgtable is not None:
            self.pgtable.unmap(region.start, region.size)

    def memory_hotplug_add(self, region: MemoryRegion) -> None:
        """Receive a page-frame list for newly granted memory."""
        self._map(region)
        self.params.regions.append(region)

    def memory_hotplug_remove(self, region: MemoryRegion) -> bool:
        """Receive and acknowledge a page-frame removal list.

        With ``buggy_cleanup`` set, the kernel acknowledges but fails to
        retire its own mappings — the stale-state bug class from the
        paper's evaluation narrative.
        """
        if region in self.params.regions:
            self.params.regions.remove(region)
        if not self.buggy_cleanup:
            self._unmap(region)
        return True  # ack

    def map_shared(self, region: MemoryRegion) -> None:
        """Install an XEMEM attachment into the kernel's mappings."""
        self._map(region)

    def unmap_shared(self, region: MemoryRegion) -> None:
        """Retire an XEMEM attachment (the ack half of detach)."""
        self._unmap(region)

    def touch(
        self, core_id: int, addr: int, length: int = 8, *, write: bool = False
    ) -> bytes | None:
        """Kernel-mode memory access.

        The kernel checks its *own* mappings and then issues the access
        through the enclave port.  When those mappings are stale, the
        kernel believes the access is fine — and only the layer
        underneath (Covirt, or nothing) decides what actually happens.
        """
        if self.pgtable is not None:
            mapped = self.pgtable.covers(addr, length)
        else:
            mapped = self.memmap.contains(addr, length)
        if not mapped:
            raise self.UNMAPPED_ERROR(self.UNMAPPED_MESSAGE.format(addr=addr))
        assert self.enclave.port is not None
        if write:
            self.enclave.port.write(core_id, addr, self.TOUCH_FILL * length)
            return None
        return self.enclave.port.read(core_id, addr, length)
