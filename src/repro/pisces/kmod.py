"""The Pisces kernel module: host-side enclave lifecycle and the ioctl ABI.

This is the integration surface Covirt piggy-backs on (Section IV-C):

* :class:`ControlHooks` exposes the resource-management control paths as
  callback points — memory add/remove, enclave boot, teardown — that the
  Covirt controller subscribes to;
* the boot protocol is pluggable, so Covirt can interpose its hypervisor
  into the CPU boot path;
* :meth:`PiscesKmod.ioctl` is the kernel ABI, to which Covirt registers
  a new command range.

:class:`CoKernelFramework` owns that surface and the partition
lifecycle behind it (carve-out, boot, halt, reclaim) once, for Pisces
and for the IHK and mOS frameworks alike.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Callable, ClassVar

from repro.hw.machine import Machine
from repro.hw.memory import MemoryRegion, page_align_up
from repro.linuxhost.host import LinuxHost, OFFLINE_OWNER
from repro.pisces.bootparams import PiscesBootParams
from repro.pisces.enclave import Enclave, EnclaveState, FaultRecord, NativeAccessPort
from repro.pisces.resources import ResourceAssignment, ResourceSpec, enclave_owner
from repro.pisces.trampoline import (
    BootProtocol,
    NativeBootProtocol,
    boot_params_address_for,
)


class PiscesIoctl(enum.IntEnum):
    """Base Pisces ioctl commands."""

    CREATE_ENCLAVE = 100
    BOOT_ENCLAVE = 101
    DESTROY_ENCLAVE = 102
    ADD_MEMORY = 103
    REMOVE_MEMORY = 104
    ENCLAVE_STATUS = 105


#: First command id of the range Covirt's extension registers.
COVIRT_IOCTL_BASE = 200


class PiscesError(Exception):
    """Kernel-module level failure (bad enclave id, bad state, ...)."""


@dataclass
class ControlHooks:
    """Callback points on the resource-management control paths.

    Hook signatures:

    * ``pre_memory_add(enclave, region)`` — before the page-frame list is
      transmitted to the co-kernel (Covirt maps the EPT here, so memory
      is *mapped before the guest learns about it*).
    * ``post_memory_remove(enclave, region)`` — after the co-kernel has
      acknowledged removal but before completion is reported upward
      (Covirt unmaps the EPT and flushes TLBs here, so memory is
      *unreachable before it is reclaimed*).
    * ``pre_boot(enclave)`` / ``post_boot(enclave)``
    * ``on_teardown(enclave)`` — enclave resources about to be reclaimed.
    """

    pre_memory_add: list[Callable[[Enclave, MemoryRegion], None]] = field(
        default_factory=list
    )
    post_memory_remove: list[Callable[[Enclave, MemoryRegion], None]] = field(
        default_factory=list
    )
    pre_boot: list[Callable[[Enclave], None]] = field(default_factory=list)
    post_boot: list[Callable[[Enclave], None]] = field(default_factory=list)
    on_teardown: list[Callable[[Enclave], None]] = field(default_factory=list)

    @staticmethod
    def _fire(hooks: list[Callable[..., None]], *args: Any) -> None:
        for hook in hooks:
            hook(*args)


class CoKernelFramework:
    """The partition lifecycle every co-kernel framework shares.

    Pisces, IHK and mOS each carve cores and memory out of Linux, boot a
    co-kernel on them, halt it on a fault and hand the resources back;
    they differ in their verbs, ids and errors.  This base owns the
    shared part and the surface Covirt interposes on (``hooks``,
    ``boot_protocol``, :meth:`register_ioctl`).  A framework sets
    :attr:`MODULE_NAME` and :attr:`ERROR`, allocates its own ids, and
    adds its wiring in :meth:`_wire`.
    """

    MODULE_NAME: ClassVar[str]
    #: The framework's error type, raised for every failure it reports.
    ERROR: ClassVar[type[Exception]]

    def __init__(self, machine: Machine, host: LinuxHost) -> None:
        self.machine = machine
        self.host = host
        #: Live and failed partitions, by enclave id.
        self.enclaves: dict[int, Enclave] = {}
        self.hooks = ControlHooks()
        self.boot_protocol: BootProtocol = NativeBootProtocol(machine)
        self._ioctl_extensions: dict[int, Callable[[Any], Any]] = {}
        host.load_module(self.MODULE_NAME, self)

    # -- ioctl ABI ---------------------------------------------------------

    def register_ioctl(self, cmd: int, handler: Callable[[Any], Any]) -> None:
        """Extend the ABI (Covirt adds its command range here)."""
        if cmd < COVIRT_IOCTL_BASE:
            raise self.ERROR(f"extension ioctl {cmd} collides with base range")
        if cmd in self._ioctl_extensions:
            raise self.ERROR(f"ioctl {cmd} already registered")
        self._ioctl_extensions[cmd] = handler

    def ioctl(self, cmd: int, arg: Any = None) -> Any:
        """Dispatch an extension command; a framework with base commands
        handles those first."""
        handler = self._ioctl_extensions.get(cmd)
        if handler is None:
            raise self.ERROR(f"unknown ioctl command {cmd}")
        return handler(arg)

    # -- lifecycle -----------------------------------------------------

    def enclave(self, enclave_id: int) -> Enclave:
        try:
            return self.enclaves[enclave_id]
        except KeyError:
            raise self.ERROR(f"no enclave {enclave_id}") from None

    def _create(self, enclave_id: int, spec: ResourceSpec) -> Enclave:
        """Partition the spec's cores and memory out of the host.

        Memory is taken zone by zone in the spec's order, so the first
        zone's region is ``regions[0]``, the boot region the boot
        parameters and the kernel image go into.  Zones asking for no
        memory are skipped.  If any zone comes up short, everything
        taken so far goes back to the host first.
        """
        owner = enclave_owner(enclave_id)
        assignment = ResourceAssignment()
        taken_regions: list[MemoryRegion] = []
        try:
            for zone_id, ncores in sorted(spec.cores_per_zone.items()):
                zone_cores = [
                    c.core_id
                    for c in self.machine.cores_in_zone(zone_id)
                    if self.host.can_offline(c.core_id)
                ]
                if len(zone_cores) < ncores:
                    raise self.ERROR(
                        f"zone {zone_id} has {len(zone_cores)} free cores,"
                        f" need {ncores}"
                    )
                chosen = zone_cores[:ncores]
                self.host.offline_cores(chosen)
                assignment.core_ids += chosen
            for zone_id, size in spec.mem_per_zone.items():
                if size == 0:
                    continue
                region = self.host.offline_memory(page_align_up(size), zone_id)
                taken_regions.append(region)
                self.machine.memory.transfer(region, OFFLINE_OWNER, owner)
                assignment.add_region(region)
        except Exception:
            # Roll back partial partitioning.
            for region in taken_regions:
                if self.machine.memory.region_owner(region) == owner:
                    self.machine.memory.transfer(region, owner, OFFLINE_OWNER)
                self.host.online_memory_return(region)
            if assignment.core_ids:
                self.host.online_cores_return(assignment.core_ids)
            raise
        enclave = Enclave(enclave_id, spec.name, spec, assignment)
        enclave.port = NativeAccessPort(self.machine, enclave, self.host)
        self.enclaves[enclave_id] = enclave
        return enclave

    def _boot(self, enclave: Enclave) -> Enclave:
        """Write boot params and bring every assigned core up."""
        enclave.state = EnclaveState.BOOTING
        params = PiscesBootParams(
            enclave_id=enclave.enclave_id,
            core_ids=list(enclave.assignment.core_ids),
            regions=list(enclave.assignment.regions),
        )
        params.write_to(self.machine.memory, boot_params_address_for(enclave))
        enclave.boot_params = params
        ControlHooks._fire(self.hooks.pre_boot, enclave)
        bsp, *aps = enclave.assignment.core_ids
        self.boot_protocol.boot_core(enclave, bsp, is_bsp=True)
        for core_id in aps:
            self.boot_protocol.boot_core(enclave, core_id, is_bsp=False)
        enclave.state = EnclaveState.RUNNING
        self._wire(enclave)
        ControlHooks._fire(self.hooks.post_boot, enclave)
        return enclave

    def _wire(self, enclave: Enclave) -> None:
        """Framework-specific wiring of a booted kernel, before
        ``post_boot`` fires."""

    def _halt_cores(self, enclave: Enclave) -> None:
        for core_id in enclave.assignment.core_ids:
            self.machine.core(core_id).halt()

    def _shut_down(self, enclave: Enclave) -> None:
        """Orderly stop of a running partition's kernel and cores."""
        if enclave.state is EnclaveState.RUNNING:
            assert enclave.kernel is not None
            enclave.kernel.shutdown()
            self._halt_cores(enclave)

    def terminate_enclave(self, enclave_id: int, fault: FaultRecord) -> bool:
        """Fault-path termination (invoked via Covirt).

        Parks the partition's cores and records the fault; returns False
        if it was already stopped.
        """
        enclave = self.enclave(enclave_id)
        if enclave.state in (EnclaveState.DESTROYED, EnclaveState.FAILED):
            return False
        enclave.state = EnclaveState.FAILED
        enclave.fault = fault
        self._halt_cores(enclave)
        return True

    def _reclaim(self, enclave: Enclave) -> None:
        """Return a stopped partition's resources to the host."""
        ControlHooks._fire(self.hooks.on_teardown, enclave)
        for region in list(enclave.assignment.regions):
            self.machine.memory.transfer(region, enclave.owner_label, OFFLINE_OWNER)
            self.host.online_memory_return(region)
            enclave.assignment.remove_region(region)
        self.host.online_cores_return(list(enclave.assignment.core_ids))
        enclave.assignment.core_ids.clear()

    def _destroy(self, enclave: Enclave) -> None:
        """Clean shutdown + reclaim, then forget the partition.

        Dropping the registry entry and releasing the partition's
        software (:meth:`Enclave.release`) lets reference counting free
        its kernel, hypervisors and rings as soon as nothing else holds
        them.  ``FAILED`` partitions that nobody destroys stay
        registered, whole: recovery, the oracles and post-mortems read
        them.  :meth:`close` releases them.
        """
        self._shut_down(enclave)
        enclave.state = EnclaveState.DESTROYED
        self._reclaim(enclave)
        del self.enclaves[enclave.enclave_id]
        enclave.release()

    def close(self) -> None:
        """End the framework with its environment: release every
        partition still registered, and drop what the layers above
        hooked into it (control hooks, ioctl extensions, an interposed
        boot protocol) and its entry in the host's module table."""
        for enclave in self.enclaves.values():
            enclave.release()
        self.hooks = ControlHooks()
        self._ioctl_extensions.clear()
        self.boot_protocol = NativeBootProtocol(self.machine)
        self.host.modules.pop(self.MODULE_NAME, None)


class PiscesKmod(CoKernelFramework):
    """The Pisces kernel module loaded into the host Linux OS."""

    MODULE_NAME = "pisces"
    ERROR = PiscesError

    def __init__(self, machine: Machine, host: LinuxHost) -> None:
        super().__init__(machine, host)
        self._next_id = 1

    # -- ioctl ABI ---------------------------------------------------------

    def ioctl(self, cmd: int, arg: Any = None) -> Any:
        """Dispatch a command exactly as the character device would."""
        if cmd == PiscesIoctl.CREATE_ENCLAVE:
            return self.create_enclave(arg)
        if cmd == PiscesIoctl.BOOT_ENCLAVE:
            return self.boot_enclave(arg)
        if cmd == PiscesIoctl.DESTROY_ENCLAVE:
            return self.destroy_enclave(arg)
        if cmd == PiscesIoctl.ADD_MEMORY:
            enclave_id, size, zone = arg
            return self.add_memory(enclave_id, size, zone)
        if cmd == PiscesIoctl.REMOVE_MEMORY:
            enclave_id, region = arg
            return self.remove_memory(enclave_id, region)
        if cmd == PiscesIoctl.ENCLAVE_STATUS:
            return self.enclave(arg).state
        return super().ioctl(cmd, arg)

    # -- lifecycle -----------------------------------------------------

    def create_enclave(self, spec: ResourceSpec) -> Enclave:
        """Partition resources out of the host and create an enclave.
        The id is consumed even when partitioning fails."""
        enclave_id = self._next_id
        self._next_id += 1
        return self._create(enclave_id, spec)

    def boot_enclave(self, enclave_id: int) -> Enclave:
        """Write boot params and bring every assigned core up."""
        # Defined here rather than inherited: perfbench/layers.py traces
        # ``PiscesKmod.boot_enclave`` by reading it from this class's
        # __dict__.
        enclave = self.enclave(enclave_id)
        if enclave.state is not EnclaveState.CREATED:
            raise PiscesError(f"enclave {enclave_id} already booted")
        return self._boot(enclave)

    # -- dynamic memory (the paths Covirt watches) -------------------------

    def add_memory(self, enclave_id: int, size: int, zone_id: int) -> MemoryRegion:
        """Hot-add memory to a running enclave.

        Order matters and is load-bearing: the ``pre_memory_add`` hook
        fires *before* the page-frame list is transmitted, so under
        Covirt the EPT mapping exists before the co-kernel can touch the
        new memory.
        """
        enclave = self.enclave(enclave_id)
        enclave.require_running()
        region = self.host.offline_memory(page_align_up(size), zone_id)
        self.machine.memory.transfer(region, OFFLINE_OWNER, enclave.owner_label)
        ControlHooks._fire(self.hooks.pre_memory_add, enclave, region)
        # Transmit the page-frame list to the co-kernel.
        assert enclave.kernel is not None
        enclave.kernel.memory_hotplug_add(region)
        enclave.assignment.add_region(region)
        return region

    def remove_memory(self, enclave_id: int, region: MemoryRegion) -> None:
        """Hot-remove memory from a running enclave.

        The co-kernel acknowledges removal first; only then does the
        ``post_memory_remove`` hook fire (Covirt unmaps + flushes) and
        only after *that* does the memory return to the host — so a
        correctly ordered stack never lets reclaimed memory stay
        guest-reachable.
        """
        enclave = self.enclave(enclave_id)
        enclave.require_running()
        if region not in enclave.assignment.regions:
            raise PiscesError(f"{region} is not assigned to enclave {enclave_id}")
        assert enclave.kernel is not None
        enclave.kernel.memory_hotplug_remove(region)  # transmit + ack
        ControlHooks._fire(self.hooks.post_memory_remove, enclave, region)
        enclave.assignment.remove_region(region)
        self.machine.memory.transfer(region, enclave.owner_label, OFFLINE_OWNER)
        self.host.online_memory_return(region)

    # -- teardown ------------------------------------------------------

    def reclaim_enclave(self, enclave_id: int) -> None:
        """Return a dead enclave's resources to the host.

        On the fault path :meth:`terminate_enclave` only parks the cores;
        reclamation is the master control process's job and happens here.
        """
        enclave = self.enclave(enclave_id)
        if enclave.state not in (EnclaveState.FAILED, EnclaveState.DESTROYED):
            raise PiscesError(
                f"enclave {enclave_id} is {enclave.state.value}; stop it first"
            )
        self._reclaim(enclave)

    def destroy_enclave(self, enclave_id: int) -> None:
        """Clean shutdown + reclaim, then forget the enclave."""
        self._destroy(self.enclave(enclave_id))
