"""The Pisces kernel module: host-side enclave lifecycle and the ioctl ABI.

This is the integration surface Covirt piggy-backs on (Section IV-C):

* :class:`ControlHooks` exposes the resource-management control paths as
  callback points — memory add/remove, enclave boot, teardown — that the
  Covirt controller subscribes to;
* the boot protocol is pluggable, so Covirt can interpose its hypervisor
  into the CPU boot path;
* :meth:`PiscesKmod.ioctl` is the kernel ABI, to which Covirt registers
  a new command range.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Callable

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


class PiscesKmod:
    """The Pisces kernel module loaded into the host Linux OS."""

    MODULE_NAME = "pisces"

    def __init__(self, machine: Machine, host: LinuxHost) -> None:
        self.machine = machine
        self.host = host
        self.enclaves: dict[int, Enclave] = {}
        self._next_id = 1
        self.hooks = ControlHooks()
        self.boot_protocol: BootProtocol = NativeBootProtocol(machine)
        self._ioctl_extensions: dict[int, Callable[[Any], Any]] = {}
        host.load_module(self.MODULE_NAME, self)

    # -- ioctl ABI ---------------------------------------------------------

    def register_ioctl(self, cmd: int, handler: Callable[[Any], Any]) -> None:
        """Extend the ABI (Covirt adds its command range here)."""
        if cmd < COVIRT_IOCTL_BASE:
            raise PiscesError(f"extension ioctl {cmd} collides with base range")
        if cmd in self._ioctl_extensions:
            raise PiscesError(f"ioctl {cmd} already registered")
        self._ioctl_extensions[cmd] = handler

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
        handler = self._ioctl_extensions.get(cmd)
        if handler is None:
            raise PiscesError(f"unknown ioctl command {cmd}")
        return handler(arg)

    # -- lifecycle -----------------------------------------------------

    def enclave(self, enclave_id: int) -> Enclave:
        try:
            return self.enclaves[enclave_id]
        except KeyError:
            raise PiscesError(f"no enclave {enclave_id}") from None

    def create_enclave(self, spec: ResourceSpec) -> Enclave:
        """Partition resources out of the host and create an enclave."""
        enclave_id = self._next_id
        self._next_id += 1
        assignment = ResourceAssignment()
        offlined_cores: list[int] = []
        offlined_regions: list[MemoryRegion] = []
        try:
            for zone_id, ncores in sorted(spec.cores_per_zone.items()):
                zone_cores = [
                    c.core_id
                    for c in self.machine.cores_in_zone(zone_id)
                    if self.host.can_offline(c.core_id)
                ]
                if len(zone_cores) < ncores:
                    raise PiscesError(
                        f"zone {zone_id} has {len(zone_cores)} free cores,"
                        f" need {ncores}"
                    )
                chosen = zone_cores[:ncores]
                self.host.offline_cores(chosen)
                offlined_cores += chosen
                assignment.core_ids += chosen
            for zone_id, size in sorted(spec.mem_per_zone.items()):
                if size == 0:
                    continue
                region = self.host.offline_memory(page_align_up(size), zone_id)
                offlined_regions.append(region)
                self.machine.memory.transfer(
                    region, OFFLINE_OWNER, enclave_owner(enclave_id)
                )
                assignment.add_region(region)
        except Exception:
            # Roll back partial partitioning.
            for region in offlined_regions:
                owner = self.machine.memory.region_owner(region)
                if owner == enclave_owner(enclave_id):
                    self.machine.memory.transfer(
                        region, enclave_owner(enclave_id), OFFLINE_OWNER
                    )
                self.host.online_memory_return(region)
            if offlined_cores:
                self.host.online_cores_return(offlined_cores)
            raise
        enclave = Enclave(enclave_id, spec.name, spec, assignment)
        enclave.port = NativeAccessPort(self.machine, enclave, self.host)
        self.enclaves[enclave_id] = enclave
        return enclave

    def boot_enclave(self, enclave_id: int) -> Enclave:
        """Write boot params and bring every assigned core up."""
        enclave = self.enclave(enclave_id)
        if enclave.state is not EnclaveState.CREATED:
            raise PiscesError(f"enclave {enclave_id} already booted")
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
        ControlHooks._fire(self.hooks.post_boot, enclave)
        return enclave

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

    def terminate_enclave(self, enclave_id: int, fault: FaultRecord) -> None:
        """Fault-path termination (invoked via Covirt).

        Parks the enclave's cores and records the fault; resource
        reclamation is the master control process's job and happens via
        :meth:`reclaim_enclave`.
        """
        enclave = self.enclave(enclave_id)
        if enclave.state in (EnclaveState.DESTROYED, EnclaveState.FAILED):
            return
        enclave.state = EnclaveState.FAILED
        enclave.fault = fault
        for core_id in enclave.assignment.core_ids:
            self.machine.core(core_id).halt()

    def reclaim_enclave(self, enclave_id: int) -> None:
        """Return a dead enclave's resources to the host."""
        enclave = self.enclave(enclave_id)
        if enclave.state not in (EnclaveState.FAILED, EnclaveState.DESTROYED):
            raise PiscesError(
                f"enclave {enclave_id} is {enclave.state.value}; stop it first"
            )
        ControlHooks._fire(self.hooks.on_teardown, enclave)
        for region in list(enclave.assignment.regions):
            self.machine.memory.transfer(region, enclave.owner_label, OFFLINE_OWNER)
            self.host.online_memory_return(region)
            enclave.assignment.remove_region(region)
        self.host.online_cores_return(list(enclave.assignment.core_ids))
        enclave.assignment.core_ids.clear()

    def destroy_enclave(self, enclave_id: int) -> None:
        """Clean shutdown + reclaim, then forget the enclave.

        Dropping the registry entry lets a destroyed enclave's kernel,
        hypervisors and rings be freed with it.  ``FAILED`` enclaves
        stay registered: recovery, the oracles and post-mortems read them.
        """
        enclave = self.enclave(enclave_id)
        if enclave.state is EnclaveState.RUNNING:
            assert enclave.kernel is not None
            enclave.kernel.shutdown()
            for core_id in enclave.assignment.core_ids:
                self.machine.core(core_id).halt()
        enclave.state = EnclaveState.DESTROYED
        self.reclaim_enclave(enclave_id)
        del self.enclaves[enclave_id]
