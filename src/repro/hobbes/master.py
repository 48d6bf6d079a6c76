"""The Hobbes master control process (MCP).

The MCP is the host-side brain of the co-kernel system: it drives
enclave lifecycle through the Pisces kernel module, owns the global
vector namespace and the XEMEM service, runs the syscall-forwarding
proxy, and — critically for Covirt — is the component whose control
paths the Covirt controller module hooks into.

It is also the fault-handling authority: when a Covirt hypervisor
terminates an enclave, the MCP reclaims the enclave's resources and
notifies every component that had dependencies on it (Section IV-B).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.hobbes.channels import CommandChannel
from repro.hobbes.client import HobbesClient
from repro.hobbes.forwarding import SyscallForwarder
from repro.hobbes.registry import VectorAllocator
from repro.hw.machine import Machine
from repro.kitten.syscalls import SyscallError
from repro.linuxhost.host import LinuxHost
from repro.perf.costs import CostModel, DEFAULT_COSTS
from repro.pisces.enclave import Enclave, EnclaveState, FaultRecord
from repro.pisces.kmod import PiscesKmod
from repro.pisces.resources import ResourceSpec
from repro.xemem.api import XememHooks, XememService
from repro.xemem.segment import HOST_ENCLAVE_ID


@dataclass
class DependentNotification:
    """Record of a dependency-failure notification sent by the MCP."""

    enclave_id: int  # the notified party (HOST_ENCLAVE_ID for the host)
    about_enclave_id: int  # the failed party
    what: str


class MasterControlProcess:
    """The Hobbes MCP."""

    def __init__(
        self,
        machine: Machine,
        host: LinuxHost,
        costs: CostModel = DEFAULT_COSTS,
    ) -> None:
        self.machine = machine
        self.host = host
        self.kmod = PiscesKmod(machine, host)
        self.vectors = VectorAllocator()
        self.xemem = XememService(machine, self.kmod.enclaves.get, costs=costs)
        self.forwarder = SyscallForwarder()
        self.channels: dict[int, CommandChannel] = {}
        self.notifications: list[DependentNotification] = []
        #: Fired (enclave_id, FaultRecord) after :meth:`enclave_failed`
        #: has severed dependencies and reclaimed resources.  The
        #: recovery supervisor subscribes here (in addition to the
        #: Covirt controller's fault hook) so terminations that never
        #: passed through a hypervisor are still supervised.
        self.on_enclave_failed: list[Any] = []
        #: Slot the Covirt controller occupies once activated.
        self.covirt_controller: Any = None

    def close(self) -> None:
        """End the MCP with its environment: close the kernel module and
        drop what the layers above registered here (failure subscribers,
        the Covirt controller's slot, its XEMEM and vector hooks)."""
        self.kmod.close()
        self.on_enclave_failed.clear()
        self.covirt_controller = None
        self.xemem.hooks = XememHooks()
        self.vectors.on_grant.clear()
        self.vectors.on_revoke.clear()

    def _host_core(self) -> int:
        return min(self.host.online_cores)

    # -- lifecycle -----------------------------------------------------

    def launch_enclave(self, spec: ResourceSpec) -> Enclave:
        """create → boot → wire the runtime (channel + client)."""
        enclave = self.kmod.create_enclave(spec)
        self.kmod.boot_enclave(enclave.enclave_id)
        self._wire_runtime(enclave)
        return enclave

    def _wire_runtime(self, enclave: Enclave) -> None:
        host_core = self._host_core()
        enclave_bsp = enclave.assignment.core_ids[0]
        to_enclave = self.vectors.allocate(
            dest_core=enclave_bsp,
            dest_enclave_id=enclave.enclave_id,
            allowed_senders={HOST_ENCLAVE_ID},
            purpose=f"channel doorbell → enclave {enclave.enclave_id}",
        )
        to_host = self.vectors.allocate(
            dest_core=host_core,
            dest_enclave_id=HOST_ENCLAVE_ID,
            allowed_senders={enclave.enclave_id},
            purpose=f"channel doorbell → host from enclave {enclave.enclave_id}",
        )
        channel = CommandChannel(
            self.machine, enclave, host_core, to_enclave, to_host
        )
        self.channels[enclave.enclave_id] = channel
        assert enclave.kernel is not None
        enclave.kernel.hobbes_client = HobbesClient(self, enclave, channel)

    def shutdown_enclave(self, enclave_id: int) -> None:
        """Orderly teardown of a running enclave."""
        self._release_dependencies(enclave_id, notify=False)
        self.kmod.destroy_enclave(enclave_id)

    # -- syscall forwarding ---------------------------------------------

    def service_forwarding(self, channel: CommandChannel) -> Any:
        """Drain one forwarded syscall from a channel and execute it."""
        msg = channel.host_recv()
        if msg is None:
            raise SyscallError(5, "forwarding: empty channel")  # EIO
        _tid, syscall, args = msg.payload
        return self.forwarder.execute(syscall, args)

    # -- fault handling ------------------------------------------------

    def enclave_failed(self, enclave_id: int, fault: FaultRecord) -> list[
        DependentNotification
    ]:
        """A Covirt hypervisor terminated an enclave.

        The MCP (1) ensures the enclave is parked, (2) severs every
        dependency other components had on it — channels, XEMEM
        segments, vector grants — notifying the dependents, and
        (3) reclaims the hardware resources back to the host.
        Returns the notifications sent.
        """
        enclave = self.kmod.enclave(enclave_id)
        if enclave.state is not EnclaveState.FAILED:
            self.kmod.terminate_enclave(enclave_id, fault)
        before = len(self.notifications)
        self._release_dependencies(enclave_id, notify=True)
        self.kmod.reclaim_enclave(enclave_id)
        sent = self.notifications[before:]
        for hook in list(self.on_enclave_failed):
            hook(enclave_id, fault)
        return sent

    def relaunch_enclave(self, spec: ResourceSpec) -> Enclave:
        """Launch a successor enclave for a failed service.

        Identical to :meth:`launch_enclave` today — the point of the
        separate entry is that relaunches go through the *same* create →
        boot → wire path as first launches (so Covirt interposition,
        channel doorbells, and registry wiring are all re-established),
        which is what makes a recovered enclave indistinguishable from a
        fresh one.
        """
        return self.launch_enclave(spec)

    def notify_recovered(
        self, enclave_id: int, about_enclave_id: int, what: str
    ) -> DependentNotification:
        """Tell a dependent that a service it was told had died is back
        (the counterpart of the failure notifications above)."""
        note = DependentNotification(enclave_id, about_enclave_id, what)
        self.notifications.append(note)
        return note

    def dependents_notified_about(self, enclave_id: int) -> list[int]:
        """Who was told ``enclave_id`` failed (for re-notification)."""
        seen: list[int] = []
        for note in self.notifications:
            if note.about_enclave_id == enclave_id and note.enclave_id not in seen:
                seen.append(note.enclave_id)
        return seen

    def _release_dependencies(self, enclave_id: int, *, notify: bool) -> None:
        # 1. Channels.
        channel = self.channels.pop(enclave_id, None)
        if channel is not None:
            channel.close()
            if notify:
                self.notifications.append(
                    DependentNotification(
                        HOST_ENCLAVE_ID, enclave_id, "channel closed"
                    )
                )
        # 2. Segments the dead enclave had attached: detach bookkeeping.
        for segment in self.xemem.names.segments_attached_by(enclave_id):
            segment.detach_for(enclave_id)
        # 3. Segments the dead enclave owned: every attacher must drop
        #    them (proper detach path, so memmaps and EPTs stay in sync).
        for segment in self.xemem.names.segments_owned_by(enclave_id):
            for attacher_id in list(segment.attachments):
                self.xemem.detach(attacher_id, segment.segid)
                if notify:
                    self.notifications.append(
                        DependentNotification(
                            attacher_id,
                            enclave_id,
                            f"segment {segment.name!r} revoked",
                        )
                    )
            self.xemem.names.unregister(segment.segid)
        # 4. Vector grants naming the enclave.
        for grant in self.vectors.grants_involving(enclave_id):
            self.vectors.revoke(grant)
            if notify and grant.dest_enclave_id != enclave_id:
                self.notifications.append(
                    DependentNotification(
                        grant.dest_enclave_id,
                        enclave_id,
                        f"vector {grant.vector}@core{grant.dest_core} revoked",
                    )
                )
