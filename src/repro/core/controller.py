"""The Covirt controller module.

The controller is the host-side half of Covirt's split architecture
(Section IV-B).  It embeds into the Hobbes master control process and
the Pisces kernel module, hooks every control path that changes the
system-wide hardware configuration, and translates those events into
virtualization-configuration updates:

* **memory grant** (Pisces hot-add, XEMEM attach) — the controller maps
  the region into the enclave's EPT *before* the page-frame list is
  transmitted, then returns immediately: new mappings cannot be stale
  in any TLB, so no hypervisor coordination is needed;
* **memory revoke** (Pisces hot-remove, XEMEM detach) — after the
  co-kernel acknowledges, the controller unmaps the EPT and issues a
  ``MEMORY_UPDATE`` command to every enclave core (NMI doorbell), and
  only returns once each core has flushed — so memory is unreachable
  before it is reclaimed;
* **vector grant/revoke** — the controller rewrites the enclave's IPI
  whitelist directly; since the hypervisor consults the whitelist on
  every trapped ICR write, no cache synchronisation is required.

Updates are asynchronous with respect to the enclave: guest cores keep
running while the controller rewrites EPTs and whitelists, and are only
interrupted when CPU-local state must be invalidated.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Any

from repro.core.boot import CovirtBootProtocol
from repro.core.commands import CommandQueue, CommandType
from repro.core.debug import collect_dossier
from repro.core.ept_manager import EptManager
from repro.core.execution import VirtualizedAccessPort
from repro.core.faults import CovirtFault
from repro.core.features import CovirtConfig, Feature, IpiMode
from repro.core.hypervisor import CovirtHypervisor
from repro.core.ipi import IpiWhitelist
from repro.hobbes.master import MasterControlProcess
from repro.hobbes.registry import VectorGrant
from repro.hw.apic import DeliveryMode
from repro.hw.machine import Machine
from repro.hw.memory import MemoryRegion, PAGE_SIZE
from repro.linuxhost.host import OFFLINE_OWNER
from repro.obs import metric_names
from repro.perf.costs import CostModel, DEFAULT_COSTS
from repro.pisces.enclave import Enclave
from repro.pisces.kmod import COVIRT_IOCTL_BASE, CoKernelFramework
from repro.pisces.trampoline import boot_params_address_for, entry_point_for
from repro.vmx.io_bitmap import IoBitmap
from repro.vmx.msr_bitmap import MsrBitmap
from repro.vmx.posted import PostedInterruptDescriptor
from repro.vmx.vapic import VapicMode, VirtualApicPage
from repro.vmx.vmcs import ExecutionControls, GuestState, Vmcs

#: The fixed vector PIV notification IPIs use (outside the dynamic range).
PIV_NOTIFICATION_VECTOR = 242

#: Hypervisor-private pages per enclave core: command queue, Covirt boot
#: params, and the preallocated 8 KiB (2-page) stack.
PRIVATE_PAGES_PER_CORE = 4


class CovirtIoctl:
    """ioctl command range Covirt registers on the Pisces ABI."""

    STATUS = COVIRT_IOCTL_BASE + 0
    COUNTERS = COVIRT_IOCTL_BASE + 1
    PING = COVIRT_IOCTL_BASE + 2
    DOSSIER = COVIRT_IOCTL_BASE + 3


def covirt_owner(enclave_id: int) -> str:
    return f"covirt:{enclave_id}"


@dataclass
class EnclaveVirtContext:
    """Everything Covirt holds for one protected enclave."""

    enclave: Enclave
    config: CovirtConfig
    costs: CostModel
    private_region: MemoryRegion
    ept: EptManager | None = None
    whitelist: IpiWhitelist | None = None
    msr_bitmap: MsrBitmap | None = None
    io_bitmap: IoBitmap | None = None
    vmcs: dict[int, Vmcs] = field(default_factory=dict)
    queues: dict[int, CommandQueue] = field(default_factory=dict)
    hypervisors: dict[int, CovirtHypervisor] = field(default_factory=dict)
    denied_msr_writes: list[tuple[int, int, int]] = field(default_factory=list)
    denied_io: list[tuple[int, int, int, bool]] = field(default_factory=list)

    def release(self) -> None:
        """Drop the hypervisors, which refer back to this context (see
        :meth:`Enclave.release`).  One still installed on a core keeps
        working: it needs the context, not the reverse."""
        self.hypervisors = {}


class CovirtController:
    """The controller module, hooked into MCP + Pisces."""

    def __init__(
        self,
        mcp: MasterControlProcess,
        costs: CostModel = DEFAULT_COSTS,
        synchronous_updates: bool = False,
    ) -> None:
        self.mcp = mcp
        self.machine: Machine = mcp.machine
        self.costs = costs
        #: Ablation knob: when True, *every* configuration change pauses
        #: the enclave's cores for a VMCS reload (the traditional
        #: hypervisor approach the paper's asynchronous design avoids).
        self.synchronous_updates = synchronous_updates
        self.contexts: dict[int, EnclaveVirtContext] = {}
        self.fault_log: list[CovirtFault] = []
        #: Subscribers notified *after* a fault has been routed and the
        #: dead enclave's resources reclaimed — the seam the recovery
        #: supervisor (:mod:`repro.recovery.supervisor`) hangs off.
        self.fault_hooks: list = []
        #: Subscribers notified after every virtualization-configuration
        #: update the controller applies (EPT map/unmap, whitelist
        #: rewrite), with ``(tsc, detail)`` also appended to
        #: :attr:`config_log`.  The fuzz oracles use this to know an
        #: async reconfiguration happened and re-audit TLB/EPT
        #: coherence; the log length feeds the determinism fingerprint.
        self.config_hooks: list = []
        self.config_log: list[tuple[int, str]] = []
        #: Crash reports by enclave id, JSON-native dicts (see
        #: :mod:`repro.core.debug`); each is also frozen into its
        #: ``containment`` post-mortem as ``detail["dossier"]``.
        self.dossiers: dict[int, dict[str, Any]] = {}
        #: Every co-kernel framework this controller protects.
        self._frameworks: list[CoKernelFramework] = []
        self._pending_config: CovirtConfig | None = None
        # Interpose on the Pisces framework (boot path + control paths
        # + ioctl ABI).
        self.interpose_on(mcp.kmod)
        # Hobbes-level control paths (XEMEM, vector namespace).
        mcp.xemem.hooks.pre_attach.append(self._on_memory_grant)
        mcp.xemem.hooks.post_detach.append(self._on_memory_revoke)
        mcp.vectors.on_grant.append(self._on_vector_grant)
        mcp.vectors.on_revoke.append(self._on_vector_revoke)
        mcp.covirt_controller = self
        # Flight recorder: the controller owns the enclave/EPT/whitelist
        # view, so it contributes the "covirt" section of every
        # post-mortem bundle.
        self.machine.obs.flight.register_context("covirt", self.flight_summary)

    def flight_summary(self) -> dict:
        """Deterministic enclave/EPT/whitelist/queue summary for
        post-mortem bundles (must never mutate simulation state)."""
        enclaves = {}
        for eid in sorted(self.contexts):
            ctx = self.contexts[eid]
            enclaves[str(eid)] = {
                "name": ctx.enclave.name,
                "state": ctx.enclave.state.value,
                "features": ctx.config.features.value,
                "cores": sorted(ctx.enclave.assignment.core_ids),
                "ept_mapped_bytes": ctx.ept.mapped_bytes if ctx.ept else 0,
                "whitelist_pairs": (
                    sorted(ctx.whitelist.allowed_pairs())
                    if ctx.whitelist is not None
                    else []
                ),
                "pending_commands": {
                    str(core_id): [
                        cmd.type.name
                        for cmd in ctx.queues[core_id].snapshot_pending()
                    ]
                    for core_id in sorted(ctx.queues)
                },
                "terminated_cores": sorted(
                    core_id
                    for core_id, hv in ctx.hypervisors.items()
                    if hv.terminated
                ),
            }
        return {
            "enclaves": enclaves,
            "faults_logged": len(self.fault_log),
            "config_updates": len(self.config_log),
            "dossiers": sorted(str(eid) for eid in self.dossiers),
        }

    def close(self) -> None:
        """End the controller with its environment: drop its fault
        subscribers (the recovery supervisor, which refers back to it)."""
        self.fault_hooks.clear()

    def interpose_on(self, framework: CoKernelFramework) -> None:
        """Interpose Covirt on a co-kernel framework.

        Every framework shares the integration surface — a
        ``boot_protocol`` seam, a :class:`ControlHooks` instance, and a
        ``register_ioctl`` ABI — so any of them can be protected; the
        paper argues the approach generalises across co-kernel
        architectures (Section III-A), and this is that claim made
        concrete: Pisces, IHK/McKernel and mOS all plug in here.
        """
        self._frameworks.append(framework)
        framework.boot_protocol = CovirtBootProtocol(
            self.machine, self, framework.boot_protocol
        )
        framework.hooks.pre_boot.append(self._on_pre_boot)
        framework.hooks.pre_memory_add.append(self._on_memory_grant)
        framework.hooks.post_memory_remove.append(self._on_memory_revoke)
        framework.hooks.on_teardown.append(self._on_teardown)
        framework.register_ioctl(CovirtIoctl.STATUS, self._ioctl_status)
        framework.register_ioctl(CovirtIoctl.COUNTERS, self._ioctl_counters)
        framework.register_ioctl(CovirtIoctl.PING, self._ioctl_ping)
        framework.register_ioctl(CovirtIoctl.DOSSIER, self._ioctl_dossier)

    # -- public API ------------------------------------------------------

    def launch(self, spec, config: CovirtConfig | None) -> Enclave:
        """Launch a Pisces/Hobbes enclave, protected iff ``config``."""
        with self.machine.obs.tracer.span(
            "controller.launch",
            category="controller",
            track="controller",
            spec_name=getattr(spec, "name", ""),
            protected=config is not None,
        ):
            return self.launch_via(
                lambda: self.mcp.launch_enclave(spec), config
            )

    def launch_via(self, boot_callable, config: CovirtConfig | None):
        """Run any framework's create+boot path with a pending Covirt
        configuration armed (None = native)."""
        self._pending_config = config
        try:
            return boot_callable()
        finally:
            self._pending_config = None

    def context_for(self, enclave_id: int) -> EnclaveVirtContext | None:
        return self.contexts.get(enclave_id)

    # -- boot-time context construction ---------------------------------

    def _on_pre_boot(self, enclave: Enclave) -> None:
        config = self._pending_config
        if config is None:
            return  # native launch: Covirt stays out of the way
        ctx = self._build_context(enclave, config)
        self.contexts[enclave.enclave_id] = ctx
        enclave.virt_context = ctx
        enclave.port = VirtualizedAccessPort(self.machine, ctx)

    def _build_context(
        self, enclave: Enclave, config: CovirtConfig
    ) -> EnclaveVirtContext:
        ncores = len(enclave.assignment.core_ids)
        private = self.mcp.host.offline_memory(
            ncores * PRIVATE_PAGES_PER_CORE * PAGE_SIZE, zone_id=0
        )
        self.machine.memory.transfer(
            private, OFFLINE_OWNER, covirt_owner(enclave.enclave_id)
        )
        ctx = EnclaveVirtContext(
            enclave=enclave,
            config=config,
            costs=self.costs,
            private_region=private,
        )
        if config.has(Feature.MEMORY):
            ctx.ept = EptManager(coalesce=config.ept_coalescing)
            ctx.ept.build_identity(enclave.assignment.regions)
        if config.has(Feature.IPI):
            ctx.whitelist = IpiWhitelist()
        if config.has(Feature.MSR):
            ctx.msr_bitmap = MsrBitmap(trap_by_default=True)
        if config.has(Feature.IOPORT):
            ctx.io_bitmap = IoBitmap(trap_by_default=True)
        vapic_mode = VapicMode.DISABLED
        if config.has(Feature.IPI):
            vapic_mode = (
                VapicMode.POSTED
                if config.effective_ipi_mode is IpiMode.POSTED
                else VapicMode.TRAP
            )
        assert enclave.boot_params is not None
        for idx, core_id in enumerate(enclave.assignment.core_ids):
            base = private.start + idx * PRIVATE_PAGES_PER_CORE * PAGE_SIZE
            queue = CommandQueue(self.machine.memory, base)
            vmcs = Vmcs(
                core_id=core_id,
                guest=GuestState(
                    entry_point=entry_point_for(enclave),
                    boot_params_gpa=boot_params_address_for(enclave),
                ),
                controls=ExecutionControls(
                    external_interrupt_exiting=vapic_mode is not VapicMode.DISABLED,
                    nmi_exiting=True,
                    use_msr_bitmap=config.has(Feature.MSR),
                    use_io_bitmap=config.has(Feature.IOPORT),
                    enable_ept=config.has(Feature.MEMORY),
                    vapic_mode=vapic_mode,
                ),
                ept=ctx.ept.table if ctx.ept is not None else None,
                msr_bitmap=ctx.msr_bitmap,
                io_bitmap=ctx.io_bitmap,
            )
            if vapic_mode is not VapicMode.DISABLED:
                vmcs.vapic_page = VirtualApicPage(core_id)
            if vapic_mode is VapicMode.POSTED:
                vmcs.pi_descriptor = PostedInterruptDescriptor(
                    PIV_NOTIFICATION_VECTOR
                )
            hv = CovirtHypervisor(
                machine=self.machine,
                core=self.machine.core(core_id),
                ctx=ctx,
                vmcs=vmcs,
                queue=queue,
                stack_addr=base + 2 * PAGE_SIZE,
                costs=self.costs,
            )
            hv.fault_sink = self._on_fault
            ctx.vmcs[core_id] = vmcs
            ctx.queues[core_id] = queue
            ctx.hypervisors[core_id] = hv
        return ctx

    # -- dynamic memory configuration -------------------------------------

    def _note_config(self, detail: str) -> None:
        self.config_log.append((self.machine.clock.now, detail))
        kind = detail.split(" ", 1)[0]
        self.machine.obs.metrics.counter(
            metric_names.CONFIG_UPDATES, "controller configuration rewrites"
        ).inc(kind=kind)
        self.machine.obs.tracer.instant(
            f"controller.config.{kind}",
            category="config",
            track="controller",
            detail=detail,
        )
        for hook in list(self.config_hooks):
            hook(self.machine.clock.now, detail)

    def _on_memory_grant(self, enclave: Enclave, region: MemoryRegion) -> None:
        """Expansion: map first, return immediately (no coordination)."""
        ctx = self.contexts.get(enclave.enclave_id)
        if ctx is None or ctx.ept is None:
            return
        ctx.ept.map_region(region)
        self._note_config(
            f"ept-map enclave {enclave.enclave_id} "
            f"[{region.start:#x}+{region.size:#x}]"
        )
        for vmcs in ctx.vmcs.values():
            vmcs.touch()
        if self.synchronous_updates:
            # Ablation: the conventional approach interrupts every core
            # to activate even grow-only changes.
            self.issue_command(ctx, CommandType.VMCS_RELOAD)

    def _on_memory_revoke(self, enclave: Enclave, region: MemoryRegion) -> None:
        """Shrink: unmap, then force every enclave core to flush before
        the operation is allowed to complete."""
        ctx = self.contexts.get(enclave.enclave_id)
        if ctx is None or ctx.ept is None:
            return
        ctx.ept.unmap_region(region)
        self._note_config(
            f"ept-unmap enclave {enclave.enclave_id} "
            f"[{region.start:#x}+{region.size:#x}]"
        )
        for vmcs in ctx.vmcs.values():
            vmcs.touch()
        self.issue_memory_update(ctx)

    def issue_memory_update(self, ctx: EnclaveVirtContext) -> int:
        """Enqueue MEMORY_UPDATE on every core and ring the NMI doorbell;
        blocks (synchronously, as the paper's unmap path does) until each
        core has completed its flush.  Returns cores updated."""
        return self.issue_command(ctx, CommandType.MEMORY_UPDATE)

    def issue_command(self, ctx: EnclaveVirtContext, ctype: CommandType) -> int:
        """Send a command to every live core of an enclave and wait for
        completion.  The doorbell is a real NMI IPI: delivery invokes
        the hypervisor's service loop on the target core."""
        with self.machine.obs.tracer.span(
            f"controller.command.{ctype.name.lower()}",
            category="controller",
            track="controller",
            enclave=ctx.enclave.enclave_id,
        ) as span:
            updated = 0
            for core_id in ctx.queues:
                if ctx.hypervisors[core_id].terminated:
                    continue
                self.issue_command_to(ctx, core_id, ctype)
                updated += 1
            span.args["cores"] = updated
        if ctype is CommandType.MEMORY_UPDATE:
            self.machine.obs.metrics.histogram(
                metric_names.SHOOTDOWN_FANOUT,
                "cores interrupted per TLB-shootdown drain",
                buckets=(1, 2, 4, 8, 16, 32, 64),
            ).observe(updated)
        return updated

    def issue_command_to(
        self, ctx: EnclaveVirtContext, core_id: int, ctype: CommandType
    ) -> None:
        """Send one command to one live enclave core and wait for it.
        (Recovery replay uses this to re-issue checkpointed commands on
        the specific core they were pending on.)"""
        host_core = min(self.mcp.host.online_cores)
        host_apic = self.machine.core(host_core).apic
        assert host_apic is not None
        queue = ctx.queues[core_id]
        cmd = queue.enqueue(ctype)
        host_apic.write_icr(core_id, 2, DeliveryMode.NMI)
        if not queue.is_completed(cmd):
            raise RuntimeError(
                f"core {core_id} failed to service {ctype.name}"
            )

    # -- vector namespace --------------------------------------------------

    def _on_vector_grant(self, grant: VectorGrant) -> None:
        for sender_id in grant.allowed_senders:
            ctx = self.contexts.get(sender_id)
            if ctx is not None and ctx.whitelist is not None:
                ctx.whitelist.allow(grant.dest_core, grant.vector)
                self._note_config(
                    f"whitelist-allow sender {sender_id} "
                    f"→ core {grant.dest_core} vec {grant.vector}"
                )

    def _on_vector_revoke(self, grant: VectorGrant) -> None:
        for sender_id in grant.allowed_senders:
            ctx = self.contexts.get(sender_id)
            if ctx is not None and ctx.whitelist is not None:
                ctx.whitelist.revoke(grant.dest_core, grant.vector)
                self._note_config(
                    f"whitelist-revoke sender {sender_id} "
                    f"→ core {grant.dest_core} vec {grant.vector}"
                )

    # -- fault path --------------------------------------------------------

    def _on_fault(self, fault: CovirtFault) -> None:
        """A hypervisor terminated its guest: collect the debugging
        dossier, log, tell the MCP to reclaim + notify dependents, and
        finally hand the fault to any recovery subscribers."""
        with self.machine.obs.tracer.span(
            "controller.fault",
            category="controller",
            track="controller",
            kind=fault.kind.value,
            enclave=fault.enclave_id,
        ):
            self.fault_log.append(fault)
            ctx = self.contexts.get(fault.enclave_id)
            dossier = None
            if ctx is not None:
                # Park the sibling hypervisors too (the whole enclave dies).
                for hv in ctx.hypervisors.values():
                    hv.terminated = True
                # The state a developer gets instead of a dead node.
                dossier = collect_dossier(ctx, fault)
                self.dossiers[fault.enclave_id] = dossier
            # Containment post-mortem: ring tail + metrics + state
            # summary + the dossier, frozen while the dead enclave's
            # context is still in hand.
            self.machine.obs.flight.postmortem(
                "containment",
                fault.detail,
                kind=fault.kind.value,
                enclave=fault.enclave_id,
                core=fault.core_id,
                dossier=dossier,
            )
            self._route_termination(fault)
            # Only after routing: by now the enclave's resources are back in
            # the host pool, which is the state recovery needs to start from.
            for hook in list(self.fault_hooks):
                hook(fault)

    def _route_termination(self, fault: CovirtFault) -> None:
        """Route termination to whichever framework owns the partition.

        Pisces enclaves fail through the Hobbes MCP, which also severs
        their dependencies; another framework terminates its own.
        """
        if fault.enclave_id in self.mcp.kmod.enclaves:
            self.mcp.enclave_failed(fault.enclave_id, fault.to_record())
            return
        for framework in self._frameworks:
            if fault.enclave_id in framework.enclaves:
                framework.terminate_enclave(fault.enclave_id, fault.to_record())
                return

    # -- teardown ------------------------------------------------------

    def _on_teardown(self, enclave: Enclave) -> None:
        ctx = self.contexts.pop(enclave.enclave_id, None)
        if ctx is None:
            return
        self.machine.memory.transfer(
            ctx.private_region, covirt_owner(enclave.enclave_id), OFFLINE_OWNER
        )
        self.mcp.host.online_memory_return(ctx.private_region)

    # -- ioctl surface ---------------------------------------------------

    def _ioctl_status(self, enclave_id: int) -> dict:
        ctx = self.contexts.get(enclave_id)
        if ctx is None:
            return {"protected": False}
        return {
            "protected": True,
            "features": ctx.config.features,
            "ipi_mode": ctx.config.effective_ipi_mode.value,
            "ept_mapped_bytes": ctx.ept.mapped_bytes if ctx.ept else 0,
            "terminated": any(h.terminated for h in ctx.hypervisors.values()),
        }

    def _ioctl_counters(self, enclave_id: int) -> dict[str, Any]:
        """The enclave's hypervisor counts, from the machine's registry
        (:meth:`~repro.obs.metrics.MetricsRegistry.hypervisor_counts`)."""
        if enclave_id not in self.contexts:
            raise KeyError(f"enclave {enclave_id} is not protected")
        return self.machine.obs.metrics.hypervisor_counts(enclave=enclave_id)

    def _ioctl_dossier(self, enclave_id: int) -> dict[str, Any]:
        """Fetch a copy of the crash report for a terminated enclave (the
        kept dossier is also the ``containment`` post-mortem's, which
        renders it later, so callers must not reach the original)."""
        dossier = self.dossiers.get(enclave_id)
        if dossier is None:
            raise KeyError(f"no fault dossier for enclave {enclave_id}")
        return copy.deepcopy(dossier)

    def _ioctl_ping(self, enclave_id: int) -> int:
        """Liveness check through the full command path."""
        ctx = self.contexts.get(enclave_id)
        if ctx is None:
            raise KeyError(f"enclave {enclave_id} is not protected")
        host_core = min(self.mcp.host.online_cores)
        host_apic = self.machine.core(host_core).apic
        assert host_apic is not None
        answered = 0
        for core_id, queue in ctx.queues.items():
            if ctx.hypervisors[core_id].terminated:
                continue
            cmd = queue.enqueue(CommandType.PING)
            host_apic.write_icr(core_id, 2, DeliveryMode.NMI)
            if queue.is_completed(cmd):
                answered += 1
        return answered
