"""The Covirt hypervisor: one instance per enclave CPU.

In practice the hypervisor does very little (Section IV-B): it loads
the VMCS the controller pre-built, launches the co-kernel as a guest at
its native entry point, and afterwards only runs to (1) service
command-queue notifications delivered by NMI, (2) dispatch the few
exits that policy requires, and (3) terminate the enclave on abort-class
faults.  Each instance is single-core and unaware of its siblings; its
execution context is a preallocated 8 KiB stack and no dynamic memory.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable

from repro.core.commands import Command, CommandQueue, CommandType
from repro.core.faults import CovirtFault, EnclaveFaultError, FaultKind
from repro.hw.cpu import Core, CpuMode
from repro.hw.interrupts import Interrupt, InterruptKind
from repro.hw.machine import Machine
from repro.obs import metric_names
from repro.perf.costs import CostModel, DEFAULT_COSTS
from repro.vmx.exits import ExitReason, VmExit
from repro.vmx.vapic import VapicMode
from repro.vmx.vmcs import Vmcs

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.controller import EnclaveVirtContext

#: Size of the preallocated hypervisor stack (Section IV-C).
HYPERVISOR_STACK_BYTES = 8 * 1024


class CovirtHypervisor:
    """Per-core minimal hypervisor."""

    def __init__(
        self,
        machine: Machine,
        core: Core,
        ctx: "EnclaveVirtContext",
        vmcs: Vmcs,
        queue: CommandQueue,
        stack_addr: int,
        costs: CostModel = DEFAULT_COSTS,
    ) -> None:
        self.machine = machine
        self.core = core
        self.ctx = ctx
        self.vmcs = vmcs
        self.queue = queue
        self.stack_addr = stack_addr
        self.costs = costs
        #: Generation of the VMCS state this core has activated.
        self.loaded_generation: int = -1
        #: Set by the controller: where terminations are reported.
        self.fault_sink: Callable[[CovirtFault], None] | None = None
        self.terminated = False
        #: Machine-wide observability (spans + metrics), shared with the
        #: controller and recovery layers.  Recording is passive.
        self.obs = machine.obs
        #: Span track this core's events render on.
        self.track = f"core{core.core_id}"

    def _metric_labels(self) -> dict[str, int]:
        return {
            "core": self.core.core_id,
            "enclave": self.ctx.enclave.enclave_id,
        }

    # -- entry -----------------------------------------------------------

    def launch(self) -> None:
        """VMPTRLD + VMLAUNCH into the co-kernel's native entry point."""
        with self.obs.tracer.span(
            "hv.launch",
            category="hv",
            track=self.track,
            now=self.core.read_tsc,
            entry_point=hex(self.vmcs.guest.entry_point),
        ):
            self.vmcs.validate()
            self.core.advance(self.costs.vmcs_load + self.costs.vm_launch)
            self.loaded_generation = self.vmcs.generation
            self.vmcs.launched = True
            self.core.mode = CpuMode.GUEST
            self.core.vm_entries += 1

    # -- exit accounting ---------------------------------------------------

    def account_exit(self, reason: ExitReason, *, emulation: bool = False) -> int:
        """Charge one exit round trip to this core; returns the cost."""
        cost = self.costs.exit_cost(emulation=emulation)
        self.core.advance(cost)
        tsc = self.core.read_tsc()
        self.obs.tracer.complete(
            f"hv.exit.{reason.value}",
            tsc - cost,
            tsc,
            category="exit",
            track=self.track,
            enclave=self.ctx.enclave.enclave_id,
        )
        metrics = self.obs.metrics
        metrics.counter(
            metric_names.EXITS, "VM exits by reason/core/enclave"
        ).inc(reason=reason.value, **self._metric_labels())
        metrics.histogram(
            metric_names.EXIT_CYCLES, "exit round-trip latency (cycles)"
        ).observe(cost, reason=reason.value)
        return cost

    def count_ipi(self, outcome: str) -> None:
        """Count one IPI this core handled: ``forwarded``, ``filtered``
        or ``posted``."""
        self.obs.metrics.counter(
            metric_names.IPIS, "IPIs handled, by outcome/core/enclave"
        ).inc(outcome=outcome, **self._metric_labels())

    def make_exit(self, reason: ExitReason, qualification: Any = None) -> VmExit:
        return VmExit(
            reason=reason,
            core_id=self.core.core_id,
            qualification=qualification,
            guest_tsc=self.core.read_tsc(),
        )

    # -- interrupt path ----------------------------------------------------

    def on_physical_interrupt(self, interrupt: Interrupt) -> None:
        """Installed as the physical APIC delivery hook while this core
        runs a guest.  Routes by interrupt kind and VAPIC mode."""
        if self.terminated:
            return
        # An interrupt is the architectural wake-up for a halted vCPU:
        # HLT parks the core only until the next event arrives.
        if self.core.halted:
            self.core.resume()
        if interrupt.kind is InterruptKind.NMI:
            # The controller's doorbell: service the command queue.
            with self.obs.tracer.span(
                "hv.nmi",
                category="hv",
                track=self.track,
                now=self.core.read_tsc,
            ):
                self.core.advance(self.costs.nmi_delivery)
                self.account_exit(ExitReason.EXCEPTION_OR_NMI)
                self.service_commands()
            return
        mode = self.vmcs.controls.vapic_mode
        kernel = self.ctx.enclave.kernel
        if mode is VapicMode.DISABLED:
            # No interrupt virtualization: native-style delivery.
            self.core.advance(self.costs.native_irq_dispatch)
            if kernel is not None:
                kernel.inject_interrupt(self.core.core_id, interrupt)
            return
        if mode is VapicMode.POSTED and interrupt.kind is InterruptKind.IPI:
            # Exit-free delivery through the PI descriptor.
            assert self.vmcs.pi_descriptor is not None
            self.vmcs.pi_descriptor.post(interrupt.vector)
            self.core.advance(self.costs.posted_delivery)
            self.count_ipi("posted")
            for vector in self.vmcs.pi_descriptor.drain():
                if kernel is not None:
                    kernel.inject_interrupt(
                        self.core.core_id,
                        Interrupt(vector, InterruptKind.IPI, interrupt.source_core),
                    )
            return
        # Trap mode, or an external/timer interrupt under posted mode:
        # the interrupt forces an exit and is re-injected.
        self.account_exit(ExitReason.EXTERNAL_INTERRUPT)
        self.core.advance(self.costs.irq_injection)
        if kernel is not None:
            kernel.inject_interrupt(self.core.core_id, interrupt)

    # -- command queue ------------------------------------------------

    def service_commands(self) -> int:
        """Drain the command queue; returns commands serviced."""
        serviced = 0
        commands = self.obs.metrics.counter(
            metric_names.COMMANDS, "commands drained from per-core queues"
        )
        with self.obs.tracer.span(
            "hv.drain",
            category="hv",
            track=self.track,
            now=self.core.read_tsc,
        ) as drain:
            while True:
                cmd = self.queue.dequeue()
                if cmd is None:
                    break
                self._execute_command(cmd)
                self.queue.mark_completed(cmd)
                commands.inc(type=cmd.type.name, **self._metric_labels())
                serviced += 1
            drain.args["serviced"] = serviced
        return serviced

    def _execute_command(self, cmd: Command) -> None:
        if cmd.type is CommandType.PING:
            return
        if cmd.type is CommandType.MEMORY_UPDATE:
            assert self.core.tlb is not None
            flushed = len(self.core.tlb)
            self.core.tlb.flush_all()
            self.core.advance(
                self.costs.tlb_flush
                + int(self.costs.tlb_refill_per_entry * min(flushed, 256))
            )
            return
        if cmd.type is CommandType.VMCS_RELOAD:
            self.core.advance(self.costs.vmcs_load)
            self.loaded_generation = self.vmcs.generation
            return
        if cmd.type is CommandType.TERMINATE:
            self.terminate_guest(
                CovirtFault(
                    kind=FaultKind.CONTROLLER_REQUEST,
                    enclave_id=self.ctx.enclave.enclave_id,
                    core_id=self.core.core_id,
                    tsc=self.core.read_tsc(),
                    detail="terminated by controller command",
                )
            )
            return
        raise ValueError(f"unknown command {cmd!r}")  # pragma: no cover

    # -- termination ---------------------------------------------------

    def terminate_guest(self, fault: CovirtFault) -> None:
        """Abort-class handling: terminate the enclave, notify the master
        control process, and safely halt the CPU (Section IV-B)."""
        if self.terminated:
            return
        self.terminated = True
        # Mark the containment event in the flight-recorder ring before
        # the fault fans out (the controller snapshots the post-mortem
        # once the dossier exists).
        self.obs.flight.note(
            "containment",
            f"core {self.core.core_id} terminated enclave "
            f"{self.ctx.enclave.enclave_id}: {fault.detail}",
            fault_kind=fault.kind.value,
        )
        with self.obs.tracer.span(
            "hv.terminate",
            category="hv",
            track=self.track,
            now=self.core.read_tsc,
            kind=fault.kind.value,
        ):
            self.obs.metrics.counter(
                metric_names.TERMINATIONS, "guest terminations by fault kind"
            ).inc(kind=fault.kind.value, **self._metric_labels())
            self.core.mode = CpuMode.HYPERVISOR
            self.core.halt()
            if self.fault_sink is not None:
                self.fault_sink(fault)

    def fault_and_raise(self, fault: CovirtFault) -> None:
        """Terminate and unwind the simulated guest's execution."""
        self.terminate_guest(fault)
        raise EnclaveFaultError(fault)
