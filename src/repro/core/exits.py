"""Exit handler dispatch.

Maps each :class:`~repro.vmx.exits.ExitReason` to the policy Covirt
applies.  Where emulation is required Covirt takes a minimalist
approach (Section IV-B); most handlers are a few lines, and the fatal
ones funnel into :meth:`CovirtHypervisor.fault_and_raise`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable

from repro.core.faults import CovirtFault, FaultKind
from repro.hw.cpu import host_cpuid
from repro.hw.interrupts import ExceptionVector
from repro.hw.msr import SENSITIVE_MSRS
from repro.vmx.exits import ExitReason, VmExit

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.hypervisor import CovirtHypervisor

Handler = Callable[["CovirtHypervisor", VmExit], Any]

_HANDLERS: dict[ExitReason, Handler] = {}


def handles(reason: ExitReason) -> Callable[[Handler], Handler]:
    def deco(fn: Handler) -> Handler:
        _HANDLERS[reason] = fn
        return fn

    return deco


def dispatch(hv: "CovirtHypervisor", exit: VmExit) -> Any:
    """Route one exit to its handler, under a dispatch span so every
    consequence (termination, controller fault routing, recovery) nests
    beneath the exit that caused it."""
    handler = _HANDLERS.get(exit.reason)
    if handler is None:
        raise ValueError(f"no handler for exit {exit.reason}")  # pragma: no cover
    with hv.obs.tracer.span(
        f"hv.dispatch.{exit.reason.value}",
        category="exit",
        track=hv.track,
        now=hv.core.read_tsc,
    ):
        return handler(hv, exit)


def _fault(hv: "CovirtHypervisor", kind: FaultKind, detail: str, qual: Any) -> CovirtFault:
    return CovirtFault(
        kind=kind,
        enclave_id=hv.ctx.enclave.enclave_id,
        core_id=hv.core.core_id,
        tsc=hv.core.read_tsc(),
        detail=detail,
        qualification=qual,
    )


@handles(ExitReason.EPT_VIOLATION)
def handle_ept_violation(hv: "CovirtHypervisor", exit: VmExit) -> None:
    """All EPT access violations are abort class: the address is outside
    the enclave's assignment, so the co-kernel's view of its resources
    has diverged from reality.  Terminate."""
    info = exit.qualification
    hv.account_exit(ExitReason.EPT_VIOLATION)
    hv.fault_and_raise(
        _fault(hv, FaultKind.EPT_VIOLATION, info.describe(), info)
    )


@handles(ExitReason.EXCEPTION_OR_NMI)
def handle_exception(hv: "CovirtHypervisor", exit: VmExit) -> None:
    """Abort-class exceptions (double fault, machine check) terminate
    the enclave instead of the node."""
    vector = exit.qualification
    hv.account_exit(ExitReason.EXCEPTION_OR_NMI)
    hv.fault_and_raise(
        _fault(
            hv,
            FaultKind.ABORT_EXCEPTION,
            f"abort-class exception {ExceptionVector(vector).name}",
            vector,
        )
    )


@handles(ExitReason.TRIPLE_FAULT)
def handle_triple_fault(hv: "CovirtHypervisor", exit: VmExit) -> None:
    """Even with the exception feature off, VMX architecture guarantees
    a guest triple fault exits instead of resetting the machine."""
    hv.account_exit(ExitReason.TRIPLE_FAULT)
    hv.fault_and_raise(
        _fault(hv, FaultKind.TRIPLE_FAULT, "guest triple fault", exit.qualification)
    )


@handles(ExitReason.MSR_READ)
def handle_msr_read(hv: "CovirtHypervisor", exit: VmExit) -> int:
    """Trapped RDMSR: emulate against the physical MSR file (zero
    abstraction — the guest sees real hardware values)."""
    index = exit.qualification
    hv.account_exit(ExitReason.MSR_READ, emulation=True)
    msrs = hv.core.msrs
    assert msrs is not None
    return msrs.read(index)


@handles(ExitReason.MSR_WRITE)
def handle_msr_write(hv: "CovirtHypervisor", exit: VmExit) -> bool:
    """Trapped WRMSR: sensitive MSR writes are denied (and logged);
    everything else is performed on the guest's behalf."""
    index, value = exit.qualification
    hv.account_exit(ExitReason.MSR_WRITE, emulation=True)
    if index in SENSITIVE_MSRS:
        hv.ctx.denied_msr_writes.append((hv.core.core_id, index, value))
        return False
    msrs = hv.core.msrs
    assert msrs is not None
    msrs.write(index, value)
    return True


@handles(ExitReason.IO_INSTRUCTION)
def handle_io(hv: "CovirtHypervisor", exit: VmExit) -> int | None:
    """Trapped IN/OUT: accesses to trapped ports are denied — reads
    float high, writes vanish — and logged."""
    port, value, is_write = exit.qualification
    hv.account_exit(ExitReason.IO_INSTRUCTION, emulation=True)
    hv.ctx.denied_io.append((hv.core.core_id, port, value, is_write))
    return None if is_write else 0xFF


@handles(ExitReason.APIC_WRITE)
def handle_apic_write(hv: "CovirtHypervisor", exit: VmExit) -> bool:
    """Trapped ICR write: filter through the whitelist; permitted IPIs
    are re-issued on the physical APIC, errant ones are dropped."""
    msg = exit.qualification
    hv.account_exit(ExitReason.APIC_WRITE, emulation=True)
    if hv.vmcs.vapic_page is not None:
        hv.vmcs.vapic_page.record_write(msg)
    whitelist = hv.ctx.whitelist
    assert whitelist is not None
    allowed, reason = whitelist.permits(msg)
    if not allowed:
        whitelist.record_drop(msg, reason, hv.core.read_tsc())
        hv.count_ipi("filtered")
        return False
    apic = hv.core.apic
    assert apic is not None
    apic.write_icr(msg.dest_core, msg.vector, msg.mode)
    hv.count_ipi("forwarded")
    return True


@handles(ExitReason.CPUID)
def handle_cpuid(hv: "CovirtHypervisor", exit: VmExit) -> tuple[int, int, int, int]:
    """CPUID executes in the VMM with no modification: the guest sees
    the real processor (zero abstraction)."""
    leaf = exit.qualification
    hv.account_exit(ExitReason.CPUID)
    return host_cpuid(leaf, hv.core.core_id)


@handles(ExitReason.XSETBV)
def handle_xsetbv(hv: "CovirtHypervisor", exit: VmExit) -> bool:
    hv.account_exit(ExitReason.XSETBV)
    return True


@handles(ExitReason.HLT)
def handle_hlt(hv: "CovirtHypervisor", exit: VmExit) -> None:
    hv.account_exit(ExitReason.HLT)
    hv.core.halt()
