"""Local APIC model: IPI transmission, pending vectors, NMI, timer.

Each core owns a local APIC.  Writing the Interrupt Command Register
(ICR) transmits an IPI through the machine's routing fabric to the
destination core's APIC, which latches the vector as pending and invokes
whatever delivery hook the currently running software layer installed
(the Kitten IRQ dispatcher, or — when Covirt traps external interrupts —
the hypervisor).

This is the *physical* APIC.  Covirt's trap-mode IPI protection never
lets a guest ICR write reach this object directly; the virtual-APIC page
lives in ``repro.vmx.vapic``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

from repro.hw.interrupts import (
    FIRST_ALLOCATABLE_VECTOR,
    NMI_VECTOR,
    VECTOR_SPACE_SIZE,
    Interrupt,
    InterruptKind,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.hw.machine import Machine


class DeliveryMode(enum.Enum):
    """ICR delivery modes the stack uses."""

    FIXED = "fixed"
    NMI = "nmi"


@dataclass(frozen=True)
class IpiMessage:
    """An IPI in flight between two APICs."""

    source_core: int
    dest_core: int
    vector: int
    mode: DeliveryMode = DeliveryMode.FIXED

    def __post_init__(self) -> None:
        if self.mode is DeliveryMode.FIXED:
            if not FIRST_ALLOCATABLE_VECTOR <= self.vector < VECTOR_SPACE_SIZE:
                raise ValueError(
                    f"fixed-mode IPI vector {self.vector} outside 32..255"
                )

    def as_interrupt(self) -> Interrupt:
        kind = InterruptKind.NMI if self.mode is DeliveryMode.NMI else InterruptKind.IPI
        vector = NMI_VECTOR if self.mode is DeliveryMode.NMI else self.vector
        return Interrupt(vector=vector, kind=kind, source_core=self.source_core)


@dataclass
class ApicStats:
    """Counters the evaluation harness reads."""

    ipis_sent: int = 0
    ipis_received: int = 0
    nmis_received: int = 0
    timer_ticks: int = 0
    spurious: int = 0


class LocalApic:
    """Per-core local APIC."""

    def __init__(self, core_id: int) -> None:
        self.core_id = core_id
        self._machine: "Machine | None" = None
        #: Vectors latched pending delivery (IRR analogue).
        self.pending: set[int] = set()
        self.nmi_pending: bool = False
        #: Software hook invoked on delivery; installed by the OS layer
        #: or the hypervisor that currently owns the core.
        self.delivery_hook: Callable[[Interrupt], None] | None = None
        #: Periodic timer period in cycles (None = timer masked).  Kitten
        #: keeps this large or masked — LWKs minimise timer noise.
        self.timer_period: int | None = None
        self.stats = ApicStats()
        self._delivered_log: list[Interrupt] = []

    def attach(self, machine: "Machine") -> None:
        self._machine = machine

    def detach(self) -> None:
        """Drop the software hook and the link back to the machine (see
        :meth:`Machine.close`); the counters and logs stay readable."""
        self._machine = None
        self.delivery_hook = None

    # -- transmit side -------------------------------------------------

    def write_icr(
        self, dest_core: int, vector: int, mode: DeliveryMode = DeliveryMode.FIXED
    ) -> IpiMessage:
        """Transmit an IPI.  This is the raw hardware path.

        Software that is subject to Covirt's IPI protection never reaches
        this method with an unchecked message; the VMX layer traps the
        write first.
        """
        if self._machine is None:
            raise RuntimeError("APIC not attached to a machine")
        msg = IpiMessage(self.core_id, dest_core, vector, mode)
        self.stats.ipis_sent += 1
        self._machine.route_ipi(msg)
        return msg

    # -- receive side ----------------------------------------------------

    def deliver(self, interrupt: Interrupt) -> None:
        """Latch an interrupt and hand it to the installed software hook."""
        if interrupt.kind is InterruptKind.NMI:
            self.nmi_pending = True
            self.stats.nmis_received += 1
        else:
            self.pending.add(interrupt.vector)
            if interrupt.kind is InterruptKind.TIMER:
                self.stats.timer_ticks += 1
            else:
                self.stats.ipis_received += 1
        self._delivered_log.append(interrupt)
        if self.delivery_hook is not None:
            self.delivery_hook(interrupt)

    def ack(self, vector: int) -> None:
        """EOI for a fixed vector."""
        self.pending.discard(vector)

    def ack_nmi(self) -> None:
        self.nmi_pending = False

    def delivered(self) -> list[Interrupt]:
        """Everything this APIC has ever delivered (test introspection)."""
        return list(self._delivered_log)

    # -- timer -------------------------------------------------------------

    def configure_timer(self, period_cycles: int | None) -> None:
        """Set the periodic timer (None masks it)."""
        if period_cycles is not None and period_cycles <= 0:
            raise ValueError("timer period must be positive")
        self.timer_period = period_cycles

    def timer_ticks_during(self, cycles: int) -> int:
        """How many timer interrupts fire over an execution of ``cycles``.

        Used analytically by the performance model rather than firing
        one event per tick.
        """
        if self.timer_period is None or cycles <= 0:
            return 0
        return int(cycles // self.timer_period)

    def reset(self) -> None:
        self.pending.clear()
        self.nmi_pending = False
        self.delivery_hook = None
        self.timer_period = None
        self._delivered_log.clear()
        self.stats = ApicStats()
