"""Covirt's modular protection features.

Co-kernel architectures implicitly prioritise performance over safety;
Covirt therefore lets the operator pick exactly which protections an
enclave pays for (Section IV-A, third design goal).  A feature set is
fixed at enclave launch (it shapes the VMCS) but each feature is
independent.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


class Feature(enum.Flag):
    """Individually selectable protection features."""

    NONE = 0
    #: EPT identity map of assigned regions; out-of-enclave access aborts.
    MEMORY = enum.auto()
    #: ICR trapping + whitelist filtering of outbound IPIs.
    IPI = enum.auto()
    #: MSR bitmap: sensitive MSR writes denied.
    MSR = enum.auto()
    #: I/O bitmap: host-owned port accesses denied.
    IOPORT = enum.auto()
    #: Abort-class exceptions (double fault, machine check) contained.
    EXCEPTIONS = enum.auto()

    ALL = MEMORY | IPI | MSR | IOPORT | EXCEPTIONS


class IpiMode(enum.Enum):
    """How IPI protection virtualizes interrupt delivery (Section IV-C)."""

    #: Pick posted interrupts when the hardware has them, else trap.
    AUTO = "auto"
    #: Full trap-and-emulate: every incoming interrupt exits.
    TRAP = "trap"
    #: Posted Interrupt Vectors: exit-free incoming IPIs.
    POSTED = "posted"


@dataclass(frozen=True)
class CovirtConfig:
    """Per-enclave Covirt configuration."""

    features: Feature = Feature.NONE
    ipi_mode: IpiMode = IpiMode.AUTO
    #: Does the (simulated) CPU support posted interrupts?  The paper's
    #: Broadwell testbed does; the trap path exists for older parts and
    #: for the ablation study.
    hw_has_posted_interrupts: bool = True
    #: 2 MiB / 1 GiB EPT coalescing (on in the paper; off = ablation).
    ept_coalescing: bool = True

    def has(self, feature: Feature) -> bool:
        return bool(self.features & feature)

    @property
    def effective_ipi_mode(self) -> IpiMode:
        """Resolve AUTO against hardware capability."""
        if self.ipi_mode is IpiMode.AUTO:
            return (
                IpiMode.POSTED if self.hw_has_posted_interrupts else IpiMode.TRAP
            )
        if self.ipi_mode is IpiMode.POSTED and not self.hw_has_posted_interrupts:
            return IpiMode.TRAP
        return self.ipi_mode

    # -- the paper's evaluation configurations -----------------------------

    @classmethod
    def none(cls) -> "CovirtConfig":
        """Hypervisor interposed, no protection features ("no-feature")."""
        return cls(features=Feature.NONE)

    @classmethod
    def memory_only(cls) -> "CovirtConfig":
        return cls(features=Feature.MEMORY | Feature.EXCEPTIONS)

    @classmethod
    def memory_ipi(cls) -> "CovirtConfig":
        return cls(features=Feature.MEMORY | Feature.IPI | Feature.EXCEPTIONS)

    @classmethod
    def full(cls) -> "CovirtConfig":
        return cls(features=Feature.ALL)

    def label(self) -> str:
        """Short label used in benchmark tables."""
        if self.features is Feature.NONE:
            return "covirt-none"
        parts = []
        if self.has(Feature.MEMORY):
            parts.append("mem")
        if self.has(Feature.IPI):
            parts.append("ipi")
        if self.has(Feature.MSR):
            parts.append("msr")
        if self.has(Feature.IOPORT):
            parts.append("io")
        if self.has(Feature.EXCEPTIONS) and not parts:
            parts.append("exc")
        return "covirt-" + "+".join(parts)


#: The four configurations every figure in the evaluation sweeps.
#: ``None`` denotes native execution (no Covirt at all).
EVALUATION_CONFIGS: list[tuple[str, "CovirtConfig | None"]] = [
    ("native", None),
    ("covirt-none", CovirtConfig.none()),
    ("covirt-mem", CovirtConfig.memory_only()),
    ("covirt-mem+ipi", CovirtConfig.memory_ipi()),
]
