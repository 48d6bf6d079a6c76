"""Workload abstractions."""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.hw.memory import PAGE_SIZE
from repro.hw.tlb import AccessPattern

if TYPE_CHECKING:  # pragma: no cover
    import numpy as np


@dataclass(frozen=True)
class Phase:
    """One execution phase of a workload, as the machine sees it.

    Quantities are *aggregate over all cores*; the engine divides by the
    core count and applies the workload's parallel efficiency.
    """

    name: str
    #: Ideal aggregate compute cycles (excludes TLB-walk and NUMA costs,
    #: which the engine adds for the actual machine configuration).
    total_cycles: float
    #: Aggregate DRAM references issued.
    total_mem_accesses: float
    #: Bytes the phase's working set spans (drives TLB miss rate).
    footprint_bytes: int
    pattern: AccessPattern
    #: Fraction of the phase's time that is memory-bandwidth bound
    #: (subject to per-socket bandwidth contention).
    mem_bound_frac: float = 0.5
    #: Guest page size backing the working set.
    page_size: int = PAGE_SIZE
    #: Aggregate inter-core IPIs sent during the phase (OpenMP barriers,
    #: work-stealing handoffs, progress signalling).
    total_ipis: float = 0.0
    #: True when every core walks the whole footprint (RandomAccess's
    #: shared table); False when the footprint partitions across cores.
    shared_footprint: bool = False

    def __post_init__(self) -> None:
        if self.total_cycles < 0 or self.total_mem_accesses < 0:
            raise ValueError("phase quantities must be non-negative")
        if not 0.0 <= self.mem_bound_frac <= 1.0:
            raise ValueError("mem_bound_frac must be in [0, 1]")


@dataclass
class WorkloadResult:
    """Outcome of one workload execution on a simulated enclave."""

    workload: str
    config_label: str
    layout_label: str
    ncores: int
    elapsed_cycles: int
    #: Figure of merit in the workload's native unit (MB/s, GUP/s, ...).
    fom: float
    fom_name: str
    higher_is_better: bool
    #: Cycle breakdown for analysis: {"compute", "tlb", "ept", "ipi",
    #: "timer", "numa", "baseline"}.
    breakdown: dict[str, float] = field(default_factory=dict)

    @property
    def elapsed_seconds(self) -> float:
        from repro.hw.clock import CYCLES_PER_SECOND

        return self.elapsed_cycles / CYCLES_PER_SECOND

    def overhead_vs(self, native: "WorkloadResult") -> float:
        """Relative slowdown versus a native run (positive = slower)."""
        return self.elapsed_cycles / native.elapsed_cycles - 1.0


class Workload(abc.ABC):
    """A Table-I benchmark."""

    #: Table I columns.
    name: str = ""
    version: str = ""
    parameters: str = ""

    #: Empirical baseline VMX non-root penalty (see DESIGN.md §5): the
    #: configuration-independent slowdown some workloads show merely for
    #: running under virtualization (HPCG's constant ~1.4 %).
    vmx_sensitivity: float = 0.0

    #: Empirical additional penalty when IPI protection (vAPIC) is
    #: enabled, beyond the mechanistic per-IPI trap costs.  The paper
    #: observes (but does not attribute) such a gap on RandomAccess;
    #: see DESIGN.md §5.
    ipi_sensitivity: float = 0.0

    fom_name: str = "seconds"
    higher_is_better: bool = False

    #: Per-doubling parallel efficiency (1.0 = perfect scaling).
    parallel_efficiency: float = 0.97

    @abc.abstractmethod
    def phases(self) -> list[Phase]:
        """The machine profile of one run."""

    @abc.abstractmethod
    def reference_kernel(self, rng: "np.random.Generator | None" = None) -> dict:
        """Run a (scaled-down) real implementation of the benchmark's
        numerical core; returns named, checkable results.

        With ``rng=None`` the kernel draws from the repo-wide named
        stream ``workloads.<name>`` (see :mod:`repro.fuzz.rng`), so a
        bare ``Stream().reference_kernel()`` is reproducible and every
        failure report can quote one seed."""

    def kernel_rng(self, rng: "np.random.Generator | None") -> np.random.Generator:
        """Resolve the kernel's RNG: the caller's, or this workload's
        named stream under the repo default seed."""
        if rng is not None:
            return rng
        from repro.fuzz.rng import named_stream

        return named_stream(f"workloads.{self.name}").numpy_generator()

    def figure_of_merit(self, elapsed_seconds: float, ncores: int) -> float:
        """Convert elapsed time into the workload's reporting unit."""
        return elapsed_seconds

    def efficiency_at(self, ncores: int) -> float:
        """Parallel efficiency at a core count."""
        if ncores <= 1:
            return 1.0
        return self.parallel_efficiency ** math.log2(ncores)

    def table_row(self) -> tuple[str, str, str]:
        """(name, version, parameters) — Table I."""
        return (self.name, self.version, self.parameters)
