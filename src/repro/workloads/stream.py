"""STREAM (Fig. 5a): the memory-bandwidth microbenchmark."""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.hw.clock import CYCLES_PER_SECOND
from repro.hw.tlb import AccessPattern
from repro.workloads.base import Phase, Workload

if TYPE_CHECKING:  # pragma: no cover
    import numpy as np

#: Elements per array (the paper's runs use arrays far larger than LLC).
STREAM_N = 1 << 24  # 128 MiB per array, 3 arrays
STREAM_REPS = 10

#: Sustained cycles per 8-byte element streamed on the simulated part
#: (bandwidth-bound: ~11 GB/s per core at 1.7 GHz).
CYCLES_PER_ELEMENT = 1.2


class Stream(Workload):
    """Table I row 2."""

    name = "STREAM"
    version = "5.10"
    parameters = "None"
    fom_name = "MB/s (triad)"
    higher_is_better = True
    vmx_sensitivity = 0.0005
    parallel_efficiency = 0.99

    #: (kernel, reads+writes per element)
    KERNELS = (("copy", 2), ("scale", 2), ("add", 3), ("triad", 3))

    def phases(self) -> list[Phase]:
        phases = []
        for kernel, refs in self.KERNELS:
            elements = STREAM_N * refs * STREAM_REPS
            phases.append(
                Phase(
                    name=kernel,
                    total_cycles=elements * CYCLES_PER_ELEMENT,
                    total_mem_accesses=float(elements),
                    footprint_bytes=3 * STREAM_N * 8,
                    pattern=AccessPattern.SEQUENTIAL,
                    mem_bound_frac=0.95,
                )
            )
        return phases

    @property
    def total_bytes(self) -> int:
        return sum(STREAM_N * refs * STREAM_REPS * 8 for _, refs in self.KERNELS)

    def figure_of_merit(self, elapsed_seconds: float, ncores: int) -> float:
        # Best-rate convention: report the triad share of traffic.
        triad_bytes = STREAM_N * 3 * STREAM_REPS * 8
        triad_fraction = triad_bytes / self.total_bytes
        return (triad_bytes / (elapsed_seconds * triad_fraction)) / 1e6

    def reference_kernel(self, rng: "np.random.Generator | None" = None) -> dict:
        """The four STREAM kernels, for real, at reduced scale."""
        import numpy as np

        rng = self.kernel_rng(rng)
        n = 1 << 20
        a0 = rng.random(n)
        a = a0.copy()
        b = rng.random(n)
        c = np.empty_like(a)
        scalar = 3.0
        c[:] = a  # copy
        b[:] = scalar * c  # scale
        c[:] = a + b  # add
        a[:] = b + scalar * c  # triad
        # Validate the chain algebraically from the untouched input:
        # b = 3*a0, c = a0 + 3*a0 = 4*a0, a = 3*a0 + 3*4*a0 = 15*a0.
        expect = 15.0 * a0
        return {
            "n": n,
            "triad_max_error": float(np.max(np.abs(a - expect))),
            "checksum": float(a.sum()),
        }
