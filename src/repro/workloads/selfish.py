"""Selfish Detour (Fig. 3): the OS-noise microbenchmark.

Selfish Detour spins reading the TSC and logs every interval where the
core was stolen.  Its "workload" is therefore the measurement loop
itself; what varies across Covirt configurations is the *cost* of each
noise event (a native timer tick vs. a tick that forces a VM exit), not
the set of events — which is why the paper finds the noise profiles
essentially unchanged.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.hw.clock import CYCLES_PER_SECOND
from repro.hw.tlb import AccessPattern
from repro.kitten.kernel import HOUSEKEEPING_TICK_CYCLES
from repro.perf.costs import CostModel, DEFAULT_COSTS
from repro.perf.sampling import DetourSampler, DetourTrace, NoiseSource
from repro.workloads.base import Phase, Workload

if TYPE_CHECKING:  # pragma: no cover
    import numpy as np


class SelfishDetour(Workload):
    """Table I row 1."""

    name = "Selfish Detour"
    version = "1.0.7"
    parameters = "None"
    fom_name = "noise fraction"
    higher_is_better = False

    def __init__(self, duration_seconds: float = 10.0) -> None:
        self.duration_cycles = int(duration_seconds * CYCLES_PER_SECOND)

    def phases(self) -> list[Phase]:
        # The spin loop: pure compute, cache-resident.
        return [
            Phase(
                name="spin",
                total_cycles=float(self.duration_cycles),
                total_mem_accesses=0.0,
                footprint_bytes=4096,
                pattern=AccessPattern.SEQUENTIAL,
                mem_bound_frac=0.0,
            )
        ]

    def noise_sources(
        self, config_label: str, costs: CostModel = DEFAULT_COSTS
    ) -> list[NoiseSource]:
        """The periodic interruptions a single-core enclave experiences
        under each evaluation configuration.

        Every configuration has exactly one source — Kitten's 10 Hz
        housekeeping tick; virtualizing interrupt delivery changes its
        *cost*, never its cadence.
        """
        tick_cost = costs.housekeeping_tick
        if config_label == "native" or config_label == "covirt-none":
            tick_cost += costs.native_irq_dispatch
        elif "ipi" in config_label:
            # vAPIC on: the timer is a hardware interrupt and exits.
            tick_cost += costs.exit_cost() + costs.irq_injection
        else:
            # Memory-only Covirt leaves interrupt delivery native.
            tick_cost += costs.native_irq_dispatch
        return [
            NoiseSource(
                name="kitten-housekeeping",
                period_cycles=HOUSEKEEPING_TICK_CYCLES,
                cost_cycles=tick_cost,
            )
        ]

    def sample(self, config_label: str) -> DetourTrace:
        """Run the benchmark against a configuration's noise sources."""
        sampler = DetourSampler()
        return sampler.run(self.duration_cycles, self.noise_sources(config_label))

    def reference_kernel(self, rng: "np.random.Generator | None" = None) -> dict:
        """Run the real sampling loop against a synthetic noise mix and
        verify it recovers the planted events."""
        rng = self.kernel_rng(rng)
        sources = [
            NoiseSource("tick", period_cycles=1_000_000, cost_cycles=5_000),
            NoiseSource("daemon", period_cycles=7_777_777, cost_cycles=40_000),
        ]
        trace = DetourSampler().run(50_000_000, sources)
        # Events fire at k*period for k*period < duration.
        expected = sum(
            (50_000_000 - 1) // src.period_cycles for src in sources
        )
        return {
            "detours": trace.count,
            "expected_events": expected,
            "noise_fraction": trace.noise_fraction,
        }

    def figure_of_merit(self, elapsed_seconds: float, ncores: int) -> float:
        return elapsed_seconds
