#!/usr/bin/env python3
"""Selfish-Detour noise study (the Fig. 3 experiment, interactively).

Runs the detour sampler against every Covirt configuration and prints
the detour histograms, then demonstrates what the profile would look
like if interrupt virtualization *did* add periodic work — the negative
result that makes Fig. 3 meaningful.
"""

from repro.harness.env import CovirtEnvironment
from repro.harness.experiments import fig3
from repro.hw.clock import CYCLES_PER_SECOND
from repro.perf.sampling import DetourSampler, NoiseSource
from repro.workloads.selfish import SelfishDetour

BINS_US = [0.5, 1.0, 2.0, 5.0, 20.0]


def main() -> None:
    print("Fig. 3: Selfish-Detour noise profile (10 s run):")
    with CovirtEnvironment() as env:
        rows = fig3(env)
    for row in rows:
        print(f"  {row['config']:15s} {row['detours']:4d} detours, "
              f"max {row['max_detour_us']:.3f} us, "
              f"{row['noise_fraction'] * 100:.5f}% of cycles lost")

    print("\nDetour histograms (10 s run):")
    workload = SelfishDetour(duration_seconds=10.0)
    for label in ("native", "covirt-none", "covirt-mem", "covirt-mem+ipi"):
        trace = workload.sample(label)
        hist = trace.histogram(BINS_US)
        cells = "  ".join(f"{k}:{v}" for k, v in hist.items() if v)
        print(f"  {label:15s} {cells}")

    print("\nCounter-factual: a hypervisor that polled its command queue"
          " at 1 kHz instead of using NMI doorbells:")
    sampler = DetourSampler()
    bad = sampler.run(
        10 * CYCLES_PER_SECOND,
        [
            NoiseSource("kitten-tick", 170_000_000, 2_250),
            NoiseSource("hypervisor-poll", 1_700_000, 2_000),
        ],
    )
    good = workload.sample("covirt-mem+ipi")
    print(f"  covirt (event-driven): {good.count:6d} detours, "
          f"{good.noise_fraction * 100:.5f}% of cycles lost")
    print(f"  polling hypervisor:    {bad.count:6d} detours, "
          f"{bad.noise_fraction * 100:.5f}% of cycles lost")

    print("\nContext: the same loop on a general-purpose Linux core"
          " (250 Hz tick, RCU callbacks, kworkers):")
    linux = sampler.run(
        10 * CYCLES_PER_SECOND,
        [
            NoiseSource("linux-tick", CYCLES_PER_SECOND // 250, 6_000),
            NoiseSource("rcu+kworker", 23_000_000, 30_000),
            NoiseSource("irq-balance", 970_000_000, 120_000),
        ],
    )
    print(f"  linux host core:       {linux.count:6d} detours, "
          f"{linux.noise_fraction * 100:.5f}% of cycles lost "
          f"(~{linux.count // max(good.count, 1)}x the LWK's events)")
    print("\nCovirt's asynchronous, NMI-signalled design adds no periodic"
          " noise sources — a protected LWK keeps its LWK noise profile,"
          " which is the whole reason these kernels exist.")


if __name__ == "__main__":
    main()
