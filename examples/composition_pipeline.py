#!/usr/bin/env python3
"""A Hobbes-style composed application: simulation + analytics.

This is the workload pattern that motivates co-kernels (Fig. 1a of the
paper): a bulk-synchronous simulation runs in one LWK enclave, an
analytics consumer in another, coupled by XEMEM shared memory and
IPI doorbells, with heavyweight I/O delegated to the host Linux via
system-call forwarding.  Both enclaves run under Covirt, and the whole
pipeline works unchanged — the transparency claim, demonstrated.

The simulation itself is real: a small heat-diffusion stencil whose
frames are written into the shared segment; the analytics side computes
statistics over each frame it is signalled about.
"""

import numpy as np

from repro import CovirtConfig, CovirtEnvironment
from repro.harness.env import Layout
from repro.kitten.syscalls import Syscall

GiB = 1 << 30
MiB = 1 << 20

FRAME_CELLS = 64 * 64
FRAME_BYTES = FRAME_CELLS * 8
FRAMES = 8


def main() -> None:
    with CovirtEnvironment() as env:
        sim = env.launch(
            Layout("sim", {0: 2}, {0: 2 * GiB}), CovirtConfig.memory_ipi(), "sim"
        )
        analytics = env.launch(
            Layout("analytics", {1: 2}, {1: 2 * GiB}),
            CovirtConfig.memory_ipi(),
            "analytics",
        )
        print(f"simulation enclave {sim.enclave_id} on cores "
              f"{sim.assignment.core_ids}; analytics enclave "
              f"{analytics.enclave_id} on cores {analytics.assignment.core_ids}")

        # -- wire the pipeline up through the Hobbes runtime ------------------
        producer = sim.kernel.spawn("heat-sim", mem_bytes=2 * MiB)
        consumer = analytics.kernel.spawn("stats", mem_bytes=MiB)
        frame_addr = producer.slices[0].start
        segid = sim.kernel.syscall(
            producer, Syscall.XEMEM_MAKE, "frames", frame_addr, 2 * MiB
        )
        attach_addr = analytics.kernel.syscall(
            consumer, Syscall.XEMEM_ATTACH, segid
        )
        acore = analytics.assignment.core_ids[0]
        score = sim.assignment.core_ids[0]
        doorbell = env.mcp.vectors.allocate(
            dest_core=acore,
            dest_enclave_id=analytics.enclave_id,
            allowed_senders={sim.enclave_id},
            purpose="frame-ready doorbell",
        )
        frames_seen = []
        analytics.kernel.register_irq_handler(
            doorbell.vector,
            lambda core, irq: frames_seen.append(irq.source_core),
        )
        print(f"segment {segid:#x} attached at {attach_addr:#x}; doorbell "
              f"vector {doorbell.vector} granted")

        # -- run the composed application ----------------------------------
        rng = np.random.default_rng(0)
        field = rng.random((64, 64))
        stats = []
        for frame in range(FRAMES):
            # Simulation step (explicit heat diffusion).
            for _ in range(10):
                field = field + 0.1 * (
                    np.roll(field, 1, 0) + np.roll(field, -1, 0)
                    + np.roll(field, 1, 1) + np.roll(field, -1, 1)
                    - 4 * field
                )
            # Publish the frame through the *protected* port.
            sim.port.write(score, frame_addr, field.tobytes())
            sim.port.send_ipi(score, acore, doorbell.vector)
            # Analytics wakes on the doorbell and reads the shared frame.
            raw = analytics.port.read(acore, attach_addr, FRAME_BYTES)
            data = np.frombuffer(raw, dtype=np.float64)
            stats.append((float(data.mean()), float(data.std())))

        print(f"frames produced: {FRAMES}, doorbells received: {len(frames_seen)}")
        for i, (mean, std) in enumerate(stats):
            print(f"  frame {i}: mean={mean:.6f} std={std:.6f}")
        # Diffusion conserves the mean and shrinks the variance.
        assert abs(stats[0][0] - stats[-1][0]) < 1e-9
        assert stats[-1][1] < stats[0][1]
        print("analytics verified: mean conserved, variance decreasing")

        # -- analytics archives results via syscall forwarding ----------------
        fd = analytics.kernel.syscall(consumer, Syscall.OPEN, "/etc/hostname")
        node = analytics.kernel.syscall(consumer, Syscall.READ, fd, 64)
        analytics.kernel.syscall(consumer, Syscall.CLOSE, fd)
        print(f"forwarded I/O to host {node.decode().strip()!r} "
              f"({env.mcp.forwarder.stats.round_trips} round trips)")

        counts = env.machine.obs.metrics.hypervisor_counts(enclave=sim.enclave_id)
        ipis = counts["ipis"]
        print(f"covirt cost of the whole pipeline on the sim enclave: "
              f"{sum(counts['exits'].values())} exits, "
              f"{ipis.get('forwarded', 0)} IPIs forwarded, "
              f"{ipis.get('filtered', 0)} filtered")

        env.mcp.shutdown_enclave(sim.enclave_id)
        env.mcp.shutdown_enclave(analytics.enclave_id)
        print(f"teardown clean: {env.host.owner_summary()}")


if __name__ == "__main__":
    main()
