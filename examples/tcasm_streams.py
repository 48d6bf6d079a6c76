#!/usr/bin/env python3
"""Versioned data streams between composed components.

Combines the two high-level Hobbes facilities this library provides on
top of XEMEM:

* the **composition API** places a three-stage application —
  simulation → filter → analytics — across protected enclaves
  (adapting the topology if the machine is short on cores);
* a **TCASM-style versioned stream** carries snapshots between stages:
  the producer publishes whole versions, consumers always read
  consistent data, nobody blocks anybody.

Then the simulation stage crashes mid-run, and the pipeline degrades
the way the paper promises: one enclave dies, everything else —
including the last published version of the data — survives.
"""

import numpy as np

from repro import CovirtConfig, CovirtEnvironment
from repro.core.faults import EnclaveFaultError
from repro.hobbes.composition import ComponentSpec, Composition
from repro.hobbes.tcasm import StreamReader, VersionedStream

GiB = 1 << 30
MiB = 1 << 20


def main() -> None:
    with CovirtEnvironment() as env:
        protection = CovirtConfig.memory_ipi()
        app = (
            Composition("weather")
            .add_component(ComponentSpec(
                "sim", {0: 2}, {0: 2 * GiB}, task_mem_bytes=4 * MiB,
                protection=protection))
            .add_component(ComponentSpec(
                "filter", {1: 1}, {1: GiB}, task_mem_bytes=4 * MiB,
                protection=protection))
            .add_component(ComponentSpec(
                "analytics", {1: 1}, {1: GiB}, task_mem_bytes=MiB,
                protection=protection))
        )
        deployed = app.deploy(env.controller)
        print("placement:", {
            name: f"enclave {p.enclave.enclave_id} "
            f"cores {p.enclave.assignment.core_ids}"
            for name, p in deployed.placements.items()
        })

        # A versioned stream from sim, read independently by both consumers.
        sim = deployed.enclave_of("sim")
        stream = VersionedStream(
            env.mcp, sim, deployed.task_of("sim"), "state", slot_bytes=128 * 1024
        )
        readers = {
            name: StreamReader(
                env.mcp, deployed.enclave_of(name), deployed.task_of(name), "state"
            )
            for name in ("filter", "analytics")
        }

        rng = np.random.default_rng(1)
        state = rng.random(4096)
        latest: dict[str, np.ndarray] = {}
        for step in range(6):
            state = np.convolve(state, [0.25, 0.5, 0.25], mode="same")
            stream.publish(state.astype(np.float32).tobytes())
            for name, reader in readers.items():
                version, payload = reader.read_latest()
                data = np.frombuffer(payload, dtype=np.float32)
                latest[name] = data.copy()  # consumers own their snapshots
                print(f"  step {step}: {name} read v{version} "
                      f"(mean={data.mean():.4f}, std={data.std():.4f})")

        # The simulation goes off the rails.
        print("\nsimulation dereferences a stale pointer...")
        try:
            sim.port.read(sim.assignment.core_ids[0], 60 * GiB, 8)
        except EnclaveFaultError as fault:
            print(f"contained: {fault}")
        print("component states:", deployed.component_states())

        # The MCP severed every dependency on the dead producer: consumers
        # were notified, their mappings revoked — and the snapshots they
        # already consumed remain theirs.
        for note in env.mcp.notifications:
            print(f"  notification → enclave {note.enclave_id}: {note.what}")
        for name, data in latest.items():
            enclave = deployed.enclave_of(name)
            print(f"{name}: enclave {enclave.state.value}, last snapshot intact "
                  f"(mean={data.mean():.4f}, {data.nbytes} bytes)")
        print(f"host alive: {env.host.alive}; torn reads prevented: "
              f"{sum(r.stats.torn_reads_prevented for r in readers.values())}")


if __name__ == "__main__":
    main()
